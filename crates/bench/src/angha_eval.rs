//! AnghaBench evaluation driver (§V-A, Figs. 15–16).

use rolag::{roll_module, NodeKindCounts, RolagOptions, StageTimings};
use rolag_lower::measure_module;
use rolag_reroll::reroll_module;
use rolag_suites::angha::{generate, AnghaConfig, PatternKind};

/// Per-function evaluation result.
#[derive(Debug, Clone)]
pub struct AnghaRow {
    /// Function name.
    pub name: String,
    /// Pattern family the generator used.
    pub kind: PatternKind,
    /// Measured size before (text + rodata).
    pub base: u64,
    /// Measured size after RoLAG.
    pub rolag: u64,
    /// Loops rolled.
    pub rolled: u64,
    /// Loops LLVM-style rerolling touched (expected ≈ 0: there are no
    /// partially unrolled loops in straight-line functions).
    pub llvm_rerolled: u64,
    /// Node kinds of profitable graphs.
    pub nodes: NodeKindCounts,
    /// Per-stage wall-clock breakdown of the RoLAG run.
    pub timings: StageTimings,
}

impl AnghaRow {
    /// Percentage reduction achieved by RoLAG.
    pub fn reduction(&self) -> f64 {
        if self.base == 0 {
            return 0.0;
        }
        100.0 * (self.base as f64 - self.rolag as f64) / self.base as f64
    }

    /// "Visibly affected" in the paper's sense: the object changed.
    pub fn affected(&self) -> bool {
        self.rolled > 0 || self.base != self.rolag
    }
}

/// Runs both techniques over the corpus (in parallel).
pub fn evaluate_angha(config: &AnghaConfig, opts: &RolagOptions) -> Vec<AnghaRow> {
    let corpus = generate(config);
    crate::parallel::par_map(corpus.entries, |(name, kind, module)| {
        let (name, kind, module) = (name.clone(), *kind, module.clone());
        {
            let base = measure_module(&module).code_footprint();

            let mut llvm_m = module.clone();
            let llvm_stats = reroll_module(&mut llvm_m);

            let mut rolag_m = module;
            let stats = roll_module(&mut rolag_m, opts);
            let rolag = measure_module(&rolag_m).code_footprint();

            AnghaRow {
                name,
                kind,
                base,
                rolag,
                rolled: stats.rolled,
                llvm_rerolled: llvm_stats.rerolled,
                nodes: stats.nodes,
                timings: stats.timings,
            }
        }
    })
}

/// Aggregates matching §V-A's headline numbers.
#[derive(Debug, Clone, Copy)]
pub struct AnghaSummary {
    /// Total functions evaluated.
    pub functions: usize,
    /// Functions visibly affected by RoLAG.
    pub affected: usize,
    /// Functions LLVM's rerolling affected.
    pub llvm_affected: usize,
    /// Mean reduction % over affected functions (the paper reports 9.12%).
    pub mean_reduction_affected: f64,
    /// Best single-function reduction %.
    pub best_reduction: f64,
    /// Worst (most negative) single-function reduction %.
    pub worst_reduction: f64,
}

/// Computes the aggregates.
pub fn summarize(rows: &[AnghaRow]) -> AnghaSummary {
    let affected: Vec<&AnghaRow> = rows.iter().filter(|r| r.affected()).collect();
    let n = affected.len().max(1) as f64;
    AnghaSummary {
        functions: rows.len(),
        affected: affected.len(),
        llvm_affected: rows.iter().filter(|r| r.llvm_rerolled > 0).count(),
        mean_reduction_affected: affected.iter().map(|r| r.reduction()).sum::<f64>() / n,
        best_reduction: affected
            .iter()
            .map(|r| r.reduction())
            .fold(f64::NEG_INFINITY, f64::max),
        worst_reduction: affected
            .iter()
            .map(|r| r.reduction())
            .fold(f64::INFINITY, f64::min),
    }
}
