//! Full-program evaluation driver (Table I: MiBench + SPEC CPU 2017).

use rolag::{roll_module_par, DriverOptions, RolagOptions, StageTimings};
use rolag_lower::measure_module;
use rolag_reroll::reroll_module;
use rolag_suites::programs::{build_program, ProgramSpec, TABLE1};

/// One evaluated Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Suite label.
    pub suite: &'static str,
    /// Program name.
    pub name: &'static str,
    /// Measured program size in KB.
    pub binary_kb: f64,
    /// Size reduction in KB (positive = smaller binary).
    pub reduction_kb: f64,
    /// Size reduction in percent.
    pub reduction_pct: f64,
    /// Loops RoLAG rolled.
    pub rolled_loops: u64,
    /// Loops LLVM's rerolling touched (the paper: never triggered).
    pub llvm_rerolled: u64,
    /// Function definitions in the program.
    pub functions: usize,
    /// Structurally distinct definitions the driver actually rolled.
    pub unique: usize,
    /// Definitions served from the memoization cache.
    pub cache_hits: u64,
    /// Per-stage wall-clock breakdown of the RoLAG run.
    pub timings: StageTimings,
}

impl Table1Row {
    /// Fraction of definitions served from the cache, in `0.0..=1.0`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.functions == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.functions as f64
    }
}

/// Evaluates one program at the given scale.
///
/// Full programs are multi-function modules, so this goes through the
/// memoizing driver (`jobs: 1` — the table already runs programs in
/// parallel, so per-module fan-out would only oversubscribe cores).
pub fn evaluate_program(
    spec: &ProgramSpec,
    seed: u64,
    scale: f64,
    opts: &RolagOptions,
) -> Table1Row {
    let module = build_program(spec, seed, scale);
    let base = measure_module(&module).code_footprint();

    let mut llvm_m = module.clone();
    let llvm_stats = reroll_module(&mut llvm_m);

    let mut rolag_m = module;
    let report = roll_module_par(&mut rolag_m, opts, &DriverOptions::scoped(1));
    let after = measure_module(&rolag_m).code_footprint();

    let reduction = base as f64 - after as f64;
    Table1Row {
        suite: spec.suite,
        name: spec.name,
        binary_kb: base as f64 / 1024.0,
        reduction_kb: reduction / 1024.0,
        reduction_pct: if base > 0 {
            100.0 * reduction / base as f64
        } else {
            0.0
        },
        rolled_loops: report.stats.rolled,
        llvm_rerolled: llvm_stats.rerolled,
        functions: report.functions,
        unique: report.unique,
        cache_hits: report.cache_hits,
        timings: report.stats.timings,
    }
}

/// Evaluates the whole table (programs in parallel).
pub fn evaluate_table1(seed: u64, scale: f64, opts: &RolagOptions) -> Vec<Table1Row> {
    crate::parallel::par_map(TABLE1.to_vec(), |spec| {
        evaluate_program(spec, seed, scale, opts)
    })
}
