//! Pass traits, the pass manager, and its run reports.
//!
//! Two granularities, mirroring LLVM's design:
//!
//! * [`ModulePass`] — runs over the whole module and reports what it
//!   preserved. Whole-module transforms (rolag, unroll) implement this
//!   directly.
//! * [`FunctionPass`] — runs over one definition at a time. The
//!   [`ForEach`] adapter lifts it to a [`ModulePass`] by iterating
//!   definitions in id order, applying each function's
//!   [`PreservedAnalyses`] contract to that function's cache entries
//!   alone, and aggregating a change count for the pass's summary line.
//!
//! The [`PassManager`] threads one [`AnalysisManager`] through the whole
//! pipeline, applies each pass's preservation contract after it runs, and
//! (optionally) verifies the module between passes. Passes never print:
//! human-readable output goes through [`PassContext::note`] or a record
//! ([`PassContext::record_rolag`]) and is handed back in the
//! [`PassOutcome`], so drivers decide what reaches stderr.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rolag::{DriverReport, RolagStats};
use rolag_analysis::TargetKind;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::{FuncId, Module};

use crate::analysis::{AnalysisCacheStats, AnalysisKind, AnalysisManager, PreservedAnalyses};

/// Shared state handed to every pass: target configuration plus the
/// note/stat sinks the manager drains into the pass's [`PassOutcome`].
pub struct PassContext {
    /// Cost-model target, forwarded to passes with profitability models.
    pub target: TargetKind,
    /// Worker count for passes with a parallel driver (`None` = serial).
    pub jobs: Option<usize>,
    /// Force per-rewrite translation validation in every rolag engine run
    /// (the `rolag-opt --validate-rewrites` flag); `tv`-flavoured passes
    /// validate regardless.
    pub validate_rewrites: bool,
    /// Override the search strategy of every rolag engine run (the
    /// `rolag-opt --search` flag); `None` keeps each pass's configured
    /// strategy.
    pub search: Option<rolag::SearchConfig>,
    lines: Vec<String>,
    rolag: Option<RolagStats>,
    driver: Option<DriverReport>,
}

impl PassContext {
    /// A context for `target`, serial execution.
    pub fn new(target: TargetKind) -> Self {
        PassContext {
            target,
            jobs: None,
            validate_rewrites: false,
            search: None,
            lines: Vec::new(),
            rolag: None,
            driver: None,
        }
    }

    /// Records one line of human-readable pass output (a stat line in the
    /// exact format the legacy drivers printed). The manager moves it
    /// into the current [`PassOutcome`].
    ///
    /// A rolag run notes nothing: its lines are rendered from its records
    /// by `ports::rolag_stat_lines`, only when they are printed.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records the rolling statistics of a rolag engine run.
    pub fn record_rolag(&mut self, stats: RolagStats) {
        self.rolag = Some(stats);
    }

    /// Records the report of the parallel memoizing driver.
    pub fn record_driver(&mut self, report: DriverReport) {
        self.driver = Some(report);
    }

    fn drain(&mut self) -> (Vec<String>, Option<RolagStats>, Option<DriverReport>) {
        (
            std::mem::take(&mut self.lines),
            self.rolag.take(),
            self.driver.take(),
        )
    }
}

/// A transform over a whole module.
pub trait ModulePass {
    /// Display name, e.g. `unroll<4>`.
    fn name(&self) -> String;
    /// Runs the pass and reports which cached analyses it kept valid.
    fn run(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> PreservedAnalyses;
}

/// What one [`FunctionPass`] application reports back.
pub struct FuncResult {
    /// Analyses still valid for this function (and any other state the
    /// pass touched).
    pub preserved: PreservedAnalyses,
    /// Units of change (instructions removed, loops transformed, …) —
    /// summed across functions and handed to
    /// [`FunctionPass::summarize`].
    pub changed: u64,
}

/// A transform over one function definition at a time.
pub trait FunctionPass {
    /// Display name.
    fn name(&self) -> String;
    /// Transforms the definition `id`. Declarations are never passed in.
    fn run_on_function(
        &self,
        module: &mut Module,
        id: FuncId,
        am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> FuncResult;
    /// Emits the pass's module-level summary line from the aggregated
    /// change count. Default: no output.
    fn summarize(&self, changed: u64, cx: &mut PassContext) {
        let _ = (changed, cx);
    }
}

/// Lifts a [`FunctionPass`] to a [`ModulePass`]: definitions in id order,
/// each function's preserved set applied to its own cache entries via
/// [`AnalysisManager::invalidate_function`] (so one changed function does
/// not drop its neighbours' cached analyses), change counts summed into
/// one summary.
pub struct ForEach<P>(pub P);

impl<P: FunctionPass> ModulePass for ForEach<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn run(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> PreservedAnalyses {
        let ids: Vec<FuncId> = module.func_ids().collect();
        let mut effects_preserved = true;
        let mut changed = 0u64;
        for id in ids {
            if module.func(id).is_declaration {
                continue;
            }
            let result = self.0.run_on_function(module, id, am, cx);
            // A function pass only mutates the definition it was handed,
            // so its contract binds that function alone: apply it right
            // here, per function, instead of intersecting into one
            // module-wide set. One changed function must not flush its
            // neighbours' caches.
            am.invalidate_function(module, id, &result.preserved);
            effects_preserved &= result.preserved.preserves(AnalysisKind::EffectsTable);
            changed += result.changed;
        }
        self.0.summarize(changed, cx);
        // Per-function kinds are settled above, so report them preserved —
        // the manager's module-wide sweep must not drop the entries that
        // survived. The effects table is module-wide: it survives only if
        // every function's run preserved it.
        let mut preserved = PreservedAnalyses::none()
            .preserve(AnalysisKind::Dominators)
            .preserve(AnalysisKind::Loops);
        if effects_preserved {
            preserved = preserved.preserve(AnalysisKind::EffectsTable);
        }
        preserved
    }
}

/// Manager knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassManagerOptions {
    /// Verify the module after every pass; a failure aborts the pipeline
    /// with a [`PassError`] naming the offending pass.
    pub verify_each: bool,
    /// Track whether each pass changed the module (by structural hash of
    /// the printed IR) and capture the post-pass IR text when it did.
    pub print_changed: bool,
}

/// Everything recorded about one executed pass.
#[derive(Debug)]
pub struct PassOutcome {
    /// The pass's display name.
    pub name: String,
    /// Wall-clock nanoseconds spent inside the pass (always recorded;
    /// `--time-passes` is purely a presentation flag in the drivers).
    pub wall_ns: u128,
    /// Stat lines the pass emitted via [`PassContext::note`], in the
    /// legacy drivers' exact format. A rolag pass's lines are rendered
    /// from the records below (`ports::rolag_stat_lines`).
    pub lines: Vec<String>,
    /// Rolling statistics, for rolag passes.
    pub rolag: Option<RolagStats>,
    /// Parallel-driver report, for rolag passes run with `jobs`.
    pub driver: Option<DriverReport>,
    /// Whether the printed module changed across the pass. Only tracked
    /// under [`PassManagerOptions::print_changed`].
    pub changed: Option<bool>,
    /// The post-pass IR text, captured when `print_changed` is on and the
    /// pass changed the module.
    pub ir_after: Option<String>,
}

/// The result of a full pipeline run.
#[derive(Debug)]
pub struct RunReport {
    /// One entry per executed pass, in order.
    pub outcomes: Vec<PassOutcome>,
    /// Snapshot of the analysis manager's cumulative hit/miss counters
    /// after the run.
    pub cache: AnalysisCacheStats,
}

/// A pipeline aborted by inter-pass verification.
#[derive(Debug)]
pub struct PassError {
    /// Name of the pass after which verification failed.
    pub pass: String,
    /// Zero-based position of that pass in the pipeline.
    pub index: usize,
    /// The verifier's diagnostics.
    pub errors: Vec<String>,
    /// Outcomes of the passes that completed before the failure,
    /// including the offending pass — so drivers can still print the stat
    /// lines that legacy pipelines would have emitted before dying.
    pub completed: Vec<PassOutcome>,
}

/// Hash of the printed module text — the same structural identity the
/// differential oracle uses for byte-equality checks.
pub fn structural_hash(module: &Module) -> u64 {
    let mut h = DefaultHasher::new();
    print_module(module).hash(&mut h);
    h.finish()
}

/// An ordered pipeline of module passes sharing one analysis manager.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn ModulePass>>,
    /// Verification / change-tracking knobs.
    pub options: PassManagerOptions,
}

impl PassManager {
    /// An empty manager with default options.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// An empty manager with the given options.
    pub fn with_options(options: PassManagerOptions) -> Self {
        PassManager {
            passes: Vec::new(),
            options,
        }
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: Box<dyn ModulePass>) {
        self.passes.push(pass);
    }

    /// Appends every pass in `passes` (the shape the registry builds).
    pub fn add_all(&mut self, passes: Vec<Box<dyn ModulePass>>) {
        self.passes.extend(passes);
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs the pipeline over `module`. After each pass the analysis
    /// manager applies the pass's preservation contract; under
    /// `verify_each` the module is verified and a failure aborts with
    /// [`PassError`].
    pub fn run(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> Result<RunReport, PassError> {
        let mut outcomes = Vec::with_capacity(self.passes.len());
        for (index, pass) in self.passes.iter().enumerate() {
            let before_hash = self.options.print_changed.then(|| structural_hash(module));
            let start = Instant::now();
            let preserved = pass.run(module, am, cx);
            let wall_ns = start.elapsed().as_nanos();
            am.invalidate(module, &preserved);

            let (lines, rolag, driver) = cx.drain();
            let mut changed = None;
            let mut ir_after = None;
            if let Some(before) = before_hash {
                let text = print_module(module);
                let mut h = DefaultHasher::new();
                text.hash(&mut h);
                let is_changed = h.finish() != before;
                changed = Some(is_changed);
                if is_changed {
                    ir_after = Some(text);
                }
            }
            outcomes.push(PassOutcome {
                name: pass.name(),
                wall_ns,
                lines,
                rolag,
                driver,
                changed,
                ir_after,
            });

            if self.options.verify_each {
                if let Err(errors) = verify_module(module) {
                    return Err(PassError {
                        pass: pass.name(),
                        index,
                        errors: errors.iter().map(|e| e.to_string()).collect(),
                        completed: outcomes,
                    });
                }
            }
        }
        Ok(RunReport {
            outcomes,
            cache: am.stats,
        })
    }
}
