//! The pass trait, the pass manager, and its run reports.
//!
//! Every pass is a [`ModulePass`]: it runs over the whole module and
//! computes whatever analyses it needs itself. The [`PassManager`] runs
//! the passes in order, times each one, and (optionally) verifies the
//! module between passes and records which passes changed it.
//!
//! Passes never print: human-readable output goes through
//! [`PassContext::note`] or a record ([`PassContext::record_rolag`]) and
//! is handed back in the [`PassOutcome`], so drivers decide what reaches
//! stderr.

use std::time::Instant;

use rolag::{DriverReport, RolagStats};
use rolag_analysis::TargetKind;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::Module;

use crate::analysis::AnalysisManager;

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
    /// Runs the pass. Stat lines and records go through `cx`.
    fn run(&self, module: &mut Module, cx: &mut PassContext);
}

/// Manager knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassManagerOptions {
    /// Verify the module after every pass; a failure aborts the pipeline
    /// with a [`PassError`] naming the offending pass.
    pub verify_each: bool,
    /// Track whether each pass changed the module (by comparing the
    /// printed IR before and after it) and capture the post-pass IR text
    /// when it did.
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

/// An ordered pipeline of module passes.
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

    /// Runs the pipeline over `module`. Under `verify_each` the module is
    /// verified after each pass and a failure aborts with [`PassError`].
    /// The [`AnalysisManager`] holds nothing; it stays in the signature
    /// for the drivers that pass one.
    pub fn run(
        &self,
        module: &mut Module,
        _am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> Result<RunReport, PassError> {
        let mut outcomes = Vec::with_capacity(self.passes.len());
        for (index, pass) in self.passes.iter().enumerate() {
            let before = self.options.print_changed.then(|| print_module(module));
            let start = Instant::now();
            pass.run(module, cx);
            let wall_ns = start.elapsed().as_nanos();

            let (lines, rolag, driver) = cx.drain();
            let mut changed = None;
            let mut ir_after = None;
            if let Some(before) = before {
                let text = print_module(module);
                let is_changed = text != before;
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
        Ok(RunReport { outcomes })
    }
}
