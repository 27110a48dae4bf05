//! The built-in passes, ported onto the pass-manager trait.
//!
//! Every port calls the `*_module` entry point it names and notes that
//! entry point's stat line, so a pipeline run through the manager prints
//! the same IR and stat lines as the direct calls. Each entry point
//! computes the analyses it uses (loop forests, dominator trees, the
//! call-effects table) itself; `managed_pipelines_are_pinned` in
//! `tests/pipeline_spec.rs` pins the bytes.

use rolag::{roll_module, roll_module_par, DriverOptions, DriverReport, RolagOptions, RolagStats};
use rolag_ir::Module;
use rolag_reroll::reroll_module;
use rolag_transforms::{cleanup_module, cse_module, flatten_module, unroll_module, UnrollOutcome};

use crate::manager::{ModulePass, PassContext};

/// Block-local common-subexpression elimination
/// ([`rolag_transforms::cse_module`]).
pub struct CsePass;

impl ModulePass for CsePass {
    fn name(&self) -> String {
        "cse".into()
    }

    fn run(&self, module: &mut Module, cx: &mut PassContext) {
        let removed = cse_module(module);
        cx.note(format!("cse: {removed} instructions removed"));
    }
}

/// Constant folding + DCE to a fixed point
/// ([`rolag_transforms::cleanup_module`]). Registered as `cleanup`, with
/// `simplify` and `dce` as the legacy-flag aliases.
pub struct CleanupPass {
    name: &'static str,
}

impl CleanupPass {
    /// The canonical `cleanup` pass.
    pub fn new() -> Self {
        CleanupPass { name: "cleanup" }
    }

    /// The same pass under a legacy alias (`simplify` or `dce`).
    pub fn aliased(name: &'static str) -> Self {
        CleanupPass { name }
    }
}

impl Default for CleanupPass {
    fn default() -> Self {
        CleanupPass::new()
    }
}

impl ModulePass for CleanupPass {
    fn name(&self) -> String {
        self.name.into()
    }

    fn run(&self, module: &mut Module, cx: &mut PassContext) {
        let changed = cleanup_module(module);
        cx.note(format!(
            "cleanup: {changed} instructions simplified/removed"
        ));
    }
}

/// Partial unrolling of counted loops
/// ([`rolag_transforms::unroll_module`]).
pub struct UnrollPass {
    /// The unroll factor (≥ 2).
    pub factor: u32,
}

impl ModulePass for UnrollPass {
    fn name(&self) -> String {
        format!("unroll<{}>", self.factor)
    }

    fn run(&self, module: &mut Module, cx: &mut PassContext) {
        let outcomes = unroll_module(module, self.factor);
        let done = outcomes
            .iter()
            .filter(|o| matches!(o, UnrollOutcome::Unrolled { .. }))
            .count();
        cx.note(format!(
            "unroll: {done} of {} loops unrolled by {}",
            outcomes.len(),
            self.factor
        ));
    }
}

/// Loop-nest flattening ([`rolag_transforms::flatten_module`]).
pub struct FlattenPass;

impl ModulePass for FlattenPass {
    fn name(&self) -> String {
        "flatten".into()
    }

    fn run(&self, module: &mut Module, cx: &mut PassContext) {
        let n = flatten_module(module);
        cx.note(format!("flatten: {n} nests flattened"));
    }
}

/// LLVM-style loop rerolling, the paper's baseline
/// ([`rolag_reroll::reroll_module`]).
pub struct RerollPass;

impl ModulePass for RerollPass {
    fn name(&self) -> String {
        "reroll".into()
    }

    fn run(&self, module: &mut Module, cx: &mut PassContext) {
        let s = reroll_module(module);
        cx.note(format!(
            "reroll: {} of {} single-block loops rerolled",
            s.rerolled, s.examined
        ));
    }
}

/// RoLAG loop rolling — the paper's technique — under one options value.
/// With [`PassContext::jobs`] set it runs the parallel memoizing driver
/// ([`roll_module_par`]), otherwise the serial reference
/// ([`roll_module`]); the two print identically.
pub struct RolagPass {
    /// The name the pass reports: `rolag`, `rolag<preset>`, or the
    /// registry alias row it was built from.
    pub name: String,
    /// The options to roll with. The [`PassContext`] target replaces their
    /// target at run time, `--validate-rewrites` forces validation on, and
    /// `--search` replaces their search strategy.
    pub options: RolagOptions,
}

impl ModulePass for RolagPass {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, module: &mut Module, cx: &mut PassContext) {
        let opts = RolagOptions {
            target: cx.target,
            validate: self.options.validate || cx.validate_rewrites,
            search: cx.search.unwrap_or(self.options.search),
            ..self.options.clone()
        };
        // The stat lines are rendered from these records only when they
        // are printed (`rolag_stat_lines`).
        let stats = match cx.jobs {
            Some(n) => {
                let report = roll_module_par(module, &opts, &DriverOptions::scoped(n));
                let stats = report.stats;
                cx.record_driver(report);
                stats
            }
            None => roll_module(module, &opts),
        };
        cx.record_rolag(stats);
    }
}

/// The stat lines of a rolag run, in the legacy drivers' exact format,
/// rendered from the records its [`PassOutcome`](crate::PassOutcome)
/// holds: the driver line when the parallel driver ran, the aggregate
/// statistics, a row per stage timing, and the search counters when a
/// beam explored anything.
pub fn rolag_stat_lines(stats: &RolagStats, driver: Option<&DriverReport>) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(report) = driver {
        out.push(format!(
            "driver: {} functions, {} unique, {} cache hits ({:.1}%), {} workers, {:.2} ms wall",
            report.functions,
            report.unique,
            report.cache_hits,
            100.0 * report.cache_hit_rate(),
            report.jobs,
            report.wall_ns as f64 / 1e6
        ));
    }
    out.push(format!("rolag: {stats}"));
    for (stage, ns) in stats.timings.rows() {
        out.push(format!("  stage {stage:<9} {ns:>12} ns"));
    }
    if stats.search.explored > 0 {
        for (counter, n) in stats.search.rows() {
            out.push(format!("  search {counter:<19} {n:>10}"));
        }
    }
    out
}
