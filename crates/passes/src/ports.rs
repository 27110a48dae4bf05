//! The built-in passes, ported onto the pass-manager traits.
//!
//! Every port wraps (or replicates instruction-for-instruction) the legacy
//! `*_module` entry point it replaces, so a pipeline run through the
//! manager produces byte-identical IR and stat lines to the old
//! hand-rolled drivers. Where a legacy entry point recomputed an analysis
//! the manager caches (unroll's loop forests, cleanup's effects table),
//! the port takes the cached copy instead — the differential tests in
//! `tests/pipeline_spec.rs` pin the equivalence.
//!
//! Preservation contracts (derived from the transform sources; every
//! claim is checked against recomputation by the analysis manager's
//! debug-mode hit checker and by `tests/preserved_contracts.rs`):
//!
//! | pass                    | preserves when it changed something     |
//! |-------------------------|-----------------------------------------|
//! | `cse`                   | dominators, loops, effects table        |
//! | `cleanup`/`simplify`/`dce` | dominators, loops, effects table     |
//! | `unroll`                | dominators, loops, effects table        |
//! | `reroll`                | dominators, loops, effects table        |
//! | `flatten`, `rolag*`     | effects table                           |
//!
//! A pass that changed **nothing** reports [`PreservedAnalyses::all`]:
//! the module is byte-identical, so every cached analysis still describes
//! it.
//!
//! Why the CFG claims hold:
//!
//! * CSE only removes non-terminator instructions — blocks and edges are
//!   untouched.
//! * Cleanup folds non-terminator computations (`fold.rs` never rewrites
//!   branches) and DCE never deletes a terminator. Its unreachable-block
//!   sealing swaps a dead block's terminator for `unreachable`, but the
//!   dominator tree and loop forest are computed from a reachable-only
//!   traversal rooted at the entry: unreachable blocks map to "no idom /
//!   skipped" both before and after sealing, and `find_loops` filters
//!   unreachable predecessors, so both results are bit-identical.
//! * Unroll replicates the loop body *inside* the single loop block and
//!   re-appends the original terminator — same blocks, same edges.
//! * Reroll deletes replica instructions and rewrites operands in place —
//!   again no terminator or block changes.
//! * Flatten rewrites the outer latch's `condbr` into a `br` (a real CFG
//!   edit) and RoLAG splits blocks and introduces back edges, so both
//!   invalidate the CFG analyses whenever they fire.
//!
//! No registered pass adds, removes, or re-annotates function
//! declarations, so the effects table survives everything.

use rolag::{roll_module, roll_module_par, DriverOptions, RolagOptions};
use rolag_analysis::{find_loops, DomTree};
use rolag_ir::{FuncId, Module};
use rolag_reroll::reroll_module;
use rolag_transforms::{
    cleanup_in_place, cse_block, flatten_step, unroll_loops_with, UnrollOutcome,
};

use crate::analysis::{AnalysisKind, AnalysisManager, PreservedAnalyses};
use crate::manager::{FuncResult, FunctionPass, ModulePass, PassContext};

/// The contract of a pass that mutates instructions but never blocks or
/// edges: the CFG-derived analyses and the effects table survive.
fn cfg_preserving() -> PreservedAnalyses {
    PreservedAnalyses::none()
        .preserve(AnalysisKind::Dominators)
        .preserve(AnalysisKind::Loops)
        .preserve(AnalysisKind::EffectsTable)
}

/// `cfg_preserving` when the pass changed something, `all` when the
/// module is untouched (every cached analysis trivially still exact).
fn preserved_for(changed: bool) -> PreservedAnalyses {
    if changed {
        cfg_preserving()
    } else {
        PreservedAnalyses::all()
    }
}

/// Block-local common-subexpression elimination
/// ([`rolag_transforms::cse_module`] per function).
pub struct CsePass;

impl FunctionPass for CsePass {
    fn name(&self) -> String {
        "cse".into()
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        id: FuncId,
        _am: &mut AnalysisManager,
        _cx: &mut PassContext,
    ) -> FuncResult {
        // Same shape as cse_module: detach a clone, CSE block by block
        // against the unmodified module, swap it back in.
        let mut func = module.func(id).clone();
        let mut removed = 0u64;
        for block in func.block_ids().collect::<Vec<_>>() {
            removed += cse_block(module, &mut func, block) as u64;
        }
        module.replace_func(id, func);
        FuncResult {
            preserved: preserved_for(removed > 0),
            changed: removed,
        }
    }

    fn summarize(&self, changed: u64, cx: &mut PassContext) {
        cx.note(format!("cse: {changed} instructions removed"));
    }
}

/// Constant folding + DCE to a fixed point
/// ([`rolag_transforms::cleanup_module`] per function), with the call
/// effects table served from the analysis cache instead of recomputed per
/// invocation. Registered as `cleanup`, with `simplify` and `dce` as the
/// legacy-flag aliases.
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

impl FunctionPass for CleanupPass {
    fn name(&self) -> String {
        self.name.into()
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        id: FuncId,
        am: &mut AnalysisManager,
        _cx: &mut PassContext,
    ) -> FuncResult {
        let effects = am.effects(module);
        let (func, types) = module.func_and_types_mut(id);
        let changed = cleanup_in_place(func, types, &effects) as u64;
        FuncResult {
            preserved: preserved_for(changed > 0),
            changed,
        }
    }

    fn summarize(&self, changed: u64, cx: &mut PassContext) {
        cx.note(format!(
            "cleanup: {changed} instructions simplified/removed"
        ));
    }
}

/// Partial unrolling of counted loops
/// ([`rolag_transforms::unroll_module`]), with the loop forests served
/// from the analysis cache. A module pass rather than a function pass
/// because every function unrolls against one pre-pass module snapshot.
pub struct UnrollPass {
    /// The unroll factor (≥ 2).
    pub factor: u32,
}

impl ModulePass for UnrollPass {
    fn name(&self) -> String {
        format!("unroll<{}>", self.factor)
    }

    fn run(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> PreservedAnalyses {
        let snapshot = module.clone();
        let ids: Vec<FuncId> = module.func_ids().collect();
        let mut outcomes = Vec::new();
        for id in ids {
            if module.func(id).is_declaration {
                continue;
            }
            let loops = am.loops(module, id);
            let (func, types) = module.func_and_types_mut(id);
            outcomes.extend(unroll_loops_with(
                types,
                &snapshot,
                func,
                self.factor,
                &loops,
            ));
        }
        let done = outcomes
            .iter()
            .filter(|o| matches!(o, UnrollOutcome::Unrolled { .. }))
            .count();
        cx.note(format!(
            "unroll: {done} of {} loops unrolled by {}",
            outcomes.len(),
            self.factor
        ));
        // Unrolling replicates the body inside the loop block and re-uses
        // the original terminator, so blocks and edges never change.
        preserved_for(done > 0)
    }
}

/// Loop-nest flattening ([`rolag_transforms::flatten_module`]), with the
/// first dominator tree / loop forest of every function served from the
/// analysis cache. Later fixpoint iterations recompute locally: the
/// function is detached from the module while it mutates, so the shared
/// cache cannot describe the intermediate states.
pub struct FlattenPass;

impl ModulePass for FlattenPass {
    fn name(&self) -> String {
        "flatten".into()
    }

    fn run(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> PreservedAnalyses {
        let ids: Vec<FuncId> = module.func_ids().collect();
        let mut n = 0usize;
        for id in ids {
            if module.func(id).is_declaration {
                continue;
            }
            // Same analysis shape as flatten_function's first iteration,
            // through the cache: the dominator tree feeds the loop-forest
            // computation (or both hit outright when a preserving pass
            // kept them alive).
            let _dom = am.dom(module, id);
            let loops = am.loops(module, id);
            let mut func = module.func(id).clone();
            if flatten_step(module, &mut func, &loops) {
                n += 1;
                loop {
                    let dom = DomTree::compute(&func);
                    let fresh = find_loops(&func, &dom);
                    if !flatten_step(module, &mut func, &fresh) {
                        break;
                    }
                    n += 1;
                }
            }
            module.replace_func(id, func);
        }
        cx.note(format!("flatten: {n} nests flattened"));
        if n == 0 {
            PreservedAnalyses::all()
        } else {
            // Flattening rewrites the outer latch's condbr into a br: a
            // real CFG edit.
            PreservedAnalyses::none().preserve(AnalysisKind::EffectsTable)
        }
    }
}

/// LLVM-style loop rerolling, the paper's baseline
/// ([`rolag_reroll::reroll_module`]).
pub struct RerollPass;

impl ModulePass for RerollPass {
    fn name(&self) -> String {
        "reroll".into()
    }

    fn run(
        &self,
        module: &mut Module,
        _am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> PreservedAnalyses {
        let s = reroll_module(module);
        cx.note(format!(
            "reroll: {} of {} single-block loops rerolled",
            s.rerolled, s.examined
        ));
        // Rerolling deletes replica instructions and rewrites operands in
        // place; terminators and blocks never change.
        preserved_for(s.rerolled > 0)
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

    fn run(
        &self,
        module: &mut Module,
        _am: &mut AnalysisManager,
        cx: &mut PassContext,
    ) -> PreservedAnalyses {
        let opts = RolagOptions {
            target: cx.target,
            validate: self.options.validate || cx.validate_rewrites,
            search: cx.search.unwrap_or(self.options.search),
            ..self.options.clone()
        };
        let stats = match cx.jobs {
            Some(n) => {
                let report = roll_module_par(module, &opts, &DriverOptions::scoped(n));
                cx.note(format!(
                    "driver: {} functions, {} unique, {} cache hits ({:.1}%), {} workers, {:.2} ms wall",
                    report.functions,
                    report.unique,
                    report.cache_hits,
                    100.0 * report.cache_hit_rate(),
                    report.jobs,
                    report.wall_ns as f64 / 1e6
                ));
                let stats = report.stats;
                cx.record_driver(report);
                stats
            }
            None => roll_module(module, &opts),
        };
        cx.note(format!("rolag: {stats}"));
        for (stage, ns) in stats.timings.rows() {
            cx.note(format!("  stage {stage:<9} {ns:>12} ns"));
        }
        if stats.search.explored > 0 {
            for (counter, n) in stats.search.rows() {
                cx.note(format!("  search {counter:<19} {n:>10}"));
            }
        }
        let rolled = stats.rolled;
        cx.record_rolag(stats);
        if rolled == 0 {
            // No commit anywhere: every speculation was journaled and
            // rolled back, globals included, so the module is
            // byte-identical to its pre-pass state.
            PreservedAnalyses::all()
        } else {
            // Commits split blocks and introduce back edges.
            PreservedAnalyses::none().preserve(AnalysisKind::EffectsTable)
        }
    }
}
