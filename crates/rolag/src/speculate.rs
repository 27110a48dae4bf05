//! The speculation core every engine policy runs its candidates through
//! (Fig. 5): build the alignment graph, schedule it, generate the rolled
//! loop, validate the rewrite (when `RolagOptions::validate` asks), and
//! clean it up — all in place on the working function under a
//! [`rolag_ir::Function::snapshot`] journal, never on a clone.
//!
//! A candidate that survives comes back as an open [`Window`]: its rewrite
//! is live in [`Speculator::work`] and its globals in the module until the
//! policy prices it and either commits or rolls it back. The greedy policy
//! ([`crate::pass`]) and the beam policy ([`crate::search`]) differ only in
//! which candidates they try and what they keep.

use std::time::Instant;

use rolag_ir::{
    BlockId, Effects, FuncId, Function, GlobalId, Module, SnapshotToken, SpeculationLog,
};
use rolag_transforms::cleanup_in_place;
use rolag_tv::RewriteHints;

use crate::align::{build_candidate_graph, AlignGraph, DotInfo};
use crate::codegen::{self, RollOutcome};
use crate::options::RolagOptions;
use crate::schedule::ScheduleCache;
use crate::search::{RejectedSpeculation, SearchAudit};
use crate::seeds::{collect_in_block, Candidate};
use crate::stats::{NodeKindCounts, RolagStats};

/// Runs `f`, adding its wall-clock to `slot`.
pub(crate) fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *slot += start.elapsed().as_nanos() as u64;
    result
}

/// The function's size under the options' cost regime, computed from
/// scratch.
pub(crate) fn fresh_function_size(module: &Module, work: &Function, opts: &RolagOptions) -> u64 {
    if opts.measured_cost {
        rolag_lower::measure_function(module, work) as u64
    } else {
        opts.target.function_estimate(module, work) as u64
    }
}

/// Pops every global past the first `keep`.
pub(crate) fn rollback_globals(module: &mut Module, keep: usize) {
    while module.num_globals() > keep {
        module.pop_global(GlobalId::from_index(module.num_globals() - 1));
    }
}

/// What the validator is told about the rewrite codegen made of `block`
/// from `graph`; `base_globals` is the module's global count before it.
pub(crate) fn rewrite_hints(
    graph: &AlignGraph,
    block: BlockId,
    outcome: &RollOutcome,
    base_globals: usize,
    opts: &RolagOptions,
) -> RewriteHints {
    RewriteHints {
        lanes: graph.lanes,
        block,
        loop_block: outcome.loop_block,
        exit_block: outcome.exit_block,
        first_new_global: base_globals,
        fast_math: opts.fast_math,
        claimed_lanes: graph
            .claimed
            .iter()
            .map(|(&i, &(_, lane))| (i, lane))
            .collect(),
    }
}

/// An open speculation window: the candidate's validated, cleaned-up
/// rewrite is live in the working function and its globals in the module
/// until the window is committed or rolled back.
#[must_use]
pub(crate) struct Window {
    token: SnapshotToken,
    /// The module's global count before the rewrite appended its own.
    pub base_globals: usize,
    /// Node-kind counts of the candidate's alignment graph.
    pub kinds: NodeKindCounts,
    /// Constant data the rewrite added to `.rodata`.
    pub rodata: u64,
}

/// How [`Speculator::speculate`] left a candidate. Rejects are already
/// counted (`rejected_schedule`, `tv_rejected`) and rolled back.
pub(crate) enum Verdict {
    /// The graph build, the scheduling analysis or the code generator
    /// refused the candidate.
    Schedule,
    /// The translation validator refused to prove the rewrite.
    Validator,
    /// The rewrite is live; price it, then commit or roll it back.
    Open(Window),
}

/// One function's speculation state: the working function, the
/// validator's copy of its pre-candidate state, and the scheduling cache of
/// its current revision.
///
/// Every candidate of one speculator must run under the same
/// `RolagOptions::validate`: the shadow is kept in step only while it is
/// set.
pub(crate) struct Speculator {
    id: FuncId,
    /// The function being rolled; committed rewrites accumulate here.
    pub work: Function,
    /// Under `RolagOptions::validate` only: a clone of `work`'s
    /// pre-candidate state once a candidate reached codegen, the
    /// validator's reference. Materialized lazily, so functions whose
    /// candidates never pass the cheap gates stay clone-free.
    shadow: Option<Function>,
    /// The last commit's log, replayed onto the shadow by the next
    /// candidate that reaches codegen; a function whose fixpoint ends after
    /// a commit never pays for the sync. Stashed only while a shadow
    /// exists.
    pending: Option<SpeculationLog>,
    /// Block dependences, the use map and the instruction positions of
    /// `work`'s current revision, shared by seed collection, the scheduling
    /// analysis and code generation.
    sched: ScheduleCache,
}

impl Speculator {
    /// A speculator over `work`, the current body of function `id`.
    pub fn new(id: FuncId, work: Function) -> Self {
        Speculator {
            id,
            work,
            shadow: None,
            pending: None,
            sched: ScheduleCache::default(),
        }
    }

    /// The rolling candidates of every block of `work`, in block order,
    /// collected over the use map and positions the scheduling cache holds
    /// for the current revision. That map may predate constants interned
    /// since (graph builds intern without bumping the revision); collection
    /// only asks about instruction results, which all existed when it was
    /// computed.
    pub fn candidates(&mut self, module: &Module, opts: &RolagOptions) -> Vec<Candidate> {
        let (uses, positions) = self.sched.indexes(&self.work);
        let mut out = Vec::new();
        for block in self.work.block_ids() {
            collect_in_block(module, &self.work, uses, positions, block, opts, &mut out);
        }
        out
    }

    /// Runs one candidate through graph → schedule → codegen → validate →
    /// cleanup on `work`'s journal. `audit` captures validator rejects.
    pub fn speculate(
        &mut self,
        module: &mut Module,
        cand: &Candidate,
        opts: &RolagOptions,
        effects: &[Effects],
        stats: &mut RolagStats,
        audit: Option<&mut SearchAudit>,
    ) -> Verdict {
        let block = cand.block();
        // Graph builds intern synthetic constants into `work` — inert, and
        // deliberately persistent across rejected candidates (memo replay
        // relies on it).
        let graph = timed(&mut stats.timings.align_ns, || {
            build_candidate_graph(module, &mut self.work, cand, opts)
        });
        let Some(graph) = graph else {
            stats.rejected_schedule += 1;
            return Verdict::Schedule;
        };
        let sched = timed(&mut stats.timings.schedule_ns, || {
            self.sched.analyze(module, &self.work, block, &graph)
        });
        let Some(sched) = sched else {
            stats.rejected_schedule += 1;
            return Verdict::Schedule;
        };

        // Catch the validator's shadow up so it is an exact clone when the
        // window opens: a stashed commit log brings over the commit's
        // touches and everything interned since (apply_log copies the whole
        // appended value tail), otherwise only the interned constants are
        // missing. Rejects roll `work` back in full, so one pending log
        // always bridges the gap.
        if opts.validate {
            let pending = self.pending.take();
            match self.shadow.as_mut() {
                Some(s) => match pending {
                    Some(log) => s.apply_log(&self.work, &log),
                    None => s.absorb_interned_values(&self.work),
                },
                None => self.shadow = Some(self.work.clone()),
            }
        }

        let base_globals = module.num_globals();
        let token = self.work.snapshot();
        let (uses, _) = self.sched.indexes(&self.work);
        let outcome = timed(&mut stats.timings.codegen_ns, || {
            codegen::generate(module, &mut self.work, block, &graph, &sched, uses)
        });
        let Some(outcome) = outcome else {
            self.work.rollback(token);
            rollback_globals(module, base_globals);
            stats.rejected_schedule += 1;
            return Verdict::Schedule;
        };

        // Validation runs on the raw generated code, before cleanup, so the
        // validator sees exactly what codegen emitted.
        if opts.validate {
            let shadow = self.shadow.as_ref().expect("materialized above");
            let hints = rewrite_hints(&graph, block, &outcome, base_globals, opts);
            let verdict = timed(&mut stats.timings.tv_ns, || {
                rolag_tv::validate_rewrite(module, shadow, &self.work, &hints)
            });
            if let Err(why) = verdict {
                stats.tv_rejected += 1;
                if let Some(audit) = audit {
                    // Print while the speculative globals are still live,
                    // so the rejected rewrite can be interpreted.
                    let mut before = module.clone();
                    before.replace_func(self.id, shadow.clone());
                    let mut after = module.clone();
                    after.replace_func(self.id, self.work.clone());
                    let info = DotInfo {
                        score: Some(fresh_function_size(module, &self.work, opts)),
                        verdict: Some(why.to_string()),
                    };
                    audit.rejects.push(RejectedSpeculation {
                        func: shadow.name.clone(),
                        before: rolag_ir::printer::print_module(&before),
                        after: rolag_ir::printer::print_module(&after),
                        dot: graph.to_dot_with(&info),
                    });
                }
                self.work.rollback(token);
                rollback_globals(module, base_globals);
                return Verdict::Validator;
            }
            stats.tv_validated += 1;
        }

        if opts.cleanup {
            timed(&mut stats.timings.cleanup_ns, || {
                cleanup_in_place(&mut self.work, &mut module.types, effects)
            });
        }
        let rodata = outcome
            .new_globals
            .iter()
            .map(|&g| module.global_size(g))
            .sum();
        Verdict::Open(Window {
            token,
            base_globals,
            kinds: graph.count_kinds(),
            rodata,
        })
    }

    /// Keeps the window's rewrite. A validator's shadow still holds the
    /// pre-candidate state and catches up from the stashed log at the next
    /// candidate that reaches codegen.
    pub fn commit(&mut self, window: Window) {
        let log = self.work.commit(window.token);
        if self.shadow.is_some() {
            self.pending = Some(log);
        }
    }

    /// Discards the window's rewrite: the function and the globals return
    /// to the pre-speculation state (up to inert interned constants).
    pub fn rollback(&mut self, module: &mut Module, window: Window) {
        self.work.rollback(window.token);
        rollback_globals(module, window.base_globals);
    }

    /// Replaces the working function with `func`, e.g. a beam winner
    /// captured from an open window, and drops the stale shadow.
    pub fn install(&mut self, func: Function) {
        self.work = func;
        self.shadow = None;
        self.pending = None;
    }
}
