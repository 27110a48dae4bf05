//! The RoLAG pass driver (Fig. 5).
//!
//! For every basic block: collect seed groups, build an alignment graph,
//! run the scheduling analysis, speculatively generate the rolled loop, and
//! keep whichever version the code-size cost model says is smaller. Commits
//! strictly decrease the size estimate, so the pass terminates.
//!
//! The fixpoint runs on an **incremental engine**: after a commit, only the
//! dirty blocks (see [`crate::incremental`]) are re-scanned for candidates,
//! profitability works on per-block size deltas instead of whole-function
//! walks, and reject verdicts are memoized so a failed candidate is not
//! rebuilt on every sweep. The engine is byte-identical and
//! outcome-stats-identical to the retained full-rescan reference
//! ([`roll_function_full_rescan`]), enforced by `tests/incremental_fixpoint.rs`.

use std::time::Instant;

use rolag_ir::{BlockId, Effects, FuncId, Function, GlobalId, Module};
use rolag_transforms::{cleanup_in_place, effects_table};

use crate::align::{build_candidate_graph, AlignGraph};
use crate::codegen::{self, RollOutcome};
use crate::incremental::{
    dirty_closure, measure_affected_blocks, size_affected_blocks, speculated_changed_blocks,
    FunctionCache, MemoEntry, MemoVerdict,
};
use crate::options::RolagOptions;
use crate::schedule::{self, Schedule, ScheduleCache};
use crate::seeds::{collect_block_candidates, collect_candidates, Candidate};
use crate::stats::RolagStats;

/// Runs `f`, adding its wall-clock to `slot`.
pub(crate) fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *slot += start.elapsed().as_nanos() as u64;
    result
}

/// The sweep-boundary function size under the engine's cost regime:
/// the incremental caches in release, cross-checked against a fresh
/// full computation in debug builds — every debug-mode test corpus
/// thereby audits the incremental engine's bookkeeping for free.
fn cached_function_size(
    module: &Module,
    work: &Function,
    opts: &RolagOptions,
    cache: &mut FunctionCache,
) -> u64 {
    if opts.measured_cost {
        let size = cache.sketch.measure(module, work) as u64;
        debug_assert_eq!(
            size,
            rolag_lower::measure_function(module, work) as u64,
            "incremental size sketch diverged from a full lowering"
        );
        size
    } else {
        let size = cache.sizes.function_estimate(opts.target, module, work) as u64;
        debug_assert_eq!(
            size,
            opts.target.function_estimate(module, work) as u64,
            "block size cache diverged from a fresh estimate"
        );
        size
    }
}

/// The full-rescan reference engine's function size: always computed from
/// scratch.
pub(crate) fn fresh_function_size(module: &Module, work: &Function, opts: &RolagOptions) -> u64 {
    if opts.measured_cost {
        rolag_lower::measure_function(module, work) as u64
    } else {
        opts.target.function_estimate(module, work) as u64
    }
}

/// Runs RoLAG on one function. Returns per-function statistics.
///
/// Convenience wrapper around [`roll_function_with`] that snapshots the
/// module's call-effects table itself. When rolling many functions, compute
/// the table once with [`rolag_transforms::effects_table`] and call
/// [`roll_function_with`] directly — the table is loop-invariant (rolling
/// never changes a function's effects annotation).
pub fn roll_function(module: &mut Module, id: FuncId, opts: &RolagOptions) -> RolagStats {
    let effects = effects_table(module);
    roll_function_with(module, id, opts, &effects)
}

/// Runs RoLAG on one function using a pre-computed call-effects table.
///
/// This is the incremental engine: identical decisions and output to
/// [`roll_function_full_rescan`], with per-block caches carrying candidate
/// lists, size estimates, and reject verdicts across fixpoint sweeps.
pub fn roll_function_with(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    // Beam search (width >= 2) runs its own engine; width-1 beams fall
    // through to the greedy body below, which makes `beam:1` byte- and
    // stats-identical to greedy by construction (tests/search_conformance).
    if opts.search.is_beam() {
        return crate::search::search_function_with(module, id, opts, effects);
    }
    let mut stats = RolagStats::default();
    if module.func(id).is_declaration {
        return stats;
    }
    let mut work = module.func(id).clone();
    // At most one more clone per *function* (not per candidate): candidates
    // speculate on `work` in place under a snapshot journal, and the shadow
    // stays byte-identical to the pre-candidate state — the validator's
    // reference and the old side of change tracking and size deltas. A
    // commit syncs it from the journal's log in O(touched). Materialized
    // lazily by the first candidate that reaches codegen, so functions
    // whose candidates never pass the cheap gates stay clone-free — and the
    // post-commit sync is deferred the same way: the commit stashes its log
    // in `pending_log`, and the next codegen-reaching candidate replays it
    // before opening its window. A function whose sweep ends after a commit
    // never pays for the sync at all.
    let mut shadow: Option<Function> = None;
    let mut pending_log: Option<rolag_ir::SpeculationLog> = None;
    let mut cache = FunctionCache::default();

    let cost_start = Instant::now();
    stats.size_before = cached_function_size(module, &work, opts, &mut cache);
    stats.timings.cost_ns += cost_start.elapsed().as_nanos() as u64;
    let mut old_size = stats.size_before;

    loop {
        // Assemble the sweep's candidates: cached per-block lists for clean
        // blocks, fresh collection for dirty or new ones, concatenated in
        // block order — exactly the list `collect_candidates` would build.
        let seeds_start = Instant::now();
        let mut candidates: Vec<Candidate> = Vec::new();
        for b in work.block_ids() {
            if let Some(list) = cache.cands.get(&b) {
                stats.cache.cand_blocks_reused += 1;
                candidates.extend(list.iter().cloned());
            } else {
                stats.cache.cand_blocks_scanned += 1;
                let uses = cache.sched.uses(&work);
                let list = collect_block_candidates(module, &work, uses, b, opts);
                candidates.extend(list.iter().cloned());
                cache.cands.insert(b, list);
            }
        }
        stats.timings.seeds_ns += seeds_start.elapsed().as_nanos() as u64;

        let mut committed = false;
        for cand in candidates {
            stats.attempted += 1;
            // Replay a memoized reject without rebuilding the attempt. The
            // first (executed) attempt already interned its constants and
            // rolled back its globals, so skipping the re-run leaves the
            // module exactly as the reference engine would.
            if let Some(entry) = cache.memo.get(&cand) {
                stats.cache.memo_hits += 1;
                match entry.verdict {
                    MemoVerdict::Schedule => stats.rejected_schedule += 1,
                    MemoVerdict::Unprofitable => {
                        stats.rejected_profit += 1;
                        // The executed attempt validated before the cost
                        // model rejected it; the reference engine re-runs
                        // (and re-validates) it every sweep.
                        if opts.validate {
                            stats.tv_validated += 1;
                        }
                    }
                    MemoVerdict::Validator => stats.tv_rejected += 1,
                }
                continue;
            }
            stats.cache.memo_misses += 1;
            let block = cand.block();
            match try_candidate_incremental(
                module,
                &mut work,
                &mut shadow,
                &mut pending_log,
                &cand,
                opts,
                effects,
                &mut stats,
                old_size,
                &mut cache,
            ) {
                IncrAttempt::Committed {
                    log,
                    kinds,
                    changed,
                    sketch,
                } => {
                    // `work` already holds the committed state; the shadow
                    // still holds the pre-candidate state until the stashed
                    // log is replayed onto it lazily, which is exactly the
                    // old/new pair the dirty closure wants.
                    let shadow = shadow
                        .as_mut()
                        .expect("a committed attempt materialized the shadow");
                    let track_start = Instant::now();
                    let dirty = dirty_closure(shadow, &work, &changed);
                    let sketch_adopted = sketch.is_some();
                    if let Some(s) = sketch {
                        // The attempt's trial sketch is exact for the
                        // committed function; adopt it instead of
                        // re-selecting the changed blocks next sweep. Its
                        // clean-block summaries are Arc-shared with the
                        // sweep sketch, so the carry copies pointers, not
                        // fragment vectors.
                        cache.sketch = s;
                        #[cfg(debug_assertions)]
                        {
                            // Counters are saved around the audit so debug
                            // and release report identical cache stats.
                            let (hits, misses) = (cache.sketch.hits, cache.sketch.misses);
                            let carried = cache.sketch.measure(module, &work);
                            debug_assert_eq!(
                                carried,
                                rolag_lower::measure_function(module, &work),
                                "sketch carried across a commit diverged from a full lowering"
                            );
                            cache.sketch.hits = hits;
                            cache.sketch.misses = misses;
                        }
                    }
                    cache.invalidate(&dirty, work.revision(), sketch_adopted);
                    pending_log = Some(log);
                    stats.timings.track_ns += track_start.elapsed().as_nanos() as u64;
                    stats.rolled += 1;
                    stats.nodes += kinds;
                    committed = true;
                    break;
                }
                // The lane gate is cheaper than a memo lookup; never cached.
                IncrAttempt::LanesRejected => stats.rejected_lanes += 1,
                IncrAttempt::ScheduleRejected => {
                    stats.rejected_schedule += 1;
                    cache.memo.insert(
                        cand,
                        MemoEntry {
                            verdict: MemoVerdict::Schedule,
                            deps: vec![block],
                        },
                    );
                }
                IncrAttempt::Unprofitable { deps } => {
                    stats.rejected_profit += 1;
                    cache.memo.insert(
                        cand,
                        MemoEntry {
                            verdict: MemoVerdict::Unprofitable,
                            deps,
                        },
                    );
                }
                IncrAttempt::ValidatorRejected => {
                    stats.tv_rejected += 1;
                    // The validator reads other blocks only through
                    // def-use edges, the same cross-block inputs as the
                    // scheduling verdict, so the dirty closure covers it.
                    cache.memo.insert(
                        cand,
                        MemoEntry {
                            verdict: MemoVerdict::Validator,
                            deps: vec![block],
                        },
                    );
                }
            }
        }
        if !committed {
            break;
        }
        let cost_start = Instant::now();
        old_size = cached_function_size(module, &work, opts, &mut cache);
        stats.timings.cost_ns += cost_start.elapsed().as_nanos() as u64;
    }

    // `work` did not change since `old_size` was last computed (constant
    // interning during rejected graph builds never alters block content).
    stats.size_after = old_size;
    stats.cache.size_blocks_reused += cache.sizes.hits + cache.sketch.hits;
    stats.cache.size_blocks_computed += cache.sizes.misses + cache.sketch.misses;
    module.replace_func(id, work);
    stats
}

/// Runs RoLAG on one function with the pre-incremental full-rescan loop:
/// every sweep re-collects all candidates and every profitability decision
/// walks the whole function. Retained as the executable specification the
/// incremental engine is tested against; prefer [`roll_function_with`].
pub fn roll_function_full_rescan(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    let mut stats = RolagStats::default();
    if module.func(id).is_declaration {
        return stats;
    }
    let mut work = module.func(id).clone();
    stats.size_before = timed(&mut stats.timings.cost_ns, || {
        fresh_function_size(module, &work, opts)
    });

    loop {
        let candidates = timed(&mut stats.timings.seeds_ns, || {
            collect_candidates(module, &work, opts)
        });
        // `work` is invariant within a sweep, so the profitability baseline
        // is too: compute it once per sweep, not once per candidate.
        let old_size = timed(&mut stats.timings.cost_ns, || {
            fresh_function_size(module, &work, opts)
        });
        let mut committed = false;
        for cand in candidates {
            stats.attempted += 1;
            match try_candidate(
                module, &mut work, &cand, opts, effects, &mut stats, old_size,
            ) {
                Attempt::Committed { func, kinds } => {
                    work = func;
                    stats.rolled += 1;
                    stats.nodes += kinds;
                    committed = true;
                    break;
                }
                Attempt::LanesRejected => stats.rejected_lanes += 1,
                Attempt::ScheduleRejected => stats.rejected_schedule += 1,
                Attempt::ValidatorRejected => stats.tv_rejected += 1,
                Attempt::Unprofitable => stats.rejected_profit += 1,
            }
        }
        if !committed {
            break;
        }
    }

    stats.size_after = timed(&mut stats.timings.cost_ns, || {
        fresh_function_size(module, &work, opts)
    });
    module.replace_func(id, work);
    stats
}

#[allow(clippy::large_enum_variant)] // transient, one per candidate
enum Attempt {
    Committed {
        func: Function,
        kinds: crate::stats::NodeKindCounts,
    },
    LanesRejected,
    ScheduleRejected,
    ValidatorRejected,
    Unprofitable,
}

enum IncrAttempt {
    Committed {
        /// The committed speculation window's touch set: `work` already
        /// holds the new state in place; the caller replays the log onto
        /// the shadow clone.
        log: rolag_ir::SpeculationLog,
        kinds: crate::stats::NodeKindCounts,
        /// Blocks of the pre-candidate state the attempt changed, plus the
        /// attempt's new blocks (the commit's change set, reused for
        /// invalidation).
        changed: Vec<BlockId>,
        /// `measured_cost` only: the trial size sketch, already exact for
        /// the committed state (the commit adopts it wholesale).
        sketch: Option<rolag_lower::SizeSketch>,
    },
    LanesRejected,
    ScheduleRejected,
    ValidatorRejected,
    Unprofitable {
        /// Blocks the profitability verdict depends on.
        deps: Vec<BlockId>,
    },
}

/// Graph build stage, shared by both engines. Builds against the *shared*
/// working function (cheap-reject: no clone yet); interning synthetic
/// constants into it is inert (see [`build_candidate_graph`]).
pub(crate) fn build_graph(
    module: &Module,
    work: &mut Function,
    cand: &Candidate,
    opts: &RolagOptions,
    stats: &mut RolagStats,
) -> Option<AlignGraph> {
    timed(&mut stats.timings.align_ns, || {
        build_candidate_graph(module, work, cand, opts)
    })
}

/// Scheduling stage, shared by every engine. `cache` serves the block's
/// dependences and the use map across a sweep's candidates; the full-rescan
/// reference passes `None` and recomputes them per candidate.
pub(crate) fn analyze_schedule(
    module: &Module,
    work: &Function,
    block: BlockId,
    graph: &AlignGraph,
    cache: Option<&mut ScheduleCache>,
    stats: &mut RolagStats,
) -> Option<Schedule> {
    timed(&mut stats.timings.schedule_ns, || match cache {
        Some(cache) => cache.analyze(module, work, block, graph),
        None => schedule::analyze(module, work, block, graph),
    })
}

/// Why [`generate_and_cleanup`] bailed on an attempt.
enum GenReject {
    /// The code generator refused the schedule.
    Codegen,
    /// The translation validator refused to prove the generated rewrite.
    Validator,
}

/// Builds the untrusted hint packet [`validate_rewrite`] needs: the lane
/// count, the generated block ids, the first rewrite-created global, and
/// the lane every claimed instruction was assigned to.
pub(crate) fn rewrite_hints(
    graph: &AlignGraph,
    block: BlockId,
    outcome: &RollOutcome,
    opts: &RolagOptions,
    before_globals: usize,
) -> rolag_tv::RewriteHints {
    rolag_tv::RewriteHints {
        lanes: graph.lanes,
        block,
        loop_block: outcome.loop_block,
        exit_block: outcome.exit_block,
        first_new_global: before_globals,
        fast_math: opts.fast_math,
        claimed_lanes: graph
            .claimed
            .iter()
            .map(|(&i, &(_, lane))| (i, lane))
            .collect(),
    }
}

/// Codegen + (optional) translation validation + cleanup on the cloned
/// attempt, shared by both engines. Rolls back any globals the generator
/// created before bailing. Validation runs on the raw generated code,
/// before cleanup, so the validator sees exactly what codegen emitted.
#[allow(clippy::too_many_arguments)] // one slot per pipeline stage input
fn generate_and_cleanup(
    module: &mut Module,
    orig: &Function,
    attempt: &mut Function,
    block: BlockId,
    graph: &AlignGraph,
    sched: &Schedule,
    opts: &RolagOptions,
    effects: &[Effects],
    stats: &mut RolagStats,
    before_globals: usize,
) -> Result<RollOutcome, GenReject> {
    let outcome = timed(&mut stats.timings.codegen_ns, || {
        codegen::generate(module, attempt, block, graph, sched)
    });
    let Some(outcome) = outcome else {
        rollback_globals(module, before_globals);
        return Err(GenReject::Codegen);
    };
    if opts.validate {
        let hints = rewrite_hints(graph, block, &outcome, opts, before_globals);
        let verdict = timed(&mut stats.timings.tv_ns, || {
            rolag_tv::validate_rewrite(module, orig, attempt, &hints)
        });
        match verdict {
            Ok(()) => stats.tv_validated += 1,
            Err(_) => {
                rollback_globals(module, before_globals);
                return Err(GenReject::Validator);
            }
        }
    }
    if opts.cleanup {
        timed(&mut stats.timings.cleanup_ns, || {
            cleanup_in_place(attempt, &mut module.types, effects)
        });
    }
    Ok(outcome)
}

fn try_candidate(
    module: &mut Module,
    work: &mut Function,
    cand: &Candidate,
    opts: &RolagOptions,
    effects: &[Effects],
    stats: &mut RolagStats,
    old_size: u64,
) -> Attempt {
    let block = cand.block();

    // Lane gate first: it needs no IR at all, so reject before any work.
    if cand.lanes() < opts.min_lanes {
        return Attempt::LanesRejected;
    }

    // Cheap-reject: graph build and scheduling read the shared working
    // function; the function clone is deferred to scheduling survivors.
    let Some(graph) = build_graph(module, work, cand, opts, stats) else {
        return Attempt::ScheduleRejected;
    };
    let Some(sched) = analyze_schedule(module, work, block, &graph, None, stats) else {
        return Attempt::ScheduleRejected;
    };

    let mut attempt = work.clone();
    let before_globals = module.num_globals();
    let outcome = match generate_and_cleanup(
        module,
        work,
        &mut attempt,
        block,
        &graph,
        &sched,
        opts,
        effects,
        stats,
        before_globals,
    ) {
        Ok(outcome) => outcome,
        Err(GenReject::Codegen) => return Attempt::ScheduleRejected,
        Err(GenReject::Validator) => return Attempt::ValidatorRejected,
    };

    // Profitability (§IV-F): text size plus the constant data the roll
    // added to `.rodata`. The baseline `old_size` comes in from the sweep.
    let profitable = timed(&mut stats.timings.cost_ns, || {
        let rodata: u64 = outcome
            .new_globals
            .iter()
            .map(|&g| module.global_size(g))
            .sum();
        let new_size = fresh_function_size(module, &attempt, opts) + rodata;
        new_size < old_size
    });

    if profitable {
        Attempt::Committed {
            func: attempt,
            kinds: graph.count_kinds(),
        }
    } else {
        rollback_globals(module, before_globals);
        Attempt::Unprofitable
    }
}

/// The incremental engine's candidate attempt: identical stages and
/// decisions to [`try_candidate`], but the speculative rewrite mutates
/// `work` **in place** under a [`rolag_ir::Function::snapshot`] journal —
/// no body clone per candidate — with `shadow` (a clone of the pre-candidate
/// state, maintained by the caller via [`rolag_ir::Function::apply_log`])
/// standing in for the original wherever both versions are needed at once:
/// the translation validator's reference, the old side of the change
/// tracking, and the old-side terms of the size delta. Profitability is a
/// per-block size delta against the sweep's cached estimates, and rejects
/// report the blocks their verdict depends on for memoization.
#[allow(clippy::too_many_arguments)] // mirror of try_candidate + cache
fn try_candidate_incremental(
    module: &mut Module,
    work: &mut Function,
    shadow: &mut Option<Function>,
    pending_log: &mut Option<rolag_ir::SpeculationLog>,
    cand: &Candidate,
    opts: &RolagOptions,
    effects: &[Effects],
    stats: &mut RolagStats,
    old_size: u64,
    cache: &mut FunctionCache,
) -> IncrAttempt {
    let block = cand.block();

    if cand.lanes() < opts.min_lanes {
        return IncrAttempt::LanesRejected;
    }

    let Some(graph) = build_graph(module, work, cand, opts, stats) else {
        return IncrAttempt::ScheduleRejected;
    };
    let Some(sched) = analyze_schedule(module, work, block, &graph, Some(&mut cache.sched), stats)
    else {
        return IncrAttempt::ScheduleRejected;
    };

    // Graph builds intern synthetic constants into the shared `work` —
    // inert, and deliberately persistent across rejected candidates (memo
    // replay relies on it). Materialize the shadow on first use (a fresh
    // clone already carries them); on reuse, catch it up so the two are
    // exact clones when the speculation window opens: replaying a stashed
    // commit log brings over the commit's touches *and* everything interned
    // since (apply_log copies the whole appended value tail), otherwise
    // only the interned constants need absorbing. Rejected candidates roll
    // `work` back in full, so a single pending log always bridges the gap.
    match shadow.as_mut() {
        Some(s) => match pending_log.take() {
            Some(log) => s.apply_log(work, &log),
            None => s.absorb_interned_values(work),
        },
        None => {
            *pending_log = None;
            *shadow = Some(work.clone());
        }
    }
    let shadow = shadow.as_mut().expect("just materialized");
    let num_work_blocks = work.num_blocks();

    let before_globals = module.num_globals();
    let token = work.snapshot();
    let outcome = match generate_and_cleanup(
        module,
        shadow,
        work,
        block,
        &graph,
        &sched,
        opts,
        effects,
        stats,
        before_globals,
    ) {
        Ok(outcome) => outcome,
        Err(GenReject::Codegen) => {
            work.rollback(token);
            return IncrAttempt::ScheduleRejected;
        }
        Err(GenReject::Validator) => {
            work.rollback(token);
            return IncrAttempt::ValidatorRejected;
        }
    };

    // Change tracking: which blocks the attempt rewrote (read off the
    // journal in O(touched)), and which clean blocks the cost regime's
    // one-hop couplings drag in.
    let track_start = Instant::now();
    let changed = speculated_changed_blocks(shadow, work);
    let affected = if opts.measured_cost {
        measure_affected_blocks(shadow, work, &changed)
    } else {
        size_affected_blocks(shadow, work, &changed)
    };
    stats.timings.track_ns += track_start.elapsed().as_nanos() as u64;

    let cost_start = Instant::now();
    let rodata: u64 = outcome
        .new_globals
        .iter()
        .map(|&g| module.global_size(g))
        .sum();
    let (profitable, trial_sketch) = if opts.measured_cost {
        // Measured delta: clone the sweep's sketch, drop exactly the
        // summaries the attempt can have perturbed, and recombine. Clean
        // blocks keep their machine code verbatim; the global spill scan
        // reruns over the recombined intervals, so non-local register
        // pressure effects are priced exactly.
        let mut trial = cache.sketch.clone();
        for &b in changed.iter().chain(affected.iter()) {
            trial.invalidate(b);
        }
        trial.carry_to(work.revision());
        let new_size = trial.measure(module, work) as u64 + rodata;
        (new_size < old_size, Some(trial))
    } else {
        // Estimated delta: `new_size = old_size − Σ old(changed ∪ affected)
        // + Σ new(changed ∪ affected) + rodata`. Blocks outside the two
        // sets have identical content and an unchanged one-hop gep-folding
        // neighbourhood, so their estimates cancel exactly — the sum never
        // walks them. The old-side terms come from the sweep cache against
        // the shadow (sweep-invariant revision, so repeated attempts hit);
        // the new-side terms share one use map of the speculative state.
        let uses = work.compute_uses();
        let mut delta = 0i64;
        for &b in changed.iter().filter(|b| b.index() < num_work_blocks) {
            delta -= cache.sizes.get(opts.target, module, shadow, b) as i64;
        }
        for &b in &affected {
            delta -= cache.sizes.get(opts.target, module, shadow, b) as i64;
        }
        for &b in changed.iter().chain(affected.iter()) {
            stats.cache.size_blocks_computed += 1;
            delta += opts.target.block_estimate_with(module, work, &uses, b) as i64;
        }
        let new_size = (old_size as i64 + delta + rodata as i64) as u64;
        debug_assert_eq!(
            new_size,
            opts.target.function_estimate(module, work) as u64 + rodata,
            "per-block size delta diverged from the full walk"
        );
        (new_size < old_size, None)
    };
    stats.timings.cost_ns += cost_start.elapsed().as_nanos() as u64;

    if profitable {
        let log = work.commit(token);
        IncrAttempt::Committed {
            log,
            kinds: graph.count_kinds(),
            changed,
            sketch: trial_sketch,
        }
    } else {
        work.rollback(token);
        rollback_globals(module, before_globals);
        let deps = if opts.measured_cost {
            // The measured verdict hangs off the *global* spill scan: a
            // content change anywhere in the function can shift register
            // pressure under the attempt. Depend on every block.
            work.block_ids().collect()
        } else {
            // The estimated verdict depends on the candidate block, every
            // pre-existing block the attempt rewrote, and every block
            // whose size fed the delta: `old_size` and the would-be
            // `new_size` shift by the same amount under commits outside
            // these blocks, so the sign of the delta is stable.
            let mut deps = vec![block];
            deps.extend(
                changed
                    .iter()
                    .copied()
                    .filter(|b| b.index() < num_work_blocks && *b != block),
            );
            deps.extend(affected.iter().copied().filter(|b| *b != block));
            deps
        };
        IncrAttempt::Unprofitable { deps }
    }
}

pub(crate) fn rollback_globals(module: &mut Module, keep: usize) {
    while module.num_globals() > keep {
        let last = rolag_ir::GlobalId::from_index(module.num_globals() - 1);
        module.pop_global(last);
    }
}

/// Runs RoLAG on every function of the module, returning aggregate
/// statistics. The call-effects table is computed once and shared across
/// all functions.
pub fn roll_module(module: &mut Module, opts: &RolagOptions) -> RolagStats {
    let effects = effects_table(module);
    roll_module_with(module, opts, &effects)
}

/// [`roll_module`] with a caller-supplied call-effects table, e.g. one
/// served from a pass manager's analysis cache. No registered pass changes
/// a function's effects annotation, so a table computed earlier in the
/// pipeline stays exact.
pub fn roll_module_with(
    module: &mut Module,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut total = RolagStats::default();
    for id in ids {
        total += roll_function_rescued(module, id, opts, effects);
    }
    total
}

/// Runs `engine` on function `id` with per-function panic isolation: if the
/// engine panics, the module is restored to its pre-call state (the
/// original function kept verbatim, speculative globals rolled back) and
/// the returned stats count one `rescued` function. One pathological
/// function thus degrades into a skipped roll instead of killing the whole
/// module run.
pub(crate) fn rescue_panics(
    module: &mut Module,
    id: FuncId,
    engine: impl FnOnce(&mut Module) -> RolagStats,
) -> RolagStats {
    let func_snapshot = module.func(id).clone();
    let globals_snapshot = module.num_globals();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine(module))) {
        Ok(stats) => stats,
        Err(_) => {
            while module.num_globals() > globals_snapshot {
                module.pop_global(GlobalId::from_index(module.num_globals() - 1));
            }
            module.replace_func(id, func_snapshot);
            RolagStats {
                rescued: 1,
                ..Default::default()
            }
        }
    }
}

/// [`roll_function_with`] wrapped in [`rescue_panics`]: an engine panic
/// keeps the original function and counts `rescued` instead of unwinding
/// out of the module driver.
pub fn roll_function_rescued(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    rescue_panics(module, id, |m| roll_function_with(m, id, opts, effects))
}

/// [`roll_module`] on the full-rescan reference engine
/// ([`roll_function_full_rescan`]); used by the equivalence tests and the
/// `fixpoint` bench.
pub fn roll_module_full_rescan(module: &mut Module, opts: &RolagOptions) -> RolagStats {
    let effects = effects_table(module);
    roll_module_full_rescan_with(module, opts, &effects)
}

/// [`roll_module_full_rescan`] with a caller-supplied call-effects table
/// (the full-rescan twin of [`roll_module_with`]).
pub fn roll_module_full_rescan_with(
    module: &mut Module,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut total = RolagStats::default();
    for id in ids {
        total += rescue_panics(module, id, |m| {
            roll_function_full_rescan(m, id, opts, effects)
        });
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::interp::{equivalent, IValue, Interpreter};
    use rolag_ir::parser::parse_module;
    use rolag_ir::verify::verify_module;

    /// Rolls, verifies, and checks behavioural equivalence on the given
    /// entry points/arguments. Returns (module, stats).
    fn roll_and_check(text: &str, runs: &[(&str, Vec<IValue>)]) -> (Module, RolagStats) {
        let orig = parse_module(text).unwrap();
        let mut rolled = orig.clone();
        let opts = RolagOptions::default();
        let stats = roll_module(&mut rolled, &opts);
        verify_module(&rolled).expect("rolled module verifies");
        for (entry, args) in runs {
            let mut ia = Interpreter::new(&orig);
            let mut ib = Interpreter::new(&rolled);
            let oa = ia.run(entry, args).unwrap();
            let ob = ib.run(entry, args).unwrap();
            assert!(
                equivalent(&oa, &ob),
                "behaviour changed for {entry}: {oa:?} vs {ob:?}"
            );
        }
        (rolled, stats)
    }

    #[test]
    fn rolls_long_store_sequence() {
        // 8 stores a[i] = i*7: clearly profitable.
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  ret\n}\n");
        let (m, stats) = roll_and_check(&text, &[("f", vec![])]);
        assert_eq!(stats.rolled, 1);
        assert!(stats.size_after < stats.size_before);
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.num_blocks(), 3, "pre/loop/exit");
        // A committed roll exercises every stage, so every timer ticks.
        assert!(stats.timings.seeds_ns > 0);
        assert!(stats.timings.align_ns > 0);
        assert!(stats.timings.schedule_ns > 0);
        assert!(stats.timings.codegen_ns > 0);
        assert!(stats.timings.cost_ns > 0);
        assert!(stats.timings.cleanup_ns > 0);
        assert!(stats.timings.track_ns > 0);
    }

    /// Regression (BENCH_fixpoint tsvc24 `memo_hit_rate: 0.0`): a
    /// single-block function whose fixpoint commits once legitimately
    /// reports zero memo hits. The commit rewrites the only block, so
    /// every verdict memoized against it dies with the commit's dirty set,
    /// and the verdicts of the final (commit-free) sweep have no later
    /// sweep to replay in. The TSVC kernels are exactly this shape. This
    /// is not a keying bug: a reject in a block untouched by the commit
    /// survives and replays (`rejects_outside_the_commit_replay_from_memo`).
    #[test]
    fn single_commit_single_block_fixpoints_report_zero_memo_hits() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nglobal @t : [2 x i32] = zero\n\
             func @f() -> void {\nentry:\n",
        );
        // One block holding an unprofitable pair and a profitable run of 8:
        // sweep 1 commits the run (larger groups go first), sweep 2 rejects
        // the pair and memoizes a verdict nothing ever reads back.
        text.push_str("  %t0 = gep i32, @t, i64 0\n  store i32 1, %t0\n");
        text.push_str("  %t1 = gep i32, @t, i64 1\n  store i32 8, %t1\n");
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  ret\n}\n");
        let (_, stats) = roll_and_check(&text, &[("f", vec![])]);
        assert_eq!(stats.rolled, 1, "fixture must commit exactly once");
        assert_eq!(
            stats.cache.memo_hits, 0,
            "the commit rewrote the only block; nothing survives to replay"
        );
        assert!(stats.cache.memo_misses > 0, "verdicts were still memoized");
    }

    /// Counterpart: with the directed dirty set, a reject memoized in a
    /// block the commit does not touch survives the commit and is replayed
    /// in the next sweep — the undirected closure used to kill it whenever
    /// the blocks shared any definition chain.
    #[test]
    fn rejects_outside_the_commit_replay_from_memo() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nglobal @t : [2 x i32] = zero\n\
             func @f() -> void {\nentry:\n",
        );
        // The pair lives in its own block, value-disconnected from the run.
        text.push_str("  %t0 = gep i32, @t, i64 0\n  store i32 1, %t0\n");
        text.push_str("  %t1 = gep i32, @t, i64 1\n  store i32 8, %t1\n  br big\nbig:\n");
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  ret\n}\n");
        let (_, stats) = roll_and_check(&text, &[("f", vec![])]);
        assert_eq!(stats.rolled, 1);
        assert!(
            stats.cache.memo_hits > 0,
            "the pair's sweep-1 reject must replay in sweep 2: {:?}",
            stats.cache
        );
    }

    /// Measured-cost mode rolls and the committed output stays behaviourally
    /// correct; the sketch counters surface through the size-cache rows.
    #[test]
    fn measured_cost_mode_rolls_profitably() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  ret\n}\n");
        let orig = parse_module(&text).unwrap();
        let mut rolled = orig.clone();
        let stats = roll_module(&mut rolled, &RolagOptions::measured());
        verify_module(&rolled).expect("rolled module verifies");
        assert_eq!(stats.rolled, 1);
        assert!(
            stats.size_after < stats.size_before,
            "measured sizes must shrink: {} -> {}",
            stats.size_before,
            stats.size_after
        );
        let mut ia = Interpreter::new(&orig);
        let mut ib = Interpreter::new(&rolled);
        let oa = ia.run("f", &[]).unwrap();
        let ob = ib.run("f", &[]).unwrap();
        assert!(equivalent(&oa, &ob));
    }

    /// Measured-cost mode, two profitable rolls in value-disconnected
    /// blocks: the sketch adopted at the first commit must carry the clean
    /// block's summaries into the second commit's sweeps (served as hits,
    /// not re-selected), and the result must stay byte-identical and
    /// outcome-identical to the full-rescan reference.
    #[test]
    fn measured_sketch_carries_across_disjoint_commits() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nglobal @b : [8 x i32] = zero\n\
             func @f() -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  br next\nnext:\n");
        for i in 0..8 {
            text.push_str(&format!("  %h{i} = gep i32, @b, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %h{i}\n", i * 3));
        }
        text.push_str("  ret\n}\n");
        let opts = RolagOptions::measured();

        let mut incremental = parse_module(&text).unwrap();
        let stats = roll_module(&mut incremental, &opts);
        let mut reference = parse_module(&text).unwrap();
        let ref_stats = roll_module_full_rescan(&mut reference, &opts);

        assert_eq!(stats.rolled, 2, "both blocks must roll: {stats:?}");
        assert_eq!(stats, ref_stats, "outcome stats diverged from reference");
        assert_eq!(
            rolag_ir::printer::print_module(&incremental),
            rolag_ir::printer::print_module(&reference),
            "incremental output diverged from full rescan"
        );
        assert!(
            stats.cache.size_blocks_reused > 0,
            "carried sketch summaries must serve measured sizes: {:?}",
            stats.cache
        );
    }

    #[test]
    fn short_sequences_are_unprofitable() {
        let text = r#"
module "t"
global @a : [2 x i32] = zero
func @f() -> void {
entry:
  %g0 = gep i32, @a, i64 0
  store i32 0, %g0
  %g1 = gep i32, @a, i64 1
  store i32 7, %g1
  ret
}
"#;
        let (_, stats) = roll_and_check(text, &[("f", vec![])]);
        assert_eq!(stats.rolled, 0);
        assert!(stats.rejected_profit >= 1);
    }

    /// A roll in one block must not invalidate the cached candidates of
    /// value-disconnected blocks: the second sweep reuses them, and a third
    /// sweep replays memoized verdicts instead of re-running attempts.
    #[test]
    fn caches_survive_commits_in_disconnected_blocks() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nglobal @b : [8 x i32] = zero\n\
             func @f() -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  br next\nnext:\n");
        for i in 0..8 {
            text.push_str(&format!("  %h{i} = gep i32, @b, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %h{i}\n", i * 3));
        }
        text.push_str("  ret\n}\n");
        let (_, stats) = roll_and_check(&text, &[("f", vec![])]);
        assert_eq!(stats.rolled, 2);
        assert!(
            stats.cache.cand_blocks_reused > 0,
            "clean blocks must serve candidates from cache: {:?}",
            stats.cache
        );
        assert!(
            stats.cache.size_blocks_reused > 0,
            "clean blocks must serve sizes from cache: {:?}",
            stats.cache
        );
    }

    /// With validation on, every committed (and cost-rejected) rewrite is
    /// proven by the translation validator, output is byte-identical to a
    /// validation-off run, and the `tv` timer ticks.
    #[test]
    fn validation_gates_every_commit() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  ret\n}\n");

        let mut plain = parse_module(&text).unwrap();
        let plain_stats = roll_module(&mut plain, &RolagOptions::default());

        let mut validated = parse_module(&text).unwrap();
        let stats = roll_module(&mut validated, &RolagOptions::validated());

        assert_eq!(stats.rolled, plain_stats.rolled);
        assert_eq!(stats.tv_rejected, 0, "false reject on a clean roll");
        assert!(stats.tv_validated >= stats.rolled);
        assert!(stats.timings.tv_ns > 0, "validation time was not recorded");
        assert_eq!(
            rolag_ir::printer::print_module(&plain),
            rolag_ir::printer::print_module(&validated),
            "validation must not change the output"
        );
        let shown = stats.to_string();
        assert!(shown.contains("tv 1 validated / 0 rejected"), "{shown}");
    }

    /// A panicking engine must leave the module byte-identical — including
    /// rolling back any globals it speculatively added — and report the
    /// function as rescued rather than unwinding.
    #[test]
    fn rescue_panics_restores_the_module() {
        let text = r#"
module "t"
global @a : [4 x i32] = zero
func @f() -> void {
entry:
  ret
}
"#;
        let mut module = parse_module(text).unwrap();
        let id = module.func_ids().next().unwrap();
        let before = rolag_ir::printer::print_module(&module);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let stats = rescue_panics(&mut module, id, |m| {
            let word = m.types.int(32);
            m.add_global(rolag_ir::GlobalData {
                name: "speculative".into(),
                ty: word,
                init: rolag_ir::GlobalInit::Zero,
                is_const: true,
            });
            panic!("boom");
        });
        std::panic::set_hook(hook);
        assert_eq!(stats.rescued, 1);
        assert_eq!(stats.rolled, 0);
        assert_eq!(rolag_ir::printer::print_module(&module), before);
    }
}
