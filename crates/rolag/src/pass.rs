//! The RoLAG pass driver (Fig. 5).
//!
//! For every basic block: collect seed groups, build an alignment graph,
//! run the scheduling analysis, speculatively generate the rolled loop, and
//! keep whichever version the code-size cost model says is smaller. Commits
//! strictly decrease the size estimate, so the pass terminates.
//!
//! Every candidate runs through the one speculation core (`speculate.rs`);
//! this module is the **greedy policy** over it, which commits the first
//! profitable candidate of each sweep. With a function cache it is the
//! incremental engine: after a commit only the dirty blocks (see
//! `incremental.rs`) are re-scanned for candidates, profitability works on
//! per-block size deltas instead of whole-function walks, and reject
//! verdicts are memoized so a failed candidate is not rebuilt on every
//! sweep. Without one it is the full-rescan reference
//! ([`roll_module_full_rescan`]); the two are byte-identical and
//! outcome-stats-identical, enforced by `tests/incremental_fixpoint.rs`.

use std::collections::hash_map::Entry;
use std::time::Instant;

use rolag_ir::{BlockId, Effects, FuncId, Function, Module};
use rolag_transforms::effects_table;

use crate::incremental::{
    measure_affected_blocks, size_affected_blocks, speculated_changed_blocks, FunctionCache,
    MemoEntry, MemoVerdict,
};
use crate::options::RolagOptions;
use crate::seeds::{collect_block_candidates, collect_candidates, Candidate};
use crate::speculate::{fresh_function_size, rollback_globals, timed, Speculator, Verdict};
use crate::stats::RolagStats;

/// The sweep-boundary function size: fresh without a cache; otherwise from
/// the incremental caches in release, cross-checked against a fresh full
/// computation in debug builds — every debug-mode test corpus thereby
/// audits the incremental engine's bookkeeping for free.
fn function_size(
    module: &Module,
    work: &Function,
    opts: &RolagOptions,
    cache: Option<&mut FunctionCache>,
) -> u64 {
    let Some(cache) = cache else {
        return fresh_function_size(module, work, opts);
    };
    let size = if opts.measured_cost {
        cache.sketch.measure(module, work) as u64
    } else {
        cache.sizes.function_estimate(opts.target, module, work) as u64
    };
    debug_assert_eq!(
        size,
        fresh_function_size(module, work, opts),
        "incremental size caches diverged from a fresh computation"
    );
    size
}

/// Runs RoLAG on one function using a pre-computed call-effects table
/// (compute it once per module with [`rolag_transforms::effects_table`];
/// rolling never changes a function's effects annotation).
///
/// This is the incremental engine: identical decisions and output to the
/// full-rescan reference, with per-block caches carrying candidate lists,
/// size estimates, and reject verdicts across fixpoint sweeps. Beams of
/// width >= 2 run the beam policy instead; `beam:1` stays here, which makes
/// it byte- and stats-identical to greedy by construction.
pub(crate) fn roll_function_with(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    if opts.search.is_beam() {
        return crate::search::search_function(module, id, opts, effects, None);
    }
    roll_greedy(
        module,
        id,
        opts,
        effects,
        Some(&mut FunctionCache::default()),
    )
}

/// The greedy policy over function `id`: the incremental engine with a
/// cache, the full-rescan reference without one.
fn roll_greedy(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    cache: Option<&mut FunctionCache>,
) -> RolagStats {
    let mut stats = RolagStats::default();
    if module.func(id).is_declaration {
        return stats;
    }
    // The body moves into the speculator; its signature stub stays behind
    // for the callers and self-calls the engine reads.
    let mut spec = Speculator::new(id, module.take_func(id));
    greedy(
        module,
        &mut spec,
        opts,
        effects,
        cache,
        usize::MAX,
        &mut stats,
    );
    module.replace_func(id, spec.work);
    stats
}

/// In test builds, the greedy engine panics on a function of this name at
/// its first open window, after codegen minted the window's globals: the
/// injection point of the panic-rescue tests.
#[cfg(test)]
pub(crate) const INJECTED_PANIC: &str = "rolag_test_injected_panic";

/// The greedy fixpoint on `spec.work`: each sweep tries its candidates in
/// order and commits the first profitable one, until a sweep commits
/// nothing or `max_commits` commits were made.
///
/// `Some(cache)` is the incremental engine: per-block candidate lists,
/// memoized rejects, per-block size deltas. `None` is the full-rescan
/// reference: every sweep collects every candidate, every window is priced
/// by sizing the whole function afresh, and nothing is memoized.
pub(crate) fn greedy(
    module: &mut Module,
    spec: &mut Speculator,
    opts: &RolagOptions,
    effects: &[Effects],
    mut cache: Option<&mut FunctionCache>,
    max_commits: usize,
    stats: &mut RolagStats,
) {
    stats.size_before = timed(&mut stats.timings.cost_ns, || {
        function_size(module, &spec.work, opts, cache.as_deref_mut())
    });
    let mut old_size = stats.size_before;
    let mut commits = 0;
    while commits < max_commits {
        let seeds_start = Instant::now();
        let candidates = match cache.as_deref_mut() {
            Some(cache) => sweep_candidates(module, spec, opts, cache, stats),
            None => collect_candidates(module, &spec.work, opts),
        };
        stats.timings.seeds_ns += seeds_start.elapsed().as_nanos() as u64;

        let mut committed = false;
        for cand in candidates {
            stats.attempted += 1;
            if let Some(cache) = cache.as_deref_mut() {
                // Replay a memoized reject without rebuilding the attempt.
                // The executed attempt already interned its constants and
                // rolled back its globals, so skipping the re-run leaves
                // the module exactly as the reference would.
                if let Some(entry) = cache.memo.get(&cand) {
                    stats.cache.memo_hits += 1;
                    match entry.verdict {
                        MemoVerdict::Schedule => stats.rejected_schedule += 1,
                        MemoVerdict::Unprofitable => {
                            stats.rejected_profit += 1;
                            // The executed attempt validated before the
                            // cost model rejected it; the reference re-runs
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
            }
            // The lane gate needs no IR and is never memoized.
            if cand.lanes() < opts.min_lanes {
                stats.rejected_lanes += 1;
                continue;
            }
            let block = cand.block();
            let (verdict, deps) = match spec.speculate(module, &cand, opts, effects, stats, None) {
                Verdict::Schedule => (MemoVerdict::Schedule, vec![block]),
                // The validator reads other blocks only through def-use
                // edges, the same cross-block inputs as the scheduling
                // verdict, so the dirty closure covers it.
                Verdict::Validator => (MemoVerdict::Validator, vec![block]),
                Verdict::Open(window) => {
                    #[cfg(test)]
                    if spec.work.name == INJECTED_PANIC {
                        panic!("injected panic in @{INJECTED_PANIC}");
                    }
                    let delta = price(
                        module,
                        spec,
                        opts,
                        cache.as_deref_mut(),
                        block,
                        old_size,
                        window.rodata,
                        stats,
                    );
                    if delta.new_size >= old_size {
                        spec.rollback(module, window);
                        stats.rejected_profit += 1;
                        (MemoVerdict::Unprofitable, delta.deps)
                    } else {
                        stats.rolled += 1;
                        stats.nodes += window.kinds;
                        spec.commit(window);
                        if let Some(cache) = cache.as_deref_mut() {
                            // The shadow still holds the pre-candidate
                            // state: exactly the old side the dirty
                            // closure wants.
                            timed(&mut stats.timings.track_ns, || {
                                cache.commit(
                                    module,
                                    spec.shadow(),
                                    &spec.work,
                                    &delta.changed,
                                    delta.sketch,
                                )
                            });
                        }
                        committed = true;
                        break;
                    }
                }
            };
            if let Some(cache) = cache.as_deref_mut() {
                cache.memo.insert(cand, MemoEntry { verdict, deps });
            }
        }
        if !committed {
            break;
        }
        commits += 1;
        old_size = timed(&mut stats.timings.cost_ns, || {
            function_size(module, &spec.work, opts, cache.as_deref_mut())
        });
    }

    // `work` did not change since `old_size` was last computed (constant
    // interning during rejected graph builds never alters block content).
    stats.size_after = old_size;
    if let Some(cache) = cache {
        stats.cache.size_blocks_reused += cache.sizes.hits + cache.sketch.hits;
        stats.cache.size_blocks_computed += cache.sizes.misses + cache.sketch.misses;
    }
}

/// The sweep's candidates: cached per-block lists for clean blocks, fresh
/// collection (over the speculator's use map) for dirty or new ones,
/// concatenated in block order — exactly the list `collect_candidates`
/// would build.
fn sweep_candidates(
    module: &Module,
    spec: &mut Speculator,
    opts: &RolagOptions,
    cache: &mut FunctionCache,
    stats: &mut RolagStats,
) -> Vec<Candidate> {
    let mut candidates = Vec::new();
    for b in spec.work.block_ids() {
        let list = match cache.cands.entry(b) {
            Entry::Occupied(hit) => {
                stats.cache.cand_blocks_reused += 1;
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                stats.cache.cand_blocks_scanned += 1;
                let (uses, positions) = spec.sched.indexes(&spec.work);
                miss.insert(collect_block_candidates(
                    module, &spec.work, uses, positions, b, opts,
                ))
            }
        };
        candidates.extend_from_slice(list);
    }
    candidates
}

/// How an open window was priced.
#[derive(Default)]
struct Delta {
    /// Speculated function size plus the rodata the rewrite adds.
    new_size: u64,
    /// Blocks the rewrite changed, new blocks included.
    changed: Vec<BlockId>,
    /// Blocks an `Unprofitable` verdict depends on.
    deps: Vec<BlockId>,
    /// `measured_cost` only: the trial size sketch, already exact for the
    /// speculated state (a commit adopts it wholesale).
    sketch: Option<rolag_lower::SizeSketch>,
}

/// Prices the open window. Without a cache: by sizing the whole function
/// afresh. With one: against the sweep's cached per-block sizes, over the
/// blocks the rewrite changed (read off the journal in O(touched)) plus
/// the clean blocks the cost regime's one-hop couplings drag in.
#[allow(clippy::too_many_arguments)] // one slot per pricing input
fn price(
    module: &Module,
    spec: &Speculator,
    opts: &RolagOptions,
    cache: Option<&mut FunctionCache>,
    block: BlockId,
    old_size: u64,
    rodata: u64,
    stats: &mut RolagStats,
) -> Delta {
    let work = &spec.work;
    let Some(cache) = cache else {
        let new_size = timed(&mut stats.timings.cost_ns, || {
            fresh_function_size(module, work, opts) + rodata
        });
        return Delta {
            new_size,
            ..Delta::default()
        };
    };
    let shadow = spec.shadow();
    let (changed, affected) = timed(&mut stats.timings.track_ns, || {
        let changed = speculated_changed_blocks(shadow, work);
        let affected = if opts.measured_cost {
            measure_affected_blocks(shadow, work, &changed)
        } else {
            size_affected_blocks(shadow, work, &changed)
        };
        (changed, affected)
    });

    let cost_start = Instant::now();
    let old_blocks = shadow.num_blocks();
    let (new_size, sketch) = if opts.measured_cost {
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
        (trial.measure(module, work) as u64 + rodata, Some(trial))
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
        for &b in changed.iter().filter(|b| b.index() < old_blocks) {
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
        (new_size, None)
    };
    stats.timings.cost_ns += cost_start.elapsed().as_nanos() as u64;

    // Only a reject is memoized, so only a reject needs its dependences.
    let deps = if new_size < old_size {
        Vec::new()
    } else if opts.measured_cost {
        // The measured verdict hangs off the *global* spill scan: a content
        // change anywhere in the function can shift register pressure
        // under the attempt. Depend on every block.
        shadow.block_ids().collect()
    } else {
        // The estimated verdict depends on the candidate block, every
        // pre-existing block the attempt rewrote, and every block whose
        // size fed the delta: `old_size` and the would-be `new_size` shift
        // by the same amount under commits outside these blocks, so the
        // sign of the delta is stable.
        let mut deps = vec![block];
        deps.extend(
            changed
                .iter()
                .copied()
                .filter(|b| b.index() < old_blocks && *b != block),
        );
        deps.extend(affected.iter().copied().filter(|b| *b != block));
        deps
    };
    Delta {
        new_size,
        changed,
        deps,
        sketch,
    }
}

/// Runs RoLAG on every function of the module, returning aggregate
/// statistics: the serial reference the parallel driver
/// ([`roll_module_par`](crate::roll_module_par)) must match. The
/// call-effects table is computed once and shared across all functions.
pub fn roll_module(module: &mut Module, opts: &RolagOptions) -> RolagStats {
    roll_each(module, |m, id, effects| {
        roll_function_with(m, id, opts, effects)
    })
}

/// Runs `engine` on every function of the module under [`rescue_panics`],
/// sharing one call-effects table, and sums the statistics. Each function
/// is copied once before its roll, as the pristine body a panic restores.
fn roll_each(
    module: &mut Module,
    engine: impl Fn(&mut Module, FuncId, &[Effects]) -> RolagStats,
) -> RolagStats {
    let effects = effects_table(module);
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut total = RolagStats::default();
    for id in ids {
        let pristine = module.func(id).clone();
        total += rescue_panics(module, id, move || pristine, |m| engine(m, id, &effects));
    }
    total
}

/// Runs `engine` on function `id` with per-function panic isolation: if the
/// engine panics, the module is restored to its pre-call state (function
/// `id` set back to the body `pristine` yields, speculative globals rolled
/// back) and the returned stats count one `rescued` function. One
/// pathological function thus degrades into a skipped roll instead of
/// killing the whole module run. The engine moves the body out of the
/// module while it rolls, so the pristine copy is the caller's: the module
/// driver's is the shared input module, the serial loop's a clone.
pub(crate) fn rescue_panics(
    module: &mut Module,
    id: FuncId,
    pristine: impl FnOnce() -> Function,
    engine: impl FnOnce(&mut Module) -> RolagStats,
) -> RolagStats {
    let globals_before = module.num_globals();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine(module))) {
        Ok(stats) => stats,
        Err(_) => {
            rollback_globals(module, globals_before);
            module.replace_func(id, pristine());
            RolagStats {
                rescued: 1,
                ..Default::default()
            }
        }
    }
}

/// [`roll_module`] on the full-rescan reference: the greedy policy without
/// the incremental caches, which every sweep re-collects all candidates
/// and sizes the whole function afresh. Used by the equivalence tests, the
/// differential oracle and the `fixpoint` bench.
pub fn roll_module_full_rescan(module: &mut Module, opts: &RolagOptions) -> RolagStats {
    roll_each(module, |m, id, effects| {
        roll_greedy(m, id, opts, effects, None)
    })
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
        let pristine = module.func(id).clone();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let stats = rescue_panics(
            &mut module,
            id,
            move || pristine,
            |m| {
                // Like the engine, move the body out before panicking.
                drop(m.take_func(id));
                let word = m.types.int(32);
                m.add_global(rolag_ir::GlobalData {
                    name: "speculative".into(),
                    ty: word,
                    init: rolag_ir::GlobalInit::Zero,
                    is_const: true,
                });
                panic!("boom");
            },
        );
        std::panic::set_hook(hook);
        assert_eq!(stats.rescued, 1);
        assert_eq!(stats.rolled, 0);
        assert_eq!(rolag_ir::printer::print_module(&module), before);
    }
}
