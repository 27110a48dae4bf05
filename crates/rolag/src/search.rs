//! Validator-gated beam search over rolling alignments (ROADMAP item 5).
//!
//! The paper's engine is greedy: one seed grouping per region, first
//! profitable candidate wins. This module drives a bounded beam over
//! *alternative* alignment choices — the base groupings plus the
//! permutations, splits, and trims enumerated by
//! [`crate::seeds::candidate_variants`] — and lets verification, not
//! conservatism, guarantee safety: every speculated candidate is gated
//! through the `rolag-tv` translation validator before the cost model may
//! shortlist it, regardless of `RolagOptions::validate`.
//!
//! Shape of one fixpoint step (width `k`, rollout depth `d`):
//!
//! 1. **Speculate** every candidate on the working function's journal
//!    ([`rolag_ir::Function::snapshot`] / `rollback` — no clone per
//!    candidate), validate it, and score the survivor with the cost model
//!    (`new text size + added rodata`).
//! 2. **Capture** the `k` best profitable candidates as trials while their
//!    speculation window is still open: the validated, cleaned-up function,
//!    the globals it appended, and its node-kind counts (ties broken by
//!    enumeration order; profitable candidates beyond `k` are beam prunes
//!    and are never cloned, so trial memory is bounded by `k`).
//! 3. **Roll out** each trial from its captured state: up to `d` greedy
//!    continuation commits, each committed in place from its own
//!    speculation window, then score the end state (`d = 0` means roll
//!    out to the dry fixpoint).
//! 4. **Install** the trial with the best rollout score as the working
//!    function, with its globals re-added in order.
//!
//! So every candidate runs graph → schedule → codegen → validator →
//! cleanup at most once per pre-state, and the committed function *is* the
//! one the validator checked. A trial is captured before later candidates
//! of its sweep intern their constants into the working function, so its
//! value arena can lack constants a re-run would have found interned.
//! That is inert: constants print inline at their uses, and the stages
//! order their work by instructions, never by a constant's arena index, so
//! the output is byte-identical to re-running the winner, as
//! `beam4_outputs_are_pinned` in `tests/search_conformance.rs` checks.
//!
//! The search is deterministic end to end: candidate enumeration order,
//! shortlist ordering, and tie-breaks are all fixed, so `rolag-serve` and
//! `roll_module_par` replay byte-identically (the search configuration is
//! part of the memo-store options fingerprint).
//!
//! **Monotonicity against greedy is enforced by construction**: the
//! function-level driver runs the greedy engine first, then the beam, and
//! adopts the beam result only when it is strictly smaller under the
//! lowered-size measurement ([`rolag_lower::measure_function`], plus added
//! rodata as a tie-break). A beam can therefore explore aggressively and
//! still never regress a function (`tests/search_conformance.rs`).

use rolag_ir::{Effects, FuncId, Function, GlobalData, GlobalId, Module, SnapshotToken};
use rolag_transforms::cleanup_in_place;

use crate::codegen;
use crate::options::{RolagOptions, SearchConfig};
use crate::pass::{
    analyze_schedule, build_graph, fresh_function_size, rewrite_hints, rollback_globals, timed,
};
use crate::schedule::ScheduleCache;
use crate::seeds::{candidate_variants, collect_candidates, Candidate};
use crate::stats::{NodeKindCounts, RolagStats};

/// One beam-explored speculation the translation validator refused,
/// captured as printed modules for the dynamic cross-check in
/// `tests/tv_false_rejects.rs`: the validator is one-sided (it may
/// false-reject but must never accept a miscompile), so every rejected
/// rewrite must still be behaviourally equivalent to its pre-speculation
/// state.
pub struct RejectedSpeculation {
    /// Name of the function being searched.
    pub func: String,
    /// The module printed with the pre-speculation function in place.
    pub before: String,
    /// The module printed with the rejected speculative rewrite in place
    /// (raw codegen output, pre-cleanup — exactly what the validator saw),
    /// with the speculation's globals still live.
    pub after: String,
    /// The candidate's alignment graph in Graphviz `dot` syntax, annotated
    /// with the speculation's measured score and the validator's verdict
    /// ([`crate::AlignGraph::to_dot_with`]).
    pub dot: String,
}

/// Collects every TV-rejected beam speculation for offline auditing. Only
/// the audited entry points pay the capture cost (two module clones and
/// prints per reject); the production engine skips it entirely.
#[derive(Default)]
pub struct SearchAudit {
    /// Rejected speculations in exploration order.
    pub rejects: Vec<RejectedSpeculation>,
}

/// Per-function context threaded through the search stages.
struct SearchCx<'a> {
    id: FuncId,
    opts: &'a RolagOptions,
    effects: &'a [Effects],
}

/// Runs the beam-search engine on one function. Called from
/// [`crate::pass::roll_function_with`] when `opts.search` is a beam of
/// width >= 2; width-1 beams never reach here (they fall through to the
/// greedy body, which makes `beam:1` identical to greedy by construction).
pub fn search_function_with(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    search_function_impl(module, id, opts, effects, None)
}

/// [`search_function_with`] with TV-reject auditing: every beam-explored
/// candidate the validator refuses is captured into `audit` for dynamic
/// cross-checking. Test-facing; the result is byte-identical to the
/// unaudited engine.
pub fn search_function_audited(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    audit: &mut SearchAudit,
) -> RolagStats {
    search_function_impl(module, id, opts, effects, Some(audit))
}

fn search_function_impl(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    audit: Option<&mut SearchAudit>,
) -> RolagStats {
    let SearchConfig::Beam { width, depth } = opts.search else {
        // Greedy spelled through the search entry point: delegate.
        return crate::pass::roll_function_with(module, id, opts, effects);
    };
    if module.func(id).is_declaration {
        return RolagStats::default();
    }

    let orig = module.func(id).clone();
    let base_globals = module.num_globals();

    // Greedy trial first: its result is the floor the beam must beat.
    let greedy_opts = RolagOptions {
        search: SearchConfig::Greedy,
        ..opts.clone()
    };
    let greedy_stats = crate::pass::roll_function_with(module, id, &greedy_opts, effects);
    let greedy_func = module.func(id).clone();
    let greedy_text = rolag_lower::measure_function(module, &greedy_func) as u64;
    let greedy_rodata = added_rodata(module, base_globals);
    let greedy_globals: Vec<GlobalData> = (base_globals..module.num_globals())
        .map(|i| module.global(GlobalId::from_index(i)).clone())
        .collect();

    // Rewind to the original and run the beam from the same start state, so
    // both trials mint identical fresh-global names deterministically.
    rollback_globals(module, base_globals);
    module.replace_func(id, orig);

    let cx = SearchCx { id, opts, effects };
    let mut beam_stats = beam_roll(module, &cx, width, depth, audit);
    let beam_text = rolag_lower::measure_function(module, module.func(id)) as u64;
    let beam_rodata = added_rodata(module, base_globals);

    // Adopt the beam result only when strictly smaller: first on measured
    // text bytes (the per-function monotonicity the conformance suite
    // pins), then on added rodata as the tie-break.
    let adopt =
        beam_text < greedy_text || (beam_text == greedy_text && beam_rodata < greedy_rodata);
    if adopt {
        beam_stats.search.adopted += 1;
        beam_stats.timings += greedy_stats.timings;
        return beam_stats;
    }
    // Reinstall the greedy result. Globals are positional and append-only,
    // so popping the beam's and re-adding the greedy trial's captured
    // `GlobalData` in order reproduces the greedy ids and names exactly.
    rollback_globals(module, base_globals);
    for g in greedy_globals {
        module.add_global(g);
    }
    module.replace_func(id, greedy_func);
    let mut out = greedy_stats;
    out.search = beam_stats.search;
    out.search.adopted = 0;
    out.timings += beam_stats.timings;
    out
}

/// Sum of `global_size` over the globals appended past `base`.
fn added_rodata(module: &Module, base: usize) -> u64 {
    (base..module.num_globals())
        .map(|i| module.global_size(GlobalId::from_index(i)))
        .sum()
}

/// A profitable, validated speculation captured for rollout scoring and,
/// if it wins, for installation: the cleaned-up function and the globals
/// it appended, exactly as the validator and the cost model saw them.
struct Trial {
    func: Function,
    /// Globals the candidate appended, in id order. Globals are positional,
    /// so re-adding them on the same base reproduces their ids and names.
    globals: Vec<GlobalData>,
    kinds: NodeKindCounts,
    /// Speculated size (`new text + added rodata`); the shortlist key.
    new_size: u64,
}

/// The beam fixpoint over one function.
fn beam_roll(
    module: &mut Module,
    cx: &SearchCx,
    width: usize,
    depth: usize,
    mut audit: Option<&mut SearchAudit>,
) -> RolagStats {
    let opts = cx.opts;
    let mut stats = RolagStats::default();
    let mut work = module.func(cx.id).clone();
    // The validator needs the pre-speculation function while candidates
    // mutate `work` in place under the journal; one reference clone per
    // *commit* (not per candidate) stands in for it, caught up on interned
    // constants before each speculation window.
    let mut reference = work.clone();
    let mut sched = ScheduleCache::default();
    stats.size_before = timed(&mut stats.timings.cost_ns, || {
        fresh_function_size(module, &work, opts)
    });

    loop {
        let candidates = timed(&mut stats.timings.seeds_ns, || {
            let base = collect_candidates(module, &work, opts);
            let mut all = Vec::with_capacity(base.len() * 2);
            for c in base {
                let variants = candidate_variants(module, &work, &c, opts);
                all.push(c);
                for v in variants {
                    if !all.contains(&v) {
                        all.push(v);
                    }
                }
            }
            all
        });
        let old_size = timed(&mut stats.timings.cost_ns, || {
            fresh_function_size(module, &work, opts)
        });

        // Phases 1 and 2: speculate and score every candidate, capturing
        // the best `width` profitable ones as trials, ranked by size and
        // then enumeration order. Profitable candidates beyond the beam
        // are prunes.
        let mut trials: Vec<Trial> = Vec::with_capacity(width + 1);
        let mut profitable = 0usize;
        for cand in candidates {
            if cand.lanes() < opts.min_lanes {
                stats.rejected_lanes += 1;
                continue;
            }
            stats.attempted += 1;
            stats.search.explored += 1;
            match speculate(
                module,
                &mut work,
                &mut reference,
                &mut sched,
                &cand,
                cx,
                &mut stats,
                audit.as_deref_mut(),
            ) {
                Speculation::Scored { new_size, window } => {
                    if new_size >= old_size {
                        stats.rejected_profit += 1;
                    } else {
                        profitable += 1;
                        let at = trials.partition_point(|t| t.new_size <= new_size);
                        if at < width {
                            let globals = (window.base_globals..module.num_globals())
                                .map(|i| module.global(GlobalId::from_index(i)).clone())
                                .collect();
                            let trial = Trial {
                                func: work.clone(),
                                globals,
                                kinds: window.kinds,
                                new_size,
                            };
                            trials.insert(at, trial);
                            trials.truncate(width);
                        }
                    }
                    window.rollback(module, &mut work);
                }
                Speculation::ScheduleRejected => stats.rejected_schedule += 1,
                // `speculate` already counted the reject (tv_rejected and
                // the search counter) when it fired the validator.
                Speculation::ValidatorRejected => {}
            }
        }
        if trials.is_empty() {
            break;
        }
        stats.search.pruned += profitable.saturating_sub(width) as u64;

        // Phase 3: rollout-score each trial.
        let mut best: Option<(usize, u64)> = None;
        for (i, trial) in trials.iter().enumerate() {
            let score = rollout_score(module, trial, cx, depth, &mut stats.timings);
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((i, score));
            }
        }

        // Phase 4: install the winner's validated state.
        let (best_idx, _) = best.expect("non-empty shortlist always scores");
        let winner = trials.swap_remove(best_idx);
        for g in winner.globals {
            module.add_global(g);
        }
        work = winner.func;
        reference = work.clone();
        stats.rolled += 1;
        stats.nodes += winner.kinds;
    }

    stats.size_after = timed(&mut stats.timings.cost_ns, || {
        fresh_function_size(module, &work, opts)
    });
    module.replace_func(cx.id, work);
    stats
}

/// An open speculation window: the candidate's rewrite is live in the
/// working function and its globals in the module until the window is
/// rolled back or committed. `speculate` hands windows out only for
/// validated, cleaned-up candidates.
#[must_use]
struct Window {
    token: SnapshotToken,
    base_globals: usize,
    kinds: NodeKindCounts,
}

impl Window {
    /// Discards the rewrite: the function and the globals return to the
    /// pre-speculation state (up to inert interned constants).
    fn rollback(self, module: &mut Module, work: &mut Function) {
        work.rollback(self.token);
        rollback_globals(module, self.base_globals);
    }

    /// Keeps the rewrite and makes it the validator's new reference.
    fn commit(self, work: &mut Function, reference: &mut Function) {
        work.commit(self.token);
        *reference = work.clone();
    }
}

enum Speculation {
    /// The candidate generated, validated, and cleaned up; `new_size` is
    /// the speculated function size plus the rodata it adds. The window is
    /// still open.
    Scored {
        new_size: u64,
        window: Window,
    },
    ScheduleRejected,
    ValidatorRejected,
}

/// Speculates one candidate on `work`'s journal — align, schedule,
/// generate, validate, clean up, score. Rejected candidates are rolled
/// back (function and globals) before returning; a scored one comes back
/// with its window open, for the caller to capture, commit or roll back.
/// A rolled-back `work` is byte-identical to its pre-state except for
/// inert interned constants, which `reference` absorbs before the window.
#[allow(clippy::too_many_arguments)] // one slot per engine input
fn speculate(
    module: &mut Module,
    work: &mut Function,
    reference: &mut Function,
    sched_cache: &mut ScheduleCache,
    cand: &Candidate,
    cx: &SearchCx,
    stats: &mut RolagStats,
    audit: Option<&mut SearchAudit>,
) -> Speculation {
    let opts = cx.opts;
    let block = cand.block();
    let Some(graph) = build_graph(module, work, cand, opts, stats) else {
        return Speculation::ScheduleRejected;
    };
    let Some(sched) = analyze_schedule(module, work, block, &graph, Some(sched_cache), stats)
    else {
        return Speculation::ScheduleRejected;
    };
    reference.absorb_interned_values(work);

    let window = Window {
        token: work.snapshot(),
        base_globals: module.num_globals(),
        kinds: graph.count_kinds(),
    };
    let outcome = timed(&mut stats.timings.codegen_ns, || {
        codegen::generate(module, work, block, &graph, &sched)
    });
    let Some(outcome) = outcome else {
        window.rollback(module, work);
        return Speculation::ScheduleRejected;
    };

    // The validator gate is unconditional in the beam engine: aggressive
    // variants ride on proofs, not on enumeration conservatism.
    let hints = rewrite_hints(&graph, block, &outcome, opts, window.base_globals);
    let verdict = timed(&mut stats.timings.tv_ns, || {
        rolag_tv::validate_rewrite(module, reference, work, &hints)
    });
    if let Err(why) = verdict {
        stats.tv_rejected += 1;
        stats.search.tv_rejected += 1;
        if let Some(audit) = audit {
            // Capture before/after prints while the speculative globals are
            // still live, so the rejected rewrite can be interpreted.
            let mut before_m = module.clone();
            before_m.replace_func(cx.id, reference.clone());
            let mut after_m = module.clone();
            after_m.replace_func(cx.id, work.clone());
            let info = crate::align::DotInfo {
                score: Some(fresh_function_size(module, work, opts)),
                verdict: Some(why.to_string()),
            };
            audit.rejects.push(RejectedSpeculation {
                func: reference.name.clone(),
                before: rolag_ir::printer::print_module(&before_m),
                after: rolag_ir::printer::print_module(&after_m),
                dot: graph.to_dot_with(&info),
            });
        }
        window.rollback(module, work);
        return Speculation::ValidatorRejected;
    }
    stats.tv_validated += 1;

    if opts.cleanup {
        timed(&mut stats.timings.cleanup_ns, || {
            cleanup_in_place(work, &mut module.types, cx.effects)
        });
    }
    let new_size = timed(&mut stats.timings.cost_ns, || {
        let rodata: u64 = outcome
            .new_globals
            .iter()
            .map(|&g| module.global_size(g))
            .sum();
        fresh_function_size(module, work, opts) + rodata
    });
    Speculation::Scored { new_size, window }
}

/// Scores a trial by continuing from its captured state with up to
/// `depth` greedy continuation commits (`depth == 0`: to the dry
/// fixpoint). Returns the end-state size (text plus all rodata added
/// since the trial's pre-state, the trial's own included). All rollout
/// globals are popped before returning; rollouts never touch the outcome
/// stats.
fn rollout_score(
    module: &mut Module,
    trial: &Trial,
    cx: &SearchCx,
    depth: usize,
    timings: &mut crate::stats::StageTimings,
) -> u64 {
    let opts = cx.opts;
    let base_globals = module.num_globals();
    for g in &trial.globals {
        module.add_global(g.clone());
    }
    let mut sim = trial.func.clone();
    let mut sim_ref = sim.clone();
    let mut sim_sched = ScheduleCache::default();
    let mut scratch = RolagStats::default();

    // Greedy continuation: first profitable validated candidate per sweep.
    let mut commits = 0usize;
    'sweeps: while depth == 0 || commits < depth {
        let candidates = collect_candidates(module, &sim, opts);
        let old_size = fresh_function_size(module, &sim, opts);
        for cand in candidates {
            if cand.lanes() < opts.min_lanes {
                continue;
            }
            let spec = speculate(
                module,
                &mut sim,
                &mut sim_ref,
                &mut sim_sched,
                &cand,
                cx,
                &mut scratch,
                None,
            );
            if let Speculation::Scored { new_size, window } = spec {
                if new_size < old_size {
                    window.commit(&mut sim, &mut sim_ref);
                    commits += 1;
                    continue 'sweeps;
                }
                window.rollback(module, &mut sim);
            }
        }
        break;
    }

    let score = fresh_function_size(module, &sim, opts) + added_rodata(module, base_globals);
    rollback_globals(module, base_globals);
    *timings += scratch.timings;
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::roll_module;
    use rolag_ir::interp::{equivalent, Interpreter};
    use rolag_ir::parser::parse_module;
    use rolag_ir::printer::print_module;
    use rolag_ir::verify::verify_module;

    /// 8 uniform stores: greedy already rolls the whole group, so the beam
    /// cannot improve on it and the search must fall back to the greedy
    /// result byte-for-byte.
    fn uniform_stores() -> String {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  ret\n}\n");
        text
    }

    /// 8 uniform stores followed by a store of a runtime parameter to the
    /// same array: the 9-lane group is the only grouping greedy proposes
    /// and it cannot roll (the runtime value defeats the mismatch array),
    /// but the beam's drop-last variant rolls the 8 constant lanes.
    fn poisoned_tail_stores() -> String {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [16 x i32] = zero\nfunc @f(i32 %p0) -> void {\nentry:\n",
        );
        for i in 0..8 {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
        }
        text.push_str("  %g8 = gep i32, @a, i64 8\n  store %p0, %g8\n");
        text.push_str("  ret\n}\n");
        text
    }

    #[test]
    fn beam_falls_back_to_greedy_when_it_cannot_improve() {
        let mut greedy = parse_module(&uniform_stores()).unwrap();
        let greedy_stats = roll_module(&mut greedy, &RolagOptions::default());
        let mut beamed = parse_module(&uniform_stores()).unwrap();
        let stats = roll_module(&mut beamed, &RolagOptions::searched(4));
        assert_eq!(stats.rolled, greedy_stats.rolled);
        assert_eq!(
            print_module(&greedy),
            print_module(&beamed),
            "no-win beams must reproduce the greedy output exactly"
        );
        assert!(stats.search.explored > 0, "the beam must have explored");
        assert_eq!(stats.search.adopted, 0);
    }

    #[test]
    fn beam_rolls_a_group_greedy_misses() {
        let mut greedy = parse_module(&poisoned_tail_stores()).unwrap();
        let greedy_stats = roll_module(&mut greedy, &RolagOptions::default());
        assert_eq!(
            greedy_stats.rolled,
            0,
            "fixture invalid: greedy must miss the roll\n{}",
            print_module(&greedy)
        );

        let orig = parse_module(&poisoned_tail_stores()).unwrap();
        let mut beamed = orig.clone();
        let stats = roll_module(&mut beamed, &RolagOptions::searched(4));
        verify_module(&beamed).expect("beamed module verifies");
        assert_eq!(stats.rolled, 1, "the trimmed variant must roll: {stats}");
        assert_eq!(stats.search.adopted, 1);
        assert!(stats.search.explored > 1);

        let fid = beamed.func_by_name("f").unwrap();
        let beam_bytes = rolag_lower::measure_function(&beamed, beamed.func(fid));
        let greedy_bytes = rolag_lower::measure_function(&greedy, greedy.func(fid));
        assert!(
            beam_bytes < greedy_bytes,
            "beam must measure strictly smaller: {beam_bytes} vs {greedy_bytes}"
        );

        // Behaviour must be preserved.
        for arg in [0i64, 41] {
            let mut ia = Interpreter::new(&orig);
            let mut ib = Interpreter::new(&beamed);
            let oa = ia.run("f", &[rolag_ir::interp::IValue::Int(arg)]).unwrap();
            let ob = ib.run("f", &[rolag_ir::interp::IValue::Int(arg)]).unwrap();
            assert!(equivalent(&oa, &ob), "behaviour changed for arg {arg}");
        }
    }

    #[test]
    fn beam_width_one_delegates_to_greedy() {
        let mut greedy = parse_module(&poisoned_tail_stores()).unwrap();
        let greedy_stats = roll_module(&mut greedy, &RolagOptions::default());
        let mut narrow = parse_module(&poisoned_tail_stores()).unwrap();
        let narrow_stats = roll_module(&mut narrow, &RolagOptions::searched(1));
        assert_eq!(narrow_stats, greedy_stats, "beam:1 must be stats-identical");
        assert_eq!(
            print_module(&greedy),
            print_module(&narrow),
            "beam:1 must be byte-identical"
        );
    }

    #[test]
    fn audited_search_is_byte_identical_to_unaudited() {
        let mut plain = parse_module(&poisoned_tail_stores()).unwrap();
        let plain_stats = roll_module(&mut plain, &RolagOptions::searched(4));

        let mut audited = parse_module(&poisoned_tail_stores()).unwrap();
        let opts = RolagOptions::searched(4);
        let effects = rolag_transforms::effects_table(&audited);
        let mut audit = SearchAudit::default();
        let ids: Vec<FuncId> = audited.func_ids().collect();
        let mut stats = RolagStats::default();
        for id in ids {
            stats += search_function_audited(&mut audited, id, &opts, &effects, &mut audit);
        }
        assert_eq!(stats, plain_stats);
        assert_eq!(print_module(&plain), print_module(&audited));
        assert_eq!(
            audit.rejects.len() as u64,
            stats.search.tv_rejected,
            "one audit capture per TV reject"
        );
        // Every captured reject parses and preserves the searched function.
        for r in &audit.rejects {
            assert_eq!(r.func, "f");
            parse_module(&r.before).expect("before snapshot parses");
            parse_module(&r.after).expect("after snapshot parses");
            assert!(r.dot.starts_with("digraph align"), "dot dump captured");
            assert!(
                r.dot.contains("score=") && r.dot.contains("tv="),
                "dot banner carries the score and the validator verdict: {}",
                r.dot
            );
        }
    }
}
