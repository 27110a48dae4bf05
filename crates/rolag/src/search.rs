//! Validator-gated beam search over rolling alignments.
//!
//! The paper's engine is greedy: one seed grouping per region, first
//! profitable candidate wins. This module is the **beam policy** over the
//! same speculation core (`speculate.rs`): a bounded beam over
//! *alternative* alignment choices — the base groupings plus the
//! permutations, splits, and trims enumerated by
//! [`crate::seeds::candidate_variants`] — where verification, not
//! conservatism, guarantees safety: every speculated candidate is gated
//! through the `rolag-tv` translation validator before the cost model may
//! shortlist it, regardless of `RolagOptions::validate`.
//!
//! Shape of one fixpoint step (width `k`, rollout depth `d`):
//!
//! 1. **Speculate** every candidate on the working function's journal
//!    (no clone per candidate), validated, and score the survivor with
//!    the cost model (`new text size + added rodata`).
//! 2. **Capture** the `k` best profitable candidates as trials while their
//!    speculation window is still open: the validated, cleaned-up function,
//!    the globals it appended, and its node-kind counts (ties broken by
//!    enumeration order; profitable candidates beyond `k` are beam prunes
//!    and are never cloned, so trial memory is bounded by `k`).
//! 3. **Roll out** each trial from its captured state: the greedy policy
//!    with up to `d` commits, then score the end state (`d = 0` means roll
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

use rolag_ir::{Effects, FuncId, Function, GlobalData, GlobalId, Module};

use crate::options::{RolagOptions, SearchConfig};
use crate::pass::{greedy, roll_function_with};
use crate::seeds::candidate_variants;
use crate::speculate::{fresh_function_size, rollback_globals, timed, Speculator, Verdict};
use crate::stats::{NodeKindCounts, RolagStats, StageTimings};

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
/// the audited entry point pays the capture cost (two module clones and
/// prints per reject); the production engine skips it entirely.
#[derive(Default)]
pub struct SearchAudit {
    /// Rejected speculations in exploration order.
    pub rejects: Vec<RejectedSpeculation>,
}

/// The beam search on one function with TV-reject auditing: every
/// beam-explored candidate the validator refuses is captured into `audit`
/// for dynamic cross-checking. Test-facing; the result is byte-identical to
/// the unaudited engine that [`roll_module`](crate::roll_module) runs for
/// beams of width >= 2.
pub fn search_function_audited(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    audit: &mut SearchAudit,
) -> RolagStats {
    search_function(module, id, opts, effects, Some(audit))
}

/// The beam search on one function; greedy options delegate to the greedy
/// engine.
pub(crate) fn search_function(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    audit: Option<&mut SearchAudit>,
) -> RolagStats {
    let SearchConfig::Beam { width, depth } = opts.search else {
        return roll_function_with(module, id, opts, effects);
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
    let greedy_stats = roll_function_with(module, id, &greedy_opts, effects);
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

    let mut beam_stats = beam_roll(module, id, opts, effects, width, depth, audit);
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
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    width: usize,
    depth: usize,
    mut audit: Option<&mut SearchAudit>,
) -> RolagStats {
    // The validator gate is unconditional in the beam: aggressive variants
    // ride on proofs, not on enumeration conservatism.
    let opts = &RolagOptions {
        validate: true,
        ..opts.clone()
    };
    let mut stats = RolagStats::default();
    let mut spec = Speculator::new(id, module.func(id).clone());
    stats.size_before = timed(&mut stats.timings.cost_ns, || {
        fresh_function_size(module, &spec.work, opts)
    });
    let mut old_size = stats.size_before;

    loop {
        let candidates = timed(&mut stats.timings.seeds_ns, || {
            let base = spec.candidates(module, opts);
            let mut all = Vec::with_capacity(base.len() * 2);
            for c in base {
                let variants = candidate_variants(module, &spec.work, &c, opts);
                all.push(c);
                for v in variants {
                    if !all.contains(&v) {
                        all.push(v);
                    }
                }
            }
            all
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
            let audit = audit.as_deref_mut();
            let window = match spec.speculate(module, &cand, opts, effects, &mut stats, audit) {
                Verdict::Open(window) => window,
                Verdict::Validator => {
                    stats.search.tv_rejected += 1;
                    continue;
                }
                Verdict::Schedule => continue,
            };
            let new_size = timed(&mut stats.timings.cost_ns, || {
                fresh_function_size(module, &spec.work, opts) + window.rodata
            });
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
                        func: spec.work.clone(),
                        globals,
                        kinds: window.kinds,
                        new_size,
                    };
                    trials.insert(at, trial);
                    trials.truncate(width);
                }
            }
            spec.rollback(module, window);
        }
        if trials.is_empty() {
            break;
        }
        stats.search.pruned += profitable.saturating_sub(width) as u64;

        // Phase 3: rollout-score each trial.
        let mut best: Option<(usize, u64)> = None;
        for (i, trial) in trials.iter().enumerate() {
            let score = rollout_score(module, trial, id, opts, effects, depth, &mut stats.timings);
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
        spec.install(winner.func);
        stats.rolled += 1;
        stats.nodes += winner.kinds;
        old_size = timed(&mut stats.timings.cost_ns, || {
            fresh_function_size(module, &spec.work, opts)
        });
    }

    stats.size_after = old_size;
    module.replace_func(id, spec.work);
    stats
}

/// Scores a trial by continuing from its captured state with the greedy
/// policy, up to `depth` commits (`depth == 0`: to the dry fixpoint).
/// Returns the end-state size (text plus all rodata added since the
/// trial's pre-state, the trial's own included). All rollout globals are
/// popped before returning; rollouts add only their timings to the outcome
/// stats.
fn rollout_score(
    module: &mut Module,
    trial: &Trial,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
    depth: usize,
    timings: &mut StageTimings,
) -> u64 {
    let base_globals = module.num_globals();
    for g in &trial.globals {
        module.add_global(g.clone());
    }
    let mut sim = Speculator::new(id, trial.func.clone());
    let mut scratch = RolagStats::default();
    let max_commits = if depth == 0 { usize::MAX } else { depth };
    greedy(module, &mut sim, opts, effects, max_commits, &mut scratch);
    let score = scratch.size_after + added_rodata(module, base_globals);
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
