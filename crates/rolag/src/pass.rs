//! The RoLAG pass driver (Fig. 5).
//!
//! For every basic block: collect seed groups, build an alignment graph,
//! run the scheduling analysis, speculatively generate the rolled loop, and
//! keep whichever version the code-size cost model says is smaller. Commits
//! strictly decrease the size, so the pass terminates.
//!
//! Every candidate runs through the one speculation core (`speculate.rs`);
//! this module is the **greedy policy** over it. Each sweep collects every
//! candidate of the function, tries them in order, prices each open window
//! by sizing the whole function afresh, and commits the first profitable
//! one; the next sweep starts over on the changed function. Nothing is
//! carried from one sweep to the next but the function itself and the
//! scheduling cache of its current revision.

use rolag_ir::{Effects, FuncId, Function, Module};
use rolag_transforms::effects_table;

use crate::options::RolagOptions;
use crate::speculate::{fresh_function_size, timed, Rolled, Speculator, Verdict};
use crate::stats::RolagStats;

/// Rolls `body`, the body of function `id`, using a pre-computed
/// call-effects table (compute it once per module with
/// [`rolag_transforms::effects_table`]; rolling never changes a function's
/// effects annotation). The module is read for signatures and written only
/// to intern types: the roll comes back as a value to splice.
///
/// Beams of width >= 2 run the beam policy instead; `beam:1` stays here,
/// which makes it byte- and stats-identical to greedy by construction.
pub(crate) fn roll_function(
    module: &mut Module,
    id: FuncId,
    body: Function,
    opts: &RolagOptions,
    effects: &[Effects],
) -> Rolled {
    if opts.search.is_beam() {
        return crate::search::search_function(module, id, body, opts, effects, None);
    }
    let mut stats = RolagStats::default();
    let mut spec = Speculator::new(id, body);
    if !spec.work.is_declaration {
        greedy(module, &mut spec, opts, effects, usize::MAX, &mut stats);
    }
    spec.finish(module, stats)
}

/// In test builds, the greedy engine panics on a function of this name at
/// its first open window, after codegen minted the window's tables: the
/// injection point of the panic-rescue tests.
#[cfg(test)]
pub(crate) const INJECTED_PANIC: &str = "rolag_test_injected_panic";

/// The greedy fixpoint on `spec.work`: each sweep tries its candidates in
/// order and commits the first profitable one, until a sweep commits
/// nothing or `max_commits` commits were made.
pub(crate) fn greedy(
    module: &mut Module,
    spec: &mut Speculator,
    opts: &RolagOptions,
    effects: &[Effects],
    max_commits: usize,
    stats: &mut RolagStats,
) {
    stats.size_before = timed(&mut stats.timings.cost_ns, || {
        fresh_function_size(module, &spec.work, opts)
    });
    let mut old_size = stats.size_before;
    let mut commits = 0;
    while commits < max_commits {
        let candidates = timed(&mut stats.timings.seeds_ns, || {
            spec.candidates(module, opts)
        });
        let mut committed = false;
        for cand in candidates {
            stats.attempted += 1;
            if cand.lanes() < opts.min_lanes {
                stats.rejected_lanes += 1;
                continue;
            }
            let Verdict::Open(window) = spec.speculate(module, &cand, opts, effects, stats, None)
            else {
                continue;
            };
            #[cfg(test)]
            if spec.work.name == INJECTED_PANIC {
                panic!("injected panic in @{INJECTED_PANIC}");
            }
            let rodata = window.rodata;
            let new_size = timed(&mut stats.timings.cost_ns, || {
                fresh_function_size(module, &spec.work, opts) + rodata
            });
            if new_size >= old_size {
                spec.rollback(window);
                stats.rejected_profit += 1;
            } else {
                stats.rolled += 1;
                stats.nodes += window.kinds;
                spec.commit(window);
                // Committing keeps the priced body as it is.
                old_size = new_size - rodata;
                committed = true;
                break;
            }
        }
        if !committed {
            break;
        }
        commits += 1;
    }
    // `work` did not change since `old_size` was last computed (constant
    // interning during rejected graph builds never alters block content).
    stats.size_after = old_size;
}

/// Runs RoLAG on every function of the module, returning aggregate
/// statistics: the serial reference the parallel driver
/// ([`roll_module_par`](crate::roll_module_par)) must match. The
/// call-effects table is computed once and shared across all functions,
/// and each function is rolled and spliced by `roll_in_place` before the
/// next one rolls.
pub fn roll_module(module: &mut Module, opts: &RolagOptions) -> RolagStats {
    let effects = effects_table(module);
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut total = RolagStats::default();
    for id in ids {
        total += roll_in_place(module, id, opts, &effects);
    }
    total
}

/// Rolls a copy of function `id`'s body under `rescue_panics` and splices
/// the roll: the serial pass's step per function, and the module driver's
/// for a lone definition without a store.
pub(crate) fn roll_in_place(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    let body = module.func(id).clone();
    match rescue_panics(|| roll_function(module, id, body, opts, effects)) {
        Some(rolled) => rolled.splice(module, id),
        None => rescued(),
    }
}

/// Runs `engine`, one function's roll, with per-function panic isolation:
/// a panicking roll comes back as `None`, counted by [`rescued`]. The
/// engine writes nothing to the module but interned types, so a rescued
/// function and the globals stay as they were. One pathological function
/// thus degrades into a skipped roll instead of killing the whole module
/// run.
pub(crate) fn rescue_panics(engine: impl FnOnce() -> Rolled) -> Option<Rolled> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(engine)).ok()
}

/// The statistics of a roll [`rescue_panics`] caught: one `rescued`
/// function.
pub(crate) fn rescued() -> RolagStats {
    RolagStats {
        rescued: 1,
        ..Default::default()
    }
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
    }

    /// Measured-cost mode rolls and the committed output stays behaviourally
    /// correct.
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

    /// A window that mints a constant table leaves the module's globals
    /// alone, rolled back or committed: the table lives in the speculator
    /// until the roll is spliced, and splicing names it as the serial pass
    /// does.
    #[test]
    fn tables_reach_the_module_only_at_splice() {
        let mut text = String::from(
            "module \"t\"\nglobal @a : [16 x i32] = zero\nglobal @rolag.cdata.2 : i32 = zero\n\
             func @f() -> void {\nentry:\n",
        );
        for (i, v) in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
            .iter()
            .enumerate()
        {
            text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            text.push_str(&format!("  store i32 {v}, %g{i}\n"));
        }
        text.push_str("  ret\n}\n");
        let mut serial = parse_module(&text).unwrap();
        let serial_stats = roll_module(&mut serial, &RolagOptions::default());
        assert_eq!(serial_stats.rolled, 1, "the fixture must roll");

        let mut module = parse_module(&text).unwrap();
        let opts = RolagOptions::default();
        let effects = effects_table(&module);
        let id = module.func_by_name("f").unwrap();
        let mut spec = Speculator::new(id, module.func(id).clone());
        let cand = spec.candidates(&module, &opts).remove(0);
        let mut stats = RolagStats::default();
        for commit in [false, true] {
            let Verdict::Open(window) =
                spec.speculate(&mut module, &cand, &opts, &effects, &mut stats, None)
            else {
                panic!("the candidate must open a window");
            };
            assert_eq!(spec.tables.len(), 1, "the window minted one table");
            assert_eq!(spec.tables[0].name, "rolag.cdata");
            if commit {
                stats.rolled += 1;
                spec.commit(window);
            } else {
                spec.rollback(window);
                assert!(spec.tables.is_empty(), "rollback drops the table");
            }
            assert_eq!(module.num_globals(), 2, "commit={commit}");
        }
        spec.finish(&module, stats).splice(&mut module, id);
        assert_eq!(module.num_globals(), 3);
        let table = module.global(rolag_ir::GlobalId::from_index(2));
        // The name counts from the module's global count, past `rolag.cdata.2`.
        assert_eq!(table.name, "rolag.cdata.3");
        assert_eq!(
            rolag_ir::printer::print_module(&module),
            rolag_ir::printer::print_module(&serial)
        );
    }
}
