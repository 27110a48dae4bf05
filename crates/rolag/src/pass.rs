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
use crate::speculate::{fresh_function_size, rollback_globals, timed, Speculator, Verdict};
use crate::stats::RolagStats;

/// Runs RoLAG on one function using a pre-computed call-effects table
/// (compute it once per module with [`rolag_transforms::effects_table`];
/// rolling never changes a function's effects annotation).
///
/// Beams of width >= 2 run the beam policy instead; `beam:1` stays here,
/// which makes it byte- and stats-identical to greedy by construction.
pub(crate) fn roll_function_with(
    module: &mut Module,
    id: FuncId,
    opts: &RolagOptions,
    effects: &[Effects],
) -> RolagStats {
    if opts.search.is_beam() {
        return crate::search::search_function(module, id, opts, effects, None);
    }
    let mut stats = RolagStats::default();
    if module.func(id).is_declaration {
        return stats;
    }
    // The body moves into the speculator; its signature stub stays behind
    // for the callers and self-calls the engine reads.
    let mut spec = Speculator::new(id, module.take_func(id));
    greedy(module, &mut spec, opts, effects, usize::MAX, &mut stats);
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
                spec.rollback(module, window);
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
/// and each function runs under `rescue_panics`, copied once before its
/// roll as the pristine body a panic restores.
pub fn roll_module(module: &mut Module, opts: &RolagOptions) -> RolagStats {
    let effects = effects_table(module);
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut total = RolagStats::default();
    for id in ids {
        let pristine = module.func(id).clone();
        total += rescue_panics(
            module,
            id,
            move || pristine,
            |m| roll_function_with(m, id, opts, &effects),
        );
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
