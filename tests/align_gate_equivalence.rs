//! Exactness of the two early refusals in `build_candidate_graph`.
//!
//! Before it builds anything, `build_candidate_graph` asks
//! `GraphBuilder::root_can_match` whether the candidate's first root group
//! (the seed group `groups[0]`, or the reduction leaves) can become a
//! `Match` node, and returns `None` at once when it cannot (the root gate).
//! While it builds, it records every instruction a node passes into the
//! loop (a `Mismatch` lane, an `Identical` value, a recurrence init, a
//! reduction carry) and every instruction a node claims, and it gives up
//! the moment one instruction is both (the loop-input refusal). Each is
//! only behaviour-preserving if the full build would end in the same
//! verdict. This test checks both against ungated builds: for every
//! candidate collected from every function (plus the beam search's
//! variants of it), before and after rolling, it calls
//! `build_seed_root`/`build_reduction_root` directly on a fresh, unarmed
//! `GraphBuilder` and asserts that
//!
//! * the gate accepts exactly when the ungated first root is a `Match`,
//! * a refused candidate's ungated build returns `None`, and an ungated
//!   build that returns `Some` was accepted by the gate;
//! * `build_candidate_graph` refuses exactly when the ungated graph holds
//!   a claimed loop input (`AlignGraph::claimed_loop_input`), and the
//!   scheduler refuses that ungated graph;
//! * a graph `build_candidate_graph` returns renders the same `dot` as the
//!   ungated graph, and `schedule::analyze` gives both the same verdict
//!   and placement.
//!
//! Each corpus must produce at least one root-gate refusal and one
//! acceptance; unrolled TSVC and Table I must also produce at least one
//! loop-input refusal.

use rolag::schedule::{analyze, Schedule};
use rolag::{
    build_candidate_graph, candidate_variants, collect_candidates, roll_module, AlignGraph,
    Candidate, GraphBuilder, RolagOptions,
};
use rolag_ir::{Function, Module};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

#[derive(Debug, Default)]
struct Tally {
    refused: usize,
    accepted: usize,
    built: usize,
    /// Ungated graphs that claim one of their own loop inputs.
    refused_while_built: usize,
}

fn first_root(cand: &Candidate) -> &[rolag_ir::ValueId] {
    match cand {
        Candidate::Seeds { groups, .. } => &groups[0],
        Candidate::Reduction { leaves, .. } => leaves,
    }
}

/// Builds the candidate's roots on a fresh builder without the gate:
/// whether the first root was built, and the graph when every root was.
fn ungated(
    module: &Module,
    func: &mut Function,
    cand: &Candidate,
    opts: &RolagOptions,
) -> (bool, Option<AlignGraph>) {
    let mut builder = GraphBuilder::new(module, func, cand.block(), opts, cand.lanes());
    let (first, all) = match cand {
        Candidate::Seeds { groups, .. } => {
            let first = builder.build_seed_root(&groups[0]).is_some();
            let all = first
                && groups[1..]
                    .iter()
                    .all(|g| builder.build_seed_root(g).is_some());
            (first, all)
        }
        Candidate::Reduction {
            opcode,
            internal,
            leaves,
            carry,
            ty,
            ..
        } => {
            let built = builder
                .build_reduction_root(*opcode, internal.clone(), leaves, *carry, *ty)
                .is_some();
            (built, built)
        }
    };
    (first, all.then(|| builder.finish()))
}

fn same_schedule(a: &Option<Schedule>, b: &Option<Schedule>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.before == b.before && a.after == b.after && a.in_graph == b.in_graph
        }
        _ => false,
    }
}

fn check_candidate(
    module: &Module,
    func: &Function,
    cand: &Candidate,
    opts: &RolagOptions,
    tally: &mut Tally,
) {
    let mut work = func.clone();
    let gate = GraphBuilder::new(module, &mut work, cand.block(), opts, cand.lanes())
        .root_can_match(first_root(cand));
    let (first, full) = ungated(module, &mut work, cand, opts);
    let what = format!("@{} {cand:?}", func.name);
    if !gate {
        assert!(
            full.is_none(),
            "{what}: the gate refused a candidate whose ungated build succeeds"
        );
        tally.refused += 1;
    } else {
        tally.accepted += 1;
    }
    assert_eq!(gate, first, "{what}: gate and ungated first root disagree");

    let mut armed = func.clone();
    let gated = build_candidate_graph(module, &mut armed, cand, opts);
    let Some(full) = full else {
        assert!(
            gated.is_none(),
            "{what}: built a graph the ungated build fails"
        );
        return;
    };
    tally.built += 1;
    let block = cand.block();
    let want = analyze(module, &work, block, &full);
    if full.claimed_loop_input(&work).is_some() {
        assert!(
            gated.is_none(),
            "{what}: the ungated graph claims a loop input, but the build was not refused"
        );
        assert!(
            want.is_none(),
            "{what}: the scheduler accepts a graph that claims a loop input"
        );
        tally.refused_while_built += 1;
        return;
    }
    let Some(graph) = gated else {
        panic!("{what}: refused a graph that claims none of its loop inputs");
    };
    assert_eq!(graph.to_dot(), full.to_dot(), "{what}: graphs differ");
    assert!(
        same_schedule(&analyze(module, &armed, block, &graph), &want),
        "{what}: the scheduler's verdicts differ"
    );
}

fn check_module(module: &Module, tally: &mut Tally) {
    for opts in [RolagOptions::default(), RolagOptions::with_extensions()] {
        for id in module.func_ids() {
            let func = module.func(id);
            if func.is_declaration {
                continue;
            }
            for cand in collect_candidates(module, func, &opts) {
                if cand.lanes() < 2 {
                    continue;
                }
                check_candidate(module, func, &cand, &opts, tally);
                for variant in candidate_variants(module, func, &cand, &opts) {
                    check_candidate(module, func, &variant, &opts, tally);
                }
            }
        }
    }
}

/// Checks `modules` as given and after a default roll, and returns what
/// the corpus exercised.
fn check_corpus(label: &str, modules: impl IntoIterator<Item = Module>) -> Tally {
    let mut tally = Tally::default();
    for m in modules {
        check_module(&m, &mut tally);
        let mut rolled = m.clone();
        roll_module(&mut rolled, &RolagOptions::default());
        check_module(&rolled, &mut tally);
    }
    println!("{label}: {tally:?}");
    assert!(
        tally.refused > 0 && tally.accepted > 0,
        "{label}: the gate must both refuse and accept: {tally:?}"
    );
    tally
}

#[test]
fn gate_is_exact_on_raw_tsvc() {
    check_corpus("tsvc-raw", all_kernels().iter().map(build_kernel_module));
}

#[test]
fn gate_is_exact_on_unrolled_tsvc() {
    let tally = check_corpus(
        "tsvc",
        all_kernels().into_iter().map(|spec| {
            let mut m = build_kernel_module(&spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            m
        }),
    );
    assert!(tally.refused_while_built > 0, "{tally:?}");
}

#[test]
fn gate_is_exact_on_angha() {
    let config = AnghaConfig {
        functions: 128,
        ..AnghaConfig::default()
    };
    check_corpus("angha128", stream(&config).map(|(_, _, m)| m));
}

#[test]
fn gate_is_exact_on_table1() {
    let tally = check_corpus(
        "table1",
        TABLE1.iter().map(|spec| build_program(spec, 7, 0.02)),
    );
    assert!(tally.refused_while_built > 0, "{tally:?}");
}

#[test]
fn gate_is_exact_on_generated_modules() {
    check_corpus(
        "gen",
        (0..256).flat_map(|index| {
            let m = rolag_difftest::gen::generate_module(0, index);
            let mut unrolled = m.clone();
            unroll_module(&mut unrolled, 4);
            cleanup_module(&mut unrolled);
            [m, unrolled]
        }),
    );
}
