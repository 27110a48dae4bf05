//! Exactness of the root gate in `build_candidate_graph`.
//!
//! Before it builds anything, `build_candidate_graph` asks
//! `GraphBuilder::root_can_match` whether the candidate's first root group
//! (the seed group `groups[0]`, or the reduction leaves) can become a
//! `Match` node, and returns `None` at once when it cannot. That is only
//! behaviour-preserving if the gate never refuses a group the full builder
//! would have matched. This test checks it against ungated builds: for
//! every candidate collected from every function (plus the beam search's
//! variants of it), before and after rolling, it calls
//! `build_seed_root`/`build_reduction_root` directly on a fresh
//! `GraphBuilder` and asserts that
//!
//! * the gate accepts exactly when the ungated first root is a `Match`,
//! * a refused candidate's ungated build returns `None`, and an ungated
//!   build that returns `Some` was accepted by the gate.
//!
//! Each corpus must produce at least one refusal and one acceptance.

use rolag::{
    candidate_variants, collect_candidates, roll_module, Candidate, GraphBuilder, RolagOptions,
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
}

fn first_root(cand: &Candidate) -> &[rolag_ir::ValueId] {
    match cand {
        Candidate::Seeds { groups, .. } => &groups[0],
        Candidate::Reduction { leaves, .. } => leaves,
    }
}

/// Builds the candidate's roots on a fresh builder without the gate:
/// `(first root built, every root built)`.
fn ungated(
    module: &Module,
    func: &mut Function,
    cand: &Candidate,
    opts: &RolagOptions,
) -> (bool, bool) {
    let mut builder = GraphBuilder::new(module, func, cand.block(), opts, cand.lanes());
    match cand {
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
    let (first, all) = ungated(module, &mut work, cand, opts);
    let what = format!("@{} {cand:?}", func.name);
    if !gate {
        assert!(
            !all,
            "{what}: the gate refused a candidate whose ungated build succeeds"
        );
        tally.refused += 1;
    } else {
        tally.accepted += 1;
    }
    assert_eq!(gate, first, "{what}: gate and ungated first root disagree");
    tally.built += usize::from(all);
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

/// Checks `modules` as given and after a default roll.
fn check_corpus(label: &str, modules: impl IntoIterator<Item = Module>) {
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
}

#[test]
fn gate_is_exact_on_unrolled_tsvc() {
    check_corpus(
        "tsvc",
        all_kernels().into_iter().map(|spec| {
            let mut m = build_kernel_module(&spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            m
        }),
    );
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
    check_corpus(
        "table1",
        TABLE1.iter().map(|spec| build_program(spec, 7, 0.02)),
    );
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
