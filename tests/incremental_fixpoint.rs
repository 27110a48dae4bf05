//! The greedy fixpoint engine, pinned. `greedy_outputs_are_pinned` fixes
//! the printed modules and every outcome counter of `roll_module` on five
//! corpora under the `default`, `measured` and `validated` presets, and
//! `discarded_speculation_leaves_no_observable_trace` checks that a rejected
//! candidate's speculation is rolled back exactly under every preset the
//! engine runs.

use rolag::{roll_module, NodeKindCounts, RolagOptions, RolagStats};
use rolag_difftest::generate_module;
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::Module;
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::build_suite_module;
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// A function whose only candidate is rejected every sweep: the discarded
/// speculation must leave *no* observable trace on the function that lands
/// back in the module. The engine speculates in place under a snapshot
/// journal, so this pins rollback exactness — bytes, value-arena length
/// (rejected graph builds intern constants that rollback must un-intern),
/// and the revision counter (a bump would poison downstream
/// revision-keyed caches as if the function had changed).
#[test]
fn discarded_speculation_leaves_no_observable_trace() {
    let text = r#"
module "reject"
global @t : [2 x i32] = zero
func @f() -> void {
entry:
  %t0 = gep i32, @t, i64 0
  store i32 1, %t0
  %t1 = gep i32, @t, i64 1
  store i32 8, %t1
  ret
}
"#;
    let module = parse_module(text).unwrap();
    let id = module.func_ids().next().unwrap();
    let before_print = print_module(&module);
    let before_revision = module.func(id).revision();
    let before_values = module.func(id).num_values();

    let runs = [
        RolagOptions::default(),
        RolagOptions::measured(),
        RolagOptions::validated(),
        RolagOptions::searched(4),
    ];
    for opts in runs {
        let mut rolled = module.clone();
        let stats = roll_module(&mut rolled, &opts);
        assert!(stats.attempted > 0, "the candidate must at least be tried");
        assert_eq!(stats.rolled, 0, "the candidate must be rejected");
        assert_eq!(print_module(&rolled), before_print, "bytes changed");
        assert_eq!(
            rolled.func(id).revision(),
            before_revision,
            "a discarded candidate must not bump the revision counter"
        );
        assert_eq!(
            rolled.func(id).num_values(),
            before_values,
            "rollback must un-intern speculative constants"
        );
    }
}

/// The many-commit function: a short unprofitable block, then `blocks`
/// value-disconnected blocks of 8 monotonic stores that each roll.
fn many_commit_module(blocks: usize) -> Module {
    let mut text = String::from("module \"many\"\nglobal @t : [2 x i32] = zero\n");
    for b in 0..blocks {
        text.push_str(&format!("global @g{b} : [8 x i32] = zero\n"));
    }
    text.push_str(
        "func @f() -> void {\nentry:\n  br short\nshort:\n\
         \x20 %t0 = gep i32, @t, i64 0\n  store i32 1, %t0\n\
         \x20 %t1 = gep i32, @t, i64 1\n  store i32 8, %t1\n  br b0\n",
    );
    for b in 0..blocks {
        text.push_str(&format!("b{b}:\n"));
        for i in 0..8 {
            text.push_str(&format!("  %p{b}_{i} = gep i32, @g{b}, i64 {i}\n"));
            text.push_str(&format!("  store i32 {}, %p{b}_{i}\n", b * 100 + i * 7));
        }
        if b + 1 < blocks {
            text.push_str(&format!("  br b{}\n", b + 1));
        } else {
            text.push_str("  ret\n");
        }
    }
    text.push_str("}\n");
    let module = parse_module(&text).unwrap();
    verify_module(&module).expect("generated module verifies");
    module
}

/// The pinned greedy result of one corpus under one preset: an FNV-1a-64
/// digest of the printed modules (concatenated in corpus order) and the
/// summed outcome counters.
#[derive(Debug, PartialEq, Eq)]
struct GreedyPin {
    corpus: &'static str,
    preset: &'static str,
    digest: u64,
    attempted: u64,
    rejected_lanes: u64,
    rejected_schedule: u64,
    rejected_profit: u64,
    tv_validated: u64,
    tv_rejected: u64,
    rolled: u64,
    nodes: NodeKindCounts,
    size_before: u64,
    size_after: u64,
    rescued: u64,
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Rolls every module of a corpus with `roll_module` under `preset` and
/// summarises the result.
fn greedy_pin(corpus: &'static str, preset: &'static str, modules: &[Module]) -> GreedyPin {
    let opts = RolagOptions::preset(preset).expect("known preset");
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut s = RolagStats::default();
    for m in modules {
        let mut m = m.clone();
        s += roll_module(&mut m, &opts);
        verify_module(&m).expect("rolled module verifies");
        fnv1a(&mut digest, print_module(&m).as_bytes());
    }
    GreedyPin {
        corpus,
        preset,
        digest,
        attempted: s.attempted,
        rejected_lanes: s.rejected_lanes,
        rejected_schedule: s.rejected_schedule,
        rejected_profit: s.rejected_profit,
        tv_validated: s.tv_validated,
        tv_rejected: s.tv_rejected,
        rolled: s.rolled,
        nodes: s.nodes,
        size_before: s.size_before,
        size_after: s.size_after,
        rescued: s.rescued,
    }
}

/// Pins the greedy engine's output and outcome counters under the
/// `default`, `measured` and `validated` presets on five corpora: the
/// TSVC suite module raw and after unroll x8, CSE and cleanup, 128
/// AnghaBench-like functions (generator seed `0x0a17_4a90`), the
/// 256-module generator sweep (seed 0), and the 12-block many-commit
/// function. A change to the engine that is meant to keep its decisions
/// must leave this table alone.
///
/// To regenerate after an intended behaviour change, run
/// `cargo test --release --test incremental_fixpoint greedy_outputs_are_pinned -- --nocapture`
/// and paste the printed table over `PINNED`.
#[test]
fn greedy_outputs_are_pinned() {
    let raw = build_suite_module();
    let mut unrolled = raw.clone();
    unroll_module(&mut unrolled, 8);
    cse_module(&mut unrolled);
    cleanup_module(&mut unrolled);
    let angha: Vec<Module> = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    })
    .map(|(_, _, m)| m)
    .collect();
    let generated: Vec<Module> = (0..256).map(|i| generate_module(0, i)).collect();
    let corpora: [(&'static str, Vec<Module>); 5] = [
        ("tsvc", vec![raw]),
        ("tsvc-unrolled", vec![unrolled]),
        ("angha128", angha),
        ("generated256", generated),
        ("many-commit", vec![many_commit_module(12)]),
    ];
    let mut actual = Vec::new();
    for (corpus, modules) in &corpora {
        for preset in ["default", "measured", "validated"] {
            actual.push(greedy_pin(corpus, preset, modules));
        }
    }
    println!("const PINNED: &[GreedyPin] = &{actual:#?};");
    assert_eq!(actual.as_slice(), PINNED, "greedy output or counters moved");
}

const PINNED: &[GreedyPin] = &[
    GreedyPin {
        corpus: "tsvc",
        preset: "default",
        digest: 18187271649061291786,
        attempted: 14,
        rejected_lanes: 0,
        rejected_schedule: 4,
        rejected_profit: 7,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 3,
        nodes: NodeKindCounts {
            matching: 6,
            identical: 6,
            mismatching: 0,
            sequence: 3,
            gep_neutral: 0,
            binop_neutral: 3,
            recurrence: 0,
            reduction: 3,
        },
        size_before: 6398,
        size_after: 6376,
        rescued: 0,
    },
    GreedyPin {
        corpus: "tsvc",
        preset: "measured",
        digest: 7835462427508832916,
        attempted: 14,
        rejected_lanes: 0,
        rejected_schedule: 4,
        rejected_profit: 10,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 0,
        nodes: NodeKindCounts {
            matching: 0,
            identical: 0,
            mismatching: 0,
            sequence: 0,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 0,
        },
        size_before: 6012,
        size_after: 6012,
        rescued: 0,
    },
    GreedyPin {
        corpus: "tsvc",
        preset: "validated",
        digest: 18187271649061291786,
        attempted: 14,
        rejected_lanes: 0,
        rejected_schedule: 4,
        rejected_profit: 7,
        tv_validated: 10,
        tv_rejected: 0,
        rolled: 3,
        nodes: NodeKindCounts {
            matching: 6,
            identical: 6,
            mismatching: 0,
            sequence: 3,
            gep_neutral: 0,
            binop_neutral: 3,
            recurrence: 0,
            reduction: 3,
        },
        size_before: 6398,
        size_after: 6376,
        rescued: 0,
    },
    GreedyPin {
        corpus: "tsvc-unrolled",
        preset: "default",
        digest: 147674163690525001,
        attempted: 183,
        rejected_lanes: 0,
        rejected_schedule: 99,
        rejected_profit: 6,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 78,
        nodes: NodeKindCounts {
            matching: 663,
            identical: 354,
            mismatching: 0,
            sequence: 78,
            gep_neutral: 0,
            binop_neutral: 78,
            recurrence: 2,
            reduction: 9,
        },
        size_before: 30116,
        size_after: 16940,
        rescued: 0,
    },
    GreedyPin {
        corpus: "tsvc-unrolled",
        preset: "measured",
        digest: 3587582249348571157,
        attempted: 181,
        rejected_lanes: 0,
        rejected_schedule: 97,
        rejected_profit: 7,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 77,
        nodes: NodeKindCounts {
            matching: 657,
            identical: 351,
            mismatching: 0,
            sequence: 77,
            gep_neutral: 0,
            binop_neutral: 77,
            recurrence: 2,
            reduction: 9,
        },
        size_before: 28692,
        size_after: 16590,
        rescued: 0,
    },
    GreedyPin {
        corpus: "tsvc-unrolled",
        preset: "validated",
        digest: 147674163690525001,
        attempted: 183,
        rejected_lanes: 0,
        rejected_schedule: 99,
        rejected_profit: 6,
        tv_validated: 84,
        tv_rejected: 0,
        rolled: 78,
        nodes: NodeKindCounts {
            matching: 663,
            identical: 354,
            mismatching: 0,
            sequence: 78,
            gep_neutral: 0,
            binop_neutral: 78,
            recurrence: 2,
            reduction: 9,
        },
        size_before: 30116,
        size_after: 16940,
        rescued: 0,
    },
    GreedyPin {
        corpus: "angha128",
        preset: "default",
        digest: 6989878837222215821,
        attempted: 4547,
        rejected_lanes: 0,
        rejected_schedule: 4334,
        rejected_profit: 97,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 116,
        nodes: NodeKindCounts {
            matching: 370,
            identical: 187,
            mismatching: 19,
            sequence: 181,
            gep_neutral: 23,
            binop_neutral: 10,
            recurrence: 9,
            reduction: 17,
        },
        size_before: 164617,
        size_after: 153080,
        rescued: 0,
    },
    GreedyPin {
        corpus: "angha128",
        preset: "measured",
        digest: 3282151816559599666,
        attempted: 4547,
        rejected_lanes: 0,
        rejected_schedule: 4334,
        rejected_profit: 105,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 108,
        nodes: NodeKindCounts {
            matching: 354,
            identical: 178,
            mismatching: 12,
            sequence: 172,
            gep_neutral: 23,
            binop_neutral: 9,
            recurrence: 9,
            reduction: 17,
        },
        size_before: 215116,
        size_after: 201209,
        rescued: 0,
    },
    GreedyPin {
        corpus: "angha128",
        preset: "validated",
        digest: 6989878837222215821,
        attempted: 4547,
        rejected_lanes: 0,
        rejected_schedule: 4334,
        rejected_profit: 97,
        tv_validated: 213,
        tv_rejected: 0,
        rolled: 116,
        nodes: NodeKindCounts {
            matching: 370,
            identical: 187,
            mismatching: 19,
            sequence: 181,
            gep_neutral: 23,
            binop_neutral: 10,
            recurrence: 9,
            reduction: 17,
        },
        size_before: 164617,
        size_after: 153080,
        rescued: 0,
    },
    GreedyPin {
        corpus: "generated256",
        preset: "default",
        digest: 1920933578225066623,
        attempted: 435,
        rejected_lanes: 0,
        rejected_schedule: 9,
        rejected_profit: 198,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 228,
        nodes: NodeKindCounts {
            matching: 620,
            identical: 279,
            mismatching: 26,
            sequence: 258,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 96,
        },
        size_before: 24313,
        size_after: 18582,
        rescued: 0,
    },
    GreedyPin {
        corpus: "generated256",
        preset: "measured",
        digest: 16761961072473565624,
        attempted: 433,
        rejected_lanes: 0,
        rejected_schedule: 7,
        rejected_profit: 215,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 211,
        nodes: NodeKindCounts {
            matching: 578,
            identical: 254,
            mismatching: 17,
            sequence: 236,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 93,
        },
        size_before: 21038,
        size_after: 16067,
        rescued: 0,
    },
    GreedyPin {
        corpus: "generated256",
        preset: "validated",
        digest: 1920933578225066623,
        attempted: 435,
        rejected_lanes: 0,
        rejected_schedule: 9,
        rejected_profit: 198,
        tv_validated: 426,
        tv_rejected: 0,
        rolled: 228,
        nodes: NodeKindCounts {
            matching: 620,
            identical: 279,
            mismatching: 26,
            sequence: 258,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 96,
        },
        size_before: 24313,
        size_after: 18582,
        rescued: 0,
    },
    GreedyPin {
        corpus: "many-commit",
        preset: "default",
        digest: 6910750967687498233,
        attempted: 25,
        rejected_lanes: 0,
        rejected_schedule: 0,
        rejected_profit: 13,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 12,
        nodes: NodeKindCounts {
            matching: 24,
            identical: 12,
            mismatching: 0,
            sequence: 24,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 0,
        },
        size_before: 619,
        size_after: 315,
        rescued: 0,
    },
    GreedyPin {
        corpus: "many-commit",
        preset: "measured",
        digest: 6910750967687498233,
        attempted: 25,
        rejected_lanes: 0,
        rejected_schedule: 0,
        rejected_profit: 13,
        tv_validated: 0,
        tv_rejected: 0,
        rolled: 12,
        nodes: NodeKindCounts {
            matching: 24,
            identical: 12,
            mismatching: 0,
            sequence: 24,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 0,
        },
        size_before: 744,
        size_after: 441,
        rescued: 0,
    },
    GreedyPin {
        corpus: "many-commit",
        preset: "validated",
        digest: 6910750967687498233,
        attempted: 25,
        rejected_lanes: 0,
        rejected_schedule: 0,
        rejected_profit: 13,
        tv_validated: 25,
        tv_rejected: 0,
        rolled: 12,
        nodes: NodeKindCounts {
            matching: 24,
            identical: 12,
            mismatching: 0,
            sequence: 24,
            gep_neutral: 0,
            binop_neutral: 0,
            recurrence: 0,
            reduction: 0,
        },
        size_before: 619,
        size_after: 315,
        rescued: 0,
    },
];
