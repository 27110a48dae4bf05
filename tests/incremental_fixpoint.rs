//! Equivalence tests for the incremental fixpoint engine: on every input,
//! `roll_module` (dirty-block worklist + per-block size deltas + attempt
//! memoization) must produce a byte-identical printed module and identical
//! outcome statistics to `roll_module_full_rescan`, the retained
//! pre-incremental reference loop. Timings and cache counters are excluded
//! from statistics equality by `RolagStats`'s `PartialEq` itself.

use rolag::{roll_module, roll_module_full_rescan, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::Module;
use rolag_prng::{check::run_cases, ChaCha8Rng, Rng, SeedableRng};
use rolag_suites::angha::{build_pattern, PatternKind};
use rolag_suites::tsvc::build_suite_module;
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Rolls `module` with both engines under `opts` and asserts byte-identical
/// output and equal statistics. Returns the incremental engine's stats for
/// further cache-counter assertions.
fn assert_engines_agree_with(
    module: &Module,
    opts: &RolagOptions,
    label: &str,
) -> rolag::RolagStats {
    let mut reference = module.clone();
    let ref_stats = roll_module_full_rescan(&mut reference, opts);
    verify_module(&reference).expect("reference output verifies");

    let mut incremental = module.clone();
    let inc_stats = roll_module(&mut incremental, opts);
    verify_module(&incremental).expect("incremental output verifies");

    assert_eq!(
        print_module(&incremental),
        print_module(&reference),
        "module bytes diverged ({label})"
    );
    assert_eq!(inc_stats, ref_stats, "stats diverged ({label})");
    inc_stats
}

/// [`assert_engines_agree_with`] under the default options.
fn assert_engines_agree(module: &Module, label: &str) -> rolag::RolagStats {
    assert_engines_agree_with(module, &RolagOptions::default(), label)
}

/// The whole TSVC suite, raw and after the unroll→CSE→cleanup pipeline
/// (the pipelined form is where most rolls actually happen).
#[test]
fn engines_agree_on_tsvc_suite() {
    let raw = build_suite_module();
    assert_engines_agree(&raw, "tsvc raw");

    let mut pipelined = raw.clone();
    unroll_module(&mut pipelined, 8);
    cse_module(&mut pipelined);
    cleanup_module(&mut pipelined);
    assert_engines_agree(&pipelined, "tsvc unroll8+cse+cleanup");
}

/// Measured-cost mode (profitability from the `rolag-lower` binary-size
/// simulator, incremental via the per-block regalloc sketch) must agree
/// with the full-rescan reference — which re-lowers the whole function
/// from scratch on every decision — on the entire TSVC suite. In debug
/// builds every sweep additionally cross-checks the sketch against a full
/// `measure_function` via `debug_assert_eq!`.
#[test]
fn engines_agree_on_tsvc_suite_measured() {
    let opts = RolagOptions::measured();
    let raw = build_suite_module();
    assert_engines_agree_with(&raw, &opts, "tsvc raw (measured)");

    let mut pipelined = raw.clone();
    unroll_module(&mut pipelined, 8);
    cse_module(&mut pipelined);
    cleanup_module(&mut pipelined);
    let stats = assert_engines_agree_with(&pipelined, &opts, "tsvc unroll8+cse+cleanup (measured)");
    assert!(stats.rolled > 0, "measured mode must still commit rolls");
}

/// Measured-cost mode over random pattern mixes: the trial-sketch delta
/// path (clone, invalidate changed ∪ one-hop fold neighbourhood, re-select,
/// recombine) must equal full re-lowering on every profitability decision.
#[test]
fn engines_agree_on_random_modules_measured() {
    let opts = RolagOptions::measured();
    run_cases(
        "engines_agree_on_random_modules_measured",
        12,
        0x0603,
        |rng, case| {
            let mut m = Module::new("incr.measured");
            let kinds = PatternKind::all();
            let n = rng.gen_range(1usize..5);
            for i in 0..n {
                let kind = kinds[rng.gen_range(0usize..kinds.len())];
                build_pattern(&mut m, rng, kind, i);
            }
            verify_module(&m).expect("generated module verifies");
            assert_engines_agree_with(&m, &opts, &format!("measured random case {case}"));
        },
    );
}

/// A multi-function AnghaBench-like module mixing every pattern family.
#[test]
fn engines_agree_on_angha_module() {
    let mut m = Module::new("angha.multi");
    let mut rng = ChaCha8Rng::seed_from_u64(0x0601);
    let kinds = PatternKind::all();
    for i in 0..36 {
        build_pattern(&mut m, &mut rng, kinds[i % kinds.len()], i);
    }
    verify_module(&m).expect("generated module verifies");
    assert_engines_agree(&m, "angha multi-pattern");
}

/// Randomized property: random pattern mixes and random unrolled (and
/// partially flattened) counted loops never make the engines disagree.
#[test]
fn engines_agree_on_random_modules() {
    run_cases(
        "engines_agree_on_random_modules",
        32,
        0x0602,
        |rng, case| {
            let mut m = Module::new("incr.prop");
            let kinds = PatternKind::all();
            let n = rng.gen_range(1usize..5);
            for i in 0..n {
                let kind = kinds[rng.gen_range(0usize..kinds.len())];
                build_pattern(&mut m, rng, kind, i);
            }
            verify_module(&m).expect("generated module verifies");
            assert_engines_agree(&m, &format!("random patterns case {case}"));

            // A random counted loop, fully or partially flattened by unrolling.
            let mul_k = rng.gen_range(1i64..9);
            let add_k = rng.gen_range(-8i64..9);
            let trips = rng.gen_range(1i64..8) * 8;
            let factor = [2u32, 4, 8][rng.gen_range(0usize..3)];
            let text = format!(
                r#"
module "lp"
global @a : [64 x i32] = zero
func @f() -> i32 {{
entry:
  br loop
loop:
  %iv = phi i64 [ i64 0, entry ], [ %ivn, loop ]
  %t = trunc i32 %iv
  %m = mul i32 %t, i32 {mul_k}
  %v = add i32 %m, i32 {add_k}
  %q = gep i32, @a, %iv
  store %v, %q
  %ivn = add i64 %iv, i64 1
  %c = icmp slt %ivn, i64 {trips}
  condbr %c, loop, exit
exit:
  %r = load i32, @a
  ret %r
}}
"#
            );
            let mut unrolled = parse_module(&text).unwrap();
            unroll_module(&mut unrolled, factor);
            cse_module(&mut unrolled);
            cleanup_module(&mut unrolled);
            assert_engines_agree(&unrolled, &format!("random loop case {case}"));
        },
    );
}

/// On a many-commit function (several value-disconnected rollable blocks
/// plus a short unprofitable tail block) the caches must actually kick in:
/// clean blocks are served from the candidate and size caches instead of
/// being re-scanned every sweep, and the tail block's repeated reject is
/// replayed from the memo instead of being rebuilt.
#[test]
fn caches_are_effective_on_many_commit_input() {
    let blocks = 12;
    let mut text = String::from("module \"many\"\nglobal @t : [2 x i32] = zero\n");
    for b in 0..blocks {
        text.push_str(&format!("global @g{b} : [8 x i32] = zero\n"));
    }
    // The short block comes first so every sweep visits (and rejects) its
    // candidate before reaching that sweep's commit.
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
    let stats = assert_engines_agree(&module, "many-commit synthetic");

    assert_eq!(stats.rolled as usize, blocks, "every store block rolls");
    // With `blocks` commits, the full-rescan engine would re-scan every
    // block every sweep; the incremental engine must mostly reuse.
    assert!(
        stats.cache.cand_blocks_reused > stats.cache.cand_blocks_scanned,
        "candidate cache ineffective: {:?}",
        stats.cache
    );
    assert!(
        stats.cache.size_blocks_reused > stats.cache.size_blocks_computed,
        "size cache ineffective: {:?}",
        stats.cache
    );
    // The tail block is rejected once per sweep; all but the first are
    // memo replays.
    assert!(
        stats.cache.memo_hits > 0,
        "memoized verdicts never replayed: {:?}",
        stats.cache
    );
}

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

    type Engine = fn(&mut Module, &RolagOptions) -> rolag::RolagStats;
    let runs: [(Engine, RolagOptions); 5] = [
        (roll_module, RolagOptions::default()),
        (roll_module, RolagOptions::measured()),
        (roll_module_full_rescan, RolagOptions::default()),
        (roll_module, RolagOptions::validated()),
        (roll_module, RolagOptions::searched(4)),
    ];
    for (engine, opts) in runs {
        let mut rolled = module.clone();
        let stats = engine(&mut rolled, &opts);
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

/// Rejections interleaved with commits: each sweep of the many-commit
/// input rejects the short block's candidate *before* committing a roll,
/// so the per-block size state (`BlockSizeCache`, and the regalloc
/// `SizeSketch` under measured costs) carries across a rollback into the
/// very next profitability decision. Any stale carry diverges from the
/// full-rescan reference byte-for-byte or trips the debug parity asserts
/// that cross-check the sketch against a from-scratch `measure_function`
/// every sweep. The cache counters prove the carried state was *used*
/// after rollbacks rather than conservatively rebuilt.
#[test]
fn rejects_before_commits_reuse_carried_size_state() {
    let blocks = 6;
    let mut text = String::from("module \"mix\"\nglobal @t : [2 x i32] = zero\n");
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

    for (opts, label) in [
        (RolagOptions::default(), "mix default"),
        (RolagOptions::measured(), "mix measured"),
    ] {
        let stats = assert_engines_agree_with(&module, &opts, label);
        assert_eq!(stats.rolled as usize, blocks, "{label}: all blocks roll");
        assert!(
            stats.rejected_profit > 0,
            "{label}: the short block must be rejected each sweep"
        );
        assert!(
            stats.cache.size_blocks_reused > 0,
            "{label}: size state must be served from carry after rollbacks: {:?}",
            stats.cache
        );
        assert!(
            stats.cache.cand_blocks_reused > 0,
            "{label}: candidate lists must be served from carry: {:?}",
            stats.cache
        );
    }
}
