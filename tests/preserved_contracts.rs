//! Preserved-analysis contract tests: every registered pass is run on an
//! input where it actually fires, and every analysis cache entry that
//! survives the pass's [`PreservedAnalyses`] contract is checked bit-equal
//! to a fresh recomputation (`AnalysisManager::verify_cached`). An
//! over-claimed contract — a pass reporting "dominators survived" after a
//! CFG edit — fails here in both debug and release builds, and also trips
//! the analysis manager's hit-path `debug_assert_eq!` checker in any debug
//! run that serves the stale entry.

use rolag::{roll_module, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use rolag_passes::{AnalysisManager, PassContext, PassManager, PassRegistry, TargetKind};
use rolag_suites::tsvc::build_suite_module;
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Fills the cache with every analysis kind for every definition:
/// dominators, loop forests, and the effects table.
fn prime(am: &mut AnalysisManager, m: &Module) {
    am.effects(m);
    for id in m.func_ids() {
        if m.func(id).is_declaration {
            continue;
        }
        am.dom(m, id);
        am.loops(m, id);
    }
}

fn cached(am: &AnalysisManager, kind: &str) -> usize {
    am.cached_counts()
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, n)| *n)
        .expect("known kind")
}

/// Primes the cache, runs the single pass named `name` (param for
/// `unroll`), applies its contract, and verifies every surviving entry
/// against recomputation. Returns (module changed?, the manager).
fn run_one(name: &str, param: Option<&str>, module: &mut Module) -> (bool, AnalysisManager) {
    let mut am = AnalysisManager::new();
    prime(&mut am, module);
    let info = PassRegistry::builtin().find(name).expect("registered");
    let mut pm = PassManager::new();
    pm.add(info.build(param).expect("builds"));
    let mut cx = PassContext::new(TargetKind::default());
    let before = print_module(module);
    pm.run(module, &mut am, &mut cx).expect("pipeline runs");
    let changed = print_module(module) != before;
    am.verify_cached(module)
        .unwrap_or_else(|e| panic!("pass `{name}` over-claimed its contract: {e}"));
    (changed, am)
}

/// A straight-line store run that RoLAG rolls into a loop.
const ROLLABLE: &str = r#"
module "roll"
global @g : [8 x i32] = zero
func @f() -> void {
entry:
  %p0 = gep i32, @g, i64 0
  store i32 10, %p0
  %p1 = gep i32, @g, i64 1
  store i32 17, %p1
  %p2 = gep i32, @g, i64 2
  store i32 24, %p2
  %p3 = gep i32, @g, i64 3
  store i32 31, %p3
  %p4 = gep i32, @g, i64 4
  store i32 38, %p4
  %p5 = gep i32, @g, i64 5
  store i32 45, %p5
  %p6 = gep i32, @g, i64 6
  store i32 52, %p6
  %p7 = gep i32, @g, i64 7
  store i32 59, %p7
  ret
}
"#;

/// Identical stores through one pointer: rollable even with every special
/// node kind disabled (`no-special` has no integer-sequence abstraction,
/// so the varying constants of [`ROLLABLE`] would not align).
const NS_ROLLABLE: &str = r#"
module "roll"
global @g : [8 x i32] = zero
func @f(ptr %p0) -> void {
entry:
  store i32 7, %p0
  store i32 7, %p0
  store i32 7, %p0
  store i32 7, %p0
  store i32 7, %p0
  store i32 7, %p0
  store i32 7, %p0
  store i32 7, %p0
  ret
}
"#;

/// A counted loop the unroller accepts (8 trips, divisible by 4).
const COUNTED_LOOP: &str = r#"
module "lp"
global @a : [8 x i32] = zero
func @f() -> i32 {
entry:
  br loop
loop:
  %iv = phi i64 [ i64 0, entry ], [ %ivn, loop ]
  %t = trunc i32 %iv
  %m = mul i32 %t, i32 3
  %q = gep i32, @a, %iv
  store %m, %q
  %ivn = add i64 %iv, i64 1
  %c = icmp slt %ivn, i64 8
  condbr %c, loop, exit
exit:
  %r = load i32, @a
  ret %r
}
"#;

/// A 1-step counted loop with an `i32` induction variable; unrolled by 4
/// it is the canonical reroller input.
const REROLLABLE: &str = r#"
module "rr"
global @a : [32 x i32] = zero
func @f() -> void {
entry:
  br loop
loop:
  %iv = phi i32 [ i32 0, entry ], [ %ivn, loop ]
  %g = gep i32, @a, %iv
  %m = mul i32 %iv, i32 3
  store %m, %g
  %ivn = add i32 %iv, i32 1
  %cmp = icmp slt %ivn, i32 32
  condbr %cmp, loop, exit
exit:
  ret
}
"#;

/// Duplicate subexpressions for CSE.
const DUPLICATED: &str = r#"
module "dup"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 %p0, i32 5
  %2 = add i32 %p0, i32 5
  %3 = mul i32 %1, %2
  ret %3
}
"#;

/// Foldable constants, dead code, and an unreachable block — cleanup
/// rewrites instructions *and* seals the dead block, the exact case the
/// "sealing keeps dominators" argument covers.
const CLEANUPABLE: &str = r#"
module "cl"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 i32 2, i32 3
  %2 = add i32 %p0, %1
  %3 = mul i32 %2, i32 7
  br join
dead:
  %4 = add i32 %p0, i32 9
  br join
join:
  %5 = phi i32 [ %2, entry ], [ %4, dead ]
  ret %5
}
"#;

/// The RoLAG-style two-level nest the flattener rewrites (same shape as
/// the transform's own tests).
const NEST: &str = r#"
module "n"
global @a : [32 x i64] = zero
func @f() -> i64 {
entry:
  br outerh
outerh:
  %iv = phi i64 [ i64 0, entry ], [ %ivn, outerl ]
  br inner
inner:
  %iv2 = phi i64 [ i64 0, outerh ], [ %iv2n, inner ]
  %idx = add i64 %iv, %iv2
  %q = gep i64, @a, %idx
  store %idx, %q
  %iv2n = add i64 %iv2, i64 1
  %c2 = icmp slt %iv2n, i64 4
  condbr %c2, inner, outerl
outerl:
  %ivn = add i64 %iv, i64 4
  %c = icmp slt %ivn, i64 32
  condbr %c, outerh, exit
exit:
  %p = gep i64, @a, i64 17
  %v = load i64, %p
  ret %v
}
"#;

/// CFG-preserving passes: after a run that *did* change the module, the
/// dominator tree and loop forest must survive the contract and match
/// recomputation.
#[test]
fn instruction_level_passes_keep_cfg_analyses() {
    // The reroller inverts the unroller: unroll by 4 and clean up, exactly
    // the shape its pattern matcher reconstructs a 1-step loop from.
    let unrolled = || {
        let mut m = parse_module(REROLLABLE).unwrap();
        unroll_module(&mut m, 4);
        cleanup_module(&mut m);
        m
    };
    let cases: Vec<(&str, Option<&str>, Module)> = vec![
        ("cse", None, parse_module(DUPLICATED).unwrap()),
        ("cleanup", None, parse_module(CLEANUPABLE).unwrap()),
        ("simplify", None, parse_module(CLEANUPABLE).unwrap()),
        ("dce", None, parse_module(CLEANUPABLE).unwrap()),
        ("unroll", Some("4"), parse_module(COUNTED_LOOP).unwrap()),
        ("reroll", None, unrolled()),
    ];
    for (name, param, mut m) in cases {
        let (changed, am) = run_one(name, param, &mut m);
        assert!(changed, "`{name}` fixture did not fire");
        assert!(
            cached(&am, "dom") > 0 && cached(&am, "loops") > 0,
            "`{name}` should preserve dominators and loops, counts: {:?}",
            am.cached_counts()
        );
        assert_eq!(
            cached(&am, "effects"),
            1,
            "`{name}` drops the effects table"
        );
    }
}

/// CFG-restructuring passes: after a firing run, only the effects table
/// may survive.
#[test]
fn cfg_restructuring_passes_drop_cfg_analyses() {
    let cases: Vec<(&str, Option<&str>, Module)> = vec![
        ("rolag", None, parse_module(ROLLABLE).unwrap()),
        ("rolag-ext", None, parse_module(ROLLABLE).unwrap()),
        ("no-special", None, parse_module(NS_ROLLABLE).unwrap()),
        ("tv", None, parse_module(ROLLABLE).unwrap()),
        ("flatten", None, parse_module(NEST).unwrap()),
    ];
    for (name, param, mut m) in cases {
        let (changed, am) = run_one(name, param, &mut m);
        assert!(changed, "`{name}` fixture did not fire");
        assert_eq!(
            (cached(&am, "dom"), cached(&am, "loops")),
            (0, 0),
            "`{name}` restructures the CFG; dominators/loops must be dropped"
        );
        assert_eq!(
            cached(&am, "effects"),
            1,
            "`{name}` drops the effects table"
        );
    }
}

/// A pass that changes nothing preserves *everything* — the second
/// cleanup of an already-clean module keeps the effects table and the CFG
/// analyses alive.
#[test]
fn no_change_runs_preserve_everything() {
    let mut m = parse_module(CLEANUPABLE).unwrap();
    cleanup_module(&mut m);
    let (changed, am) = run_one("cleanup", None, &mut m);
    assert!(!changed, "module was pre-cleaned");
    assert!(
        cached(&am, "effects") == 1 && cached(&am, "dom") > 0 && cached(&am, "loops") > 0,
        "a no-op run must keep every cached analysis, counts: {:?}",
        am.cached_counts()
    );
}

/// Per-function preservation: a function pass that rewrites only one
/// function must not drop its neighbours' cached analyses. `@cold` here is
/// already CSE-clean, so after a `cse` run that rewrites only `@hot`,
/// `@cold`'s dominator tree and loop forest keep serving hits — while
/// `@hot` pays exactly its own contract (CFG analyses survive).
#[test]
fn function_pass_keeps_neighbour_caches() {
    let text = r#"
module "pf"
global @a : [4 x i32] = zero
func @hot(i32 %p0) -> i32 {
entry:
  %1 = add i32 %p0, i32 5
  %2 = add i32 %p0, i32 5
  %3 = mul i32 %1, %2
  %g = gep i32, @a, i64 1
  store %3, %g
  ret %3
}
func @cold() -> i32 {
entry:
  %p = gep i32, @a, i64 2
  %v = load i32, %p
  ret %v
}
"#;
    let mut m = parse_module(text).unwrap();
    let (changed, mut am) = run_one("cse", None, &mut m);
    assert!(changed, "cse fixture did not fire");
    let hot = m.func_by_name("hot").unwrap();
    let cold = m.func_by_name("cold").unwrap();

    let before = am.stats;
    am.dom(&m, cold);
    am.loops(&m, cold);
    assert_eq!(
        (am.stats.dom_misses, am.stats.loops_misses),
        (before.dom_misses, before.loops_misses),
        "the untouched neighbour's analyses must all survive a cse run \
         that changed only @hot"
    );

    // The changed function's CFG analyses survived its own contract (cse
    // never touches blocks/edges).
    am.dom(&m, hot);
    am.loops(&m, hot);
    assert_eq!(
        (am.stats.dom_misses, am.stats.loops_misses),
        (before.dom_misses, before.loops_misses),
        "@hot's CFG analyses are preserved by cse's own contract"
    );
}

/// The full evaluation pipeline over the TSVC suite, pass by pass: prime
/// every analysis before each pass, apply its contract after, and verify
/// each surviving entry against recomputation. This exercises the
/// contracts on realistic kernels (unreachable-block sealing, partially
/// unrollable loops, rolled and unrolled functions alike).
#[test]
fn contracts_hold_across_the_tsvc_pipeline() {
    let mut m = build_suite_module();
    let registry = PassRegistry::builtin();
    for (name, param) in [
        ("unroll", Some("8")),
        ("cse", None),
        ("cleanup", None),
        ("rolag", None),
        ("flatten", None),
        ("cleanup", None),
        ("reroll", None),
    ] {
        let mut am = AnalysisManager::new();
        prime(&mut am, &m);
        let info = registry.find(name).expect("registered");
        let mut pm = PassManager::new();
        pm.add(info.build(param).expect("builds"));
        let mut cx = PassContext::new(TargetKind::default());
        pm.run(&mut m, &mut am, &mut cx).expect("pipeline runs");
        am.verify_cached(&m)
            .unwrap_or_else(|e| panic!("pass `{name}` over-claimed its contract on tsvc: {e}"));
    }
}

/// The manager-driven pipeline still produces byte-identical output to
/// the direct entry points after the contract tightening (the flatten and
/// rolag ports changed how analyses are obtained, not what they compute).
#[test]
fn tightened_contracts_do_not_change_pipeline_output() {
    let mut direct = build_suite_module();
    unroll_module(&mut direct, 8);
    cse_module(&mut direct);
    cleanup_module(&mut direct);
    roll_module(&mut direct, &RolagOptions::default());
    rolag_transforms::flatten_module(&mut direct);
    cleanup_module(&mut direct);

    let mut managed = build_suite_module();
    let mut pm = PassManager::new();
    pm.add_all(
        PassRegistry::builtin()
            .parse_pipeline("unroll<8>,cse,cleanup,rolag,flatten,cleanup")
            .unwrap(),
    );
    let mut am = AnalysisManager::new();
    let mut cx = PassContext::new(TargetKind::default());
    pm.run(&mut managed, &mut am, &mut cx).expect("runs");

    assert_eq!(print_module(&direct), print_module(&managed));
}
