//! Soundness-direction property tests for the `rolag-tv` translation
//! validator. The validator is one-sided: it may only *reject*, so the
//! property worth sweeping is the absence of false rejects — every
//! rewrite the engine accepts must be proven, on generated corpora and
//! on the paper's benchmark suites alike, and turning validation on
//! must never change what the pass produces.

use rolag::{
    roll_module, search_function_audited, RejectedSpeculation, RolagOptions, RolagStats,
    SearchAudit,
};
use rolag_difftest::{args_for, compare_behaviour, generate_module};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use rolag_suites::angha::{generate, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::effects_table;

/// Rolls `module` twice — validation off and on — and asserts the
/// validated run proves every accepted rewrite and commits exactly the
/// same result. Returns `(tv_validated, rolled)` for corpus totals.
fn assert_no_false_rejects(module: &Module, what: &str) -> (u64, u64) {
    let mut plain = module.clone();
    let plain_stats = roll_module(&mut plain, &RolagOptions::default());

    let mut validated = module.clone();
    let stats = roll_module(&mut validated, &RolagOptions::validated());

    assert_eq!(
        stats.tv_rejected, 0,
        "{what}: the validator rejected an engine-accepted rewrite: {stats}"
    );
    assert!(
        stats.tv_validated >= stats.rolled,
        "{what}: every committed roll must have been validated: {stats}"
    );
    assert_eq!(
        stats.rolled, plain_stats.rolled,
        "{what}: validation changed the number of commits"
    );
    assert_eq!(
        print_module(&validated),
        print_module(&plain),
        "{what}: validation changed the produced module"
    );
    (stats.tv_validated, stats.rolled)
}

#[test]
fn generator_corpus_has_zero_static_false_rejects() {
    let mut validated = 0u64;
    let mut rolled = 0u64;
    for i in 0..256 {
        let module = generate_module(0, i);
        let (v, r) = assert_no_false_rejects(&module, &format!("module (0,{i})"));
        validated += v;
        rolled += r;
    }
    // The corpus must actually exercise the validator, not vacuously pass.
    assert!(
        rolled >= 32,
        "corpus too tame: only {rolled} rolls across 256 modules"
    );
    assert!(validated >= rolled);
}

#[test]
fn validated_roll_matches_unvalidated_roll() {
    // The engine keeps the validator's copy of the pre-candidate state only
    // under validation. Turning it on must change nothing but the proof
    // count, and every window the engine opened, committed or priced out,
    // must have been proven: tv_validated = rolled + rejected_profit.
    for i in 0..64 {
        let module = generate_module(1, i);
        let mut plain = module.clone();
        let plain_stats = roll_module(&mut plain, &RolagOptions::default());
        let mut validated = module.clone();
        let stats = roll_module(&mut validated, &RolagOptions::validated());
        assert_eq!(
            print_module(&validated),
            print_module(&plain),
            "module (1,{i}): validation changed the produced module"
        );
        assert_eq!(
            stats.tv_validated,
            stats.rolled + stats.rejected_profit,
            "module (1,{i}): an opened window went unproven: {stats}"
        );
        let unproven = RolagStats {
            tv_validated: 0,
            ..stats
        };
        assert_eq!(
            unproven, plain_stats,
            "module (1,{i}): validation changed an outcome counter"
        );
    }
}

#[test]
fn tsvc_kernels_have_zero_static_false_rejects() {
    let mut rolled = 0u64;
    for spec in all_kernels() {
        let module = build_kernel_module(&spec);
        let (_, r) = assert_no_false_rejects(&module, &format!("tsvc.{}", spec.name));
        rolled += r;
    }
    assert!(rolled >= 1, "no TSVC kernel rolled at all");
}

#[test]
fn angha_slice_has_zero_static_false_rejects() {
    let corpus = generate(&AnghaConfig {
        functions: 128,
        ..AnghaConfig::default()
    });
    let mut rolled = 0u64;
    for (name, _, module) in &corpus.entries {
        let (_, r) = assert_no_false_rejects(module, &format!("angha @{name}"));
        rolled += r;
    }
    assert!(rolled >= 8, "angha slice too tame: {rolled} rolls");
}

/// Dynamically cross-checks one TV-rejected beam candidate: the
/// validator is one-sided, so a reject may be a conservative *false*
/// reject — but the speculative module the engine built must still be
/// behaviourally equivalent to its baseline, or the codegen (not the
/// validator) has a bug. `Err` describes the first divergence.
fn cross_check_reject(reject: &RejectedSpeculation) -> Result<(), String> {
    let before = parse_module(&reject.before).map_err(|e| format!("before: {e}"))?;
    let after = parse_module(&reject.after).map_err(|e| format!("after: {e}"))?;
    for k in 0..4 {
        let Some(args) = args_for(&before, &reject.func, k) else {
            continue;
        };
        compare_behaviour(&before, &after, &reject.func, &args)
            .map_err(|e| format!("@{}({args:?}): {e}", reject.func))?;
    }
    Ok(())
}

/// Runs the audited beam search over `module` and dynamically
/// cross-checks every TV-rejected candidate the beam explored. Returns
/// the number of rejects checked.
fn audit_and_cross_check(module: &Module, what: &str) -> u64 {
    let opts = RolagOptions::searched(4);
    let mut m = module.clone();
    let effects = effects_table(&m);
    let mut audit = SearchAudit::default();
    for id in m.func_ids().collect::<Vec<_>>() {
        search_function_audited(&mut m, id, &opts, &effects, &mut audit);
    }
    for reject in &audit.rejects {
        if let Err(e) = cross_check_reject(reject) {
            panic!(
                "{what}: TV-rejected candidate for @{} is a genuine miscompile: {e}",
                reject.func
            );
        }
    }
    audit.rejects.len() as u64
}

/// Every TV reject the beam search encounters while exploring candidate
/// variants must be a *static* false reject, never a dynamic miscompile:
/// the speculative module is interpreted against its baseline before the
/// rejection is allowed to stand. (Today the validator proves every
/// candidate our corpora produce, so the sweep doubles as a pin on that:
/// the companion test below proves the cross-check itself can catch a
/// planted miscompile, so a future reject cannot slip through unchecked.)
#[test]
fn beam_explored_tv_rejects_are_dynamically_clean() {
    for i in 0..128 {
        let module = generate_module(0, i);
        audit_and_cross_check(&module, &format!("module (0,{i})"));
    }
    for spec in all_kernels() {
        let module = build_kernel_module(&spec);
        audit_and_cross_check(&module, &format!("tsvc.{}", spec.name));
    }
}

/// The cross-check harness must itself be able to catch a miscompile —
/// otherwise `beam_explored_tv_rejects_are_dynamically_clean` would pass
/// vacuously even if the audit captured garbage.
#[test]
fn reject_cross_check_catches_a_planted_miscompile() {
    let before = "module \"t\"\nglobal @g : [2 x i32] = zero\nfunc @f() -> void {\nentry:\n  %p = gep i32, @g, i64 0\n  store i32 1, %p\n  ret\n}\n";
    let after = "module \"t\"\nglobal @g : [2 x i32] = zero\nfunc @f() -> void {\nentry:\n  %p = gep i32, @g, i64 1\n  store i32 1, %p\n  ret\n}\n";
    let planted = RejectedSpeculation {
        func: "f".into(),
        before: before.into(),
        after: after.into(),
        dot: String::new(),
    };
    let err = cross_check_reject(&planted).expect_err("must catch the retargeted store");
    assert!(err.contains("@g"), "unexpected detail: {err}");

    let clean = RejectedSpeculation {
        func: "f".into(),
        before: before.into(),
        after: before.into(),
        dot: String::new(),
    };
    cross_check_reject(&clean).expect("identical modules must pass");
}

/// The binary codec rebuilds a module's arenas from scratch
/// (`from_raw_parts`: re-derived instruction results, fresh constant map,
/// fresh revision), so a decoded module is the arena-backend's
/// worst-case input: any engine behaviour that secretly depended on
/// arena construction history — rather than on the IR the arenas
/// describe — diverges here. Rolling a decoded module under validation
/// must match rolling the parsed original bit for bit, stats included.
#[test]
fn decoded_modules_roll_identically_to_their_originals() {
    let opts = RolagOptions::validated();
    let mut corpus: Vec<(String, Module)> = (0..64)
        .map(|i| (format!("module (2,{i})"), generate_module(2, i)))
        .collect();
    for spec in all_kernels() {
        corpus.push((format!("tsvc.{}", spec.name), build_kernel_module(&spec)));
    }
    let mut rolled = 0u64;
    for (what, module) in &corpus {
        let decoded = rolag_ir::decode_module(&rolag_ir::encode_module(module))
            .unwrap_or_else(|e| panic!("{what}: decode failed: {e}"));
        let mut original = module.clone();
        let original_stats = roll_module(&mut original, &opts);
        let mut from_binary = decoded;
        let binary_stats = roll_module(&mut from_binary, &opts);
        assert_eq!(
            print_module(&from_binary),
            print_module(&original),
            "{what}: rolling the decoded module diverged"
        );
        assert_eq!(
            binary_stats, original_stats,
            "{what}: stats diverged on the decoded module"
        );
        rolled += original_stats.rolled;
    }
    assert!(rolled >= 8, "corpus too tame: {rolled} rolls");
}
