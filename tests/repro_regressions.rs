//! Focused regression tests for the shrunken reproducers in
//! `tests/repros/` — one per file, each asserting the *exact* trap
//! discriminant or mismatch the repro was minimized to exhibit. The
//! differential oracle also sweeps these files end to end (in CI via
//! `rolag-verify`); these tests pin the specific behaviour so a
//! regression names the broken invariant instead of a generic
//! divergence.

use rolag::{roll_module, RolagOptions, RolagStats};
use rolag_ir::interp::{ExecError, IValue, Interpreter};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use std::path::Path;

fn load(name: &str) -> Module {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/repros")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run(module: &Module, entry: &str, args: &[IValue]) -> Result<IValue, ExecError> {
    Interpreter::new(module)
        .run(entry, args)
        .map(|outcome| outcome.ret)
}

#[test]
fn unused_trapping_div_still_traps_after_cleanup() {
    // The unused `sdiv %p0, 0` always traps; DCE deleting it would turn
    // the trap into a clean `ret 0`.
    let module = load("dce-unused-trapping-div.rir");
    let err = run(&module, "f", &[IValue::Int(37)]).unwrap_err();
    assert!(matches!(err, ExecError::DivByZero), "got {err:?}");

    let mut cleaned = module.clone();
    let id = cleaned.func_ids().next().unwrap();
    let (func, types) = cleaned.func_and_types_mut(id);
    rolag_transforms::cleanup_in_place(func, types, &[]);
    let err = run(&cleaned, "f", &[IValue::Int(37)]).unwrap_err();
    assert!(
        matches!(err, ExecError::DivByZero),
        "cleanup deleted a trapping division: got {err:?}"
    );
}

#[test]
fn mismatch_lanes_attempt_agrees_across_engines_and_validates() {
    // The off-pattern lane (99 at index 3) forces the constant-mismatch
    // path: the speculative rewrite builds a `rolag.cdata` lookup table,
    // which the cost model then rejects as unprofitable on this
    // six-store module. The repro pins that the engine walks that path to
    // the same verdict with and without validation — and, with validation
    // on, that the translation validator proves the speculative table
    // rewrite before the cost model discards it.
    let module = load("rolag-mismatch-lanes.rir");

    let mut validated = module.clone();
    let stats = roll_module(&mut validated, &RolagOptions::validated());
    assert_eq!(stats.attempted, 1, "{stats}");
    assert_eq!(stats.rejected_profit, 1, "{stats}");
    assert_eq!(stats.rolled, 0, "{stats}");
    assert_eq!(
        stats.tv_validated, 1,
        "validator proves the attempt: {stats}"
    );
    assert_eq!(stats.tv_rejected, 0, "{stats}");
    assert_eq!(
        print_module(&validated),
        print_module(&module),
        "a rejected attempt must leave the module untouched"
    );

    let mut plain = module.clone();
    let plain_stats = roll_module(&mut plain, &RolagOptions::default());
    assert_eq!(
        print_module(&plain),
        print_module(&module),
        "the unvalidated roll must reach the same (unchanged) module"
    );
    let unproven = RolagStats {
        tv_validated: 0,
        ..stats
    };
    assert_eq!(unproven, plain_stats, "validation must only add the proof");
}

#[test]
fn nonfinite_floats_roundtrip_bit_exactly() {
    // +inf, -inf, and a NaN with payload bits must survive
    // print -> parse -> print without loss, as 0x literals.
    let module = load("roundtrip-nonfinite-floats.rir");
    let printed = print_module(&module);
    for bits in [
        "0x7ff0000000000000",
        "0xfff0000000000000",
        "0x7ff8000000000dea",
    ] {
        assert!(printed.contains(bits), "missing {bits} in:\n{printed}");
    }
    let reparsed = parse_module(&printed).expect("printed module reparses");
    assert_eq!(
        printed,
        print_module(&reparsed),
        "print must be a fixed point"
    );
}

#[test]
fn division_edges_trap_with_typed_errors() {
    let module = load("trap-division-edges.rir");

    // A benign pair completes: 8/2 = 4, 8 % -1 = 0.
    let ret = run(&module, "div", &[IValue::Int(8), IValue::Int(2)]).unwrap();
    assert_eq!(ret, IValue::Int(4));

    // Division by zero is a typed trap, not a native crash.
    let err = run(&module, "div", &[IValue::Int(37), IValue::Int(0)]).unwrap_err();
    assert!(matches!(err, ExecError::DivByZero), "got {err:?}");

    // i32::MIN / -1 overflows at type width.
    let min = i64::from(i32::MIN);
    let err = run(&module, "div", &[IValue::Int(min), IValue::Int(-1)]).unwrap_err();
    assert!(matches!(err, ExecError::DivOverflow), "got {err:?}");

    // ... and so does the remainder edge `i32::MIN % -1`.
    let err = run(&module, "div", &[IValue::Int(min), IValue::Int(1)]).unwrap_err();
    assert!(matches!(err, ExecError::DivOverflow), "got {err:?}");
}

#[test]
fn misaligned_and_wild_accesses_trap_with_typed_errors() {
    let module = load("trap-misaligned-wild.rir");

    // A 4-byte load at offset 2 violates i32 alignment.
    let err = run(&module, "mis", &[]).unwrap_err();
    assert!(
        matches!(err, ExecError::Misaligned { align: 4, .. }),
        "got {err:?}"
    );

    // A store through address 0 hits the reserved null page.
    let err = run(&module, "wild", &[IValue::Int(0)]).unwrap_err();
    assert!(matches!(err, ExecError::NullAccess { .. }), "got {err:?}");

    // A store far past the end of memory is out of bounds, and must not
    // grow interpreter memory to reach it.
    let err = run(&module, "wild", &[IValue::Int(1 << 40)]).unwrap_err();
    assert!(
        matches!(err, ExecError::OutOfBounds { size: 8, .. }),
        "got {err:?}"
    );
}
