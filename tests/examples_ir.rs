//! Guards the sample `.rir` files shipped in `examples/ir/`: they must
//! parse, verify, interpret, and actually demonstrate a roll.

use rolag::{roll_module, RolagOptions};
use rolag_ir::interp::check_equivalence;
use rolag_ir::parser::parse_module;
use rolag_ir::verify::verify_module;

fn load(name: &str) -> rolag_ir::Module {
    let path = format!("{}/examples/ir/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let m = parse_module(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    verify_module(&m).unwrap_or_else(|e| panic!("{path}: {e:?}"));
    m
}

#[test]
fn aegis128_sample_rolls() {
    let m = load("aegis128.rir");
    let mut rolled = m.clone();
    let stats = roll_module(&mut rolled, &RolagOptions::default());
    assert_eq!(stats.rolled, 1);
    check_equivalence(&m, &rolled, "save_state", &[]).expect("equivalent");
}

#[test]
fn memcpy_sample_rolls_dramatically() {
    let m = load("memcpy72.rir");
    let mut rolled = m.clone();
    let stats = roll_module(&mut rolled, &RolagOptions::default());
    assert_eq!(stats.rolled, 1);
    assert!(stats.reduction_percent() > 70.0);
    check_equivalence(&m, &rolled, "copy", &[]).expect("equivalent");
}

#[test]
fn axpy_sample_survives_the_full_pipeline() {
    let m = load("axpy.rir");
    let mut v = m.clone();
    rolag_transforms::unroll_module(&mut v, 4);
    rolag_transforms::cse_module(&mut v);
    rolag_transforms::cleanup_module(&mut v);
    let stats = roll_module(&mut v, &RolagOptions::default());
    assert_eq!(stats.rolled, 1, "the unrolled axpy re-rolls");
    rolag_transforms::cleanup_module(&mut v);
    verify_module(&v).expect("verifies");
    check_equivalence(&m, &v, "axpy", &[rolag_ir::interp::IValue::Float(2.5)]).expect("equivalent");
}

/// Two pairs of structural twins: the driver rolls one definition of each
/// pair and replays it onto the other, matching the serial pass byte for
/// byte. The recursive twins keep calling themselves, and each scatter
/// twin gets a constant table of its own.
#[test]
fn twins_sample_replays_through_the_driver() {
    let m = load("twins.rir");
    let mut serial = m.clone();
    let stats = roll_module(&mut serial, &RolagOptions::default());
    assert_eq!(stats.rolled, 4);
    let mut par = m.clone();
    let report = rolag::roll_module_par(
        &mut par,
        &RolagOptions::default(),
        &rolag::DriverOptions::scoped(2),
    );
    assert_eq!((report.unique, report.cache_hits), (2, 2));
    let text = rolag_ir::printer::print_module(&par);
    assert_eq!(text, rolag_ir::printer::print_module(&serial));
    for twin in ["a", "b"] {
        assert!(text.contains(&format!("call i32 @countdown_{twin}(")));
    }
    assert_eq!(text.matches("const @rolag.cdata.").count(), 2);
    let five = [rolag_ir::interp::IValue::Int(5)];
    for (name, args) in [
        ("countdown_a", &five[..]),
        ("countdown_b", &five[..]),
        ("scatter_a", &[][..]),
        ("scatter_b", &[][..]),
    ] {
        check_equivalence(&m, &par, name, args).expect("equivalent");
    }
}
