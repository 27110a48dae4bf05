//! Print → parse → print is a fixed point on the generated corpora.
//!
//! The printer writes digits, floats and escaped names with its own
//! writers, and the parser builds each function's constant map while it
//! lays out the values. This sweep checks that the two still agree on
//! every module of the unrolled and the rolled TSVC kernels, 128
//! AnghaBench-like functions (raw and rolled) and the Table I programs at
//! scale 0.02: the parsed text prints back byte for byte, and parsing that
//! text again gives the same arenas (the same RLIR encoding).

use rolag::{roll_module, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::serialization::encode_module;
use rolag_ir::Module;
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Asserts the fixed point on `module`; returns the printed length.
fn assert_fixed_point(label: &str, module: &Module) -> usize {
    let text = print_module(module);
    let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let reprinted = print_module(&parsed);
    assert!(reprinted == text, "{label}: print(parse(text)) != text");
    let again = parse_module(&reprinted).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        encode_module(&again) == encode_module(&parsed),
        "{label}: parsing the reprinted text built different arenas"
    );
    text.len()
}

fn unrolled_tsvc() -> impl Iterator<Item = Module> {
    all_kernels().into_iter().map(|spec| {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        m
    })
}

#[test]
fn tsvc_round_trips() {
    let mut bytes = 0;
    for (i, mut m) in unrolled_tsvc().enumerate() {
        bytes += assert_fixed_point(&format!("tsvc {i} unrolled"), &m);
        roll_module(&mut m, &RolagOptions::default());
        bytes += assert_fixed_point(&format!("tsvc {i} rolled"), &m);
    }
    assert!(bytes > 0);
}

#[test]
fn angha128_round_trips() {
    let config = AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    };
    for (i, (_, _, mut m)) in stream(&config).enumerate() {
        assert_fixed_point(&format!("angha {i}"), &m);
        roll_module(&mut m, &RolagOptions::default());
        assert_fixed_point(&format!("angha {i} rolled"), &m);
    }
}

#[test]
fn table1_round_trips() {
    for spec in TABLE1 {
        let m = build_program(spec, 7, 0.02);
        assert_fixed_point(spec.name, &m);
    }
}
