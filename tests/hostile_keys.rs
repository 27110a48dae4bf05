//! Keys an input chooses, through the whole request path.
//!
//! Maps keyed by arena ids hash with Fx, whose low output bits depend only
//! on its input's low bits; maps keyed by something an input spells — a
//! symbol name, a constant, a store key — must not, or one crafted module
//! drives every insert down the same probe sequence. This test builds such
//! a module: 100,000 distinct `i64` constants in one function that share
//! their low 32 bits, and long runs of global, function and store-key
//! names that differ only in their last characters. It parses, verifies
//! and rolls it twice through one store with the `validated` preset (the
//! second roll replays every function from the store), and compares the
//! time with a twin module of the same size whose keys differ in their low
//! bits. With std's `RandomState` on those maps the two cost the same;
//! with Fx on the function's constant pool alone the hostile twin takes
//! several times as long.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rolag::{roll_module_par, DriverOptions, MemoStore, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;

/// Constants in the chain function.
const CONSTS: u64 = 100_000;
/// Globals, and functions, with long names.
const NAMES: usize = 5_000;

/// The module text. `hostile` picks keys that collide in their low bits:
/// constants `(k << 32) | 0x1234_5678` and names with a long shared
/// prefix; otherwise the constants' low halves and the names' first
/// characters differ.
fn module_text(hostile: bool) -> String {
    let pad = "x".repeat(64);
    let name = |k: usize| {
        if hostile {
            format!("{pad}{k:06}")
        } else {
            format!("{k:06}{pad}")
        }
    };
    let constant = |k: u64| {
        let low = if hostile {
            0x1234_5678
        } else {
            k.wrapping_mul(0x9e37_79b9) & 0xffff_ffff
        };
        (((k + 1) << 32) | low) as i64
    };
    let mut t = String::from("module \"keys\"\nglobal @a : [8 x i32] = zero\n");
    for k in 0..NAMES {
        writeln!(t, "global @g{} : i64 = zero", name(k)).unwrap();
    }
    // Twins whose store keys differ only in one constant near the end.
    for k in 0..NAMES {
        let n = name(k);
        writeln!(
            t,
            "func @f{n}(i64 %p0) -> i64 {{\nentry:\n  store %p0, @g{n}\n  %1 = add i64 %p0, i64 {k}\n  ret %1\n}}"
        )
        .unwrap();
    }
    // Rollable stores, then one block that interns every constant.
    t.push_str("func @chain(i64 %p0) -> i64 {\nentry:\n");
    for lane in 0..6 {
        writeln!(
            t,
            "  %g{lane} = gep i32, @a, i64 {lane}\n  store i32 {}, %g{lane}",
            5 * lane
        )
        .unwrap();
    }
    t.push_str("  br body\nbody:\n  %v0 = add i64 %p0, i64 1\n");
    for k in 0..CONSTS {
        writeln!(t, "  %v{} = sub i64 %v{k}, i64 {}", k + 1, constant(k)).unwrap();
    }
    writeln!(t, "  ret %v{CONSTS}\n}}").unwrap();
    t
}

/// Parses, verifies and rolls `text` twice through one store; returns the
/// time taken and the rolled text.
fn roll_twice(text: &str) -> (Duration, String) {
    let opts = RolagOptions::validated();
    let store = MemoStore::new(4 * NAMES);
    let start = Instant::now();
    let mut outputs = Vec::new();
    for _ in 0..2 {
        let mut m = parse_module(text).expect("the module parses");
        verify_module(&m).expect("the module verifies");
        let report = roll_module_par(
            &mut m,
            &opts,
            &DriverOptions {
                store: Some(&store),
                ..DriverOptions::scoped(1)
            },
        );
        assert!(report.stats.rolled >= 1, "the store group rolls");
        assert_eq!(report.stats.rescued, 0);
        verify_module(&m).expect("the rolled module verifies");
        outputs.push(print_module(&m));
    }
    let elapsed = start.elapsed();
    let stats = store.stats();
    assert_eq!(
        stats.hits, stats.misses,
        "the second roll replays every function: {stats:?}"
    );
    assert_eq!(
        outputs[0], outputs[1],
        "a replayed roll prints what a cold one does"
    );
    (elapsed, outputs.pop().unwrap())
}

#[test]
fn keys_that_share_low_bits_cost_no_more_than_keys_that_do_not() {
    let (hostile, rolled) = roll_twice(&module_text(true));
    let (benign, _) = roll_twice(&module_text(false));
    eprintln!("hostile keys: {hostile:?}, benign keys: {benign:?}");
    assert!(rolled.contains("rolag.loop"), "the chain's stores roll");
    assert!(
        hostile.as_secs_f64() <= 2.0 * benign.as_secs_f64() + 0.25,
        "hostile keys took {hostile:?} against {benign:?} for benign ones"
    );
}
