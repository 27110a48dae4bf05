//! Parsing is linear in the text, whatever points forwards.
//!
//! The text parser builds each instruction as its line is read and patches
//! what points forwards when the body's closing brace is read: a use before
//! its definition, a phi naming a latch value, a label of a later block.
//! Names in other spellings than the printer's go through a hash map
//! instead of the dense tables. None of these may cost the square of the
//! body: each shape here parses in at most 2.5x the time per doubling of
//! its instruction count, from 2,000 to 16,000 instructions, timed as the
//! fastest of 15 interleaved rounds.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rolag_ir::parser::parse_module;

/// One block of `n` adds, each using the value the next line defines.
fn uses_before_definitions(n: usize) -> String {
    let mut t = String::from("module \"s\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n");
    for k in 1..n {
        writeln!(t, "  %{k} = add i32 %{}, i32 1", k + 1).unwrap();
    }
    writeln!(t, "  %{n} = add i32 %p0, i32 1\n  ret %1\n}}").unwrap();
    t
}

/// A loop whose header holds `n / 2` phis, each naming the latch value the
/// body defines further down.
fn header_phis(n: usize) -> String {
    let half = n / 2;
    let mut t = String::from("module \"s\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  br loop\nloop:\n");
    for k in 0..half {
        writeln!(
            t,
            "  %{k} = phi i32 [ %p0, entry ], [ %{}, loop ]",
            half + k
        )
        .unwrap();
    }
    for k in 0..half {
        writeln!(t, "  %{} = add i32 %{k}, i32 {k}", half + k).unwrap();
    }
    t.push_str("  %c = icmp slt %p0, i32 8\n  condbr %c, loop, exit\nexit:\n  ret %0\n}\n");
    t
}

/// `n / 4` blocks of three adds, each block branching to the next two,
/// which it has not yet read.
fn forward_labels(n: usize) -> String {
    let blocks = n / 4;
    let mut t = String::from("module \"s\"\nfunc @f(i1 %p0, i32 %p1) -> void {\n");
    for k in 0..blocks {
        writeln!(t, "b{k}:").unwrap();
        for j in 0..3 {
            writeln!(t, "  %{} = add i32 %p1, i32 {j}", 3 * k + j + 2).unwrap();
        }
        writeln!(t, "  condbr %p0, b{}, b{}", k + 1, k + 2).unwrap();
    }
    writeln!(
        t,
        "b{blocks}:\n  br b{}\nb{}:\n  ret\n}}",
        blocks + 1,
        blocks + 1
    )
    .unwrap();
    t
}

/// A chain of `n` adds whose names are not the printer's spelling.
fn named_values(n: usize) -> String {
    let mut t = String::from(
        "module \"s\"\nfunc @f(i32 %a) -> i32 {\nentry:\n  %v_0 = add i32 %a, i32 1\n",
    );
    for k in 1..n {
        writeln!(t, "  %v_{k} = add i32 %v_{}, %a", k - 1).unwrap();
    }
    writeln!(t, "  ret %v_{}\n}}", n - 1).unwrap();
    t
}

/// A text of the given number of instructions.
type Shape = fn(usize) -> String;

/// Seconds per parse of each text, the fastest of 15 rounds. Within a
/// round the texts' repetitions are interleaved (a text with `reps`
/// repetitions runs in every `slots / reps`-th of `slots` slots), so a
/// burst of load or a change of clock speed slows all sizes alike.
fn parse_times(texts: &[(String, u32)]) -> Vec<Duration> {
    let slots = texts.iter().map(|&(_, reps)| reps).max().unwrap_or(0);
    assert!(texts.iter().all(|&(_, reps)| slots % reps == 0));
    let mut best = vec![Duration::MAX; texts.len()];
    for _ in 0..15 {
        let mut total = vec![Duration::ZERO; texts.len()];
        for slot in 0..slots {
            for ((text, reps), total) in texts.iter().zip(&mut total) {
                if slot % (slots / reps) == 0 {
                    let start = Instant::now();
                    let parsed = parse_module(text);
                    *total += start.elapsed();
                    parsed.expect("the shape parses");
                }
            }
        }
        for (((_, reps), total), best) in texts.iter().zip(total).zip(&mut best) {
            *best = (*best).min(total / *reps);
        }
    }
    best
}

#[test]
fn forward_references_parse_in_linear_time() {
    let sizes = [2_000, 4_000, 8_000, 16_000];
    let shapes: [(&str, Shape); 4] = [
        ("uses before definitions", uses_before_definitions),
        ("header phis", header_phis),
        ("forward labels", forward_labels),
        ("named values", named_values),
    ];
    // Every size of every shape does the same number of instructions per
    // round: at least 5 ms of parsing in a debug build.
    let texts: Vec<(String, u32)> = shapes
        .iter()
        .flat_map(|&(_, shape)| sizes.map(|n| (shape(n), (16_000 / n) as u32)))
        .collect();
    let times = parse_times(&texts);
    for (s, (name, _)) in shapes.iter().enumerate() {
        let times = &times[s * sizes.len()..(s + 1) * sizes.len()];
        eprintln!("{name}: parse time per size {sizes:?}: {times:?}");
        for k in 1..sizes.len() {
            let growth = times[k].as_secs_f64() / times[k - 1].as_secs_f64();
            assert!(
                growth <= 2.5,
                "{name}: parsing {} instructions took {:?}, {growth:.2}x the {:?} of {}",
                sizes[k],
                times[k],
                times[k - 1],
                sizes[k - 1]
            );
        }
    }
}
