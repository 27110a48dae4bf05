//! The verifier's dominance check is linear in the number of blocks.
//!
//! Every `rolag-serve` request and every `rolag-opt` run verifies its input,
//! so verifying a long chain of blocks must not cost the square of its
//! length. The chain here is the worst case for per-block dominator sets:
//! every block is dominated by all the blocks before it, and the last one
//! uses a value defined in the entry.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rolag_ir::parser::parse_module;
use rolag_ir::verify::verify_module;
use rolag_ir::Module;

/// A function of `blocks` blocks in a straight line.
fn chain(blocks: usize) -> Module {
    let mut t = String::from(
        "module \"chain\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %1 = add i32 %p0, i32 1\n  br b1\n",
    );
    for b in 1..blocks - 1 {
        writeln!(t, "b{b}:\n  br b{}", b + 1).unwrap();
    }
    writeln!(t, "b{}:\n  ret %1\n}}", blocks - 1).unwrap();
    parse_module(&t).expect("the chain parses")
}

/// Seconds per verification of each module, the fastest of ten rounds.
/// Each round times every module once, so a burst of load on the machine
/// slows all sizes alike rather than one.
fn verify_times(modules: &[(Module, u32)]) -> Vec<Duration> {
    let mut best = vec![Duration::MAX; modules.len()];
    for _ in 0..10 {
        for ((m, reps), best) in modules.iter().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..*reps {
                verify_module(m).expect("the chain verifies");
            }
            *best = (*best).min(start.elapsed() / *reps);
        }
    }
    best
}

#[test]
fn block_chain_verifies_in_linear_time() {
    let sizes = [1_000, 2_000, 4_000, 8_000];
    let modules: Vec<(Module, u32)> = sizes
        .iter()
        .map(|&n| (chain(n), (16_000 / n) as u32))
        .collect();
    let times = verify_times(&modules);
    eprintln!("verify time per chain length {sizes:?}: {times:?}");
    for k in 1..sizes.len() {
        let growth = times[k].as_secs_f64() / times[k - 1].as_secs_f64();
        assert!(
            growth <= 2.5,
            "verifying {} blocks took {:?}, {growth:.2}x the {:?} of {} blocks",
            sizes[k],
            times[k],
            times[k - 1],
            sizes[k - 1]
        );
    }
}
