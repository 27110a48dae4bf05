//! The verifier's dominance check is linear in the number of blocks.
//!
//! Every `rolag-serve` request and every `rolag-opt` run verifies its input,
//! so verifying a long chain of blocks must not cost the square of its
//! length. The chain here is the worst case for per-block dominator sets:
//! every block is dominated by all the blocks before it, and the last one
//! uses a value defined in the entry. The verifier's own count of blocks
//! visited and dominance queries is bounded first, in every build; then
//! the wall clock.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rolag_ir::parser::parse_module;
use rolag_ir::verify::{verify_module, verify_module_counted};
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
/// Within a round the modules' repetitions are interleaved (a module with
/// `reps` repetitions runs in every `slots / reps`-th of `slots` slots), so
/// each module's work spreads over the whole round, and a burst of load or
/// a change of clock speed slows all sizes alike rather than the ones timed
/// after it.
fn verify_times(modules: &[(Module, u32)]) -> Vec<Duration> {
    let slots = modules.iter().map(|&(_, reps)| reps).max().unwrap_or(0);
    assert!(modules.iter().all(|&(_, reps)| slots % reps == 0));
    let mut best = vec![Duration::MAX; modules.len()];
    for _ in 0..10 {
        let mut total = vec![Duration::ZERO; modules.len()];
        for slot in 0..slots {
            for ((m, reps), total) in modules.iter().zip(&mut total) {
                if slot % (slots / reps) == 0 {
                    let start = Instant::now();
                    verify_module(m).expect("the chain verifies");
                    *total += start.elapsed();
                }
            }
        }
        for (((_, reps), total), best) in modules.iter().zip(total).zip(&mut best) {
            *best = (*best).min(total / *reps);
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

    // Blocks visited plus dominance queries. The count is exact, so unlike
    // the timing below it holds in every build and under load.
    let work: Vec<u64> = modules
        .iter()
        .map(|(m, _)| {
            let (result, work) = verify_module_counted(m);
            result.expect("the chain verifies");
            work.blocks_visited + work.dominance_queries
        })
        .collect();
    eprintln!("verify work per chain length {sizes:?}: {work:?}");
    for k in 1..sizes.len() {
        let growth = work[k] as f64 / work[k - 1] as f64;
        assert!(
            growth <= 2.05,
            "verifying {} blocks took {} steps, {growth:.2}x the {} of {} blocks",
            sizes[k],
            work[k],
            work[k - 1],
            sizes[k - 1]
        );
    }

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
