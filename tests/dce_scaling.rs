//! Removing unreachable blocks is linear in the number of blocks.
//!
//! Every cleanup after a roll runs dead-code elimination, so sealing the
//! dead blocks of a function must not cost the square of their number. The
//! function here is the worst case for a phi rescan per sealed block: every
//! block but the entry is an orphan that branches to the exit, and the
//! exit's phi names each of them.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rolag_ir::dce::{remove_unreachable_blocks, run_dce};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::{Function, Module, TypeId};

/// A function whose entry branches to the exit past `orphans` unreachable
/// blocks, each of which branches to the exit too.
fn orphans(orphans: usize) -> Module {
    let mut t = String::from("module \"orphans\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  br exit\n");
    for k in 0..orphans {
        writeln!(t, "o{k}:\n  br exit").unwrap();
    }
    t.push_str("exit:\n  %r = phi i32 [ %p0, entry ]");
    for k in 0..orphans {
        write!(t, ", [ i32 {k}, o{k} ]").unwrap();
    }
    t.push_str("\n  ret %r\n}\n");
    parse_module(&t).expect("the orphans parse")
}

/// Seconds per unreachable-block removal in each function, the fastest of
/// ten rounds. Each removal runs inside a speculation window, as the
/// engine's cleanup does, and is rolled back after it: the arenas keep the
/// capacity the first removal grew, so later rounds time the removal
/// rather than the kernel handing out fresh pages. Each round times every
/// function once, so a burst of load on the machine slows all sizes alike
/// rather than one.
fn removal_times(funcs: &mut [(Function, TypeId, u32)]) -> Vec<Duration> {
    let mut best = vec![Duration::MAX; funcs.len()];
    for _ in 0..10 {
        for ((f, void, reps), best) in funcs.iter_mut().zip(&mut best) {
            let mut total = Duration::ZERO;
            for _ in 0..*reps {
                let window = f.snapshot();
                let start = Instant::now();
                remove_unreachable_blocks(f, *void);
                total += start.elapsed();
                f.rollback(window);
            }
            *best = (*best).min(total / *reps);
        }
    }
    best
}

#[test]
fn orphan_blocks_are_removed_in_linear_time() {
    // Each orphan loses its branch, and the phi keeps only the entry.
    let mut small = orphans(3);
    assert_eq!(run_dce(&mut small), 3);
    verify_module(&small).expect("the sealed function verifies");
    let printed = print_module(&small);
    assert!(printed.contains("phi i32 [ %p0, entry ]\n"), "{printed}");
    assert_eq!(printed.matches("unreachable").count(), 3, "{printed}");

    let sizes = [1_000, 2_000, 4_000, 8_000];
    let mut funcs: Vec<(Function, TypeId, u32)> = sizes
        .iter()
        .map(|&n| {
            let mut m = orphans(n);
            let f = m.func_by_name("f").expect("the module defines @f");
            (m.take_func(f), m.types.void(), (16_000 / n) as u32)
        })
        .collect();

    // Blocks visited plus phis scanned by one removal. The count is exact,
    // so unlike the timing below it holds in every build and under load.
    let work: Vec<u64> = funcs
        .iter_mut()
        .zip(sizes)
        .map(|((f, void, _), n)| {
            let window = f.snapshot();
            let removal = remove_unreachable_blocks(f, *void);
            f.rollback(window);
            assert_eq!(removal.dropped, n, "every orphan's branch is dropped");
            removal.blocks_visited + removal.phis_scanned
        })
        .collect();
    eprintln!("removal work per orphan count {sizes:?}: {work:?}");
    for k in 1..sizes.len() {
        let growth = work[k] as f64 / work[k - 1] as f64;
        assert!(
            growth <= 2.05,
            "removing {} orphans took {} steps, {growth:.2}x the {} of {} orphans",
            sizes[k],
            work[k],
            work[k - 1],
            sizes[k - 1]
        );
    }

    let times = removal_times(&mut funcs);
    eprintln!("removal time per orphan count {sizes:?}: {times:?}");
    for k in 1..sizes.len() {
        let growth = times[k].as_secs_f64() / times[k - 1].as_secs_f64();
        assert!(
            growth <= 2.5,
            "removing {} orphans took {:?}, {growth:.2}x the {:?} of {} orphans",
            sizes[k],
            times[k],
            times[k - 1],
            sizes[k - 1]
        );
    }
}
