//! The planted big-block shape at G = 1000 groups: one block of 16,001
//! instructions whose 1,000 candidates are each scheduled, generated and
//! rolled back. Per-candidate work that grows with the block rather than
//! the candidate (a dense dependence closure, a teardown searching the
//! block list once per instruction) makes this take tens of seconds, so CI
//! runs this file in release under a timeout. The serial pass and the
//! parallel driver must agree byte for byte and counter for counter.
//!
//! Debug builds audit every cached block dependence against a fresh
//! compute on each hit, O(m²) in the block's memory operations per
//! candidate, so there the same shape is rolled at G = 125.

use rolag::{roll_module, roll_module_par, DriverOptions, RolagOptions};
use rolag_ir::printer::print_module;
use rolag_suites::planted::big_block;

#[test]
fn planted_big_block_rolls_the_same_serially_and_in_parallel() {
    let groups = if cfg!(debug_assertions) { 125 } else { 1000 };
    let module = big_block(groups);
    let opts = RolagOptions::default();
    let mut serial = module.clone();
    let serial_stats = roll_module(&mut serial, &opts);
    let mut par = module.clone();
    let report = roll_module_par(&mut par, &opts, &DriverOptions::scoped(2));
    assert_eq!(print_module(&par), print_module(&serial));
    assert_eq!(report.stats, serial_stats);
    assert_eq!(serial_stats.attempted, groups as u64, "{serial_stats:?}");
    assert_eq!(serial_stats.rolled, 0, "no group is profitable");
}
