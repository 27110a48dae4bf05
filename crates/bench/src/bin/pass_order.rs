//! Pass-ordering experiment (§V-A discussion): "choosing at which point in
//! the compilation pipeline loop rolling can be most effective is also an
//! important research topic."
//!
//! Compares RoLAG's TSVC results when it runs *before* the CSE+cleanup
//! pipeline (pristine unrolled input) vs *after* it (the paper's setup):
//! CSE deduplicates loop-invariant subexpressions across iterations, which
//! RoLAG tolerates (identical nodes) but which changes profitability.
//!
//! Usage: `cargo run --release -p rolag-bench --bin pass_order`

use rolag::RolagStats;
use rolag_bench::parallel::par_map;
use rolag_bench::pipelines::run_pipeline;
use rolag_bench::report::write_csv;
use rolag_lower::measure_module;
use rolag_suites::tsvc::{all_kernels, build_kernel_module, KernelSpec};

struct OrderRow {
    name: &'static str,
    before_pct: f64,
    after_pct: f64,
    rolled_before: u64,
    rolled_after: u64,
}

/// The rolling stats of the (single) rolag pass in a pipeline run.
fn rolag_stats(report: &rolag_passes::RunReport) -> RolagStats {
    report
        .outcomes
        .iter()
        .find_map(|o| o.rolag)
        .expect("pipeline contains a rolag pass")
}

fn eval(spec: &KernelSpec) -> OrderRow {
    let rolled_src = build_kernel_module(spec);

    // Common unrolled input, measured after full cleanup for a fair base.
    let mut unrolled = rolled_src.clone();
    run_pipeline(&mut unrolled, "unroll<8>");

    // Variant A: RoLAG first, then CSE+cleanup.
    let mut a = unrolled.clone();
    let stats_a = rolag_stats(&run_pipeline(&mut a, "rolag,cse,cleanup"));

    // Variant B (the paper's order): CSE+cleanup, then RoLAG.
    let mut b = unrolled.clone();
    run_pipeline(&mut b, "cse,cleanup");
    let base = measure_module(&b).code_footprint();
    let stats_b = rolag_stats(&run_pipeline(&mut b, "rolag,cleanup"));

    let pct = |m: &rolag_ir::Module| {
        let after = measure_module(m).code_footprint();
        if base == 0 {
            0.0
        } else {
            100.0 * (base as f64 - after as f64) / base as f64
        }
    };
    OrderRow {
        name: spec.name,
        before_pct: pct(&a),
        after_pct: pct(&b),
        rolled_before: stats_a.rolled,
        rolled_after: stats_b.rolled,
    }
}

fn main() {
    let rows = par_map(all_kernels(), eval);
    let n = rows.len() as f64;
    let mean_before: f64 = rows.iter().map(|r| r.before_pct).sum::<f64>() / n;
    let mean_after: f64 = rows.iter().map(|r| r.after_pct).sum::<f64>() / n;
    let applied_before = rows.iter().filter(|r| r.rolled_before > 0).count();
    let applied_after = rows.iter().filter(|r| r.rolled_after > 0).count();

    println!("Pass ordering on TSVC (reduction vs the post-CSE baseline)");
    println!("{:-<64}", "");
    println!("RoLAG before CSE : applied {applied_before:>3} kernels, mean {mean_before:>6.2}%");
    println!(
        "RoLAG after CSE  : applied {applied_after:>3} kernels, mean {mean_after:>6.2}%  (the paper's order)"
    );
    let diverging = rows
        .iter()
        .filter(|r| (r.rolled_before > 0) != (r.rolled_after > 0))
        .count();
    println!("kernels where the order changes the roll decision: {diverging}");

    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{:.3},{:.3},{},{}",
                r.name, r.before_pct, r.after_pct, r.rolled_before, r.rolled_after
            )
        })
        .collect();
    match write_csv(
        "pass-order",
        "kernel,rolag_before_cse_pct,rolag_after_cse_pct,rolled_before,rolled_after",
        &csv,
    ) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
