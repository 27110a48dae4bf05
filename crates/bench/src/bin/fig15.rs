//! Fig. 15 — code-size reduction curve over the AnghaBench-like corpus.
//!
//! Paper reference: RoLAG achieves an average reduction of 9.12% on the
//! final object file across the ~3500 affected functions, with a tail of
//! negative outcomes from profitability false positives; LLVM's rerolling
//! affects fewer than 50 functions and is omitted from the figure.
//!
//! Usage: `cargo run --release -p rolag-bench --bin fig15
//!         [--functions N] [--seed S]`

use rolag::RolagOptions;
use rolag_bench::angha_eval::{evaluate_angha, summarize};
use rolag_bench::report::{
    arg_value, render_curve, sorted_desc, stage_csv_header, stage_csv_row, write_csv,
};
use rolag_suites::angha::AnghaConfig;

fn main() {
    let mut config = AnghaConfig::default();
    if let Some(n) = arg_value("--functions").and_then(|v| v.parse().ok()) {
        config.functions = n;
    }
    if let Some(s) = arg_value("--seed").and_then(|v| v.parse().ok()) {
        config.seed = s;
    }
    let rows = evaluate_angha(&config, &RolagOptions::default());
    let summary = summarize(&rows);

    let reductions: Vec<f64> = rows
        .iter()
        .filter(|r| r.affected())
        .map(|r| r.reduction())
        .collect();

    println!("Fig. 15 — AnghaBench code-size reduction curve");
    println!("{:-<70}", "");
    println!("{}", render_curve(&reductions, 12));
    println!("{:-<70}", "");
    println!(
        "functions: {}   affected: {}   LLVM-affected: {}  (paper: <50)",
        summary.functions, summary.affected, summary.llvm_affected
    );
    println!(
        "mean reduction over affected: {:.2}%  (paper: 9.12%)   range: {:.1}%..{:.1}%",
        summary.mean_reduction_affected, summary.worst_reduction, summary.best_reduction
    );

    let sorted = sorted_desc(&reductions);
    let csv_rows: Vec<String> = sorted
        .iter()
        .enumerate()
        .map(|(i, r)| format!("{i},{r:.4}"))
        .collect();
    match write_csv("fig15-angha-curve", "rank,reduction_pct", &csv_rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }

    // Aggregate stage timings per pattern family (a per-function dump would
    // be thousands of rows of noise at this corpus size).
    let mut by_kind: std::collections::BTreeMap<String, rolag::StageTimings> =
        std::collections::BTreeMap::new();
    for r in &rows {
        *by_kind.entry(format!("{:?}", r.kind)).or_default() += r.timings;
    }
    let stage_rows: Vec<String> = by_kind
        .iter()
        .map(|(kind, t)| stage_csv_row(kind, t))
        .collect();
    match write_csv("fig15-stages", stage_csv_header(), &stage_rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write stage CSV: {e}"),
    }
}
