//! Table I — code-size reductions on full programs (MiBench + SPEC 2017).
//!
//! Paper reference: reductions range from −0.7 KB to +87.9 KB; the best
//! percentage is povray at 2.7%; LLVM's rerolling never triggers.
//!
//! Usage: `cargo run --release -p rolag-bench --bin table1
//!         [--scale F] [--seed S]`
//!
//! `--scale 1.0` builds programs at the paper's full binary sizes (slow for
//! blender); the default 0.25 keeps the whole table under a minute while
//! preserving per-program proportions.

use rolag::RolagOptions;
use rolag_bench::report::{arg_value, stage_csv_header, stage_csv_row, write_csv};
use rolag_bench::table1_eval::evaluate_table1;

fn main() {
    let scale: f64 = arg_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let seed: u64 = arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    println!("Table I — code reductions on full programs (scale {scale})");
    println!("{:-<86}", "");
    println!(
        "{:<9} {:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "suite", "program", "size KB", "red. KB", "red. %", "rolled", "llvm", "cache%"
    );
    println!("{:-<95}", "");
    let rows = evaluate_table1(seed, scale, &RolagOptions::default());
    let mut csv_rows = Vec::new();
    for r in &rows {
        println!(
            "{:<9} {:<16} {:>12.1} {:>12.2} {:>8.2} {:>8} {:>8} {:>8.1}",
            r.suite,
            r.name,
            r.binary_kb,
            r.reduction_kb,
            r.reduction_pct,
            r.rolled_loops,
            r.llvm_rerolled,
            100.0 * r.cache_hit_rate()
        );
        csv_rows.push(format!(
            "{},{},{:.2},{:.3},{:.3},{},{},{},{},{},{:.4}",
            r.suite,
            r.name,
            r.binary_kb,
            r.reduction_kb,
            r.reduction_pct,
            r.rolled_loops,
            r.llvm_rerolled,
            r.functions,
            r.unique,
            r.cache_hits,
            r.cache_hit_rate()
        ));
    }
    println!("{:-<95}", "");
    let total_red: f64 = rows.iter().map(|r| r.reduction_kb).sum();
    let best = rows
        .iter()
        .max_by(|a, b| a.reduction_pct.partial_cmp(&b.reduction_pct).unwrap())
        .unwrap();
    println!(
        "total reduction: {total_red:.1} KB   best percentage: {} at {:.2}% (paper: povray 2.7%)",
        best.name, best.reduction_pct
    );
    println!(
        "LLVM rerolling triggered on {} programs (paper: never)",
        rows.iter().filter(|r| r.llvm_rerolled > 0).count()
    );

    let hits: u64 = rows.iter().map(|r| r.cache_hits).sum();
    let funcs: usize = rows.iter().map(|r| r.functions).sum();
    println!(
        "driver cache: {hits} hits over {funcs} functions ({:.1}%)",
        if funcs > 0 {
            100.0 * hits as f64 / funcs as f64
        } else {
            0.0
        }
    );

    match write_csv(
        "table1-programs",
        "suite,program,size_kb,reduction_kb,reduction_pct,rolled_loops,llvm_rerolled,functions,unique,cache_hits,cache_hit_rate",
        &csv_rows,
    ) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }

    let stage_rows: Vec<String> = rows
        .iter()
        .map(|r| stage_csv_row(&format!("{}/{}", r.suite, r.name), &r.timings))
        .collect();
    match write_csv("table1-stages", stage_csv_header(), &stage_rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write stage CSV: {e}"),
    }
}
