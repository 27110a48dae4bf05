//! rolag-corpus — whole-corpus rolling dashboard over the streaming
//! pipeline.
//!
//! Rolls either an on-disk corpus (directory, `RLCP` container,
//! concatenated text, or NDJSON manifest — see `rolag_frontend::corpus`)
//! or a generated AnghaBench-like corpus streamed one function at a
//! time, through the bounded-memory batch driver, then emits a
//! dashboard to the terminal and as `results/corpus.{json,csv}`.
//!
//! Usage:
//!   rolag-corpus [--generate N] [--seed S] [--corpus PATH]
//!                [--mem-budget N[K|M|G]] [--jobs N] [--no-memoize]
//!                [--write PATH]
//!
//! `--generate N` (default 1 000 000) streams N single-function modules
//! from the seeded AnghaBench-like generator without ever materializing
//! the corpus. `--corpus PATH` rolls external input instead. `--write
//! PATH` writes the generated corpus to an `RLCP` container and exits.
//! `--no-memoize` leaves the cross-batch store unattached; duplicates
//! within one batch still share a roll.

use std::io;
use std::path::Path;
use std::process::ExitCode;

use rolag::RolagOptions;
use rolag_bench::report::{arg_flag, arg_value, write_csv};
use rolag_frontend::corpus::{
    open_corpus, parse_mem_budget, roll_corpus, ContainerWriter, CorpusItem, CorpusIter,
    CorpusOptions, CorpusReport,
};
use rolag_ir::printer::print_module;
use rolag_serve::json::escaped;
use rolag_suites::angha::{stream, AnghaConfig};

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Streams the generated corpus as frontend items: one printed
/// single-function module per entry, produced lazily.
fn angha_items(config: &AnghaConfig) -> CorpusIter {
    Box::new(stream(config).enumerate().map(|(i, (name, _, m))| {
        Ok(CorpusItem {
            origin: format!("angha/{i}/{name}.rir"),
            bytes: print_module(&m).into_bytes(),
        })
    }))
}

fn write_container(config: &AnghaConfig, path: &str) -> io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = ContainerWriter::new(io::BufWriter::new(file))?;
    let mut count = 0u64;
    for item in angha_items(config) {
        w.append(&item?.bytes)?;
        count += 1;
    }
    w.finish()?;
    Ok(count)
}

fn print_dashboard(source: &str, r: &CorpusReport, copts: &CorpusOptions) {
    println!("rolag-corpus — whole-corpus rolling dashboard");
    println!("{:-<70}", "");
    println!("source:      {source}");
    println!(
        "modules:     {}   parse failures: {}",
        r.items, r.parse_failures
    );
    println!(
        "functions:   {}   rolled: {} ({:.2}%)   skipped: {} ({:.2}%)",
        r.functions,
        r.changed,
        100.0 * r.rolled_fraction(),
        r.skipped,
        if r.functions + r.skipped == 0 {
            0.0
        } else {
            100.0 * r.skipped as f64 / (r.functions + r.skipped) as f64
        }
    );
    println!(
        "loops:       {} rolled / {} attempted   tv rejected: {}   rescued: {}",
        r.stats.rolled, r.stats.attempted, r.stats.tv_rejected, r.stats.rescued
    );
    println!(
        "memoization: {} cache hits, {} store replays",
        r.cache_hits, r.store_hits
    );
    println!(
        "size:        {} -> {} bytes   ({} saved, {:.2}%)",
        r.stats.size_before,
        r.stats.size_after,
        r.bytes_saved(),
        r.stats.reduction_percent()
    );
    println!(
        "throughput:  {:.1} funcs/s   wall {:.2} s   batches: {}",
        r.funcs_per_sec(),
        r.wall_ns as f64 / 1e9,
        r.batches
    );
    println!(
        "memory:      peak RSS {:.1} MiB   budget {:.1} MiB   batch input ~{:.1} MiB",
        mib(r.peak_rss_bytes),
        mib(copts.mem_budget),
        mib(copts.batch_budget())
    );
    if !r.skip_reasons.is_empty() {
        println!("skip reasons:");
        for (code, n) in &r.skip_reasons {
            println!("  {code}: {n}");
        }
    }
    for d in &r.diagnostics {
        eprintln!("{d}");
    }
}

fn report_json(source: &str, r: &CorpusReport, copts: &CorpusOptions) -> String {
    let mut skip = String::new();
    for (i, (code, n)) in r.skip_reasons.iter().enumerate() {
        if i > 0 {
            skip.push_str(", ");
        }
        skip.push_str(&format!("{}: {n}", escaped(code)));
    }
    format!(
        "{{\n  \"bench\": \"corpus\",\n  \"workload\": {{\n    \"source\": {source},\n    \
         \"modules\": {items},\n    \"functions\": {functions},\n    \"bytes_in\": {bytes_in}\n  \
         }},\n  \"config\": {{\n    \"mem_budget_bytes\": {mem_budget},\n    \"jobs\": {jobs},\n    \
         \"batches\": {batches},\n    \"batch_input_bytes\": {batch_bytes}\n  }},\n  \
         \"rolling\": {{\n    \"changed_functions\": {changed},\n    \"rolled_fraction\": \
         {fraction:.6},\n    \"rolled_loops\": {rolled},\n    \"attempted\": {attempted},\n    \
         \"tv_rejected\": {tv_rejected},\n    \"rescued\": {rescued},\n    \"skipped_functions\": \
         {skipped},\n    \"skip_reasons\": {{{skip}}},\n    \"cache_hits\": {cache_hits},\n    \
         \"store_hits\": {store_hits},\n    \"parse_failures\": {parse_failures}\n  }},\n  \
         \"size\": {{\n    \"before\": {before},\n    \"after\": {after},\n    \"bytes_saved\": \
         {saved},\n    \"reduction_percent\": {reduction:.4}\n  }},\n  \"perf\": {{\n    \
         \"wall_ns\": {wall_ns},\n    \"funcs_per_sec\": {fps:.2},\n    \"peak_rss_bytes\": \
         {rss}\n  }}\n}}\n",
        source = escaped(source),
        items = r.items,
        functions = r.functions,
        bytes_in = r.bytes_in,
        mem_budget = copts.mem_budget,
        jobs = copts.effective_jobs(),
        batches = r.batches,
        batch_bytes = copts.batch_budget(),
        changed = r.changed,
        fraction = r.rolled_fraction(),
        rolled = r.stats.rolled,
        attempted = r.stats.attempted,
        tv_rejected = r.stats.tv_rejected,
        rescued = r.stats.rescued,
        skipped = r.skipped,
        cache_hits = r.cache_hits,
        store_hits = r.store_hits,
        parse_failures = r.parse_failures,
        before = r.stats.size_before,
        after = r.stats.size_after,
        saved = r.bytes_saved(),
        reduction = r.stats.reduction_percent(),
        wall_ns = r.wall_ns,
        fps = r.funcs_per_sec(),
        rss = r.peak_rss_bytes,
    )
}

fn csv_rows(r: &CorpusReport, copts: &CorpusOptions) -> Vec<String> {
    let mut rows = vec![
        format!("modules,{}", r.items),
        format!("parse_failures,{}", r.parse_failures),
        format!("functions,{}", r.functions),
        format!("changed_functions,{}", r.changed),
        format!("rolled_fraction,{:.6}", r.rolled_fraction()),
        format!("skipped_functions,{}", r.skipped),
        format!("rolled_loops,{}", r.stats.rolled),
        format!("attempted,{}", r.stats.attempted),
        format!("tv_rejected,{}", r.stats.tv_rejected),
        format!("rescued,{}", r.stats.rescued),
        format!("cache_hits,{}", r.cache_hits),
        format!("store_hits,{}", r.store_hits),
        format!("batches,{}", r.batches),
        format!("bytes_in,{}", r.bytes_in),
        format!("size_before,{}", r.stats.size_before),
        format!("size_after,{}", r.stats.size_after),
        format!("bytes_saved,{}", r.bytes_saved()),
        format!("reduction_percent,{:.4}", r.stats.reduction_percent()),
        format!("funcs_per_sec,{:.2}", r.funcs_per_sec()),
        format!("wall_ns,{}", r.wall_ns),
        format!("peak_rss_bytes,{}", r.peak_rss_bytes),
        format!("mem_budget_bytes,{}", copts.mem_budget),
    ];
    for (code, n) in &r.skip_reasons {
        rows.push(format!("skip.{code},{n}"));
    }
    rows
}

fn run() -> Result<(), String> {
    let mut config = AnghaConfig {
        functions: 1_000_000,
        ..AnghaConfig::default()
    };
    if let Some(n) = arg_value("--generate") {
        config.functions = n
            .parse()
            .map_err(|_| format!("invalid --generate value {n:?}"))?;
    }
    if let Some(s) = arg_value("--seed") {
        config.seed = s
            .parse()
            .map_err(|_| format!("invalid --seed value {s:?}"))?;
    }
    let mut copts = CorpusOptions::default();
    if let Some(b) = arg_value("--mem-budget") {
        copts.mem_budget = parse_mem_budget(&b)?;
    }
    if let Some(j) = arg_value("--jobs") {
        copts.jobs = j
            .parse()
            .map_err(|_| format!("invalid --jobs value {j:?}"))?;
    }
    copts.memoize = !arg_flag("--no-memoize");

    if let Some(out) = arg_value("--write") {
        let count = write_container(&config, &out).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {count} modules to {out}");
        return Ok(());
    }

    let corpus_path = arg_value("--corpus");
    let (source, items): (String, CorpusIter) = match &corpus_path {
        Some(p) => (
            p.clone(),
            open_corpus(Path::new(p)).map_err(|e| format!("opening {p}: {e}"))?,
        ),
        None => (
            format!(
                "angha-stream(seed=0x{:x}, functions={})",
                config.seed, config.functions
            ),
            angha_items(&config),
        ),
    };

    let opts = RolagOptions::default();
    let report =
        roll_corpus(items, &opts, &copts, |_, _| {}).map_err(|e| format!("rolling corpus: {e}"))?;

    print_dashboard(&source, &report, &copts);

    let json = report_json(&source, &report, &copts);
    std::fs::create_dir_all("results").map_err(|e| format!("creating results/: {e}"))?;
    let path = "results/corpus.json";
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {path}");
    match write_csv("corpus", "metric,value", &csv_rows(&report, &copts)) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rolag-corpus: {e}");
            ExitCode::from(1)
        }
    }
}
