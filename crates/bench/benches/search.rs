//! Greedy-vs-beam search benchmark: the default greedy engine against the
//! validator-gated beam (`beam:4`) on the unrolled TSVC kernels and an
//! AnghaBench-style slice.
//!
//! Besides the usual min/median/mean table this bench writes
//! `BENCH_search.json` at the repository root: per-strategy wall time,
//! total measured text bytes per corpus and strategy, and the beam's
//! search counters (explored/pruned/tv-rejected/adopted).
//!
//! `--check-bench <path>` re-rolls both corpora under both strategies and
//! fails when the text totals or the search counters differ from the ones
//! recorded in the checked-in JSON, or when beam:4 measures larger than
//! greedy on either corpus (the monotonicity the search engine promises by
//! construction). Only deterministic fields are compared; timings are not
//! gated.

use std::fmt::Write as _;
use std::path::Path;

use rolag::{roll_module, RolagOptions, RolagStats, SearchConfig, SearchStats};
use rolag_bench::harness::{BenchGroup, Measurement};
use rolag_ir::Module;
use rolag_lower::measure_module;
use rolag_suites::angha::{generate, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

fn tsvc_inputs(n: usize) -> Vec<Module> {
    all_kernels()
        .iter()
        .take(n)
        .map(|spec| {
            let mut m = build_kernel_module(spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            m
        })
        .collect()
}

fn angha_inputs(functions: usize) -> Vec<Module> {
    generate(&AnghaConfig {
        functions,
        ..AnghaConfig::default()
    })
    .entries
    .into_iter()
    .map(|(_, _, m)| m)
    .collect()
}

fn beam4() -> RolagOptions {
    RolagOptions {
        search: SearchConfig::Beam {
            width: 4,
            depth: SearchConfig::DEFAULT_DEPTH,
        },
        ..RolagOptions::default()
    }
}

/// Rolls every module with `opts`; returns the summed post-roll text
/// bytes and the accumulated statistics.
fn roll_corpus(inputs: &[Module], opts: &RolagOptions) -> (u64, RolagStats) {
    let mut text = 0u64;
    let mut stats = RolagStats::default();
    for m in inputs {
        let mut m = m.clone();
        stats += roll_module(&mut m, opts);
        text += measure_module(&m).text;
    }
    (text, stats)
}

/// The deterministic results on one corpus: summed post-roll text bytes
/// under greedy and beam:4, and the beam's search counters.
struct Outcome {
    corpus: &'static str,
    greedy_text: u64,
    beam_text: u64,
    search: SearchStats,
}

impl Outcome {
    fn measure(corpus: &'static str, inputs: &[Module]) -> Outcome {
        let (greedy_text, _) = roll_corpus(inputs, &RolagOptions::default());
        let (beam_text, beam_stats) = roll_corpus(inputs, &beam4());
        Outcome {
            corpus,
            greedy_text,
            beam_text,
            search: beam_stats.search,
        }
    }

    /// `(key, bytes)` entries of the report's `sizes` object.
    fn sizes(&self) -> [(String, u64); 2] {
        [
            (format!("greedy_text_{}", self.corpus), self.greedy_text),
            (format!("beam4_text_{}", self.corpus), self.beam_text),
        ]
    }
}

fn outcomes(tsvc: &[Module], angha: &[Module]) -> [Outcome; 2] {
    [
        Outcome::measure("tsvc24", tsvc),
        Outcome::measure("angha64", angha),
    ]
}

/// `"label": {...}` JSON object for one measurement.
fn bench_json(m: &Measurement) -> String {
    format!(
        "{{\"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}",
        m.min().as_nanos(),
        m.median().as_nanos(),
        m.mean().as_nanos()
    )
}

/// Extracts the integer value of `"key": N` from the flat object that
/// follows `"scope":` in hand-rolled JSON. The schema keeps every scope
/// name globally unique and every key unique within its scope, so plain
/// text search is exact.
fn json_u64(text: &str, scope: &str, key: &str) -> Result<u64, String> {
    let find = |text: &str, name: &str| {
        let needle = format!("\"{name}\":");
        text.find(&needle)
            .map(|at| at + needle.len())
            .ok_or_else(|| format!("key \"{scope}.{key}\" not found"))
    };
    let body = &text[find(text, scope)?..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    let rest = body[find(body, key)?..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|_| format!("key \"{scope}.{key}\" has no integer value"))
}

/// The workspace root, where `BENCH_search.json` lives.
/// `CARGO_MANIFEST_DIR` is `crates/bench`.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// `--check-bench <path>`: re-rolls tsvc24 and angha64 greedily and
/// with beam:4 and compares the text totals and search counters with the
/// ones recorded in a previously written `BENCH_search.json`; also
/// enforces that beam:4 never measures larger than greedy. Relative paths
/// resolve against the workspace root (where the bench writes the JSON),
/// since `cargo bench` runs with the package as cwd.
fn check_bench(path: &Path) -> Result<(), String> {
    let path = if path.is_relative() {
        repo_root().join(path)
    } else {
        path.to_path_buf()
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut diffs = Vec::new();
    for o in outcomes(&tsvc_inputs(24), &angha_inputs(64)) {
        let counters = o
            .search
            .rows()
            .into_iter()
            .map(|(k, n)| (o.corpus, k.to_string(), n));
        let sizes = o.sizes().into_iter().map(|(k, n)| ("sizes", k, n));
        for (scope, key, now) in sizes.chain(counters) {
            let recorded = json_u64(&text, scope, &key)?;
            if recorded != now {
                diffs.push(format!("{scope}.{key}: recorded {recorded}, now {now}"));
            }
        }
        if o.beam_text > o.greedy_text {
            diffs.push(format!(
                "beam:4 rolled {} to {} text bytes, more than greedy's {}",
                o.corpus, o.beam_text, o.greedy_text
            ));
        }
        println!(
            "{:<8} text: greedy {} B, beam:4 {} B",
            o.corpus, o.greedy_text, o.beam_text
        );
    }
    if !diffs.is_empty() {
        return Err(format!(
            "{} does not match this build:\n  {}",
            path.display(),
            diffs.join("\n  ")
        ));
    }
    println!("check-bench ok: sizes and search counters match the record");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check-bench") {
        let path = args.get(i + 1).map(Path::new).unwrap_or_else(|| {
            eprintln!("--check-bench needs a path");
            std::process::exit(1);
        });
        if let Err(e) = check_bench(path) {
            eprintln!("check-bench FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }

    let greedy_opts = RolagOptions::default();
    let beam_opts = beam4();
    let tsvc = tsvc_inputs(24);
    let angha = angha_inputs(64);

    let mut group = BenchGroup::new("search", 5);
    group.bench_batched(
        "greedy_tsvc24",
        || tsvc.clone(),
        |mut modules| {
            for m in &mut modules {
                roll_module(m, &greedy_opts);
            }
        },
    );
    group.bench_batched(
        "beam4_tsvc24",
        || tsvc.clone(),
        |mut modules| {
            for m in &mut modules {
                roll_module(m, &beam_opts);
            }
        },
    );
    group.bench_batched(
        "greedy_angha64",
        || angha.clone(),
        |mut modules| {
            for m in &mut modules {
                roll_module(m, &greedy_opts);
            }
        },
    );
    group.bench_batched(
        "beam4_angha64",
        || angha.clone(),
        |mut modules| {
            for m in &mut modules {
                roll_module(m, &beam_opts);
            }
        },
    );
    let results = group.finish();

    // One instrumented run per corpus and strategy for the size totals
    // and the beam's search counters.
    let outcomes = outcomes(&tsvc, &angha);
    for o in &outcomes {
        println!(
            "{:<8} text: greedy {} B, beam:4 {} B",
            o.corpus, o.greedy_text, o.beam_text
        );
        for (counter, n) in o.search.rows() {
            println!("search {} {counter:<14} {n:>8}", o.corpus);
        }
    }

    let mut json = String::from("{\n  \"bench\": \"search\",\n  \"samples\": 5,\n");
    json.push_str("  \"benchmarks\": {\n");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\": {}{sep}", m.label, bench_json(m));
    }
    json.push_str("  },\n");
    let sizes: Vec<String> = outcomes
        .iter()
        .flat_map(Outcome::sizes)
        .map(|(key, n)| format!("    \"{key}\": {n}"))
        .collect();
    let _ = writeln!(json, "  \"sizes\": {{\n{}\n  }},", sizes.join(",\n"));
    let search: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let rows: Vec<String> = o
                .search
                .rows()
                .iter()
                .map(|(counter, n)| format!("\"{counter}\": {n}"))
                .collect();
            format!("    \"{}\": {{{}}}", o.corpus, rows.join(", "))
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"search_stats\": {{\n{}\n  }}\n}}",
        search.join(",\n")
    );

    let path = repo_root().join("BENCH_search.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
