//! rolag-e2e — the end-to-end benchmark over the `rolag-opt`,
//! `rolag-corpus` and `rolag-serve` paths.
//!
//! ```text
//! rolag-e2e --workload W --seed N [--seconds S] [--trace 0|1] [--trace-file F]
//! rolag-e2e --seed N --out DIR [--workload W] [--seconds S] [--trace]
//! rolag-e2e --compare A B
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last stdout line, one JSON object with every end-to-end metric of
//! `BENCHMARK.json` (or, traced, every per-layer metric). The second runs
//! each workload in a child process of its own, so each gets its own peak
//! RSS, and writes `DIR/e2e.json` (plus, traced, `DIR/layers.json` and
//! `DIR/trace-<workload>.jsonl`). The third compares two sets of runs
//! (each an `e2e.json` or a directory of `--out` directories): each
//! (workload, metric) pair's change of the median, judged against the
//! metric's bound where both sides' spreads allow it.
//! See the package's README.md.

mod report;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{declared, result_line};
use speed::Speed;
use stats::{median, percentile};
use trace::{breakdown, Span, Tracer};
use workloads::{Check, Size, Tally, Workload};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const DEFAULT_SECONDS: u64 = 10;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    trace_file: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seconds: DEFAULT_SECONDS,
        ..Args::default()
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace-file" => a.trace_file = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let x = PathBuf::from(value()?);
                let y = PathBuf::from(it.next().ok_or("--compare needs two sets of runs")?);
                a.compare = Some((x, y));
            }
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0" | "1") => it.next().is_some_and(|v| v == "1"),
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// A per-run scratch directory inside the build directory
/// (`$CARGO_TARGET_DIR`, else `target/`), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(w: Workload) -> std::io::Result<Scratch> {
        let base = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let dir = base.join(format!("rolag-e2e-{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Resets the kernel's peak-RSS mark to the current RSS, so `VmHWM`
/// read later covers the timed work only. Linux-only; elsewhere the mark
/// also covers set-up.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> f64 {
    rolag_frontend::corpus::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64
}

/// What one run of one workload produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    /// Only for traced runs.
    per_layer: Option<BTreeMap<&'static str, f64>>,
    /// Units each latency percentile is taken over, and rounds per unit.
    latency_samples: usize,
    rounds: usize,
    spans: Vec<Span>,
    failures: Vec<String>,
}

/// Process exit status of a finished run: non-zero when any operation
/// failed or any output failed the correctness gate.
fn exit_status(failed: u64) -> u8 {
    u8::from(failed > 0)
}

fn run_workload(
    w: Workload,
    size: &Size,
    seed: u64,
    rounds: usize,
    traced: bool,
) -> Result<Outcome, String> {
    let scratch = Scratch::new(w).map_err(|e| format!("scratch directory: {e}"))?;
    let (mut totals, mut inputs, mut program) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = None;
    let mut speed = Speed::default();
    for _ in 0..SETUPS {
        drop(setup.take()); // release the previous set-up first
        let (s, secs) = speed.time(|| w.setup(size, &scratch.0));
        let s = s.map_err(|e| format!("{} set-up: {e}", w.name()))?;
        totals.push(secs);
        inputs.push(s.inputs_s);
        program.push(s.program_s);
        setup = Some(s);
    }
    let mut bench = setup.expect("at least one set-up").bench;

    reset_peak_rss();
    let mut plain = Tally::default();
    bench.run(rounds, seed, &Tracer::new(false), &mut plain);
    let peak_rss = peak_rss_mib();
    let mut failures = std::mem::take(&mut plain.failures);
    let mut attempted = plain.functions;

    let mut trace_run = None;
    if traced {
        let tracer = Tracer::new(true);
        let mut tally = Tally::default();
        bench.run(rounds, seed, &tracer, &mut tally);
        failures.append(&mut tally.failures);
        attempted += tally.functions;
        trace_run = Some((tracer.spans(), tally));
    }

    let check = bench.check(seed);
    failures.extend(check.failures.iter().cloned());
    let failed = failures.len() as u64;
    let success_frac = 1.0 - (failed as f64 / attempted.max(1) as f64).min(1.0);
    let end_to_end = end_to_end_metrics(median(&totals), &plain, &check, peak_rss, success_frac);
    let (spans, per_layer) = match trace_run {
        Some((spans, tally)) => {
            let layers = LayerInputs {
                spans: &spans,
                setup_inputs_s: median(&inputs),
                setup_program_s: median(&program),
                trace_overhead_pct: 100.0 * (plain.funcs_per_s() / tally.funcs_per_s() - 1.0),
            };
            let m = per_layer_metrics(&layers);
            (spans, Some(m))
        }
        None => (Vec::new(), None),
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        latency_samples: plain.unit_functions.len(),
        rounds,
        spans,
        failures,
    })
}

fn reduction_pct(before: u64, after: u64) -> f64 {
    if before == 0 {
        return 0.0;
    }
    100.0 * (before as f64 - after as f64) / before as f64
}

fn end_to_end_metrics(
    setup_s: f64,
    t: &Tally,
    check: &Check,
    peak_rss_mib: f64,
    success_frac: f64,
) -> BTreeMap<&'static str, f64> {
    let unit_ns = t.unit_ns();
    BTreeMap::from([
        ("setup_s", setup_s),
        ("funcs_per_s", t.funcs_per_s()),
        ("latency_p50_ms", percentile(&unit_ns, 50.0) as f64 / 1e6),
        ("latency_p99_ms", percentile(&unit_ns, 99.0) as f64 / 1e6),
        (
            "text_reduction_pct",
            reduction_pct(check.text_in, check.text_out),
        ),
        (
            "footprint_reduction_pct",
            reduction_pct(check.footprint_in, check.footprint_out),
        ),
        ("peak_rss_mib", peak_rss_mib),
        ("success_frac", success_frac),
    ])
}

struct LayerInputs<'a> {
    spans: &'a [Span],
    setup_inputs_s: f64,
    setup_program_s: f64,
    trace_overhead_pct: f64,
}

/// Per-layer metrics of a traced run. Self times come from the span tree;
/// a metric not computed here is the sum of the span counter of the same
/// name (see `workloads::record_driver`).
fn per_layer_metrics(l: &LayerInputs) -> BTreeMap<&'static str, f64> {
    let b = breakdown(l.spans);
    let self_s = |name| b.self_ns.get(name).map_or(0.0, |&ns| ns as f64 / 1e9);
    let has = |name| b.self_ns.contains_key(name);
    let sum = |key| trace::total(l.spans, key);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let driver_s = sum("rolag.driver_s");
    let handle_ms = |hit: bool| {
        let samples: Vec<u64> = l
            .spans
            .iter()
            .filter(|s| s.name == "serve.handle" && (s.count("serve.hit") == 1.0) == hit)
            .map(Span::duration_ns)
            .collect();
        percentile(&samples, 50.0) as f64 / 1e6
    };
    let (hits, misses) = (sum("rolag.store.hits"), sum("rolag.store.misses"));
    let mut m = BTreeMap::from([
        ("frontend.parse_s", self_s("frontend.parse")),
        ("frontend.read_s", self_s("frontend.read")),
        // The corpus driver runs inside `roll_corpus` outside any child
        // span, so the roll's self time is ingest (parse + batch merge)
        // plus the driver; likewise a pass-manager run is the driver plus
        // manager overhead (verify_each, invalidation, pass glue).
        (
            "frontend.ingest_s",
            if has("corpus.roll") {
                self_s("corpus.roll") - driver_s
            } else {
                0.0
            },
        ),
        ("ir.verify_s", self_s("ir.verify")),
        ("ir.print_s", self_s("ir.print")),
        (
            "passes.overhead_s",
            if has("passes.run") {
                self_s("passes.run") - driver_s
            } else {
                0.0
            },
        ),
        ("serve.handle_s", self_s("serve.handle")),
        ("bench.calibrate_s", self_s("bench.calibrate")),
        (
            "rolag.roll_yield",
            ratio(sum("rolag.rolled"), sum("rolag.attempted")),
        ),
        (
            "rolag.search.adopt_yield",
            ratio(sum("rolag.search.adopted"), sum("rolag.search.explored")),
        ),
        ("rolag.store.hit_rate", ratio(hits, hits + misses)),
        (
            "rolag.store.entries",
            l.spans
                .iter()
                .rev()
                .find(|s| s.counts.iter().any(|(k, _)| *k == "rolag.store.entries"))
                .map_or(0.0, |s| s.count("rolag.store.entries")),
        ),
        ("serve.hit_p50_ms", handle_ms(true)),
        ("serve.miss_p50_ms", handle_ms(false)),
        ("setup.inputs_s", l.setup_inputs_s),
        ("setup.program_s", l.setup_program_s),
        ("unattributed_s", b.unattributed_ns as f64 / 1e9),
        ("trace_overhead_pct", l.trace_overhead_pct),
    ]);
    for metric in &declared().per_layer {
        m.entry(metric.name.as_str())
            .or_insert_with(|| sum(&metric.name));
    }
    m
}

fn print_outcome(w: Workload, o: &Outcome) {
    let d = declared();
    let (metrics, values) = match &o.per_layer {
        Some(layers) => (&d.per_layer, layers),
        None => (&d.end_to_end, &o.end_to_end),
    };
    for m in metrics {
        let v = values[m.name.as_str()];
        let note = match m.name.as_str() {
            "latency_p50_ms" | "latency_p99_ms" => {
                format!(
                    "  (nearest rank over n={} units, each the median of {} rounds)",
                    o.latency_samples, o.rounds
                )
            }
            _ => String::new(),
        };
        println!("{} {:<26} {v:>14.4} {}{note}", w.name(), m.name, m.unit);
    }
    for f in o.failures.iter().take(20) {
        eprintln!("rolag-e2e: {}: FAILED: {f}", w.name());
    }
    println!(
        "{}",
        result_line(o.correct, o.attempted, o.failed, metrics, values)
    );
}

/// Runs one workload in this process.
fn run_one(w: Workload, a: &Args, seed: u64) -> Result<ExitCode, String> {
    let o = run_workload(w, &Size::FULL, seed, w.rounds(a.seconds), a.trace)?;
    if let Some(path) = &a.trace_file {
        std::fs::write(path, trace::to_jsonl(&o.spans, seed))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print_outcome(w, &o);
    Ok(ExitCode::from(exit_status(o.failed)))
}

/// Runs `w` in a child process; forwards its report lines and returns
/// its result line.
fn child(
    w: Workload,
    a: &Args,
    seed: u64,
    trace_file: Option<&Path>,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace_file.is_some() { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(f) = trace_file {
        cmd.arg("--trace-file").arg(f);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    for l in lines {
        println!("{l}");
    }
    if !last.starts_with('{') {
        return Err(format!("{} printed no result ({})", w.name(), out.status));
    }
    Ok((last, out.status.success()))
}

/// Runs every workload (or the one named) in child processes and writes
/// the run files under `out`.
fn orchestrate(a: &Args, seed: u64, out: &Path) -> Result<ExitCode, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let workloads = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let (mut e2e, mut layers, mut ok) = (Vec::new(), Vec::new(), true);
    for w in workloads {
        let (line, success) = child(w, a, seed, None)?;
        ok &= success;
        e2e.push(format!("{}: {line}", rolag_serve::json::escaped(w.name())));
        if a.trace {
            let file = out.join(format!("trace-{}.jsonl", w.name()));
            let (line, success) = child(w, a, seed, Some(&file))?;
            ok &= success;
            layers.push(format!("{}: {line}", rolag_serve::json::escaped(w.name())));
        }
    }
    let write = |name: &str, entries: &[String]| {
        let path = out.join(name);
        let body = format!(
            "{{\"seed\": {seed}, \"seconds\": {}, \"workloads\": {{\n  {}\n}}}}\n",
            a.seconds,
            entries.join(",\n  ")
        );
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("e2e.json", &e2e)?;
    if a.trace {
        write("layers.json", &layers)?;
    }
    Ok(ExitCode::from(u8::from(!ok)))
}

/// The runs one side of `--compare` names: an `e2e.json` file, or a
/// directory holding `e2e.json` and/or `*/e2e.json` (one per `--out` run).
fn read_runs(path: &Path) -> Result<Vec<String>, String> {
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()));
    if !path.is_dir() {
        return Ok(vec![read(path)?]);
    }
    let entries =
        std::fs::read_dir(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| Some(e.ok()?.path().join("e2e.json")))
        .chain([path.join("e2e.json")])
        .filter(|f| f.is_file())
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no e2e.json in {}", path.display()));
    }
    files.iter().map(|f| read(f)).collect()
}

fn compare_runs(x: &Path, y: &Path) -> Result<ExitCode, String> {
    let c = report::compare(&read_runs(x)?, &read_runs(y)?, &declared().end_to_end)?;
    print!("{}", c.report);
    println!(
        "{} (workload, metric) pair(s) worse than their bound or changed; {} unresolved",
        c.flagged, c.unresolved
    );
    Ok(ExitCode::from(u8::from(c.flagged > 0)))
}

fn dispatch(a: Args) -> Result<ExitCode, String> {
    if let Some((x, y)) = &a.compare {
        return compare_runs(x, y);
    }
    let seed = a.seed.ok_or("--seed is required")?;
    match (&a.out, a.workload) {
        (Some(out), _) => orchestrate(&a, seed, out),
        (None, Some(w)) => run_one(w, &a, seed),
        (None, None) => Err("give --workload, or --out for every workload".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(dispatch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rolag-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::tests::{gate_with_altered_output, SMOKE};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn both_trace_spellings_parse() {
        let a = args("--workload tsvc --seed 3 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Tsvc), Some(3), 10, false)
        );
        assert!(args("--workload tsvc --seed 3 --trace 1").unwrap().trace);
        assert!(args("--seed 3 --out o --trace").unwrap().trace);
        assert!(args("--seed 3 --trace --out o").unwrap().trace);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1 --seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
    }

    #[test]
    fn an_altered_output_exits_non_zero() {
        let (tally, check) = gate_with_altered_output(|out| format!("{out}\ngarbage"));
        let failed = (tally.failures.len() + check.failures.len()) as u64;
        assert_eq!(exit_status(failed), 1);
        let (tally, check) = gate_with_altered_output(str::to_string);
        let failed = (tally.failures.len() + check.failures.len()) as u64;
        assert_eq!(exit_status(failed), 0);
    }

    /// Every workload at smoke size, traced: correct, every declared metric
    /// present and finite, and the layers account for the traced wall.
    #[test]
    fn every_workload_runs_at_smoke_size() {
        let d = declared();
        for w in Workload::ALL {
            let o = run_workload(w, &SMOKE, 7, 2, true).unwrap();
            assert!(o.correct, "{}: {:?}", w.name(), o.failures);
            assert!(o.attempted > 0);
            let layers = o.per_layer.as_ref().unwrap();
            for m in &d.end_to_end {
                assert!(
                    o.end_to_end[m.name.as_str()].is_finite(),
                    "{} {}",
                    w.name(),
                    m.name
                );
            }
            for m in &d.per_layer {
                assert!(
                    layers[m.name.as_str()].is_finite(),
                    "{} {}",
                    w.name(),
                    m.name
                );
            }
            assert!(o.end_to_end["funcs_per_s"] > 0.0, "{}", w.name());
            assert!(o.end_to_end["text_reduction_pct"] > 0.0, "{}", w.name());
            let b = breakdown(&o.spans);
            let self_ns: u64 = b.self_ns.values().sum();
            assert_eq!(self_ns + b.unattributed_ns, b.wall_ns, "{}", w.name());
            let named: f64 = [
                "frontend.parse_s",
                "frontend.read_s",
                "frontend.ingest_s",
                "ir.verify_s",
                "ir.print_s",
                "passes.overhead_s",
                "serve.handle_s",
                "rolag.driver_s",
                "bench.calibrate_s",
                "unattributed_s",
            ]
            .iter()
            .map(|k| layers[k])
            .sum();
            let wall = b.wall_ns as f64 / 1e9;
            assert!(
                (named - wall).abs() < 1e-6,
                "{}: {named} vs {wall}",
                w.name()
            );
            assert!(layers["rolag.attempted"] > 0.0, "{}", w.name());
            print_outcome(w, &o);
        }
    }
}
