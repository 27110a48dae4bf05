//! The metrics `BENCHMARK.json` declares, the result line the benchmark
//! prints, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use rolag_serve::json::{escaped, parse, Json};

use crate::stats::{median, spread};

/// The declarations are read from the repository's `BENCHMARK.json`, so
/// names, units and bounds have one source.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Declared {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(parse_declared)
}

fn parse_declared() -> Declared {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key:?} list")
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without {k:?}"))
                        .to_string()
                };
                Metric {
                    name: text("name"),
                    unit: text("unit"),
                    higher_is_better: text("better") == "higher",
                    bound: m.get("bound").and_then(Json::as_num),
                }
            })
            .collect()
    };
    Declared {
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// A finite number with all its digits (Rust's shortest round-trip form).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The last stdout line of a run: `correct`, `attempted`, `failed`, and
/// every declared metric of the run's kind with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Metric],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in declared.iter().enumerate() {
        let v = values
            .get(m.name.as_str())
            .unwrap_or_else(|| panic!("metric {} was not computed", m.name));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            escaped(&m.name),
            num(*v),
            escaped(&m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// How a (workload, metric) pair compares between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, or every
    /// run of B reads better than every run of A.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A bound-0 metric differs, in either direction.
    Changed,
    /// The run-to-run spread on a side is unknown (fewer than three runs)
    /// or wider than the bound, and B's runs do not all read better than
    /// A's, so the bound cannot decide.
    Unresolved,
}

/// The outcome of [`compare`].
pub struct Comparison {
    pub report: String,
    /// Pairs that are [`Verdict::Worse`] or [`Verdict::Changed`], plus
    /// workloads missing from B.
    pub flagged: usize,
    pub unresolved: usize,
}

/// Judges one pair from every run's value on each side (each side
/// non-empty): medians against the bound, as long as both sides' spreads
/// are within it.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    if bound == 0.0 {
        let first = a[0];
        return if a.iter().chain(b).all(|&v| v == first) {
            Verdict::Within
        } else {
            Verdict::Changed
        };
    }
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
    if wide(a) || wide(b) {
        let all_better = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
        return if all_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let worse = if higher_is_better { -change } else { change };
    if worse > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Each workload's declared metrics across runs: workload → metric →
/// one value per run.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(runs: &[String], declared: &[Metric]) -> Result<Values, String> {
    let mut out = Values::new();
    for run in runs {
        let Some(Json::Obj(workloads)) = parse(run)?.get("workloads").cloned() else {
            return Err("missing \"workloads\" object".into());
        };
        for (workload, result) in workloads {
            for m in declared {
                let v = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_num)
                    .ok_or(format!("{workload}: no value for {}", m.name))?;
                out.entry(workload.clone())
                    .or_default()
                    .entry(m.name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Compares two sets of `e2e.json` runs, A (the base) and B, pair by
/// pair: the change of the medians, each side's spread, and a
/// [`Verdict`].
pub fn compare(a: &[String], b: &[String], declared: &[Metric]) -> Result<Comparison, String> {
    let (va, vb) = (collect(a, declared)?, collect(b, declared)?);
    let pct = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.1}%", 100.0 * s));
    let mut report = format!(
        "A: {} run(s), B: {} run(s); medians, change of the median, spread = IQR / median\n\
         {:<13} {:<24} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}  verdict\n",
        a.len(),
        b.len(),
        "workload",
        "metric",
        "A",
        "B",
        "change",
        "spread A",
        "spread B",
        "bound"
    );
    let (mut flagged, mut unresolved) = (0, 0);
    for (workload, ma) in &va {
        let Some(mb) = vb.get(workload) else {
            let _ = writeln!(report, "{workload:<13} missing from B");
            flagged += 1;
            continue;
        };
        for m in declared {
            let (xa, xb) = (&ma[&m.name], &mb[&m.name]);
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(xa, xb, bound, m.higher_is_better);
            flagged += usize::from(matches!(v, Verdict::Worse | Verdict::Changed));
            unresolved += usize::from(v == Verdict::Unresolved);
            let (da, db) = (median(xa), median(xb));
            let change = if da == db { 0.0 } else { (db - da) / da.abs() };
            let _ = writeln!(
                report,
                "{workload:<13} {:<24} {da:>14.4} {db:>14.4} {:>+8.2}% {:>9} {:>9} {:>5.0}%  {}",
                m.name,
                100.0 * change,
                pct(spread(xa)),
                pct(spread(xb)),
                100.0 * bound,
                match v {
                    Verdict::Within => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Changed => "CHANGED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(Comparison {
        report,
        flagged,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn declarations_match_the_workloads_and_bound_rules() {
        let d = declared();
        let Some(Json::Arr(workloads)) = parse(BENCHMARK_JSON).unwrap().get("workloads").cloned()
        else {
            panic!("no workloads list")
        };
        let declared_names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared_names, names);
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup_bound = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound;
        for m in &d.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
            assert!(
                bound <= setup_bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    /// An `e2e.json` with every metric at 100 except `overrides`.
    fn e2e_file(overrides: &[(&str, f64)]) -> String {
        let d = declared();
        let map: BTreeMap<&str, f64> = d
            .end_to_end
            .iter()
            .map(|m| {
                let v = overrides
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(100.0, |&(_, v)| v);
                (m.name.as_str(), v)
            })
            .collect();
        format!(
            "{{\"workloads\": {{\"tsvc\": {}}}}}",
            result_line(true, 1, 0, &d.end_to_end, &map)
        )
    }

    #[test]
    fn verdicts_follow_medians_spreads_and_bounds() {
        use Verdict::*;
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |k: f64| steady.map(|v| v * k);
        // Throughput (higher is better), bound 10%.
        assert_eq!(verdict(&steady, &scaled(0.95), 0.1, true), Within);
        assert_eq!(verdict(&steady, &scaled(0.8), 0.1, true), Worse);
        assert_eq!(verdict(&steady, &scaled(1.5), 0.1, true), Within);
        // Latency (lower is better): the same drop is a gain.
        assert_eq!(verdict(&steady, &scaled(0.8), 0.1, false), Within);
        // A spread wider than the bound cannot decide a small change...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&noisy, &scaled(0.9), 0.1, true), Unresolved);
        assert_eq!(verdict(&steady, &noisy, 0.1, true), Unresolved);
        // ...unless every run of B reads better than every run of A.
        assert_eq!(verdict(&noisy, &scaled(2.0), 0.1, true), Within);
        // Fewer than three runs a side: the spread is unknown.
        assert_eq!(verdict(&[100.0], &[100.0], 0.1, true), Unresolved);
        // Bound 0: any difference is flagged, even a gain.
        assert_eq!(verdict(&[5.0, 5.0], &[5.0], 0.0, true), Within);
        assert_eq!(verdict(&[5.0, 5.0], &[5.0, 5.5], 0.0, true), Changed);
    }

    #[test]
    fn compare_reads_every_run_and_counts_verdicts() {
        let d = &declared().end_to_end;
        let runs = |k: f64, over: &[(&str, f64)]| {
            [1.0, 1.01, 0.99]
                .map(|j| {
                    let mut o: Vec<(&str, f64)> = over.to_vec();
                    o.push(("funcs_per_s", 100.0 * j * k));
                    e2e_file(&o)
                })
                .to_vec()
        };
        let base = runs(1.0, &[]);
        let same = compare(&base, &base, d).unwrap();
        assert_eq!((same.flagged, same.unresolved), (0, 0), "{}", same.report);

        let slower = compare(&base, &runs(0.5, &[]), d).unwrap();
        assert_eq!(slower.flagged, 1, "{}", slower.report);
        assert!(slower
            .report
            .lines()
            .any(|l| l.contains("funcs_per_s") && l.ends_with("WORSE")));

        let smaller = compare(&base, &runs(1.0, &[("text_reduction_pct", 101.0)]), d).unwrap();
        assert_eq!(smaller.flagged, 1, "{}", smaller.report);

        let one = compare(&base[..1], &base[..1], d).unwrap();
        let timed = d.iter().filter(|m| m.bound != Some(0.0)).count();
        assert_eq!((one.flagged, one.unresolved), (0, timed), "{}", one.report);
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let d = declared();
        let map: BTreeMap<&str, f64> = d.per_layer.iter().map(|m| (m.name.as_str(), 0.5)).collect();
        let line = result_line(false, 10, 2, &d.per_layer, &map);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(10.0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object")
        };
        assert_eq!(metrics.len(), d.per_layer.len());
    }
}
