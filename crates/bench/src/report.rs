//! Terminal/CSV reporting helpers shared by the figure binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Renders a horizontal ASCII bar scaled to `max_width` characters.
pub fn bar(value: f64, max_value: f64, max_width: usize) -> String {
    if max_value <= 0.0 {
        return String::new();
    }
    let w = ((value.max(0.0) / max_value) * max_width as f64).round() as usize;
    "#".repeat(w.min(max_width))
}

/// Writes CSV rows (`header` then `rows`) under `results/<name>.csv`,
/// creating the directory if needed. Returns the path written.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<String> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    fs::write(&path, out)?;
    Ok(path.display().to_string())
}

/// Sorted reduction curve: descending values with index, for the
/// "curve" figures (Fig. 15 / Fig. 18).
pub fn sorted_desc(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Renders a compact textual curve: `buckets` sample points of the sorted
/// values.
pub fn render_curve(values: &[f64], buckets: usize) -> String {
    if values.is_empty() {
        return "(empty)".into();
    }
    let sorted = sorted_desc(values);
    let mut out = String::new();
    for k in 0..buckets {
        let idx = (k * (sorted.len() - 1)) / buckets.max(1).max(1);
        let idx = idx.min(sorted.len() - 1);
        let v = sorted[idx];
        let _ = writeln!(
            out,
            "  p{:>3} {:>8.2}% |{}",
            100 * k / buckets.max(1),
            v,
            bar(v.max(0.0), sorted[0].max(1.0), 40)
        );
    }
    out
}

/// Header matching [`stage_csv_row`], for the `*-stages.csv` dumps.
pub fn stage_csv_header() -> &'static str {
    "label,seeds_ns,align_ns,schedule_ns,codegen_ns,cost_ns,cleanup_ns,total_ns"
}

/// One per-stage timing row keyed by `label`.
pub fn stage_csv_row(label: &str, t: &rolag::StageTimings) -> String {
    format!(
        "{label},{},{},{},{},{},{},{}",
        t.seeds_ns,
        t.align_ns,
        t.schedule_ns,
        t.codegen_ns,
        t.cost_ns,
        t.cleanup_ns,
        t.total_ns()
    )
}

/// Simple command-line flag lookup: `--key value`.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Presence of a bare flag.
pub fn arg_flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(-3.0, 10.0, 10), "");
    }

    #[test]
    fn sorting_descends() {
        assert_eq!(sorted_desc(&[1.0, 3.0, 2.0]), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn curve_renders_non_empty() {
        let c = render_curve(&[10.0, 5.0, 0.0, -2.0], 4);
        assert!(c.contains('%'));
    }
}
