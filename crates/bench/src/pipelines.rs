//! Shared pipeline execution for the bench binaries: every experiment
//! that chains transforms goes through the `rolag-passes` manager with
//! one textual spec, instead of hand-calling the `*_module` entry points.
//!
//! Besides deleting per-binary dispatch, this gives each experiment the
//! cached [`AnalysisManager`] (effects tables computed once per run,
//! loop forests shared across passes) and its hit/miss counters for the
//! CSV dumps.

use rolag_ir::Module;
use rolag_passes::{
    AnalysisCacheStats, AnalysisManager, PassContext, PassManager, PassManagerOptions,
    PassRegistry, RunReport, TargetKind,
};

/// Runs `spec` (e.g. `"unroll<8>,cse,cleanup,rolag"`) over `module` in
/// place with a fresh analysis manager and returns the run report. The
/// module is verified after every pass.
///
/// Panics on a malformed spec or an inter-pass verification failure —
/// bench specs are hard-coded and bench inputs are expected to be sound,
/// so either is a bug worth a loud stop.
pub fn run_pipeline(module: &mut Module, spec: &str) -> RunReport {
    run_pipeline_with(module, spec, &mut AnalysisManager::new(), None)
}

/// [`run_pipeline`] without inter-pass verification, for *timed* bench
/// loops. The direct `*_module` pipelines the manager is measured against
/// never verify between transforms, so a timed managed run must not
/// either — the comparison would otherwise charge the manager for work
/// the baseline skips (this alone was a ~15% phantom "manager tax" on
/// the tsvc24 pipeline). Correctness phases keep using the verifying
/// [`run_pipeline`].
pub fn run_pipeline_timed(module: &mut Module, spec: &str) -> RunReport {
    run_pipeline_inner(module, spec, &mut AnalysisManager::new(), None, false)
}

/// [`run_pipeline`] against a caller-owned [`AnalysisManager`], so
/// multi-phase experiments (transform, measure, transform again) keep
/// their analysis cache across phases. `jobs` selects the parallel
/// memoizing driver for rolag passes.
pub fn run_pipeline_with(
    module: &mut Module,
    spec: &str,
    am: &mut AnalysisManager,
    jobs: Option<usize>,
) -> RunReport {
    run_pipeline_inner(module, spec, am, jobs, true)
}

fn run_pipeline_inner(
    module: &mut Module,
    spec: &str,
    am: &mut AnalysisManager,
    jobs: Option<usize>,
    verify_each: bool,
) -> RunReport {
    let mut pm = PassManager::with_options(PassManagerOptions {
        verify_each,
        print_changed: false,
    });
    pm.add_all(
        PassRegistry::builtin()
            .parse_pipeline(spec)
            .unwrap_or_else(|e| panic!("bad bench pipeline spec `{spec}`: {e}")),
    );
    let mut cx = PassContext::new(TargetKind::default());
    cx.jobs = jobs;
    match pm.run(module, am, &mut cx) {
        Ok(report) => report,
        Err(err) => panic!(
            "pipeline `{spec}` broke the module after `{}`: {}",
            err.pass,
            err.errors.join("; ")
        ),
    }
}

/// Header matching [`analysis_csv_row`], for the `*-analysis.csv` dumps.
pub fn analysis_csv_header() -> &'static str {
    "label,dom_hits,dom_misses,loops_hits,loops_misses,\
     alias_hits,alias_misses,effects_hits,effects_misses,hit_rate"
}

/// One analysis-cache counter row keyed by `label`.
pub fn analysis_csv_row(label: &str, c: &AnalysisCacheStats) -> String {
    let mut row = label.to_string();
    for (_, n) in c.rows() {
        row.push_str(&format!(",{n}"));
    }
    row.push_str(&format!(",{:.4}", c.hit_rate()));
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    #[test]
    fn runs_a_spec_and_reports_cache_counters() {
        let mut m = parse_module(
            "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %1 = add i32 %p0, i32 0\n  %2 = add i32 %p0, i32 0\n  ret %1\n}\n",
        )
        .unwrap();
        let report = run_pipeline(&mut m, "cleanup,cse,cleanup");
        assert_eq!(report.outcomes.len(), 3);
        // The effects table is computed once and shared by both cleanups.
        assert_eq!(report.cache.effects_misses, 1);
        assert!(report.cache.effects_hits >= 1);
        let row = analysis_csv_row("t", &report.cache);
        assert!(row.starts_with("t,"));
        assert_eq!(
            row.split(',').count(),
            analysis_csv_header().split(',').count()
        );
    }
}
