//! Shared pipeline execution for the bench binaries: every experiment
//! that chains transforms goes through the `rolag-passes` manager with
//! one textual spec, instead of hand-calling the `*_module` entry points,
//! so the experiments run the same passes, stat lines and inter-pass
//! verification as `rolag-opt`.

use rolag_ir::Module;
use rolag_passes::{
    AnalysisManager, PassContext, PassManager, PassManagerOptions, PassRegistry, RunReport,
    TargetKind,
};

/// Runs `spec` (e.g. `"unroll<8>,cse,cleanup,rolag"`) over `module` in
/// place and returns the run report. The module is verified after every
/// pass.
///
/// Panics on a malformed spec or an inter-pass verification failure —
/// bench specs are hard-coded and bench inputs are expected to be sound,
/// so either is a bug worth a loud stop.
pub fn run_pipeline(module: &mut Module, spec: &str) -> RunReport {
    let mut pm = PassManager::with_options(PassManagerOptions {
        verify_each: true,
        print_changed: false,
    });
    pm.add_all(
        PassRegistry::builtin()
            .parse_pipeline(spec)
            .unwrap_or_else(|e| panic!("bad bench pipeline spec `{spec}`: {e}")),
    );
    let mut cx = PassContext::new(TargetKind::default());
    match pm.run(module, &mut AnalysisManager::new(), &mut cx) {
        Ok(report) => report,
        Err(err) => panic!(
            "pipeline `{spec}` broke the module after `{}`: {}",
            err.pass,
            err.errors.join("; ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    #[test]
    fn runs_a_spec_and_reports_each_pass_outcome() {
        let mut m = parse_module(
            "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %1 = add i32 %p0, i32 0\n  %2 = add i32 %p0, i32 0\n  ret %1\n}\n",
        )
        .unwrap();
        let report = run_pipeline(&mut m, "cleanup,cse,cleanup");
        let names: Vec<&str> = report.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["cleanup", "cse", "cleanup"]);
        let lines: Vec<&str> = report
            .outcomes
            .iter()
            .flat_map(|o| o.lines.iter().map(String::as_str))
            .collect();
        assert_eq!(
            lines,
            [
                "cleanup: 2 instructions simplified/removed",
                "cse: 0 instructions removed",
                "cleanup: 0 instructions simplified/removed",
            ]
        );
    }
}
