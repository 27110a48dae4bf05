//! The differential oracle: pipeline matrix + behavioural comparison.
//!
//! A *pipeline* is one way the toolchain may transform a module. The
//! oracle applies it to a copy, verifies the result, and then interprets
//! every entry point of both modules over deterministic argument sets,
//! requiring them to be observationally equivalent:
//!
//! * identical return values,
//! * identical sequences of **effectful** (`readwrite`) external calls —
//!   `readnone`/`readonly` calls may legally be deduplicated or deleted,
//!   so only the clobbering calls are compared,
//! * identical final contents of every global the *original* module owns
//!   (a transform may add constant data of its own),
//! * identical trap classes when either side faults: a transformed module
//!   must not turn a division-by-zero into a clean return, or vice versa.
//!
//! Meta-pipelines also cross-check the engine against itself: the parallel
//! driver must produce a byte-identical printed module and equal
//! statistics to the serial pass, a printed module must re-parse to its
//! own fixed point, and the compact
//! binary serialization must round-trip print-identically and
//! re-encode byte-stably.

use crate::gen::args_for;
use rolag::RolagStats;
use rolag_ir::interp::{IValue, Interpreter, Outcome};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::{Effects, Module};
use rolag_passes::{
    AnalysisManager, PassContext, PassManager, PassManagerOptions, PassRegistry, TargetKind,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Step budget per interpreted entry point: generous for the tiny corpus
/// functions, small enough to bound a runaway loop quickly.
const MAX_STEPS: u64 = 2_000_000;

/// One transformation under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `parse(print(m))`, plus the print-fixed-point cross-check.
    RoundTrip,
    /// `decode(encode(m))` through the compact binary serialization,
    /// cross-checked three ways: the decoded module must print
    /// byte-identically to the original, re-encoding it must reproduce
    /// the exact bytes, and the decoded module then runs through the
    /// usual behavioural comparison.
    BinaryRoundTrip,
    /// Partial unrolling (factor 4) of counted loops.
    Unroll,
    /// Block-local common-subexpression elimination.
    Cse,
    /// Control-flow flattening of two-block diamonds.
    Flatten,
    /// Constant folding + dead-code elimination.
    Cleanup,
    /// The baseline rerolling pass.
    Reroll,
    /// The serial loop-rolling pass.
    Rolag,
    /// The parallel memoizing driver, cross-checked against serial.
    RolagPar,
    /// The rolling pass gated by the `rolag-tv` static translation
    /// validator, cross-checked against the unvalidated pass: the
    /// validator must accept every rewrite the engine accepts (zero
    /// static false rejects) and the validated module must be
    /// byte-identical to the unvalidated one — then the usual dynamic
    /// comparison against the original module cross-checks the static
    /// verdict against the interpreting oracle.
    RolagTv,
    /// Validator-gated beam search (`rolag-search<4>`), cross-checked
    /// against the greedy pass: the searched module must never measure
    /// more text bytes than the greedy result (per-function monotonicity
    /// summed over the module) — then the usual dynamic comparison
    /// checks the searched module against the original.
    RolagSearch,
}

impl Pipeline {
    /// Every pipeline, in the order `--pipelines all` runs them.
    pub const ALL: [Pipeline; 11] = [
        Pipeline::RoundTrip,
        Pipeline::BinaryRoundTrip,
        Pipeline::Unroll,
        Pipeline::Cse,
        Pipeline::Flatten,
        Pipeline::Cleanup,
        Pipeline::Reroll,
        Pipeline::Rolag,
        Pipeline::RolagPar,
        Pipeline::RolagTv,
        Pipeline::RolagSearch,
    ];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::RoundTrip => "roundtrip",
            Pipeline::BinaryRoundTrip => "binary-roundtrip",
            Pipeline::Unroll => "unroll",
            Pipeline::Cse => "cse",
            Pipeline::Flatten => "flatten",
            Pipeline::Cleanup => "cleanup",
            Pipeline::Reroll => "reroll",
            Pipeline::Rolag => "rolag",
            Pipeline::RolagPar => "rolag-par",
            Pipeline::RolagTv => "rolag-tv",
            Pipeline::RolagSearch => "rolag-search",
        }
    }

    /// The `rolag-passes` pipeline spec this pipeline runs, for the
    /// single-transform pipelines. `None` for the meta-pipelines
    /// (round-trip and the engine cross-checks), which compare runs
    /// rather than apply one.
    pub fn spec(self) -> Option<&'static str> {
        match self {
            Pipeline::Unroll => Some("unroll<4>"),
            Pipeline::Cse => Some("cse"),
            Pipeline::Flatten => Some("flatten"),
            Pipeline::Cleanup => Some("cleanup"),
            Pipeline::Reroll => Some("reroll"),
            Pipeline::Rolag => Some("rolag"),
            Pipeline::RoundTrip
            | Pipeline::BinaryRoundTrip
            | Pipeline::RolagPar
            | Pipeline::RolagTv
            | Pipeline::RolagSearch => None,
        }
    }

    /// Parses `all` or a comma-separated list of pipeline names.
    pub fn parse_list(spec: &str) -> Result<Vec<Pipeline>, String> {
        if spec == "all" {
            return Ok(Pipeline::ALL.to_vec());
        }
        spec.split(',')
            .map(|name| {
                Pipeline::ALL
                    .into_iter()
                    .find(|p| p.name() == name.trim())
                    .ok_or_else(|| format!("unknown pipeline `{}`", name.trim()))
            })
            .collect()
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a pipeline failed on a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The transform (or an engine cross-check) panicked.
    Panic,
    /// The transformed module no longer verifies.
    Verify,
    /// Observable behaviour changed, or an engine cross-check mismatched.
    Divergence,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Verify => "verify",
            FailureKind::Divergence => "divergence",
        })
    }
}

/// A reproducible oracle failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Pipeline that failed.
    pub pipeline: Pipeline,
    /// Failure class (what the shrinker preserves).
    pub kind: FailureKind,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.pipeline, self.kind, self.detail)
    }
}

/// Verifier errors as one `; `-separated detail line.
fn joined(errors: &[rolag_ir::verify::VerifyError]) -> String {
    let errors: Vec<String> = errors.iter().map(ToString::to_string).collect();
    errors.join("; ")
}

/// Runs a `rolag-passes` pipeline spec over a copy of `module` through
/// the shared pass manager — the one piece of dispatch every consumer of
/// the oracle now goes through. Returns the transformed module plus the
/// last rolag engine statistics the run produced (for the rescue and
/// cross-check assertions).
///
/// `Err` is `(kind, detail)`: [`FailureKind::Verify`] when `verify_each`
/// caught a broken module mid-pipeline, never anything else.
fn run_spec(
    module: &Module,
    spec: &str,
    jobs: Option<usize>,
    verify_each: bool,
) -> Result<(Module, Option<RolagStats>), (FailureKind, String)> {
    let passes = PassRegistry::builtin()
        .parse_pipeline(spec)
        .expect("oracle pipeline specs come from the registry");
    let mut pm = PassManager::with_options(PassManagerOptions {
        verify_each,
        print_changed: false,
    });
    pm.add_all(passes);
    let mut m = module.clone();
    let mut am = AnalysisManager::new();
    let mut cx = PassContext::new(TargetKind::default());
    cx.jobs = jobs;
    match pm.run(&mut m, &mut am, &mut cx) {
        Ok(report) => {
            let stats = report.outcomes.iter().rev().find_map(|o| o.rolag);
            Ok((m, stats))
        }
        Err(err) => Err((
            FailureKind::Verify,
            format!("verify after `{}`: {}", err.pass, err.errors.join("; ")),
        )),
    }
}

/// Applies `pipeline` to a copy of `module`. `Err` carries an *internal
/// consistency* divergence (round-trip not a fixed point, parallel/serial
/// mismatch, engine panic rescued mid-module).
/// Transform panics unwind out of this function; [`check_module`] catches
/// them.
pub fn apply_pipeline(pipeline: Pipeline, module: &Module) -> Result<Module, String> {
    apply_pipeline_checked(pipeline, module, false).map_err(|(_, detail)| detail)
}

/// [`apply_pipeline`] with inter-pass verification control: with
/// `verify_each` the pass manager verifies the module after every pass of
/// every registry-backed pipeline (including each engine of the
/// cross-check meta-pipelines), and a failure comes back as
/// [`FailureKind::Verify`] naming the pass.
pub fn apply_pipeline_checked(
    pipeline: Pipeline,
    module: &Module,
    verify_each: bool,
) -> Result<Module, (FailureKind, String)> {
    let diverge = |detail: String| Err((FailureKind::Divergence, detail));
    match pipeline {
        Pipeline::RoundTrip => {
            let text = print_module(module);
            let reparsed = match parse_module(&text) {
                Ok(m) => m,
                Err(e) => return diverge(format!("printed module fails to parse: {e}")),
            };
            let text2 = print_module(&reparsed);
            if text2 != text {
                return diverge("print is not a fixed point across parse(print(m))".into());
            }
            Ok(reparsed)
        }
        Pipeline::BinaryRoundTrip => {
            let bytes = rolag_ir::encode_module(module);
            let decoded = match rolag_ir::decode_module(&bytes) {
                Ok(m) => m,
                Err(e) => return diverge(format!("encoded module fails to decode: {e}")),
            };
            if print_module(&decoded) != print_module(module) {
                return diverge("binary round-trip is not print-identical".into());
            }
            if rolag_ir::encode_module(&decoded) != bytes {
                return diverge("re-encoding the decoded module is not byte-stable".into());
            }
            Ok(decoded)
        }
        Pipeline::Rolag => {
            let (m, stats) = run_spec(module, "rolag", None, verify_each)?;
            let rescued = stats.map(|s| s.rescued).unwrap_or(0);
            if rescued > 0 {
                return diverge(format!(
                    "engine panicked on {rescued} function(s) (rescued)"
                ));
            }
            Ok(m)
        }
        Pipeline::RolagPar => {
            let (serial, serial_stats) = run_spec(module, "rolag", None, verify_each)?;
            let (m, par_stats) = run_spec(module, "rolag", Some(2), verify_each)?;
            let (serial_stats, par_stats) = (
                serial_stats.unwrap_or_default(),
                par_stats.unwrap_or_default(),
            );
            if par_stats.rescued + serial_stats.rescued > 0 {
                return diverge("engine panicked under the driver (rescued)".into());
            }
            if print_module(&m) != print_module(&serial) {
                return diverge("parallel driver output differs from the serial pass".into());
            }
            if par_stats != serial_stats {
                return diverge(format!(
                    "parallel driver stats differ from serial: {} vs {}",
                    par_stats, serial_stats
                ));
            }
            Ok(m)
        }
        Pipeline::RolagTv => {
            let (plain, plain_stats) = run_spec(module, "rolag", None, verify_each)?;
            let (m, tv_stats) = run_spec(module, "tv", None, verify_each)?;
            let (plain_stats, tv_stats) = (
                plain_stats.unwrap_or_default(),
                tv_stats.unwrap_or_default(),
            );
            if plain_stats.rescued + tv_stats.rescued > 0 {
                return diverge("engine panicked during the validated run (rescued)".into());
            }
            if tv_stats.tv_rejected > 0 {
                return diverge(format!(
                    "static validator rejected {} rewrite(s) the engine accepted",
                    tv_stats.tv_rejected
                ));
            }
            if print_module(&m) != print_module(&plain) {
                return diverge("validated pass output differs from the unvalidated pass".into());
            }
            Ok(m)
        }
        Pipeline::RolagSearch => {
            let (greedy, greedy_stats) = run_spec(module, "rolag", None, verify_each)?;
            let (m, search_stats) = run_spec(module, "rolag-search<4>", None, verify_each)?;
            let (greedy_stats, search_stats) = (
                greedy_stats.unwrap_or_default(),
                search_stats.unwrap_or_default(),
            );
            if greedy_stats.rescued + search_stats.rescued > 0 {
                return diverge("engine panicked during the search run (rescued)".into());
            }
            let greedy_text = rolag_lower::measure_module(&greedy).text;
            let search_text = rolag_lower::measure_module(&m).text;
            if search_text > greedy_text {
                return diverge(format!(
                    "beam search measured more text bytes than greedy: {search_text} vs {greedy_text}"
                ));
            }
            Ok(m)
        }
        // Every single-transform pipeline is pure registry dispatch.
        _ => {
            let spec = pipeline.spec().expect("single-transform pipeline");
            let (m, _) = run_spec(module, spec, None, verify_each)?;
            Ok(m)
        }
    }
}

/// The `readwrite` subsequence of an external-call trace: the only calls a
/// legal transform must preserve exactly (pure and read-only calls may be
/// merged or dropped).
fn effectful_trace<'t>(
    original: &Module,
    trace: &'t [rolag_ir::interp::CallEvent],
) -> Vec<&'t rolag_ir::interp::CallEvent> {
    trace
        .iter()
        .filter(|ev| match original.func_by_name(&ev.callee) {
            Some(id) => original.func(id).effects == Effects::ReadWrite,
            None => true,
        })
        .collect()
}

/// Value equality with *bitwise* float comparison: the interpreter is a
/// deterministic IEEE machine, so a correct transform preserves the exact
/// bit pattern — and `NaN` results must compare equal to themselves.
fn ivalue_eq(a: IValue, b: IValue) -> bool {
    match (a, b) {
        (IValue::Float(x), IValue::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn event_eq(a: &rolag_ir::interp::CallEvent, b: &rolag_ir::interp::CallEvent) -> bool {
    a.callee == b.callee
        && a.args.len() == b.args.len()
        && a.args.iter().zip(&b.args).all(|(&x, &y)| ivalue_eq(x, y))
        && ivalue_eq(a.result, b.result)
}

/// Runs `entry(args)` on both modules and compares observable behaviour,
/// trap-aware. `Err` describes the first mismatch.
pub fn compare_behaviour(
    original: &Module,
    transformed: &Module,
    entry: &str,
    args: &[rolag_ir::interp::IValue],
) -> Result<(), String> {
    let mut ia = Interpreter::new(original).with_max_steps(MAX_STEPS);
    let mut ib = Interpreter::new(transformed).with_max_steps(MAX_STEPS);
    let ra = ia.run(entry, args);
    let rb = ib.run(entry, args);
    match (ra, rb) {
        (Ok(oa), Ok(ob)) => compare_outcomes(original, &ia, &oa, transformed, &ib, &ob),
        (Err(ea), Err(eb)) => {
            if std::mem::discriminant(&ea) == std::mem::discriminant(&eb) {
                Ok(())
            } else {
                Err(format!("trap classes differ: `{ea}` vs `{eb}`"))
            }
        }
        (Ok(_), Err(e)) => Err(format!("original completed but transformed trapped: {e}")),
        (Err(e), Ok(_)) => Err(format!("original trapped ({e}) but transformed completed")),
    }
}

fn compare_outcomes(
    original: &Module,
    ia: &Interpreter<'_>,
    oa: &Outcome,
    transformed: &Module,
    ib: &Interpreter<'_>,
    ob: &Outcome,
) -> Result<(), String> {
    if !ivalue_eq(oa.ret, ob.ret) {
        return Err(format!(
            "return values differ: {:?} vs {:?}",
            oa.ret, ob.ret
        ));
    }
    let ta = effectful_trace(original, &oa.trace);
    let tb = effectful_trace(original, &ob.trace);
    if ta.len() != tb.len() || ta.iter().zip(&tb).any(|(a, b)| !event_eq(a, b)) {
        return Err(format!(
            "effectful call traces differ:\n  original:    {ta:?}\n  transformed: {tb:?}"
        ));
    }
    for g in original.global_ids() {
        let name = &original.global(g).name;
        let Some(g2) = transformed.global_by_name(name) else {
            return Err(format!("global @{name} disappeared"));
        };
        let size = original.global_size(g);
        let a = ia
            .mem
            .read_bytes(ia.global_addr(g), size)
            .map_err(|e| e.to_string())?;
        let b = ib
            .mem
            .read_bytes(ib.global_addr(g2), size)
            .map_err(|e| e.to_string())?;
        if a != b {
            return Err(format!("final contents of @{name} differ"));
        }
    }
    Ok(())
}

/// True when the function can be driven by [`args_for`]: a definition
/// whose parameters are ints, floats, or pointers (i.e. all of them).
fn interpretable_entries(module: &Module) -> Vec<String> {
    module
        .func_ids()
        .filter(|&id| !module.func(id).is_declaration)
        .map(|id| module.func(id).name.clone())
        .collect()
}

/// Checks one module against a set of pipelines, interpreting every entry
/// point over `runs` deterministic argument sets. Returns the first
/// failure.
///
/// # Errors
///
/// [`Failure`] identifies the pipeline, the failure class, and the first
/// observed mismatch.
pub fn check_module(module: &Module, pipelines: &[Pipeline], runs: u64) -> Result<(), Failure> {
    check_module_opts(module, pipelines, runs, false)
}

/// [`check_module`] with inter-pass verification: with `verify_each`, the
/// pass manager verifies the module after every pass of every
/// registry-backed pipeline instead of only at the end.
pub fn check_module_opts(
    module: &Module,
    pipelines: &[Pipeline],
    runs: u64,
    verify_each: bool,
) -> Result<(), Failure> {
    for &pipeline in pipelines {
        check_pipeline(module, pipeline, runs, verify_each)?;
    }
    Ok(())
}

fn check_pipeline(
    module: &Module,
    pipeline: Pipeline,
    runs: u64,
    verify_each: bool,
) -> Result<(), Failure> {
    let fail = |kind, detail| {
        Err(Failure {
            pipeline,
            kind,
            detail,
        })
    };
    let transformed = match catch_unwind(AssertUnwindSafe(|| {
        apply_pipeline_checked(pipeline, module, verify_each)
    })) {
        Ok(Ok(m)) => m,
        Ok(Err((kind, detail))) => return fail(kind, detail),
        Err(payload) => return fail(FailureKind::Panic, panic_message(&payload)),
    };
    if let Err(errors) = verify_module(&transformed) {
        return fail(FailureKind::Verify, joined(&errors));
    }
    for entry in interpretable_entries(module) {
        for k in 0..runs {
            let Some(args) = args_for(module, &entry, k) else {
                continue;
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                compare_behaviour(module, &transformed, &entry, &args)
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(detail)) => {
                    return fail(
                        FailureKind::Divergence,
                        format!("@{entry}({args:?}): {detail}"),
                    )
                }
                Err(payload) => {
                    return fail(
                        FailureKind::Panic,
                        format!(
                            "interpreter panicked on @{entry}({args:?}): {}",
                            panic_message(&payload)
                        ),
                    )
                }
            }
        }
    }
    Ok(())
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_module;

    #[test]
    fn pipeline_list_parses() {
        assert_eq!(
            Pipeline::parse_list("all").unwrap().len(),
            Pipeline::ALL.len()
        );
        assert_eq!(
            Pipeline::parse_list("cse, rolag").unwrap(),
            vec![Pipeline::Cse, Pipeline::Rolag]
        );
        assert!(Pipeline::parse_list("bogus").is_err());
    }

    #[test]
    fn small_corpus_is_clean_on_every_pipeline() {
        for i in 0..16 {
            let m = generate_module(0, i);
            if let Err(f) = check_module(&m, &Pipeline::ALL, 2) {
                panic!("module (0,{i}) failed: {f}");
            }
        }
    }

    #[test]
    fn a_miscompile_is_caught() {
        // `cleanup` on a module whose store we secretly retarget must
        // diverge — built by comparing two genuinely different modules.
        let a = parse_module(
            "module \"t\"\nglobal @g : [2 x i32] = zero\nfunc @f() -> void {\nentry:\n  %p = gep i32, @g, i64 0\n  store i32 1, %p\n  ret\n}\n",
        )
        .unwrap();
        let b = parse_module(
            "module \"t\"\nglobal @g : [2 x i32] = zero\nfunc @f() -> void {\nentry:\n  %p = gep i32, @g, i64 1\n  store i32 1, %p\n  ret\n}\n",
        )
        .unwrap();
        let err = compare_behaviour(&a, &b, "f", &[]).unwrap_err();
        assert!(err.contains("@g"), "unexpected detail: {err}");
    }

    #[test]
    fn a_trap_mismatch_is_caught() {
        let trapping = parse_module(
            "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %d = sdiv i32 %p0, i32 0\n  ret %d\n}\n",
        )
        .unwrap();
        let clean = parse_module("module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  ret %p0\n}\n")
            .unwrap();
        let err = compare_behaviour(&trapping, &clean, "f", &[rolag_ir::interp::IValue::Int(3)])
            .unwrap_err();
        assert!(err.contains("trapped"), "unexpected detail: {err}");
    }
}
