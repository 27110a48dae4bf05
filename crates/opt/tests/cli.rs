//! End-to-end tests of the `rolag-opt` driver binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

const SAMPLE: &str = r#"
module "cli"
global @a : [8 x i32] = zero
func @fill() -> void {
entry:
  %g0 = gep i32, @a, i64 0
  store i32 0, %g0
  %g1 = gep i32, @a, i64 1
  store i32 7, %g1
  %g2 = gep i32, @a, i64 2
  store i32 14, %g2
  %g3 = gep i32, @a, i64 3
  store i32 21, %g3
  %g4 = gep i32, @a, i64 4
  store i32 28, %g4
  %g5 = gep i32, @a, i64 5
  store i32 35, %g5
  %g6 = gep i32, @a, i64 6
  store i32 42, %g6
  %g7 = gep i32, @a, i64 7
  store i32 49, %g7
  ret
}
"#;

fn run(args: &[&str], stdin: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rolag-opt"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rolag-opt");
    // Ignore EPIPE: on flag/spec errors the binary exits without
    // reading stdin.
    let _ = child.stdin.as_mut().unwrap().write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn rolls_from_stdin_and_prints_the_loop() {
    let (stdout, stderr, code) = run(
        &["-rolag", "--stats", "--check", "--interp", "fill", "-"],
        SAMPLE,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("rolag.loop"), "no loop in:\n{stdout}");
    assert!(stderr.contains("rolled 1"), "stats missing: {stderr}");
    assert!(stderr.contains("behaviour preserved"), "{stderr}");
}

#[test]
fn measure_reports_shrinkage() {
    let (_, stderr, code) = run(&["-rolag", "--measure", "--quiet", "-"], SAMPLE);
    assert_eq!(code, Some(0));
    let line = stderr
        .lines()
        .find(|l| l.starts_with("measure:"))
        .expect("measure line");
    // "text A -> B" with B < A.
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert!(nums[1] < nums[0], "text did not shrink: {line}");
}

#[test]
fn verify_only_accepts_good_ir_and_rejects_bad() {
    let (_, stderr, code) = run(&["--verify-only", "-"], SAMPLE);
    assert_eq!(code, Some(0));
    assert!(stderr.contains("module verifies"));

    let bad = "module \"b\"\nfunc @f() -> void {\nentry:\n  %1 = add i32 %2, i32 1\n  ret\n}\n";
    let (_, stderr, code) = run(&["--verify-only", "-"], bad);
    assert_eq!(code, Some(1));
    assert!(!stderr.is_empty());
}

#[test]
fn unroll_then_reroll_round_trips() {
    let loop_ir = r#"
module "rt"
global @a : [32 x i32] = zero
func @f() -> void {
entry:
  br loop
loop:
  %iv = phi i64 [ i64 0, entry ], [ %ivn, loop ]
  %q = gep i32, @a, %iv
  %t = trunc i32 %iv
  store %t, %q
  %ivn = add i64 %iv, i64 1
  %c = icmp slt %ivn, i64 32
  condbr %c, loop, exit
exit:
  ret
}
"#;
    let (stdout, stderr, code) = run(
        &[
            "-unroll=4",
            "-cse",
            "-dce",
            "-reroll",
            "-dce",
            "--stats",
            "--check",
            "--interp",
            "f",
            "-",
        ],
        loop_ir,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains("1 of 1 loops unrolled by 4"), "{stderr}");
    assert!(stderr.contains("1 of"), "{stderr}");
    assert!(stderr.contains("behaviour preserved"), "{stderr}");
    // The rerolled loop is back to a handful of instructions.
    let loop_lines = stdout
        .lines()
        .skip_while(|l| !l.starts_with("loop:"))
        .take_while(|l| !l.starts_with("exit:"))
        .count();
    assert!(loop_lines <= 9, "loop did not reroll:\n{stdout}");
}

#[test]
fn unknown_flags_and_missing_input_fail_cleanly() {
    let (_, stderr, code) = run(&["--bogus"], "");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown flag"));

    let (_, stderr, code) = run(&["-rolag"], "");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("usage:"));
}

/// A serve request carries only the module and a preset, so every roll
/// setting the daemon would drop is refused up front. The socket path
/// names no daemon: the flags fail in argument parsing, before any
/// connection.
#[test]
fn serve_refuses_roll_settings_it_cannot_send() {
    for extra in [
        &["--search", "beam:4"][..],
        &["--target", "thumb2"],
        &["--validate-rewrites"],
        &["--jobs", "2"],
    ] {
        let mut args = vec!["--serve", "/nonexistent/rolag.sock"];
        args.extend_from_slice(extra);
        args.push("-");
        let (stdout, stderr, code) = run(&args, SAMPLE);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}");
        assert!(
            stderr.contains(&format!("{} cannot be combined with --serve", extra[0])),
            "{args:?}: {stderr}"
        );
    }
    let (_, stderr, code) = run(
        &[
            "--serve",
            "/nonexistent/rolag.sock",
            "--serve-options",
            "turbo",
            "-",
        ],
        SAMPLE,
    );
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("unknown options preset `turbo`"),
        "{stderr}"
    );
}

#[test]
fn thumb_target_is_accepted() {
    let (_, stderr, code) = run(
        &["-rolag", "--target", "thumb2", "--stats", "--quiet", "-"],
        SAMPLE,
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("rolag:"));
}

/// Strips the nondeterministic timing numbers from `--stats` output so
/// two runs can be compared byte-for-byte.
fn normalize_timings(stderr: &str) -> String {
    stderr
        .lines()
        .map(|l| {
            if let Some(stage) = l.strip_prefix("  stage ") {
                let name = stage.split_whitespace().next().unwrap_or("");
                format!("  stage {name} NS")
            } else if let Some(i) = l.find(" ms wall") {
                let head = l[..i].rfind(' ').map(|j| &l[..j]).unwrap_or("");
                format!("{head} X ms wall")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn passes_spelling_matches_legacy_flags_byte_for_byte() {
    let legacy = &[
        "-unroll=4",
        "-cse",
        "-rolag",
        "-flatten",
        "-dce",
        "--stats",
        "-",
    ];
    let spec = &[
        "--passes",
        "unroll<4>,cse,rolag,flatten,dce",
        "--stats",
        "-",
    ];
    let (out_a, err_a, code_a) = run(legacy, SAMPLE);
    let (out_b, err_b, code_b) = run(spec, SAMPLE);
    assert_eq!(code_a, Some(0), "legacy: {err_a}");
    assert_eq!(code_b, Some(0), "spec: {err_b}");
    assert_eq!(out_a, out_b, "stdout diverged between spellings");
    assert_eq!(
        normalize_timings(&err_a),
        normalize_timings(&err_b),
        "stats diverged between spellings"
    );
}

#[test]
fn bad_pipeline_specs_fail_with_a_caret_diagnostic() {
    let (_, stderr, code) = run(&["--passes", "rolag,flattn", "-"], SAMPLE);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("<passes>:1:7: error:"), "{stderr}");
    assert!(stderr.contains("unknown pass `flattn`"), "{stderr}");
    assert!(stderr.contains("did you mean `flatten`"), "{stderr}");
    assert!(stderr.contains('^'), "no caret: {stderr}");

    for (spec, needle) in [
        ("rolag,", "trailing comma"),
        ("unroll<0>", "at least 2"),
        ("unroll<x>", "expected an integer"),
        ("unroll", "needs a factor"),
    ] {
        let (_, stderr, code) = run(&["--passes", spec, "-"], SAMPLE);
        assert_eq!(code, Some(1), "`{spec}` should be rejected");
        assert!(stderr.contains(needle), "`{spec}` gave: {stderr}");
    }

    // Mixing the two spellings is ambiguous and refused.
    let (_, stderr, code) = run(&["-rolag", "--passes", "cse", "-"], SAMPLE);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("--passes"), "{stderr}");
}

#[test]
fn list_passes_prints_the_registry_table() {
    let (stdout, _, code) = run(&["--list-passes"], "");
    assert_eq!(code, Some(0));
    for name in ["rolag", "unroll<N>", "cse", "cleanup", "flatten", "reroll"] {
        assert!(stdout.contains(name), "`{name}` missing:\n{stdout}");
    }
}

#[test]
fn stats_prints_each_pass_stat_line_and_no_analysis_rows() {
    let (_, stderr, code) = run(
        &["--passes", "cleanup,cse,cleanup", "--stats", "--quiet", "-"],
        SAMPLE,
    );
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines[..3],
        [
            "cleanup: 0 instructions simplified/removed",
            "cse: 0 instructions removed",
            "cleanup: 0 instructions simplified/removed",
        ],
        "{stderr}"
    );
    assert!(!stderr.contains("analysis"), "{stderr}");
}

#[test]
fn print_changed_dumps_only_the_passes_that_changed_the_module() {
    let (_, stderr, code) = run(
        &["--passes", "cleanup,rolag", "--print-changed", "-"],
        SAMPLE,
    );
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines[..3],
        [
            "*** pass 0 `cleanup` made no changes ***",
            "*** IR after pass 1 `rolag` ***",
            "module \"cli\"",
        ],
        "{stderr}"
    );
}

#[test]
fn time_passes_prints_per_pass_wall_times() {
    let (_, stderr, code) = run(
        &["--passes", "rolag,cleanup", "--time-passes", "--quiet", "-"],
        SAMPLE,
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("rolag"), "{stderr}");
    assert!(stderr.contains("ms"), "{stderr}");
}

#[test]
fn dump_align_prints_dot_graphs() {
    let (stdout, _, code) = run(&["--dump-align", "-"], SAMPLE);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("digraph align"));
    assert!(stdout.contains("match:store"));
    assert!(stdout.contains("seq "));
}

#[test]
fn dump_align_marks_a_graph_that_claims_its_own_loop_input() {
    // Both stores write %g0: the stored values form an identical node that
    // passes %g0 into the loop, while the pointer group claims %g0 as lane
    // 0 of its gep node, so the engine refuses the graph while building it.
    let text = r#"
module "refuse"
global @a : [8 x ptr] = zero
func @f() -> void {
entry:
  %g0 = gep ptr, @a, i64 0
  store %g0, %g0
  %g1 = gep ptr, @a, i64 1
  store %g0, %g1
  ret
}
"#;
    let (stdout, stderr, code) = run(&["--dump-align", "-"], text);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains(
            "// @f candidate 0 (2 lanes)\n\
             // refused while built: loop input %0 is claimed by node 2 lane 0\n\
             digraph align {\n"
        ),
        "{stdout}"
    );
    // A graph the engine keeps carries no such line.
    let (stdout, _, code) = run(&["--dump-align", "-"], SAMPLE);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("refused while built"), "{stdout}");
}
