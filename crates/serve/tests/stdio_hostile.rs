//! Hostile request lines get an error reply, not a dead server.
//!
//! Each line below used to recurse once per nesting level and overflow
//! the stack of `rolag-serve --stdio`, which aborts the whole process:
//! a JSON document of 300,000 `[`, and a roll request whose module
//! declares a global with an array type nested 200,000 deep. Both must
//! now get an error reply, and the next request on the same stream must
//! still be answered. So must a line the stream reader cannot hand on,
//! one longer than `MAX_LINE_BYTES` or not in UTF-8.

use std::io::Write;
use std::process::{Command, Stdio};

use rolag_serve::json::{parse, Json};
use rolag_serve::proto::{Request, MAX_LINE_BYTES};

fn roll_line(id: &str, module: String) -> String {
    Request::Roll {
        id: id.into(),
        module,
        options: "default".into(),
        client: None,
    }
    .render()
}

/// Feeds `lines` to `rolag-serve --stdio` and returns its replies, each
/// line terminated by `\n`.
fn serve(lines: &[Vec<u8>]) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rolag-serve"))
        .args(["--stdio", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("rolag-serve starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in lines {
        // A server that died mid-stream closes the pipe; the exit status
        // below reports that.
        if stdin
            .write_all(line)
            .and_then(|()| stdin.write_all(b"\n"))
            .is_err()
        {
            break;
        }
    }
    drop(stdin);
    let out = child.wait_with_output().expect("rolag-serve exits");
    assert!(out.status.success(), "rolag-serve died: {:?}", out.status);
    String::from_utf8(out.stdout)
        .expect("UTF-8 replies")
        .lines()
        .map(|l| parse(l).expect("well-formed reply"))
        .collect()
}

#[test]
fn unreadable_lines_get_error_replies_and_serving_goes_on() {
    let rollable = |id: &str, values: [i32; 6]| {
        let mut module = String::from("module \"m\"\nglobal @a : [6 x i32] = zero\n");
        module.push_str("func @fill() -> void {\nentry:\n");
        for (k, v) in values.iter().enumerate() {
            module.push_str(&format!(
                "  %g{k} = gep i32, @a, i64 {k}\n  store i32 {v}, %g{k}\n"
            ));
        }
        module.push_str("  ret\n}\n");
        roll_line(id, module).into_bytes()
    };
    let first = rollable("first", [0, 5, 10, 15, 20, 25]);
    let last = rollable("last", [3, 1, 4, 1, 5, 9]);
    let not_utf8 = b"{\"id\": \"\xff\xfe\"}".to_vec();
    let oversized = vec![b' '; MAX_LINE_BYTES + 1];

    let clean = serve(&[first.clone(), last.clone()]);
    let replies = serve(&[first, not_utf8, oversized, last]);
    assert_eq!(replies.len(), 4, "one reply per line");
    let field = |doc: &Json, key: &str| doc.get(key).cloned();
    for (reply, error) in replies[1..3].iter().zip([
        "request line is not valid UTF-8".to_string(),
        format!("request line longer than {MAX_LINE_BYTES} bytes"),
    ]) {
        assert_eq!(field(reply, "id"), Some(Json::Null));
        assert_eq!(field(reply, "ok"), Some(Json::Bool(false)));
        assert_eq!(field(reply, "error"), Some(Json::Str(error)));
    }
    // Everything in the last reply but its timings must match the run
    // without the unreadable lines; the rolled module byte for byte.
    for key in ["id", "ok", "module", "stats"] {
        assert_eq!(field(&replies[3], key), field(&clean[1], key), "{key}");
    }
    assert_eq!(field(&replies[3], "ok"), Some(Json::Bool(true)));
}

#[test]
fn deeply_nested_lines_get_error_replies() {
    let deep_type = format!("{}i32{}", "[1 x ".repeat(200_000), "]".repeat(200_000));
    let lines = [
        "[".repeat(300_000),
        roll_line(
            "deep",
            format!("module \"m\"\nglobal @a : {deep_type} = zero\n"),
        ),
        roll_line(
            "fine",
            "module \"m\"\nfunc @f() -> void {\nentry:\n  ret\n}\n".to_string(),
        ),
    ];
    let replies = serve(&lines.map(String::into_bytes));
    let field = |doc: &Json, key: &str| doc.get(key).cloned();
    assert_eq!(replies.len(), 3, "one reply per request");
    assert_eq!(field(&replies[0], "ok"), Some(Json::Bool(false)));
    assert_eq!(
        field(&replies[0], "error"),
        Some(Json::Str(
            "nesting deeper than 256 levels at byte 256".into()
        ))
    );
    assert_eq!(field(&replies[1], "id"), Some(Json::Str("deep".into())));
    assert_eq!(field(&replies[1], "ok"), Some(Json::Bool(false)));
    assert_eq!(
        field(&replies[1], "error"),
        Some(Json::Str(
            "2:1293: type nesting deeper than 256 levels".into()
        ))
    );
    assert_eq!(field(&replies[2], "id"), Some(Json::Str("fine".into())));
    assert_eq!(field(&replies[2], "ok"), Some(Json::Bool(true)));
}
