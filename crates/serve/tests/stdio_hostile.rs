//! Hostile request lines get an error reply, not a dead server.
//!
//! Each line below used to recurse once per nesting level and overflow
//! the stack of `rolag-serve --stdio`, which aborts the whole process:
//! a JSON document of 300,000 `[`, and a roll request whose module
//! declares a global with an array type nested 200,000 deep. Both must
//! now get an error reply, and the next request on the same stream must
//! still be answered.

use std::io::Write;
use std::process::{Command, Stdio};

use rolag_serve::json::{parse, Json};
use rolag_serve::proto::Request;

fn roll_line(id: &str, module: String) -> String {
    Request::Roll {
        id: id.into(),
        module,
        options: "default".into(),
        client: None,
    }
    .render()
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
    let mut child = Command::new(env!("CARGO_BIN_EXE_rolag-serve"))
        .args(["--stdio", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("rolag-serve starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in &lines {
        // A server that died mid-stream closes the pipe; the exit status
        // below reports that.
        if writeln!(stdin, "{line}").is_err() {
            break;
        }
    }
    drop(stdin);
    let out = child.wait_with_output().expect("rolag-serve exits");
    assert!(out.status.success(), "rolag-serve died: {:?}", out.status);
    let replies: Vec<Json> = String::from_utf8(out.stdout)
        .expect("UTF-8 replies")
        .lines()
        .map(|l| parse(l).expect("well-formed reply"))
        .collect();
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
