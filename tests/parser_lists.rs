//! Pins how the text parser reads `ints` and `bytes` initializer lists.
//!
//! A list spelled as the printer spells it (`[`, `-?digits` separated by
//! `, `, then `]`) is read in one loop over its bytes; any other spelling,
//! and any list with a bad element, is read token by token. The two paths
//! must agree on every value, and every error must still come from the
//! token path, with the message, line and column it always had. Overflow
//! checks in the byte loop behave alike in debug and release only if they
//! are explicit, so this test runs in both profiles.

use rolag_ir::parser::parse_module;
use rolag_ir::{GlobalInit, Module};

const H: &str = "module \"m\"\n";

fn parse(text: &str) -> Module {
    parse_module(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
}

/// The initializer of the module's one global.
fn init(text: &str) -> GlobalInit {
    let m = parse(text);
    let g = m.global_ids().next().expect("one global");
    m.global(g).init.clone()
}

/// `line:col: message` of a failed parse.
fn render_err(text: &str) -> String {
    match parse_module(text) {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("{}:{}: {}", e.line, e.col, e.message),
    }
}

/// The printer's spelling of `items`, read by the byte loop, and a
/// spelling only the token path reads (a space after `[`, none after each
/// comma).
fn spellings(items: &[&str]) -> [String; 2] {
    [
        format!("[{}]", items.join(", ")),
        format!("[ {} ]", items.join(" ,")),
    ]
}

#[test]
fn edge_spellings_read_alike_on_both_paths() {
    let ints: [(&[&str], &[i64]); 6] = [
        (&["-0"], &[0]),
        (&["007", "-007"], &[7, -7]),
        (&["-9223372036854775808"], &[i64::MIN]),
        (&["9223372036854775807"], &[i64::MAX]),
        (&["1", "-2", "30", "-400"], &[1, -2, 30, -400]),
        (&[], &[]),
    ];
    for (items, values) in ints {
        for list in spellings(items) {
            let text = format!("{H}global @g : [4 x i64] = ints i64 {list}\n");
            match init(&text) {
                GlobalInit::Ints { values: got, .. } => assert_eq!(got, values, "{list}"),
                other => panic!("{list}: {other:?}"),
            }
        }
    }
    let bytes: [(&[&str], &[u8]); 3] = [
        (&["0", "255"], &[0, 255]),
        (&["000", "0255", "-0"], &[0, 255, 0]),
        (&[], &[]),
    ];
    for (items, values) in bytes {
        for list in spellings(items) {
            let text = format!("{H}const @b : [3 x i8] = bytes {list}\n");
            assert_eq!(init(&text), GlobalInit::Bytes(values.to_vec()), "{list}");
        }
    }
    // A list at the very end of the input, and one followed by a comment.
    let at_end = format!("{H}global @g : [2 x i64] = ints i64 [5, -6]");
    let commented = format!("{H}global @g : [2 x i64] = ints i64 [5, -6] // c\n");
    for text in [at_end, commented] {
        match init(&text) {
            GlobalInit::Ints { values, .. } => assert_eq!(values, [5, -6]),
            other => panic!("{other:?}"),
        }
    }
}

/// Malformed lists, each with the error the token-by-token parser gave
/// before lists had a byte loop.
#[test]
fn malformed_lists_report_the_token_paths_errors() {
    let g = |list: &str| format!("{H}global @g : [4 x i64] = ints i64 {list}\n");
    let b = |list: &str| format!("{H}global @g : [4 x i8] = bytes {list}\n");
    let cases = [
        (g("[1, // c\n2]"), "2:42: expected integer, found <newline>"),
        (g("[1, ; c\n2]"), "2:41: expected integer, found <newline>"),
        (g("[1, 2 // c\n]"), "2:44: expected ], found <newline>"),
        (g("[1,\n2]"), "2:37: expected integer, found <newline>"),
        (g("[1\n, 2]"), "2:36: expected ], found <newline>"),
        (g("[+1]"), "2:35: unexpected character '+'"),
        (g("[1, +1]"), "2:38: unexpected character '+'"),
        (g("[0x10]"), "2:35: expected integer, found 0x10"),
        (g("[1, 0x10]"), "2:38: expected integer, found 0x10"),
        (g("[1.5]"), "2:35: expected integer, found 1.5"),
        (g("[2, 1e3]"), "2:38: expected integer, found 1000"),
        (
            g("[9223372036854775808]"),
            "2:54: bad int literal \"9223372036854775808\"",
        ),
        (
            g("[1, -9223372036854775809]"),
            "2:58: bad int literal \"-9223372036854775809\"",
        ),
        (
            g("[18446744073709551616]"),
            "2:55: bad int literal \"18446744073709551616\"",
        ),
        (g("[-]"), "2:36: bad int literal \"-\""),
        (g("[1, -]"), "2:39: bad int literal \"-\""),
        (g("[1 2]"), "2:37: expected ], found 2"),
        (g("[1, 2,]"), "2:40: expected integer, found ]"),
        (g("[1, 2, ]"), "2:41: expected integer, found ]"),
        (g("[1,, 2]"), "2:37: expected integer, found ,"),
        (g("[1, 2"), "2:39: expected ], found <newline>"),
        (g("[1, 2] 3"), "2:41: expected end of line, found 3"),
        (g("[1, 2]x"), "2:40: expected end of line, found x"),
        (g("[1, 2] $"), "2:41: unexpected character '$'"),
        (b("[0, 256]"), "2:37: byte out of range: 256"),
        (b("[256, 0]"), "2:34: byte out of range: 256"),
        (b("[-1]"), "2:33: byte out of range: -1"),
        (b("[1, 2.0]"), "2:34: expected integer, found 2"),
    ];
    let mut moved = Vec::new();
    for (text, want) in &cases {
        let got = render_err(text);
        if got != *want {
            moved.push(format!("{text:?}: got {got:?}, pinned {want:?}"));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} error cases moved:\n{}",
        moved.len(),
        cases.len(),
        moved.join("\n")
    );
}
