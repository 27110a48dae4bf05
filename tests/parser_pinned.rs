//! Pins the textual parser's output and its errors exactly.
//!
//! `parse_module` feeds every `rolag-opt` module, every serve request,
//! corpus ingest and the lit harnesses, and everything downstream is
//! keyed on the module it builds. A parser rewrite that is meant to be
//! behaviour-neutral has to build the very same arenas and report the
//! very same errors. Three layers hold it there:
//!
//! * **Corpus digests.** For every module of the corpora
//!   `tests/printer_pinned.rs` builds (the unrolled TSVC kernels raw and
//!   after `rolag`, 128 AnghaBench-like functions, the Table I programs at
//!   a small scale and the 256-module generator sweep), the printed text
//!   is parsed back and two FNV-1a-64 digests are taken: one over
//!   `encode_module` of the parsed module and one over its re-print.
//!   RLIR is an arena dump, so the first pins the order of types, values,
//!   instructions and interned constants, not just the text. The raw
//!   generator text (hand-style names, not printer-canonical) and the
//!   checked-in `.rir` files are pinned the same way.
//! * **Hand-written modules** whose spellings the corpora never use:
//!   named locals, `%01` beside `%1`, quoted names, forward references.
//! * **An error table**: the exact `line:col: message` for every error
//!   site of the lexer and the parser, plus inputs with several errors,
//!   which pin which one wins (any lex error beats any syntax error, and
//!   every syntax error beats every resolution error).
//!
//! The values were recorded with the previous, token-vector parser,
//! except for quoted block labels, which that parser rejected.

use std::path::Path;

use rolag::{roll_module, RolagOptions};
use rolag_difftest::{generate, generate_module};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::serialization::encode_module;
use rolag_ir::Module;
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `line:col: message` of a failed parse.
fn render_err(text: &str) -> String {
    match parse_module(text) {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("{}:{}: {}", e.line, e.col, e.message),
    }
}

/// `(corpus, texts parsed, encode digest, re-print digest)` over texts
/// that must all parse.
fn digest_texts(
    corpus: &'static str,
    texts: impl IntoIterator<Item = String>,
) -> (&'static str, usize, u64, u64) {
    let (mut enc, mut txt) = (FNV_OFFSET, FNV_OFFSET);
    let mut count = 0;
    for text in texts {
        let m =
            parse_module(&text).unwrap_or_else(|e| panic!("{corpus} #{count} does not parse: {e}"));
        fnv1a(&mut enc, &encode_module(&m));
        fnv1a(&mut txt, print_module(&m).as_bytes());
        count += 1;
    }
    (corpus, count, enc, txt)
}

fn printed(modules: impl IntoIterator<Item = Module>) -> impl Iterator<Item = String> {
    modules.into_iter().map(|m| print_module(&m))
}

fn unrolled_tsvc() -> impl Iterator<Item = Module> {
    all_kernels().into_iter().map(|spec| {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        m
    })
}

#[test]
fn corpus_digests_are_pinned() {
    let rolled = unrolled_tsvc().map(|mut m| {
        roll_module(&mut m, &RolagOptions::default());
        m
    });
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    })
    .map(|(_, _, m)| m);
    let table1 = TABLE1.iter().map(|spec| build_program(spec, 7, 0.02));
    let generated = (0..256).map(|i| generate_module(0, i));
    let actual = [
        digest_texts("tsvc-unrolled", printed(unrolled_tsvc())),
        digest_texts("tsvc-rolled", printed(rolled)),
        digest_texts("angha128", printed(angha)),
        digest_texts("table1@0.02", printed(table1)),
        digest_texts("generated256", printed(generated)),
        digest_texts("generated256-raw", (0..256).map(|i| generate(0, i))),
    ];
    println!("const PINNED: &[(&str, usize, u64, u64)] = &{actual:#?};");
    assert_eq!(actual.as_slice(), PINNED, "parser output moved");
}

const PINNED: &[(&str, usize, u64, u64)] = &[
    (
        "tsvc-unrolled",
        151,
        6963435668077146770,
        4818756317845111884,
    ),
    (
        "tsvc-rolled",
        151,
        10401933185388815680,
        4367249632110897341,
    ),
    ("angha128", 128, 8451194935495234606, 4186483061960278581),
    ("table1@0.02", 21, 5314563934261032753, 11633634459552587452),
    (
        "generated256",
        256,
        8737321384942609872,
        14152454568800000585,
    ),
    (
        "generated256-raw",
        256,
        8737321384942609872,
        14152454568800000585,
    ),
];

/// Every checked-in `.rir` file (lit goldens, repros, examples): the
/// encode digest when it parses, the rendered error when it does not.
#[test]
fn checked_in_rir_files_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["tests/lit", "tests/repros", "examples/ir"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("fixture dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rir") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let mut digest = FNV_OFFSET;
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("fixture reads");
        match parse_module(&text) {
            Ok(m) => fnv1a(&mut digest, &encode_module(&m)),
            Err(e) => fnv1a(
                &mut digest,
                format!("{}:{}: {}", e.line, e.col, e.message).as_bytes(),
            ),
        }
    }
    let actual = (paths.len(), digest);
    println!("checked-in .rir: {actual:?}");
    assert_eq!(actual, PINNED_RIR, "parser output on checked-in .rir moved");
}

const PINNED_RIR: (usize, u64) = (28, 16450319928356838862);

/// Modules in spellings the printer never produces. Each parses, and
/// both digests of the result are pinned.
const HAND_WRITTEN: &[&str] = &[
    // Named locals and parameters, a forward phi reference, repeated
    // constants, `undef`, a function address and a forward call.
    concat!(
        "module \"named\"\n",
        "const @tab : [3 x i7] = ints i7 [1, 2, 3]\n",
        "declare @ext(ptr %q) -> void readonly\n",
        "func @f(i32 %n, ptr %buf) -> i32 {\n",
        "entry:\n",
        "  %i0 = add i32 %n, i32 1\n",
        "  %addr = gep i32, %buf, %i0\n",
        "  store %i0, %addr\n",
        "  call void @ext(@tab)\n",
        "  %fp = bitcast ptr @g\n",
        "  %c = icmp slt %i0, %n\n",
        "  condbr %c, loop, exit\n",
        "loop:\n",
        "  %acc = phi i32 [ %i0, entry ], [ %next, loop ]\n",
        "  %next = add i32 %acc, i32 1\n",
        "  %u = select i32 %c, %next, i32 undef\n",
        "  %d = icmp eq %u, i32 1\n",
        "  condbr %d, exit, loop\n",
        "exit:\n",
        "  %r = phi i32 [ i32 1, entry ], [ %next, loop ]\n",
        "  %s = call i32 @g(%r)\n",
        "  ret %s\n",
        "}\n",
        "func @g(i32 %x) -> i32 {\n",
        "entry:\n",
        "  ret %x\n",
        "}\n",
    ),
    // `%01` and `%1` are different names; `%p0` may name a value;
    // `%"5"` is the same name as `%5`.
    concat!(
        "module \"spellings\"\n",
        "func @h(i64 %a, i64 %b) -> i64 {\n",
        "bb.0:\n",
        "  %1 = add i64 %a, %b\n",
        "  %01 = mul i64 %1, i64 3\n",
        "  %p0 = sub i64 %01, %1\n",
        "  %\"5\" = xor i64 %p0, i64 -1\n",
        "  %\"odd name\" = shl i64 %5, i64 2\n",
        "  %18446744073709551616 = or i64 %\"odd name\", %a\n",
        "  %p99999999999 = and i64 %18446744073709551616, %b\n",
        "  br _tail\n",
        "_tail:\n",
        "  ret %p99999999999\n",
        "}\n",
    ),
    // Types interned in a non-trivial order, floats in every spelling,
    // and comments, blank lines and tabs everywhere.
    concat!(
        "; leading comment\n",
        "\n",
        "module \"types\" // trailing\n",
        "global @s : { i3, [2 x { i9, float }], ptr } = zero\n",
        "global @by : [4 x i8] = bytes [0, 1, 254, 255]\n",
        "const @w : [2 x i128] = ints i128 [-9223372036854775808, 9223372036854775807]\n",
        "\n",
        "\n",
        "func @k(double %x, float %y, i17 %z) -> double {\n",
        "entry:\t; label comment\n",
        "\t%a = fadd double %x, double 0x7ff0000000000000\n",
        "  %b = fmul double %a, double -0.0\n",
        "  %c = fsub double %b, double 1e300\n",
        "  %d = fadd double %c, double 2E-3\n",
        "  %e = fadd float %y, float 7\n",
        "  %f = fpext double %e\n",
        "  %g = fadd double %d, %f\n",
        "  %h = zext i33 %z\n",
        "  %m = alloca { i3, i5 }, i32 4\n",
        "  %n = alloca i128\n",
        "  %o = gep { i3, i5 }, %m, i64 0, i32 1\n",
        "  %v = load i5, %o\n",
        "  %t = trunc i3 %v\n",
        "  %fc = fcmp olt %g, double 0.5\n",
        "  ret %g\n",
        "}\n",
        "declare @late() -> void readnone\n",
    ),
    // A module with no functions, and one whose name needs escapes.
    "module \"q\\\"uote\\\\d\\n\\x41\\t\\0\"\nglobal @\"odd name\" : i32 = zero\n",
];

#[test]
fn hand_written_modules_are_pinned() {
    let actual = digest_texts("hand-written", HAND_WRITTEN.iter().map(|s| s.to_string()));
    println!("hand-written: {actual:?}");
    assert_eq!(
        (actual.1, actual.2, actual.3),
        PINNED_HAND,
        "parser output on hand-written modules moved"
    );
}

const PINNED_HAND: (usize, u64, u64) = (4, 1028415960140443243, 17320983165667099499);

const H: &str = "module \"e\"\n";

/// Inputs and the exact `line:col: message` each must produce.
fn error_cases() -> Vec<(String, &'static str)> {
    let f = |body: &str| format!("{H}func @f(i32 %p0, ptr %p1) -> void {{\nentry:\n{body}\n}}\n");
    let raw = |s: &str| s.to_string();
    let m = |s: &str| format!("{H}{s}");
    vec![
        // ---- lexer ----
        (m("/ x"), "2:1: unexpected '/'"),
        (m("a / b"), "2:3: unexpected '/'"),
        (m("$"), "2:1: unexpected character '$'"),
        (raw("module \"é\" é"), "1:12: unexpected character 'é'"),
        (raw("module \"λ\u{a0}\" \u{1}"), "1:13: unexpected character '\\u{1}'"),
        (raw("module \"e\nx\""), "2:1: unterminated string"),
        (raw("module \"e"), "1:10: unterminated string"),
        (raw("module \"a\\q\""), "1:12: unknown escape \\q"),
        (raw("module \"a\\é\""), "1:12: unknown escape \\é"),
        (raw("module \"a\\x4g\""), "1:14: bad \\x escape (expected two hex digits)"),
        (raw("module \"a\\x4"), "1:13: bad \\x escape (expected two hex digits)"),
        (raw("module \"a\\x\n1\""), "2:2: bad \\x escape (expected two hex digits)"),
        (raw("module \"a\\"), "1:11: unterminated string"),
        (m("global @ : i32 = zero"), "2:9: empty name after '@'"),
        (m("global @é : i32 = zero"), "2:9: empty name after '@'"),
        (f("  ret %"), "4:8: empty name after '%'"),
        (f("  ret %\"unterminated"), "5:1: unterminated string"),
        (f("  ret %\"a\\z\""), "4:12: unknown escape \\z"),
        (m("global @g : [2 x i8] = ints i8 [0x]"), "2:35: bad hex literal 0x\"\""),
        (m("global @g : [2 x i8] = ints i8 [0x1ffffffffffffffff]"), "2:52: bad hex literal 0x\"1ffffffffffffffff\""),
        (m("global @g : [2 x i8] = ints i8 [1.2.3]"), "2:38: bad float literal \"1.2.3\""),
        (m("global @g : [2 x i8] = ints i8 [1e]"), "2:35: bad float literal \"1e\""),
        (m("global @g : [2 x i8] = ints i8 [99999999999999999999]"), "2:53: bad int literal \"99999999999999999999\""),
        (m("global @g : [2 x i8] = ints i8 [- 5]"), "2:34: bad int literal \"-\""),
        (m("global @g : [2 x i8] = ints i8 [-x]"), "2:34: bad int literal \"-\""),
        (m("global @g : [2 x i8] = ints i8 [-0x5]"), "2:35: expected ], found x5"),
        (f("  %2 = add i32 %p0, i32 1é"), "4:26: unexpected character 'é'"),
        // ---- positions: characters, tabs, CR, Unicode whitespace ----
        (raw("module \"e\"\u{a0}5"), "1:12: expected end of line, found 5"),
        (raw("module\t\"é\"\r\n\tbogus"), "2:2: expected top-level item, found bogus"),
        (raw("module \"\u{1F4A5}\" 7"), "1:12: expected end of line, found 7"),
        (raw("\n\n  // c\nfoo"), "4:1: expected module, found foo"),
        (raw(""), "1:1: expected module, found <eof>"),
        (raw("; only a comment"), "1:17: expected module, found <eof>"),
        // ---- top level ----
        (raw("module 5"), "1:9: expected module name string, found 5"),
        (raw("module \"a\" \"b\\x41\""), "1:12: expected end of line, found \"bA\""),
        (raw("module \"e\" x"), "1:12: expected end of line, found x"),
        (m("bogus"), "2:1: expected top-level item, found bogus"),
        (m("}"), "2:1: expected top-level item, found }"),
        (m("5"), "2:1: expected top-level item, found 5"),
        (m("global g"), "2:8: expected @name, found g"),
        (m("global @g i32"), "2:11: expected :, found i32"),
        (m("global @g : i32 zero"), "2:17: expected =, found zero"),
        (m("global @g : i32 = junk"), "2:23: unknown global initializer junk"),
        (m("global @g : i32 = 5"), "2:19: expected identifier, found 5"),
        (m("global @g : [2 x i8] = bytes [1, 256]"), "2:37: byte out of range: 256"),
        (m("global @g : [2 x i8] = bytes [-1]"), "2:33: byte out of range: -1"),
        (m("global @g : [2 x i8] = bytes [1 2]"), "2:33: expected ], found 2"),
        (m("global @g : [2 x i64] = ints i64 [1, x]"), "2:38: expected integer, found x"),
        (m("global @g : [2 x i64] = ints i64 1"), "2:34: expected [, found 1"),
        (m("global @g : i32 = zero extra"), "2:24: expected end of line, found extra"),
        (m("global @g : i32 = zero\nglobal @g : i64 = zero"), "3:8: global @g defined twice"),
        (m("const @g : i32 = zero\nglobal @\"g\" : i64 = zero"), "3:8: global @g defined twice"),
        // ---- types ----
        (m("global @g : [2 y i8] = zero"), "2:18: expected 'x' in array type, found y"),
        (m("global @g : [-1 x i8] = zero"), "2:17: negative array length"),
        (m("global @g : [x x i8] = zero"), "2:14: expected integer, found x"),
        (m("global @g : [2 x i8 = zero"), "2:21: expected ], found ="),
        (m("global @g : { i32, i8 = zero"), "2:23: expected }, found ="),
        (m("global @g : { } = zero"), "2:15: expected type, found }"),
        (m("global @g : int = zero"), "2:17: bad type name int"),
        (m("global @g : i = zero"), "2:15: bad type name i"),
        (m("global @g : i0 = zero"), "2:16: invalid integer width 0"),
        (m("global @g : i129 = zero"), "2:18: invalid integer width 129"),
        (m("global @g : i99999 = zero"), "2:20: bad type name i99999"),
        (m("global @g : float32 = zero"), "2:21: unknown type float32"),
        (m("global @g : 5 = zero"), "2:13: expected type, found 5"),
        (m("global @g : %x = zero"), "2:13: expected type, found %x"),
        // ---- function headers ----
        (m("declare @f(i32) -> void"), "2:15: expected %name, found )"),
        (m("declare @f(i32 %a -> void"), "2:19: expected ), found ->"),
        (m("declare @f(i32 %a,) -> void"), "2:19: expected type, found )"),
        (m("declare @f() void"), "2:14: expected ->, found void"),
        (m("declare @f() -> void bogus"), "2:22: expected end of line, found bogus"),
        (m("declare @f() -> void readnone readonly"), "2:31: expected end of line, found readonly"),
        (m("declare f() -> void"), "2:9: expected @name, found f"),
        (m("declare @f(i32 %a, i64 %a) -> void"), "2:24: parameter %a defined twice"),
        (m("declare @f(i32 %\"a\", i64 %a) -> void"), "2:26: parameter %a defined twice"),
        (m("func @f() -> void entry:"), "2:19: expected {, found entry"),
        (m("func @f() -> void {\nentry:\n  ret\n} x"), "5:3: expected end of line, found x"),
        (m("func @f() -> void {\nentry:\n  ret\n"), "5:1: expected identifier, found <eof>"),
        (m("func @f() -> void {\nentry:\n  ret\n}\n}"), "6:1: expected top-level item, found }"),
        // ---- block labels ----
        (m("func @f() -> void {\n5:\n  ret\n}"), "3:1: expected identifier, found 5"),
        // Quoted labels parse since the printer quotes labels that are
        // not identifiers (imported LLVM blocks); this case and the
        // `br "odd label"` one below were re-pinned with that change.
        (m("func @f() -> void {\n\"odd label\":\n  ret\n}"), "ok"),
        (m("func @f() -> void {\n\"a\":\n  br a\na:\n  ret\n}"), "2:6: duplicate block label a"),
        (m("func @f() -> void {\n\"a\\x41\":\n  br \"aA\"\n}"), "ok"),
        (m("func @f() -> void {\n\"a\" b:\n  ret\n}"), "3:5: expected :, found b"),
        (m("func @f() -> void {\nentry\n  ret\n}"), "3:6: expected :, found <newline>"),
        (m("func @f() -> void {\nentry: ret\n}"), "3:8: expected end of line, found ret"),
        (m("func @f() -> void {\nentry :\n  ret\n}"), "ok"),
        (m("func @f() -> void {\n  ret\n}"), "3:6: expected :, found <newline>"),
        // ---- instructions ----
        (f("  frobnicate"), "4:3: unknown opcode frobnicate"),
        (f("  %2 add i32 %p0, %p0"), "4:6: expected =, found add"),
        (f("  %2 = 5"), "4:8: expected identifier, found 5"),
        (f("  %2 = icmp foo %p0, %p0"), "4:3: unknown icmp predicate foo"),
        (f("  %2 = fcmp ult %p0, %p0"), "4:3: unknown fcmp predicate ult"),
        (f("  %2 = icmp slt %p0 %p0"), "4:21: expected ,, found %p0"),
        (f("  %2 = add i32 %p0 %p0"), "4:20: expected ,, found %p0"),
        (f("  %2 = add i32 %p0, }"), "4:21: expected operand, found }"),
        (f("  %2 = add i32 i32 x"), "4:20: expected constant after type, found x"),
        (f("  %2 = add i32 i32"), "4:19: expected constant after type, found <newline>"),
        (f("  %2 = add i32 { x"), "4:19: unknown type x"),
        (f("  %2 = add i32 i"), "4:16: expected operand, found i"),
        (f("  %2 = fadd double %p0 1.5"), "4:24: expected ,, found 1.5"),
        (f("  %2 = fadd double %p0 0xff"), "4:24: expected ,, found 0xff"),
        (f("  %2 = fadd double %p0 %\"a b\""), "4:24: expected ,, found %a b"),
        (f("  %2 = fadd double %p0 @\"g h\""), "4:24: expected ,, found @g h"),
        (f("  %2 = fadd double %p0 \"s\\\"t\""), "4:24: expected ,, found \"s\"t\""),
        (f("  %2 = fadd double %p0 ->"), "4:24: expected ,, found ->"),
        (f("  %2 = fadd double %p0 ("), "4:24: expected ,, found ("),
        (f("  %2 = fadd double %p0 )"), "4:24: expected ,, found )"),
        (f("  %2 = fadd double %p0 ["), "4:24: expected ,, found ["),
        (f("  %2 = fadd double %p0 ]"), "4:24: expected ,, found ]"),
        (f("  %2 = fadd double %p0 {"), "4:24: expected ,, found {"),
        (f("  %2 = fadd double %p0 :"), "4:24: expected ,, found :"),
        (f("  %2 = fadd double %p0 ="), "4:24: expected ,, found ="),
        (f("  %2 = fadd double %p0 -7"), "4:24: expected ,, found -7"),
        (f("  %2 = add i32 %p0, i32 1 extra"), "4:27: expected end of line, found extra"),
        (f("  %2 = select i32 %p0, %p0"), "4:27: expected ,, found <newline>"),
        (f("  %2 = zext i64"), "4:16: expected operand, found <newline>"),
        (f("  %2 = alloca i32,"), "4:19: expected operand, found <newline>"),
        (f("  %2 = alloca i32 %p0"), "4:19: expected end of line, found %p0"),
        (f("  %2 = load i32 %p1"), "4:17: expected ,, found %p1"),
        (f("  store %p0 %p1"), "4:13: expected ,, found %p1"),
        (f("  %2 = gep i32 %p1"), "4:16: expected ,, found %p1"),
        (f("  %2 = gep i32, %p1,"), "4:21: expected operand, found <newline>"),
        (f("  call void f()"), "4:13: expected @name, found f"),
        (f("  call void @f(%p0"), "4:19: expected ), found <newline>"),
        (f("  call void @f(%p0,)"), "4:20: expected operand, found )"),
        (f("  %2 = phi i32 %p0"), "4:16: expected [, found %p0"),
        (f("  %2 = phi i32 [ %p0 entry ]"), "4:22: expected ,, found entry"),
        (f("  %2 = phi i32 [ %p0, 5 ]"), "4:23: expected identifier, found 5"),
        (f("  %2 = phi i32 [ %p0, entry"), "4:28: expected ], found <newline>"),
        (f("  %2 = phi i32 [ %p0, entry ],"), "4:31: expected [, found <newline>"),
        (f("  br 5"), "4:6: expected identifier, found 5"),
        (f("  br \"odd label\""), "4:3: unknown block label odd label"),
        (f("  br"), "4:5: expected identifier, found <newline>"),
        (f("  condbr %p0, a b"), "4:17: expected ,, found b"),
        (f("  condbr %p0, a,"), "4:17: expected identifier, found <newline>"),
        (f("  ret %p0 %p0"), "4:11: expected end of line, found %p0"),
        (f("  unreachable %p0"), "4:15: expected end of line, found %p0"),
        // ---- resolution ----
        (m("func @f() -> void {\nentry:\n  br entry\nentry:\n  ret\n}"), "2:6: duplicate block label entry"),
        (m("func @f() -> void {\nentry:\n  call void @g()\n  ret\n}"), "4:3: unknown callee @g"),
        (f("  br nowhere"), "4:3: unknown block label nowhere"),
        (f("  condbr %p0, entry, nowhere"), "4:3: unknown block label nowhere"),
        (f("  condbr %p0, nowhere, elsewhere"), "4:3: unknown block label nowhere"),
        (f("  %2 = phi i32 [ %p0, entry ], [ %p0, nowhere ]"), "4:3: unknown block label nowhere"),
        (f("  %2 = add i32 %p0, %p0\n  %2 = add i32 %p0, %p0\n  ret"), "5:3: value %2 defined twice"),
        (f("  %p0 = add i32 %p0, %p0\n  ret"), "4:3: value %p0 defined twice"),
        (f("  %5 = add i32 %p0, %p0\n  %\"5\" = add i32 %p0, %p0\n  ret"), "5:3: value %5 defined twice"),
        (f("  ret %nope"), "4:3: unknown value %nope"),
        (f("  %1 = add i32 %p0, %p0\n  ret %01"), "5:3: unknown value %01"),
        (f("  ret %p2"), "4:3: unknown value %p2"),
        (f("  ret %99999999999"), "4:3: unknown value %99999999999"),
        (f("  ret %18446744073709551616"), "4:3: unknown value %18446744073709551616"),
        (f("  ret @nope"), "4:3: unknown reference @nope"),
        (m("func @f(i32 %x) -> void {\nentry:\n  ret %p0\n}"), "4:3: unknown value %p0"),
        // ---- which error wins ----
        (m("bogus\n$"), "3:1: unexpected character '$'"),
        (m("global @g : i32 = zero\nglobal @g : i64 = zero\n$"), "4:1: unexpected character '$'"),
        (m("global @g : i32 = zero\nglobal @g : i64 = zero\nbogus"), "3:8: global @g defined twice"),
        (m("func @f() -> void {\nentry:\n  ret %nope\n}\nbogus"), "6:1: expected top-level item, found bogus"),
        (m("func @f() -> void {\nentry:\n  ret %nope\n}\nfunc @f() -> void {\nentry:\n  ret\n}"), "6:6: function @f defined twice"),
        (m("func @f() -> void {\nentry:\n  ret %nope\n}\nglobal @f : i32 = zero"), "2:6: @f defined as both a global and a function"),
        (m("func @f() -> void {\nentry:\n  ret %nope\n}\nfunc @g() -> void {\nentry:\n  br nowhere\n}"), "4:3: unknown value %nope"),
        (f("  %2 = add i32 %nope, %p0\n  br nowhere"), "5:3: unknown block label nowhere"),
        (f("  %2 = add i32 %nope, %p0\n  %2 = add i32 %p0, %p0\n  ret"), "5:3: value %2 defined twice"),
        (f("  %2 = add i32 %p0, %p0\n  %2 = add i32 %p0, %p0\n  call void @g()"), "5:3: value %2 defined twice"),
        (f("  call void @g()\n  %2 = add i32 %p0, %p0\n  %2 = add i32 %p0, %p0"), "4:3: unknown callee @g"),
        (f("  ret @nope\n  ret %nope"), "4:3: unknown reference @nope"),
        (m("func @f() -> void {\nentry:\n  ret\nentry:\n  br nowhere\n}"), "2:6: duplicate block label entry"),
        (m("func @f() -> void {\nentry:\n  br nowhere\n}\nfunc @f() -> void {\nentry:\n  ret\n}\n5"), "10:1: expected top-level item, found 5"),
        // ---- type nesting cap: the first bracket past 256 levels ----
        (m(&format!("global @a : {} = zero", nested("[1 x ", "i32", "]", 257))), "2:1293: type nesting deeper than 256 levels"),
        (m(&format!("global @a : {} = zero", nested("[1 x ", "i32", "]", 200_000))), "2:1293: type nesting deeper than 256 levels"),
        (f(&format!("  %2 = alloca {}", nested("{", "i8", "}", 257))), "4:271: type nesting deeper than 256 levels"),
        (f(&format!("  %2 = alloca {}", nested("{i8, ", "i8", "}", 200_000))), "4:1295: type nesting deeper than 256 levels"),
    ]
}

/// `depth` copies of `open`, then `inner`, then `depth` copies of `close`.
fn nested(open: &str, inner: &str, close: &str, depth: usize) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

/// A type nested exactly to the cap still parses.
#[test]
fn type_nesting_cap_is_exact() {
    let text = format!(
        "{H}global @a : {} = zero\n",
        nested("[1 x ", "i32", "]", 256)
    );
    assert!(parse_module(&text).is_ok());
}

#[test]
fn every_error_site_is_pinned() {
    let cases = error_cases();
    let actual: Vec<String> = cases.iter().map(|(text, _)| render_err(text)).collect();
    let mut table = String::new();
    for ((text, _), got) in cases.iter().zip(&actual) {
        table.push_str(&format!("{text:?} => {got:?}\n"));
    }
    println!("{table}");
    let mismatches: Vec<String> = cases
        .iter()
        .zip(&actual)
        .filter(|((_, want), got)| got != want)
        .map(|((text, want), got)| format!("{text:?}\n  want {want:?}\n  got  {got:?}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} error cases moved:\n{}",
        mismatches.len(),
        cases.len(),
        mismatches.join("\n")
    );
}
