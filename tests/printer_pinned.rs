//! Pins the textual printer's output byte for byte.
//!
//! Every memo key, store key, emitted module and lit golden goes through
//! `rolag_ir::printer`, so a printer rewrite that is meant to be
//! behaviour-neutral has to reproduce the old text exactly. Two layers
//! hold it there:
//!
//! * **Corpus digests.** FNV-1a-64 digests of `print_module` over the
//!   unrolled TSVC kernels (raw and after `rolag`), 128 AnghaBench-like
//!   functions, the Table I programs at a small scale and the 256-module
//!   generator sweep. The digests were recorded with the previous,
//!   string-per-token printer.
//! * **Exact-text cases** for the corners those corpora barely touch:
//!   quoted and escaped symbols, non-finite floats, struct, array and
//!   function types, and `ints`/`bytes` globals.

use rolag::{roll_module, RolagOptions};
use rolag_difftest::generate_module;
use rolag_ir::builder::FuncBuilder;
use rolag_ir::parser::parse_module;
use rolag_ir::printer::{print_function, print_global, print_module};
use rolag_ir::{GlobalData, GlobalInit, Module};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(corpus, modules printed, FNV-1a-64 digest of their concatenated text)`.
fn digest(
    corpus: &'static str,
    modules: impl IntoIterator<Item = Module>,
) -> (&'static str, usize, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for m in modules {
        fnv1a(&mut digest, print_module(&m).as_bytes());
        count += 1;
    }
    (corpus, count, digest)
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
        digest("tsvc-unrolled", unrolled_tsvc()),
        digest("tsvc-rolled", rolled),
        digest("angha128", angha),
        digest("table1@0.02", table1),
        digest("generated256", generated),
    ];
    println!("const PINNED: &[(&str, usize, u64)] = &{actual:#?};");
    assert_eq!(actual.as_slice(), PINNED, "printer output moved");
}

const PINNED: &[(&str, usize, u64)] = &[
    ("tsvc-unrolled", 151, 4818756317845111884),
    ("tsvc-rolled", 151, 4367249632110897341),
    ("angha128", 128, 4186483061960278581),
    ("table1@0.02", 21, 11633634459552587452),
    ("generated256", 256, 14152454568800000585),
];

fn assert_prints(module: &Module, expected: &str) {
    let printed = print_module(module);
    assert_eq!(printed, expected);
    let reparsed = parse_module(&printed).expect("printed text parses");
    assert_eq!(print_module(&reparsed), printed, "print is a fixpoint");
}

#[test]
fn quoted_and_escaped_symbols() {
    let text = concat!(
        "module \"q\\\"uote\\\\d\\n\"\n",
        "global @\"odd name\" : i32 = zero\n",
        "global @\"tab\\tline\\x01\" : [2 x i8] = bytes [0, 255]\n",
        "declare @\"ext-fn\"(ptr %p0) -> void readnone\n",
        "func @\"my.func$\"(i32 %x) -> i32 {\n",
        "entry:\n",
        "  %a = load i32, @\"odd name\"\n",
        "  call void @\"ext-fn\"(@\"tab\\tline\\x01\")\n",
        "  %r = call i32 @\"my.func$\"(%a)\n",
        "  ret %r\n",
        "}\n",
    );
    let m = parse_module(text).expect("fixture parses");
    assert_prints(
        &m,
        concat!(
            "module \"q\\\"uote\\\\d\\n\"\n",
            "global @\"odd name\" : i32 = zero\n",
            "global @\"tab\\tline\\x01\" : [2 x i8] = bytes [0, 255]\n",
            "\n",
            "declare @\"ext-fn\"(ptr %p0) -> void readnone\n",
            "\n",
            "func @\"my.func$\"(i32 %p0) -> i32 {\n",
            "entry:\n",
            "  %1 = load i32, @\"odd name\"\n",
            "  call void @\"ext-fn\"(@\"tab\\tline\\x01\")\n",
            "  %2 = call i32 @\"my.func$\"(%1)\n",
            "  ret %2\n",
            "}\n",
        ),
    );
}

#[test]
fn float_constants_print_bit_exactly() {
    let text = concat!(
        "module \"f\"\n",
        "func @f(double %x, float %y) -> double {\n",
        "entry:\n",
        "  %a = fadd double %x, double 0x7ff0000000000000\n",
        "  %b = fadd double %a, double 0xfff8000000000001\n",
        "  %c = fmul double %b, double -0.0\n",
        "  %d = fsub double %c, double 1e300\n",
        "  %e = fadd float %y, float 0.1\n",
        "  %f = fadd float %e, float 0x7ff8000000000000\n",
        "  %g = fpext double %f\n",
        "  %h = fadd double %d, %g\n",
        "  ret %h\n",
        "}\n",
    );
    let m = parse_module(text).expect("fixture parses");
    assert_prints(
        &m,
        concat!(
            "module \"f\"\n",
            "\n",
            "func @f(double %p0, float %p1) -> double {\n",
            "entry:\n",
            "  %2 = fadd double %p0, double 0x7ff0000000000000\n",
            "  %3 = fadd double %2, double 0xfff8000000000001\n",
            "  %4 = fmul double %3, double -0.0\n",
            "  %5 = fsub double %4, double 1e300\n",
            "  %6 = fadd float %p1, float 0.1\n",
            "  %7 = fadd float %6, float 0x7ff8000000000000\n",
            "  %8 = fpext double %7\n",
            "  %9 = fadd double %5, %8\n",
            "  ret %9\n",
            "}\n",
        ),
    );
}

#[test]
fn aggregate_and_function_types() {
    let mut m = parse_module(concat!(
        "module \"t\"\n",
        "global @s : { i32, [3 x { i8, double }], ptr } = zero\n",
        "func @g(i64 %n) -> void {\n",
        "entry:\n",
        "  %buf = alloca [4 x { i16, float }], %n\n",
        "  %p = gep { i32, [3 x { i8, double }], ptr }, @s, i64 0, i32 1\n",
        "  %q = gep [4 x { i16, float }], %buf, i64 0, i64 2\n",
        "  store %p, %q\n",
        "  ret\n",
        "}\n",
    ))
    .expect("fixture parses");
    let i32t = m.types.i32();
    let ptr = m.types.ptr();
    let void = m.types.void();
    let callback = m.types.func(void, vec![i32t, ptr]);
    let table = m.types.array(callback, 2);
    let nested = m.types.func(table, vec![]);
    let ty = m.types.struct_(vec![i32t, nested]);
    let fnptrs = m.add_global(GlobalData {
        name: "fnptrs".into(),
        ty,
        init: GlobalInit::Zero,
        is_const: false,
    });
    assert_eq!(
        print_global(&m, fnptrs),
        "global @fnptrs : { i32, fn() -> [2 x fn(i32, ptr) -> void] } = zero"
    );
    let g = m.func(m.func_by_name("g").expect("@g exists"));
    assert_eq!(
        print_function(&m, g),
        concat!(
            "func @g(i64 %p0) -> void {\n",
            "entry:\n",
            "  %1 = alloca [4 x { i16, float }], %p0\n",
            "  %2 = gep { i32, [3 x { i8, double }], ptr }, @s, i64 0, i32 1\n",
            "  %3 = gep [4 x { i16, float }], %1, i64 0, i64 2\n",
            "  store %2, %3\n",
            "  ret\n",
            "}\n",
        )
    );
}

#[test]
fn ints_and_bytes_globals() {
    let mut m = Module::new("g");
    let i64t = m.types.i64();
    let i8t = m.types.i8();
    let words = m.types.array(i64t, 4);
    let raw = m.types.array(i8t, 3);
    m.add_global(GlobalData {
        name: "words".into(),
        ty: words,
        init: GlobalInit::Ints {
            elem_ty: i64t,
            values: vec![-1, 0, i64::MAX, i64::MIN],
        },
        is_const: true,
    });
    m.add_global(GlobalData {
        name: "raw".into(),
        ty: raw,
        init: GlobalInit::Bytes(vec![0, 127, 255]),
        is_const: false,
    });
    let single = m.types.array(i8t, 1);
    m.add_global(GlobalData {
        name: "one".into(),
        ty: single,
        init: GlobalInit::Bytes(vec![9]),
        is_const: true,
    });
    let i32t = m.types.i32();
    let mut fb = FuncBuilder::new(&mut m, "empty", vec![], i32t);
    fb.block("entry");
    fb.ins(|b| {
        let z = b.i32_const(-7);
        b.ret(Some(z));
    });
    fb.finish();
    assert_prints(
        &m,
        concat!(
            "module \"g\"\n",
            "const @words : [4 x i64] = ints i64 [-1, 0, 9223372036854775807, -9223372036854775808]\n",
            "global @raw : [3 x i8] = bytes [0, 127, 255]\n",
            "const @one : [1 x i8] = bytes [9]\n",
            "\n",
            "func @empty() -> i32 {\n",
            "entry:\n",
            "  ret i32 -7\n",
            "}\n",
        ),
    );
}
