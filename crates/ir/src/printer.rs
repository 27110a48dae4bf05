//! Textual IR printer.
//!
//! The format round-trips through the parser in [`crate::parser`]. Example:
//!
//! ```text
//! module "demo"
//!
//! global @tab : [3 x i32] = ints i32 [1, 2, 3]
//! declare @ext(ptr) -> void readwrite
//!
//! func @f(i32 %p0, ptr %p1) -> i32 {
//! entry:
//!   %2 = add i32 %p0, i32 1
//!   store %2, %p1
//!   ret %2
//! }
//! ```
//!
//! Instruction results are numbered sequentially per function (parameters
//! first), so printing is stable across parse/print round trips.
//!
//! Everything is written straight into one output `String`: operands,
//! symbols and types are appended in place rather than built as strings of
//! their own. The numbering lives in a `Vec` indexed by [`ValueId`] — a
//! value's printed number, or a sentinel for values no definition numbered
//! — which [`print_module`] allocates once and reuses for every function.
//!
//! Nothing on the hot path goes through `core::fmt`. Value numbers,
//! integer constants, `iN` widths, array lengths and `ints`/`bytes`
//! elements are written by a small decimal writer (`push_u64`, two
//! digits per division); a float constant that `{:?}` would spell as an
//! integer plus `.0` (integral, below 1e16 in magnitude, `-0.0` included)
//! is written by the same writer, and only other finite floats take `{:?}`;
//! names that need no escaping are copied in one piece. The writers are
//! checked against `format!` in this module's tests.

use std::fmt::Write as _;

use crate::function::Function;
use crate::inst::{InstExtra, InstId, Opcode};
use crate::module::{GlobalInit, Module};
use crate::parser::{is_bare_label, is_plain_symbol};
use crate::types::TypeId;
use crate::value::{GlobalId, ValueDef, ValueId};

/// `00` to `99`: the two digits of each number below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, as `write!(out, "{v}")` would, without going
/// through `core::fmt`: two digits per division, lowest first, into a
/// buffer that is then appended a byte at a time (the bytes are ASCII, so
/// no UTF-8 check is needed).
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.reserve(buf.len() - i);
    for &digit in &buf[i..] {
        out.push(char::from(digit));
    }
}

/// Appends `v` in decimal, as `write!(out, "{v}")` would.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `s` escaped for a double-quoted literal, inverting the lexer's
/// escape decoding. Runs of bytes that need no escape are copied whole.
fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\0' => "\\0",
            _ if b < 0x20 || b == 0x7f => "\\x",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\x" {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `name` bare when `bare`, else quoted with escapes.
fn name_into(out: &mut String, name: &str, bare: bool) {
    if bare {
        out.push_str(name);
    } else {
        out.push('"');
        escape_into(out, name);
        out.push('"');
    }
}

/// Appends a symbol name for use after `@`/`%`: bare when it is a plain
/// identifier, quoted (with escapes) otherwise.
fn sym_into(out: &mut String, name: &str) {
    name_into(out, name, is_plain_symbol(name));
}

/// Appends a block label: bare when it lexes as an identifier, quoted
/// (with escapes) otherwise — imported LLVM blocks are named `0`, `5`,
/// `"odd label"`.
fn label_into(out: &mut String, name: &str) {
    name_into(out, name, is_bare_label(name));
}

/// Appends a float constant from its bit pattern. Finite values use the
/// shortest decimal that round-trips; non-finite values (infinities, NaNs
/// with payloads) use a bit-exact `0x...` spelling the parser understands.
fn float_into(out: &mut String, bits: u64) {
    let value = f64::from_bits(bits);
    // An integral value below 1e16 in magnitude is exactly an `i64`, and
    // `{:?}` spells it as its integer digits plus `.0` (`-0.0` included),
    // so the digit writer can spell it without the shortest-decimal search.
    if value.abs() < 1e16 {
        let int = value as i64;
        if int as f64 == value {
            if value.is_sign_negative() {
                out.push('-');
            }
            push_u64(out, int.unsigned_abs());
            out.push_str(".0");
            return;
        }
    }
    if value.is_finite() {
        // `{:?}` keeps a trailing `.0` so the parser can tell floats from
        // ints, and prints the shortest decimal that parses back to the
        // same bits.
        let _ = write!(out, "{value:?}");
    } else {
        let _ = write!(out, "0x{bits:016x}");
    }
}

/// Marks a value slot that no parameter or instruction result numbered.
const UNNUMBERED: u32 = u32::MAX;

/// The output buffer plus the per-function numbering it is written with.
struct Printer<'m> {
    module: &'m Module,
    out: String,
    /// `numbers[v]`: the printed number of value `v` — parameters take
    /// `0..params` (printed `%p<n>`), instruction results count up from
    /// `params` (printed `%<n>`) — or [`UNNUMBERED`].
    numbers: Vec<u32>,
    params: u32,
}

impl<'m> Printer<'m> {
    fn new(module: &'m Module) -> Self {
        Printer {
            module,
            out: String::new(),
            numbers: Vec::new(),
            params: 0,
        }
    }

    fn ty(&mut self, ty: TypeId) {
        self.module.types.write_type(ty, &mut self.out);
    }

    fn global(&mut self, g: GlobalId) {
        let data = self.module.global(g);
        self.out
            .push_str(if data.is_const { "const @" } else { "global @" });
        sym_into(&mut self.out, &data.name);
        self.out.push_str(" : ");
        self.ty(data.ty);
        self.out.push_str(" = ");
        match &data.init {
            GlobalInit::Zero => self.out.push_str("zero"),
            GlobalInit::Ints { elem_ty, values } => {
                self.out.push_str("ints ");
                self.ty(*elem_ty);
                self.out.push(' ');
                self.literals(values, |out, &v| push_i64(out, v));
            }
            GlobalInit::Bytes(bytes) => {
                self.out.push_str("bytes ");
                self.literals(bytes, |out, &b| push_u64(out, u64::from(b)));
            }
        }
    }

    /// Appends `[a, b, ...]`, each item written by `write`.
    fn literals<T>(&mut self, items: &[T], write: impl Fn(&mut String, &T)) {
        self.out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            write(&mut self.out, item);
        }
        self.out.push(']');
    }

    fn function(&mut self, func: &Function) {
        self.out.push_str(if func.is_declaration {
            "declare @"
        } else {
            "func @"
        });
        sym_into(&mut self.out, &func.name);
        self.out.push('(');
        for (i, &ty) in func.param_tys().iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.ty(ty);
            self.out.push_str(" %p");
            push_u64(&mut self.out, i as u64);
        }
        self.out.push_str(") -> ");
        self.ty(func.ret_ty);
        if func.is_declaration {
            self.out.push(' ');
            self.out.push_str(func.effects.mnemonic());
            self.out.push('\n');
            return;
        }
        self.out.push_str(" {\n");

        // Sequential numbering: parameters take 0..n, instruction results follow.
        let void = self.module.types.void();
        self.numbers.clear();
        self.numbers.resize(func.num_values(), UNNUMBERED);
        for (i, &p) in func.params().iter().enumerate() {
            self.numbers[p.index()] = i as u32;
        }
        self.params = func.params().len() as u32;
        let mut next = self.params;
        for b in func.block_ids() {
            for &i in &func.block(b).insts {
                // Types are interned, so `void` has this one id.
                if func.inst(i).ty != void {
                    self.numbers[func.inst_result(i).index()] = next;
                    next += 1;
                }
            }
        }

        for b in func.block_ids() {
            let block = func.block(b);
            label_into(&mut self.out, &block.name);
            self.out.push_str(":\n");
            for &i in &block.insts {
                self.out.push_str("  ");
                self.inst(func, i);
                self.out.push('\n');
            }
        }
        self.out.push_str("}\n");
    }

    /// Appends a numbered value as `%p<n>`/`%<n>` and returns true, or
    /// returns false (appending nothing) for an unnumbered one.
    fn local(&mut self, v: ValueId) -> bool {
        match self.numbers.get(v.index()).copied() {
            Some(n) if n != UNNUMBERED => {
                self.out.push_str(if n < self.params { "%p" } else { "%" });
                push_u64(&mut self.out, u64::from(n));
                true
            }
            _ => false,
        }
    }

    fn operand(&mut self, func: &Function, v: ValueId) {
        match func.value(v) {
            ValueDef::Inst(_) | ValueDef::Param { .. } => {
                if !self.local(v) {
                    self.out.push_str("%?");
                    push_u64(&mut self.out, v.index() as u64);
                }
            }
            ValueDef::ConstInt { ty, value } => {
                self.ty(*ty);
                self.out.push(' ');
                push_i64(&mut self.out, *value);
            }
            ValueDef::ConstFloat { ty, bits } => {
                self.ty(*ty);
                self.out.push(' ');
                float_into(&mut self.out, *bits);
            }
            ValueDef::GlobalAddr(g) => {
                self.out.push('@');
                sym_into(&mut self.out, &self.module.global(*g).name);
            }
            ValueDef::FuncAddr(f) => {
                self.out.push('@');
                sym_into(&mut self.out, &self.module.func(*f).name);
            }
            ValueDef::Undef(ty) => {
                self.ty(*ty);
                self.out.push_str(" undef");
            }
        }
    }

    /// Appends `operands` separated by `, `.
    fn operands(&mut self, func: &Function, operands: &[ValueId]) {
        for (i, &v) in operands.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.operand(func, v);
        }
    }

    /// Appends one instruction (without trailing newline).
    fn inst(&mut self, func: &Function, inst: InstId) {
        let data = func.inst(inst);
        let ops = &data.operands[..];
        if self.local(func.inst_result(inst)) {
            self.out.push_str(" = ");
        }
        match (&data.opcode, &data.extra) {
            (Opcode::Icmp, InstExtra::Icmp(p)) => {
                self.out.push_str("icmp ");
                self.out.push_str(p.mnemonic());
                self.out.push(' ');
                self.operands(func, &ops[..2]);
            }
            (Opcode::Fcmp, InstExtra::Fcmp(p)) => {
                self.out.push_str("fcmp ");
                self.out.push_str(p.mnemonic());
                self.out.push(' ');
                self.operands(func, &ops[..2]);
            }
            (Opcode::Gep, InstExtra::Gep { elem_ty }) => {
                self.out.push_str("gep ");
                self.ty(*elem_ty);
                self.out.push_str(", ");
                self.operand(func, ops[0]);
                self.out.push_str(", ");
                self.operands(func, &ops[1..]);
            }
            (Opcode::Call, InstExtra::Call { callee }) => {
                self.out.push_str("call ");
                self.ty(data.ty);
                self.out.push_str(" @");
                sym_into(&mut self.out, &self.module.func(*callee).name);
                self.out.push('(');
                self.operands(func, ops);
                self.out.push(')');
            }
            (Opcode::Phi, InstExtra::Phi { incoming }) => {
                self.out.push_str("phi ");
                self.ty(data.ty);
                self.out.push(' ');
                for (i, (&v, &b)) in ops.iter().zip(incoming).enumerate() {
                    self.out.push_str(if i > 0 { ", [ " } else { "[ " });
                    self.operand(func, v);
                    self.out.push_str(", ");
                    label_into(&mut self.out, &func.block(b).name);
                    self.out.push_str(" ]");
                }
            }
            (Opcode::Br, InstExtra::Br { dest }) => {
                self.out.push_str("br ");
                label_into(&mut self.out, &func.block(*dest).name);
            }
            (
                Opcode::CondBr,
                InstExtra::CondBr {
                    then_dest,
                    else_dest,
                },
            ) => {
                self.out.push_str("condbr ");
                self.operand(func, ops[0]);
                self.out.push_str(", ");
                label_into(&mut self.out, &func.block(*then_dest).name);
                self.out.push_str(", ");
                label_into(&mut self.out, &func.block(*else_dest).name);
            }
            (Opcode::Alloca, InstExtra::Alloca { elem_ty }) => {
                self.out.push_str("alloca ");
                self.ty(*elem_ty);
                if let Some(&count) = ops.first() {
                    self.out.push_str(", ");
                    self.operand(func, count);
                }
            }
            (Opcode::Load, _) => {
                self.out.push_str("load ");
                self.ty(data.ty);
                self.out.push_str(", ");
                self.operand(func, ops[0]);
            }
            (Opcode::Store, _) => {
                self.out.push_str("store ");
                self.operands(func, &ops[..2]);
            }
            (Opcode::Select, _) => {
                self.out.push_str("select ");
                self.ty(data.ty);
                self.out.push(' ');
                self.operands(func, &ops[..3]);
            }
            (Opcode::Ret, _) => {
                self.out.push_str("ret");
                if let Some(&v) = ops.first() {
                    self.out.push(' ');
                    self.operand(func, v);
                }
            }
            (Opcode::Unreachable, _) => self.out.push_str("unreachable"),
            (opcode, _) if opcode.is_cast() => {
                self.out.push_str(opcode.mnemonic());
                self.out.push(' ');
                self.ty(data.ty);
                self.out.push(' ');
                self.operand(func, ops[0]);
            }
            (opcode, _) if opcode.is_binop() => {
                self.out.push_str(opcode.mnemonic());
                self.out.push(' ');
                self.ty(data.ty);
                self.out.push(' ');
                self.operands(func, &ops[..2]);
            }
            (opcode, extra) => panic!("cannot print {opcode:?} with extra {extra:?}"),
        }
    }
}

/// Prints a whole module as parseable IR text.
pub fn print_module(module: &Module) -> String {
    let mut p = Printer::new(module);
    p.out.push_str("module \"");
    escape_into(&mut p.out, &module.name);
    p.out.push_str("\"\n");
    for g in module.global_ids() {
        p.global(g);
        p.out.push('\n');
    }
    for f in module.func_ids() {
        p.out.push('\n');
        p.function(module.func(f));
    }
    p.out
}

/// Prints one global definition as a single parseable IR line (no trailing
/// newline). Stable by construction — cache keys content-address globals
/// through this rendering.
pub fn print_global(module: &Module, g: GlobalId) -> String {
    let mut p = Printer::new(module);
    p.global(g);
    p.out
}

/// Prints one function (or declaration) as parseable IR text.
pub fn print_function(module: &Module, func: &Function) -> String {
    let mut p = Printer::new(module);
    p.function(func);
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Effects;
    use crate::inst::IntPredicate;
    use rolag_prng::{ChaCha8Rng, Rng, RngCore, SeedableRng};

    fn int_text(v: i64) -> String {
        let mut out = String::new();
        push_i64(&mut out, v);
        out
    }

    fn float_text(bits: u64) -> String {
        let mut out = String::new();
        float_into(&mut out, bits);
        out
    }

    /// The spelling `float_into` replaces: `{:?}`, or `0x...` when not
    /// finite.
    fn float_reference(bits: u64) -> String {
        let value = f64::from_bits(bits);
        if value.is_finite() {
            format!("{value:?}")
        } else {
            format!("0x{bits:016x}")
        }
    }

    #[test]
    fn digit_writer_matches_display() {
        let mut values = vec![0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
        let mut power: i64 = 1;
        for _ in 0..=18 {
            for v in [power - 1, power, power + 1] {
                values.extend([v, -v]);
            }
            power = power.saturating_mul(10);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0x0d16_17e5);
        for _ in 0..10_000 {
            // Every magnitude, not just the 19-digit ones a uniform draw
            // gives.
            values.push((rng.next_u64() >> rng.gen_range(0..64u32)) as i64);
        }
        for v in values {
            assert_eq!(int_text(v), format!("{v}"), "{v}");
        }
        let mut out = String::new();
        for v in [
            u64::MAX,
            u64::MAX - 1,
            10_000_000_000_000_000_000,
            9_999_999_999_999_999_999,
        ] {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
    }

    #[test]
    fn float_writer_matches_debug() {
        let two53 = (1u64 << 53) as f64;
        let mut values = vec![0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e16, -1e16, 1e17, 1e300];
        for center in [1e15, 1e16, two53] {
            for k in -64..=64 {
                let v = center + k as f64;
                values.extend([v, -v]);
            }
            // The neighbouring bit patterns, integral and not.
            for k in 1..=64 {
                values.extend([
                    f64::from_bits(center.to_bits() + k),
                    f64::from_bits(center.to_bits() - k),
                ]);
            }
        }
        let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        // Subnormals, both signs.
        for m in [1, 2, 3, 0x8_0000_0000_0000, 0xf_ffff_ffff_ffff] {
            bits.extend([m, m | 1 << 63]);
        }
        // Non-finite values keep the bit-exact spelling.
        bits.extend([
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0x7ff8_0000_0000_0dea,
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(0xf10a_7b17);
        for _ in 0..10_000 {
            bits.push(rng.next_u64());
            // Integral values of every magnitude up to 2^62.
            let int = (rng.next_u64() >> rng.gen_range(1..64u32)) as i64;
            let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            bits.push((sign * int as f64).to_bits());
        }
        for b in bits {
            assert_eq!(float_text(b), float_reference(b), "{:?}", f64::from_bits(b));
        }
    }

    #[test]
    fn escaping_matches_the_char_at_a_time_spelling() {
        fn reference(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\0' => out.push_str("\\0"),
                    c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                        out.push_str(&format!("\\x{:02x}", c as u32))
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut texts: Vec<String> = (0..0x80u8).map(|b| char::from(b).to_string()).collect();
        texts.extend(
            [
                "",
                "plain",
                "a\"b\\c\nd\te\0f\x7f",
                "é中💥\u{1}",
                "\x01\x02tail",
            ]
            .map(String::from),
        );
        texts.push((0..0x80u8).map(char::from).chain("é中💥".chars()).collect());
        for text in texts {
            let mut out = String::new();
            escape_into(&mut out, &text);
            assert_eq!(out, reference(&text), "{text:?}");
        }
    }

    #[test]
    fn print_simple_module() {
        let mut m = Module::new("demo");
        let i32t = m.types.i32();
        let ptr = m.types.ptr();
        let void = m.types.void();
        m.declare_func("ext", vec![ptr], void, Effects::ReadWrite);
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t, ptr], i32t);
        let a = fb.param(0);
        let p = fb.param(1);
        fb.block("entry");
        let (ext, ext_ret) = fb.callee("ext");
        fb.ins(|b| {
            let one = b.i32_const(1);
            let s = b.add(a, one);
            let g = b.gep(b.types.i32(), p, &[s]);
            b.store(s, g);
            b.call(ext, ext_ret, &[p]);
            let c = b.icmp(IntPredicate::Slt, s, a);
            let sel = b.select(c, s, a);
            b.ret(Some(sel));
        });
        fb.finish();
        let text = print_module(&m);
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("declare @ext(ptr %p0) -> void readwrite"));
        assert!(text.contains("%2 = add i32 %p0, i32 1"));
        assert!(text.contains("%3 = gep i32, %p1, %2"));
        assert!(text.contains("store %2, %3"));
        assert!(text.contains("call void @ext(%p1)"));
        assert!(text.contains("%4 = icmp slt %2, %p0"));
        assert!(text.contains("%5 = select i32 %4, %2, %p0"));
        assert!(text.contains("ret %5"));
    }

    #[test]
    fn print_globals() {
        let mut m = Module::new("g");
        let arr = m.types.array(m.types.i32(), 3);
        m.add_global(crate::module::GlobalData {
            name: "tab".into(),
            ty: arr,
            init: GlobalInit::Ints {
                elem_ty: m.types.i32(),
                values: vec![1, 2, 3],
            },
            is_const: true,
        });
        let text = print_module(&m);
        assert!(text.contains("const @tab : [3 x i32] = ints i32 [1, 2, 3]"));
    }

    #[test]
    fn print_float_constants_distinctly() {
        let mut m = Module::new("f");
        let d = m.types.double();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![], d);
        fb.block("entry");
        fb.ins(|b| {
            let c = b.fconst(b.types.double(), 2.0);
            let x = b.fadd(c, c);
            b.ret(Some(x));
        });
        fb.finish();
        let text = print_module(&m);
        assert!(text.contains("fadd double double 2.0, double 2.0"));
    }
}
