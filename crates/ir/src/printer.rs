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

use std::fmt::Write as _;

use crate::function::Function;
use crate::inst::{InstExtra, InstId, Opcode};
use crate::module::{GlobalInit, Module};
use crate::parser::{is_bare_label, is_plain_symbol};
use crate::types::{TypeId, TypeKind};
use crate::value::{GlobalId, ValueDef, ValueId};

/// Appends `s` escaped for a double-quoted literal, inverting the lexer's
/// escape decoding.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\0' => out.push_str("\\0"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
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
                self.literals(values);
            }
            GlobalInit::Bytes(bytes) => {
                self.out.push_str("bytes ");
                self.literals(bytes);
            }
        }
    }

    /// Appends `[a, b, ...]`.
    fn literals<T: std::fmt::Display>(&mut self, items: &[T]) {
        self.out.push('[');
        for (i, item) in items.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(self.out, "{sep}{item}");
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
            let _ = write!(self.out, " %p{i}");
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
        let types = &self.module.types;
        self.numbers.clear();
        self.numbers.resize(func.num_values(), UNNUMBERED);
        for (i, &p) in func.params().iter().enumerate() {
            self.numbers[p.index()] = i as u32;
        }
        self.params = func.params().len() as u32;
        let mut next = self.params;
        for b in func.block_ids() {
            for &i in &func.block(b).insts {
                if !matches!(types.kind(func.inst(i).ty), TypeKind::Void) {
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
                let prefix = if n < self.params { "%p" } else { "%" };
                let _ = write!(self.out, "{prefix}{n}");
                true
            }
            _ => false,
        }
    }

    fn operand(&mut self, func: &Function, v: ValueId) {
        match func.value(v) {
            ValueDef::Inst(_) | ValueDef::Param { .. } => {
                if !self.local(v) {
                    let _ = write!(self.out, "%?{}", v.index());
                }
            }
            ValueDef::ConstInt { ty, value } => {
                self.ty(*ty);
                let _ = write!(self.out, " {value}");
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
