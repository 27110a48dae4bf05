//! Function-body parsing for the LLVM importer: instruction grammar,
//! `switch` lowering, and the two-sweep materializer.
//!
//! The materializer mirrors the native parser's order exactly — blocks
//! pre-created, instructions created with empty operand lists in a
//! first sweep (so forward references resolve), constants interned in
//! flat operand order in a second sweep — so a module imported from
//! `emit_llvm` output is structurally identical to one parsed from the
//! native printer's output, value table included.

use std::collections::{HashMap, HashSet};

use rolag_ir::inst::{FloatPredicate, InstData, InstExtra, IntPredicate, Opcode};
use rolag_ir::types::TypeId;
use rolag_ir::{BlockId, Function, InlineList, Module, Operands, ValueId};

use super::lexer::Tok;
use super::{at_type_start, parse_type, Cursor, FnHeader, SkipErr};
use crate::SkipCode;

type Named = HashMap<String, Result<TypeId, SkipErr>>;

#[derive(Debug, Clone)]
pub(crate) enum LOperand {
    Local(String),
    CInt(TypeId, i64),
    CFloat(TypeId, f64),
    CFloatBits(TypeId, u64),
    Ref(String),
    Undef(TypeId),
}

#[derive(Debug, Clone)]
pub(crate) struct LInst {
    line: u32,
    col: u32,
    result: Option<String>,
    opcode: Opcode,
    ty: Option<TypeId>,
    ipred: Option<IntPredicate>,
    fpred: Option<FloatPredicate>,
    elem_ty: Option<TypeId>,
    callee: Option<String>,
    labels: Vec<String>,
    operands: Vec<LOperand>,
}

impl LInst {
    fn new(line: u32, col: u32, result: Option<String>, opcode: Opcode) -> Self {
        LInst {
            line,
            col,
            result,
            opcode,
            ty: None,
            ipred: None,
            fpred: None,
            elem_ty: None,
            callee: None,
            labels: Vec::new(),
            operands: Vec::new(),
        }
    }
}

/// A parsed body instruction: either a directly-representable one or a
/// `switch` awaiting lowering.
enum BInst {
    Plain(LInst),
    Switch {
        line: u32,
        col: u32,
        ty: TypeId,
        val: LOperand,
        default: String,
        cases: Vec<(i64, String)>,
    },
}

/// Fast-math / wrap / precision flags we accept and ignore.
const FLAGS: &[&str] = &[
    "nuw", "nsw", "exact", "fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc",
    "disjoint", "nneg", "samesign", "inbounds", "nusw",
];

/// Parameter/return attributes we accept and ignore at call sites.
const ARG_ATTRS: &[&str] = &[
    "noundef",
    "nonnull",
    "noalias",
    "nocapture",
    "readonly",
    "readnone",
    "writeonly",
    "signext",
    "zeroext",
    "inreg",
    "immarg",
    "returned",
    "dead_on_unwind",
    "writable",
    "captures",
    "dereferenceable",
    "dereferenceable_or_null",
    "align",
    "range",
];

/// Debug/lifetime intrinsics whose calls are dropped (they carry no
/// semantics our IR models).
fn droppable_intrinsic(name: &str) -> bool {
    name.starts_with("llvm.dbg.")
        || name.starts_with("llvm.lifetime.")
        || name.starts_with("llvm.assume")
        || name.starts_with("llvm.experimental.noalias")
}

fn binop_opcode(w: &str) -> Option<Opcode> {
    Some(match w {
        "add" => Opcode::Add,
        "sub" => Opcode::Sub,
        "mul" => Opcode::Mul,
        "sdiv" => Opcode::SDiv,
        "udiv" => Opcode::UDiv,
        "srem" => Opcode::SRem,
        "urem" => Opcode::URem,
        "and" => Opcode::And,
        "or" => Opcode::Or,
        "xor" => Opcode::Xor,
        "shl" => Opcode::Shl,
        "lshr" => Opcode::LShr,
        "ashr" => Opcode::AShr,
        "fadd" => Opcode::FAdd,
        "fsub" => Opcode::FSub,
        "fmul" => Opcode::FMul,
        "fdiv" => Opcode::FDiv,
        _ => return None,
    })
}

fn cast_opcode(w: &str) -> Option<Opcode> {
    Some(match w {
        "trunc" => Opcode::Trunc,
        "zext" => Opcode::ZExt,
        "sext" => Opcode::SExt,
        "bitcast" => Opcode::Bitcast,
        "ptrtoint" => Opcode::PtrToInt,
        "inttoptr" => Opcode::IntToPtr,
        "fptosi" => Opcode::FpToSi,
        "sitofp" => Opcode::SiToFp,
        "fpext" => Opcode::FpExt,
        "fptrunc" => Opcode::FpTrunc,
        _ => return None,
    })
}

fn skip_flags(c: &mut Cursor) {
    while let Tok::Word(w) = c.peek() {
        if FLAGS.contains(&w.as_str()) {
            c.bump();
        } else {
            break;
        }
    }
}

fn parse_ty(c: &mut Cursor, module: &mut Module, named: &Named) -> Result<TypeId, SkipErr> {
    parse_type(c, module, named).map_err(|e| e.into_skip())
}

/// Parses one operand whose expected type is `ty`.
fn parse_operand(c: &mut Cursor, module: &Module, ty: TypeId) -> Result<LOperand, SkipErr> {
    match c.peek().clone() {
        Tok::Local(n) => {
            c.bump();
            Ok(LOperand::Local(n))
        }
        Tok::Global(n) => {
            c.bump();
            Ok(LOperand::Ref(n))
        }
        Tok::Int(v) => {
            c.bump();
            if module.types.is_float(ty) {
                Ok(LOperand::CFloat(ty, v as f64))
            } else {
                Ok(LOperand::CInt(ty, v))
            }
        }
        Tok::Float(v) => {
            c.bump();
            Ok(LOperand::CFloat(ty, v))
        }
        Tok::HexBits(bits) => {
            c.bump();
            if module.types.is_float(ty) {
                Ok(LOperand::CFloatBits(ty, bits))
            } else {
                Ok(LOperand::CInt(ty, bits as i64))
            }
        }
        Tok::BigInt => c.err(
            SkipCode::UnsupportedConstant,
            "integer constant wider than 64 bits",
        ),
        Tok::WideHex => c.err(
            SkipCode::UnsupportedType,
            "extended-precision float constant",
        ),
        Tok::Word(w) => match w.as_str() {
            "undef" | "poison" => {
                c.bump();
                Ok(LOperand::Undef(ty))
            }
            "true" => {
                c.bump();
                Ok(LOperand::CInt(ty, 1))
            }
            "false" => {
                c.bump();
                Ok(LOperand::CInt(ty, 0))
            }
            "null" | "none" => c.err(SkipCode::UnsupportedConstant, "null pointer constant"),
            "zeroinitializer" => c.err(SkipCode::UnsupportedConstant, "aggregate constant operand"),
            "asm" => c.err(SkipCode::InlineAsm, "inline assembly"),
            "blockaddress" => c.err(SkipCode::UnsupportedConstant, "blockaddress constant"),
            other => c.err(
                SkipCode::UnsupportedConstant,
                format!("constant expression or unknown constant '{other}'"),
            ),
        },
        Tok::Lt => c.err(SkipCode::UnsupportedType, "vector constant"),
        Tok::LBracket | Tok::LBrace | Tok::CStr(_) => {
            c.err(SkipCode::UnsupportedConstant, "aggregate constant operand")
        }
        other => c.err(
            SkipCode::MalformedBody,
            format!("expected operand, found {other:?}"),
        ),
    }
}

/// Skips call-site parameter attributes (`noundef`, `align 8`,
/// `dereferenceable(16)` ...).
fn skip_arg_attrs(c: &mut Cursor) -> Result<(), SkipErr> {
    while let Tok::Word(w) = c.peek().clone() {
        if super::SEMANTIC_PARAM_ATTRS.contains(&w.as_str()) {
            return c.err(SkipCode::UnsupportedType, format!("{w} argument"));
        }
        if !ARG_ATTRS.contains(&w.as_str()) {
            break;
        }
        c.bump();
        if matches!(c.peek(), Tok::LParen) {
            while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                c.bump();
            }
            c.bump();
        } else if matches!(c.peek(), Tok::Int(_)) {
            c.bump();
        }
    }
    Ok(())
}

/// Parses one instruction line. Returns `None` for dropped calls
/// (debug/lifetime intrinsics).
fn parse_inst(
    c: &mut Cursor,
    module: &mut Module,
    named: &Named,
) -> Result<Option<BInst>, SkipErr> {
    let (line, col) = (c.line(), c.col());
    let mut result = None;
    if let Tok::Local(n) = c.peek().clone() {
        c.bump();
        c.expect(&Tok::Eq, "'='")?;
        result = Some(n);
    }
    let word = match c.next() {
        Tok::Word(w) => w,
        other => {
            return Err(SkipErr::new(
                SkipCode::MalformedBody,
                format!("expected instruction, found {other:?}"),
                line,
                col,
            ))
        }
    };
    let inst = |opcode| LInst::new(line, col, result.clone(), opcode);
    let out = match word.as_str() {
        w if binop_opcode(w).is_some() => {
            let mut i = inst(binop_opcode(w).unwrap());
            skip_flags(c);
            let ty = parse_ty(c, module, named)?;
            i.ty = Some(ty);
            i.operands.push(parse_operand(c, module, ty)?);
            c.expect(&Tok::Comma, "','")?;
            i.operands.push(parse_operand(c, module, ty)?);
            BInst::Plain(i)
        }
        "fneg" => {
            // fneg x == fsub -0.0, x (including for zeros and NaNs).
            let mut i = inst(Opcode::FSub);
            skip_flags(c);
            let ty = parse_ty(c, module, named)?;
            i.ty = Some(ty);
            i.operands.push(LOperand::CFloat(ty, -0.0));
            i.operands.push(parse_operand(c, module, ty)?);
            BInst::Plain(i)
        }
        "icmp" => {
            let mut i = inst(Opcode::Icmp);
            skip_flags(c);
            let pred = match c.next() {
                Tok::Word(p) => IntPredicate::from_mnemonic(&p).ok_or_else(|| {
                    SkipErr::new(
                        SkipCode::UnsupportedPredicate,
                        format!("icmp predicate '{p}'"),
                        line,
                        col,
                    )
                })?,
                other => {
                    return Err(SkipErr::new(
                        SkipCode::MalformedBody,
                        format!("expected icmp predicate, found {other:?}"),
                        line,
                        col,
                    ))
                }
            };
            i.ipred = Some(pred);
            let ty = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, ty)?);
            c.expect(&Tok::Comma, "','")?;
            i.operands.push(parse_operand(c, module, ty)?);
            BInst::Plain(i)
        }
        "fcmp" => {
            let mut i = inst(Opcode::Fcmp);
            skip_flags(c);
            let pred = match c.next() {
                Tok::Word(p) => FloatPredicate::from_mnemonic(&p).ok_or_else(|| {
                    SkipErr::new(
                        SkipCode::UnsupportedPredicate,
                        format!("fcmp predicate '{p}' (only the ordered subset is modelled)"),
                        line,
                        col,
                    )
                })?,
                other => {
                    return Err(SkipErr::new(
                        SkipCode::MalformedBody,
                        format!("expected fcmp predicate, found {other:?}"),
                        line,
                        col,
                    ))
                }
            };
            i.fpred = Some(pred);
            let ty = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, ty)?);
            c.expect(&Tok::Comma, "','")?;
            i.operands.push(parse_operand(c, module, ty)?);
            BInst::Plain(i)
        }
        "select" => {
            let mut i = inst(Opcode::Select);
            skip_flags(c);
            let cty = parse_ty(c, module, named)?;
            if module.types.int_width(cty) != Some(1) {
                return c.err(SkipCode::UnsupportedType, "non-scalar select condition");
            }
            i.operands.push(parse_operand(c, module, cty)?);
            c.expect(&Tok::Comma, "','")?;
            let ty = parse_ty(c, module, named)?;
            i.ty = Some(ty);
            i.operands.push(parse_operand(c, module, ty)?);
            c.expect(&Tok::Comma, "','")?;
            let _ty2 = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, ty)?);
            BInst::Plain(i)
        }
        w if cast_opcode(w).is_some() => {
            let mut i = inst(cast_opcode(w).unwrap());
            skip_flags(c);
            let src = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, src)?);
            c.expect_word("to")?;
            i.ty = Some(parse_ty(c, module, named)?);
            BInst::Plain(i)
        }
        "fptoui" | "uitofp" | "addrspacecast" => {
            return c.err(SkipCode::UnsupportedOp, format!("{word} cast"))
        }
        "alloca" => {
            let mut i = inst(Opcode::Alloca);
            if matches!(c.peek(), Tok::Word(w) if w == "inalloca") {
                return c.err(SkipCode::UnsupportedOp, "inalloca");
            }
            i.elem_ty = Some(parse_ty(c, module, named)?);
            while matches!(c.peek(), Tok::Comma) {
                c.bump();
                match c.peek().clone() {
                    Tok::Word(w) if w == "align" => {
                        c.bump();
                        c.bump();
                    }
                    Tok::Word(w) if w == "addrspace" => {
                        c.bump();
                        while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                            c.bump();
                        }
                        c.bump();
                    }
                    _ => {
                        let cty = parse_ty(c, module, named)?;
                        let op = parse_operand(c, module, cty)?;
                        i.operands.push(op);
                    }
                }
            }
            BInst::Plain(i)
        }
        "load" => {
            if matches!(c.peek(), Tok::Word(w) if w == "volatile" || w == "atomic") {
                return c.err(SkipCode::Atomics, "volatile or atomic load");
            }
            let mut i = inst(Opcode::Load);
            let ty = parse_ty(c, module, named)?;
            i.ty = Some(ty);
            c.expect(&Tok::Comma, "','")?;
            let pty = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, pty)?);
            BInst::Plain(i)
        }
        "store" => {
            if matches!(c.peek(), Tok::Word(w) if w == "volatile" || w == "atomic") {
                return c.err(SkipCode::Atomics, "volatile or atomic store");
            }
            let mut i = inst(Opcode::Store);
            let vty = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, vty)?);
            c.expect(&Tok::Comma, "','")?;
            let pty = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, pty)?);
            BInst::Plain(i)
        }
        "getelementptr" => {
            let mut i = inst(Opcode::Gep);
            skip_flags(c);
            if matches!(c.peek(), Tok::Word(w) if w == "inrange") {
                c.bump();
                while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                    c.bump();
                }
                c.bump();
            }
            i.elem_ty = Some(parse_ty(c, module, named)?);
            c.expect(&Tok::Comma, "','")?;
            let bty = parse_ty(c, module, named)?;
            i.operands.push(parse_operand(c, module, bty)?);
            while matches!(c.peek(), Tok::Comma) {
                c.bump();
                let ity = parse_ty(c, module, named)?;
                i.operands.push(parse_operand(c, module, ity)?);
            }
            BInst::Plain(i)
        }
        "tail" | "musttail" | "notail" => {
            c.expect_word("call")?;
            return parse_call(c, module, named, line, col, result);
        }
        "call" => return parse_call(c, module, named, line, col, result),
        "phi" => {
            let mut i = inst(Opcode::Phi);
            skip_flags(c);
            let ty = parse_ty(c, module, named)?;
            i.ty = Some(ty);
            loop {
                c.expect(&Tok::LBracket, "'['")?;
                i.operands.push(parse_operand(c, module, ty)?);
                c.expect(&Tok::Comma, "','")?;
                i.labels.push(c.expect_local()?);
                c.expect(&Tok::RBracket, "']'")?;
                if matches!(c.peek(), Tok::Comma) {
                    c.bump();
                } else {
                    break;
                }
            }
            BInst::Plain(i)
        }
        "br" => {
            if matches!(c.peek(), Tok::Word(w) if w == "label") {
                let mut i = inst(Opcode::Br);
                i.labels.push(c.expect_label_ref()?);
                BInst::Plain(i)
            } else {
                let mut i = inst(Opcode::CondBr);
                let cty = parse_ty(c, module, named)?;
                i.operands.push(parse_operand(c, module, cty)?);
                c.expect(&Tok::Comma, "','")?;
                i.labels.push(c.expect_label_ref()?);
                c.expect(&Tok::Comma, "','")?;
                i.labels.push(c.expect_label_ref()?);
                BInst::Plain(i)
            }
        }
        "switch" => {
            let ty = parse_ty(c, module, named)?;
            let val = parse_operand(c, module, ty)?;
            c.expect(&Tok::Comma, "','")?;
            let default = c.expect_label_ref()?;
            c.expect(&Tok::LBracket, "'['")?;
            let mut cases = Vec::new();
            loop {
                c.skip_newlines();
                if matches!(c.peek(), Tok::RBracket) {
                    c.bump();
                    break;
                }
                let _cty = parse_ty(c, module, named)?;
                let value = match c.next() {
                    Tok::Int(v) => v,
                    other => {
                        return Err(SkipErr::new(
                            SkipCode::UnsupportedConstant,
                            format!("switch case constant {other:?}"),
                            line,
                            col,
                        ))
                    }
                };
                c.expect(&Tok::Comma, "','")?;
                cases.push((value, c.expect_label_ref()?));
            }
            BInst::Switch {
                line,
                col,
                ty,
                val,
                default,
                cases,
            }
        }
        "ret" => {
            let mut i = inst(Opcode::Ret);
            if matches!(c.peek(), Tok::Word(w) if w == "void") {
                c.bump();
            } else {
                let ty = parse_ty(c, module, named)?;
                i.operands.push(parse_operand(c, module, ty)?);
            }
            BInst::Plain(i)
        }
        "unreachable" => BInst::Plain(inst(Opcode::Unreachable)),
        "invoke" | "landingpad" | "resume" | "cleanupret" | "catchret" | "catchswitch"
        | "cleanuppad" | "catchpad" => {
            return c.err(SkipCode::ExceptionHandling, format!("{word} instruction"))
        }
        "atomicrmw" | "cmpxchg" | "fence" => {
            return c.err(SkipCode::Atomics, format!("{word} instruction"))
        }
        "indirectbr" => return c.err(SkipCode::IndirectCall, "indirectbr"),
        "va_arg" => return c.err(SkipCode::Varargs, "va_arg"),
        "extractvalue" | "insertvalue" | "extractelement" | "insertelement" | "shufflevector"
        | "freeze" => return c.err(SkipCode::UnsupportedOp, format!("{word} instruction")),
        other => {
            return c.err(
                SkipCode::UnsupportedOp,
                format!("unknown instruction '{other}'"),
            )
        }
    };
    Ok(Some(out))
}

fn parse_call(
    c: &mut Cursor,
    module: &mut Module,
    named: &Named,
    line: u32,
    col: u32,
    result: Option<String>,
) -> Result<Option<BInst>, SkipErr> {
    skip_flags(c);
    // Calling-convention and return-attribute words precede the type.
    while let Tok::Word(w) = c.peek().clone() {
        if at_type_start(c.peek()) {
            break;
        }
        c.bump();
        if matches!(c.peek(), Tok::LParen) && w != "asm" {
            while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                c.bump();
            }
            c.bump();
        } else if matches!(c.peek(), Tok::Int(_)) {
            c.bump();
        }
        if w == "asm" {
            return c.err(SkipCode::InlineAsm, "inline assembly call");
        }
    }
    let ret_ty = parse_ty(c, module, named)?;
    // A parenthesised function type after the return type means a
    // varargs or function-pointer-typed call.
    if matches!(c.peek(), Tok::LParen) {
        let mut depth = 0usize;
        let mut varargs = false;
        loop {
            match c.next() {
                Tok::LParen => depth += 1,
                Tok::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ellipsis => varargs = true,
                Tok::Newline | Tok::Eof => break,
                _ => {}
            }
        }
        if varargs {
            return Err(SkipErr::new(SkipCode::Varargs, "variadic call", line, col));
        }
    }
    let callee = match c.next() {
        Tok::Global(n) => n,
        Tok::Local(_) => {
            return Err(SkipErr::new(
                SkipCode::IndirectCall,
                "call through a function pointer",
                line,
                col,
            ))
        }
        Tok::Word(w) if w == "asm" => {
            return Err(SkipErr::new(
                SkipCode::InlineAsm,
                "inline assembly call",
                line,
                col,
            ))
        }
        other => {
            return Err(SkipErr::new(
                SkipCode::MalformedBody,
                format!("expected callee, found {other:?}"),
                line,
                col,
            ))
        }
    };
    if droppable_intrinsic(&callee) {
        // Consume the argument list and drop the call.
        c.expect(&Tok::LParen, "'('")?;
        let mut depth = 1usize;
        while depth > 0 {
            match c.next() {
                Tok::LParen => depth += 1,
                Tok::RParen => depth -= 1,
                Tok::Newline | Tok::Eof => break,
                _ => {}
            }
        }
        return Ok(None);
    }
    if callee.starts_with("llvm.") {
        return Err(SkipErr::new(
            SkipCode::UnsupportedOp,
            format!("intrinsic @{callee}"),
            line,
            col,
        ));
    }
    let mut i = LInst::new(line, col, result, Opcode::Call);
    i.ty = Some(ret_ty);
    i.callee = Some(callee);
    c.expect(&Tok::LParen, "'('")?;
    if !matches!(c.peek(), Tok::RParen) {
        loop {
            if matches!(c.peek(), Tok::Word(w) if w == "metadata") {
                return c.err(SkipCode::UnsupportedOp, "metadata call argument");
            }
            let ty = parse_ty(c, module, named)?;
            skip_arg_attrs(c)?;
            i.operands.push(parse_operand(c, module, ty)?);
            if matches!(c.peek(), Tok::Comma) {
                c.bump();
            } else {
                break;
            }
        }
    }
    c.expect(&Tok::RParen, "')'")?;
    Ok(Some(BInst::Plain(i)))
}

/// Parses a function body into labelled blocks of instructions.
fn parse_body(
    c: &mut Cursor,
    module: &mut Module,
    named: &Named,
    header: &FnHeader,
) -> Result<Vec<(String, Vec<BInst>)>, SkipErr> {
    let mut blocks: Vec<(String, Vec<BInst>)> = Vec::new();
    let mut unnamed_next = header.unnamed_next;
    c.skip_newlines();
    loop {
        if matches!(c.peek(), Tok::Eof) {
            break;
        }
        // Block label: `name:`, `N:`, `"quoted":` — or implicit for the
        // entry block, which takes the next unnamed number.
        let label = match (c.peek().clone(), c.peek2().clone()) {
            (Tok::Word(w), Tok::Colon) => {
                c.bump();
                c.bump();
                w
            }
            (Tok::Int(v), Tok::Colon) if v >= 0 => {
                c.bump();
                c.bump();
                v.to_string()
            }
            (Tok::Str(s), Tok::Colon) => {
                c.bump();
                c.bump();
                String::from_utf8_lossy(&s).into_owned()
            }
            _ => {
                if blocks.is_empty() {
                    let n = unnamed_next.to_string();
                    unnamed_next += 1;
                    n
                } else {
                    return c.err(SkipCode::MalformedBody, "expected block label");
                }
            }
        };
        c.skip_newlines();
        let mut insts = Vec::new();
        loop {
            if matches!(c.peek(), Tok::Eof) {
                break;
            }
            // A label line ends the block.
            if matches!(
                (c.peek(), c.peek2()),
                (Tok::Word(_), Tok::Colon) | (Tok::Int(_), Tok::Colon) | (Tok::Str(_), Tok::Colon)
            ) {
                break;
            }
            if let Some(inst) = parse_inst(c, module, named)? {
                insts.push(inst);
            }
            // Trailing metadata / alignment / attribute tokens.
            c.skip_line();
            c.skip_newlines();
        }
        blocks.push((label, insts));
    }
    if blocks.is_empty() {
        return c.err(SkipCode::MalformedBody, "function body has no blocks");
    }
    Ok(blocks)
}

/// Lowers `switch` terminators into `icmp eq` + `condbr` chains,
/// retargeting phi incomings in successor blocks from the switch's
/// block to the chain block that actually jumps there.
fn lower_switches(blocks: Vec<(String, Vec<BInst>)>) -> Result<Vec<(String, Vec<LInst>)>, SkipErr> {
    let mut label_set: HashSet<String> = blocks.iter().map(|(l, _)| l.clone()).collect();
    let mut name_set: HashSet<String> = HashSet::new();
    for (_, insts) in &blocks {
        for inst in insts {
            if let BInst::Plain(i) = inst {
                if let Some(r) = &i.result {
                    name_set.insert(r.clone());
                }
            }
        }
    }
    let fresh = |set: &mut HashSet<String>, prefix: &str| -> String {
        let mut n = 0usize;
        loop {
            let cand = format!("{prefix}{n}");
            if set.insert(cand.clone()) {
                return cand;
            }
            n += 1;
        }
    };

    // (original block, value, target → jumping chain blocks) collected
    // while rewriting, applied to phis afterwards.
    let mut retargets: Vec<(String, HashMap<String, Vec<String>>)> = Vec::new();
    let mut out: Vec<(String, Vec<LInst>)> = Vec::new();
    for (label, insts) in blocks {
        let mut plain: Vec<LInst> = Vec::new();
        let mut switch = None;
        let n = insts.len();
        for (idx, inst) in insts.into_iter().enumerate() {
            match inst {
                BInst::Plain(i) => plain.push(i),
                BInst::Switch {
                    line,
                    col,
                    ty,
                    val,
                    default,
                    cases,
                } => {
                    if idx + 1 != n {
                        return Err(SkipErr::new(
                            SkipCode::MalformedBody,
                            "switch is not the block terminator",
                            line,
                            col,
                        ));
                    }
                    switch = Some((line, col, ty, val, default, cases));
                }
            }
        }
        let Some((line, col, ty, val, default, cases)) = switch else {
            out.push((label, plain));
            continue;
        };
        if cases.is_empty() {
            let mut br = LInst::new(line, col, None, Opcode::Br);
            br.labels.push(default.clone());
            plain.push(br);
            let mut map = HashMap::new();
            map.insert(default, vec![label.clone()]);
            retargets.push((label.clone(), map));
            out.push((label, plain));
            continue;
        }
        // Chain blocks: compare k lives in `label` for k == 0, else in
        // chain block k; the last compare's else edge goes to default.
        let mut chain_names = vec![label.clone()];
        for _ in 1..cases.len() {
            chain_names.push(fresh(&mut label_set, &format!("{label}.sw")));
        }
        let mut edges: HashMap<String, Vec<String>> = HashMap::new();
        let mut pending: Vec<(String, Vec<LInst>)> = Vec::new();
        for (k, (case_val, case_target)) in cases.iter().enumerate() {
            let cmp_name = fresh(&mut name_set, &format!("{label}.swcmp"));
            let mut cmp = LInst::new(line, col, Some(cmp_name.clone()), Opcode::Icmp);
            cmp.ipred = Some(IntPredicate::Eq);
            cmp.operands.push(val.clone());
            cmp.operands.push(LOperand::CInt(ty, *case_val));
            let mut br = LInst::new(line, col, None, Opcode::CondBr);
            br.operands.push(LOperand::Local(cmp_name));
            br.labels.push(case_target.clone());
            let next = if k + 1 < cases.len() {
                chain_names[k + 1].clone()
            } else {
                default.clone()
            };
            br.labels.push(next);
            edges
                .entry(case_target.clone())
                .or_default()
                .push(chain_names[k].clone());
            if k == 0 {
                plain.push(cmp);
                plain.push(br);
            } else {
                pending.push((chain_names[k].clone(), vec![cmp, br]));
            }
        }
        edges
            .entry(default)
            .or_default()
            .push(chain_names[cases.len() - 1].clone());
        retargets.push((label.clone(), edges));
        out.push((label, plain));
        out.extend(pending);
    }

    // Retarget phis: an incoming entry from the switch's block expands
    // to one entry per chain block that jumps to this target.
    for (orig, edges) in retargets {
        for (target, preds) in edges {
            let Some((_, insts)) = out.iter_mut().find(|(l, _)| *l == target) else {
                continue; // unknown label: reported during build
            };
            for inst in insts.iter_mut() {
                if inst.opcode != Opcode::Phi {
                    continue;
                }
                let mut ops = Vec::new();
                let mut labels = Vec::new();
                for (op, lab) in inst.operands.iter().zip(&inst.labels) {
                    if *lab == orig {
                        for p in &preds {
                            ops.push(op.clone());
                            labels.push(p.clone());
                        }
                    } else {
                        ops.push(op.clone());
                        labels.push(lab.clone());
                    }
                }
                inst.operands = ops;
                inst.labels = labels;
            }
        }
    }
    Ok(out)
}

/// Materializes a function from parsed blocks, mirroring the native
/// parser's two-sweep order exactly.
fn build(
    module: &mut Module,
    header: &FnHeader,
    blocks: &[(String, Vec<LInst>)],
) -> Result<Function, SkipErr> {
    let mut func = Function::new(header.name.clone(), header.param_tys.clone(), header.ret_ty);
    let mut locals: HashMap<String, ValueId> = HashMap::new();
    for (i, pname) in header.param_names.iter().enumerate() {
        locals.insert(pname.clone(), func.param(i));
    }
    let mut block_map: HashMap<String, BlockId> = HashMap::new();
    for (label, _) in blocks {
        if block_map.contains_key(label) {
            return Err(SkipErr::new(
                SkipCode::MalformedBody,
                format!("duplicate block label {label}"),
                header.line,
                header.col,
            ));
        }
        let b = func.add_block(label.clone());
        block_map.insert(label.clone(), b);
    }
    let lookup_block = |name: &str, line: u32, col: u32| -> Result<BlockId, SkipErr> {
        block_map.get(name).copied().ok_or_else(|| {
            SkipErr::new(
                SkipCode::MalformedBody,
                format!("unknown block label {name}"),
                line,
                col,
            )
        })
    };

    // First sweep: create instructions with empty operand lists so that
    // forward value references (e.g. phis) resolve.
    let mut created: Vec<rolag_ir::InstId> = Vec::new();
    let mut flat: Vec<&LInst> = Vec::new();
    for (label, insts) in blocks {
        let bb = block_map[label];
        for inst in insts {
            let extra = match inst.opcode {
                Opcode::Icmp => InstExtra::Icmp(inst.ipred.unwrap()),
                Opcode::Fcmp => InstExtra::Fcmp(inst.fpred.unwrap()),
                Opcode::Gep => InstExtra::Gep {
                    elem_ty: inst.elem_ty.unwrap(),
                },
                Opcode::Alloca => InstExtra::Alloca {
                    elem_ty: inst.elem_ty.unwrap(),
                },
                Opcode::Call => {
                    let callee_name = inst.callee.as_ref().unwrap();
                    let callee = module.func_by_name(callee_name).ok_or_else(|| {
                        SkipErr::new(
                            SkipCode::UnknownReference,
                            format!("unknown or skipped callee @{callee_name}"),
                            inst.line,
                            inst.col,
                        )
                    })?;
                    InstExtra::Call { callee }
                }
                Opcode::Phi => {
                    let mut incoming = InlineList::with_capacity(inst.labels.len());
                    for l in &inst.labels {
                        incoming.push(lookup_block(l, inst.line, inst.col)?);
                    }
                    InstExtra::Phi { incoming }
                }
                Opcode::Br => InstExtra::Br {
                    dest: lookup_block(&inst.labels[0], inst.line, inst.col)?,
                },
                Opcode::CondBr => InstExtra::CondBr {
                    then_dest: lookup_block(&inst.labels[0], inst.line, inst.col)?,
                    else_dest: lookup_block(&inst.labels[1], inst.line, inst.col)?,
                },
                _ => InstExtra::None,
            };
            let ty = match inst.opcode {
                Opcode::Icmp | Opcode::Fcmp => module.types.i1(),
                Opcode::Gep | Opcode::Alloca => module.types.ptr(),
                Opcode::Store | Opcode::Br | Opcode::CondBr | Opcode::Ret | Opcode::Unreachable => {
                    module.types.void()
                }
                _ => inst.ty.ok_or_else(|| {
                    SkipErr::new(
                        SkipCode::MalformedBody,
                        "missing result type",
                        inst.line,
                        inst.col,
                    )
                })?,
            };
            let (id, value) = func.create_inst(InstData {
                opcode: inst.opcode,
                ty,
                operands: Operands::new(),
                block: bb,
                extra,
            });
            func.append_inst(bb, id);
            if let Some(name) = &inst.result {
                if locals.insert(name.clone(), value).is_some() {
                    return Err(SkipErr::new(
                        SkipCode::MalformedBody,
                        format!("value %{name} defined twice"),
                        inst.line,
                        inst.col,
                    ));
                }
            }
            created.push(id);
            flat.push(inst);
        }
    }

    // Second sweep: resolve operands, interning constants in flat
    // operand order (value-table order matches the native parser's).
    for (id, inst) in created.into_iter().zip(&flat) {
        let mut operands = Operands::with_capacity(inst.operands.len());
        for op in &inst.operands {
            let v = match op {
                LOperand::Local(name) => *locals.get(name).ok_or_else(|| {
                    SkipErr::new(
                        SkipCode::UnknownReference,
                        format!("unknown value %{name}"),
                        inst.line,
                        inst.col,
                    )
                })?,
                LOperand::CInt(ty, v) => func.const_int(*ty, *v),
                LOperand::CFloat(ty, v) => func.const_float(*ty, *v),
                LOperand::CFloatBits(ty, bits) => func.const_float_bits(*ty, *bits),
                LOperand::Ref(name) => {
                    if let Some(g) = module.global_by_name(name) {
                        func.global_addr(g)
                    } else if let Some(f) = module.func_by_name(name) {
                        func.func_addr(f)
                    } else {
                        return Err(SkipErr::new(
                            SkipCode::UnknownReference,
                            format!("unknown or skipped reference @{name}"),
                            inst.line,
                            inst.col,
                        ));
                    }
                }
                LOperand::Undef(ty) => func.undef(*ty),
            };
            operands.push(v);
        }
        func.inst_mut(id).operands = operands;
    }
    Ok(func)
}

/// Parses a body range and materializes the function.
pub(crate) fn parse_and_build(
    c: &mut Cursor,
    module: &mut Module,
    named: &Named,
    header: &FnHeader,
) -> Result<Function, SkipErr> {
    let blocks = parse_body(c, module, named, header)?;
    let blocks = lower_switches(blocks)?;
    build(module, header, &blocks)
}
