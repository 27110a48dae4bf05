//! Compact binary module serialization.
//!
//! The format is an arena dump: the type store, the globals, and every
//! function's value/instruction/block arenas verbatim, so a decoded module
//! is slot-for-slot identical to the encoded one — `print_module(decode(
//! encode(m)))` equals `print_module(m)` byte-for-byte (ids are arena
//! indices and the printer walks arenas in order). Derived structures
//! (constant-interning maps, per-instruction result values, name lookup
//! maps) are rebuilt on decode rather than stored.
//!
//! Layout: after a fixed 6-byte header, every integer is an unsigned
//! LEB128 varint (signed constants zigzag-mapped first) and strings are
//! length-prefixed UTF-8 — arena ids and counts are almost always small,
//! which is what makes the format compact:
//!
//! ```text
//! magic   "RLIR"            4 bytes
//! version u16               little-endian, currently 1
//! types   count, then tagged [`TypeKind`] records in slot order
//! name    str               module name
//! globals count, then (name, ty, is_const, tagged init) records
//! funcs   count, then per function:
//!         name, param types, ret type, is_declaration, effects,
//!         values  (tagged [`ValueDef`] records),
//!         insts   (opcode, ty, operands, block, tagged extra),
//!         live    (bit-packed),
//!         blocks  (name, instruction list),
//!         params  (value ids)
//! ```
//!
//! Decoding is fuzz-safe: every read is bounds-checked against the buffer,
//! element counts are validated against the bytes that remain (a hostile
//! count cannot force a huge allocation), and every cross-arena id is
//! range-checked before the module is assembled. Corrupted input yields a
//! [`DecodeError`], never a panic.

use crate::block::{BlockData, BlockId};
use crate::function::{Effects, Function};
use crate::inst::{FloatPredicate, InstData, InstExtra, InstId, IntPredicate, Opcode};
use crate::module::{GlobalData, GlobalInit, Module};
use crate::parser::MAX_TYPE_DEPTH;
use crate::types::{TypeId, TypeKind, TypeStore};
use crate::value::{FuncId, GlobalId, ValueDef, ValueId};

/// File magic, `b"RLIR"`.
pub const MAGIC: [u8; 4] = *b"RLIR";
/// Current format version.
pub const VERSION: u16 = 1;

/// The [`DecodeError::Malformed`] detail of a type nested deeper than
/// [`MAX_TYPE_DEPTH`] levels.
const TOO_DEEP: &str = "type nesting deeper than 256 levels";
const _: () = assert!(MAX_TYPE_DEPTH == 256, "TOO_DEEP names the cap");

/// Why a byte buffer failed to decode as a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The version field is newer than [`VERSION`].
    UnsupportedVersion(u16),
    /// The buffer ended inside a record.
    Truncated,
    /// A tag byte has no corresponding variant.
    BadTag(&'static str, u8),
    /// A string is not valid UTF-8.
    BadString,
    /// An id points outside its arena.
    IdOutOfRange(&'static str),
    /// A structural invariant failed (duplicate or missing instruction
    /// result, liveness length mismatch, type-store prelude mismatch).
    Malformed(&'static str),
    /// Trailing bytes after the module.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a RLIR file (bad magic)"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported RLIR version {v}"),
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::BadTag(what, t) => write!(f, "invalid {what} tag {t}"),
            DecodeError::BadString => write!(f, "invalid UTF-8 string"),
            DecodeError::IdOutOfRange(what) => write!(f, "{what} id out of range"),
            DecodeError::Malformed(what) => write!(f, "malformed module: {what}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after module"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Opcodes in declaration order; the wire tag is the index. A unit test
/// pins the table against `opcode as u8`.
const OPCODES: [Opcode; 40] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::SDiv,
    Opcode::UDiv,
    Opcode::SRem,
    Opcode::URem,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::LShr,
    Opcode::AShr,
    Opcode::FAdd,
    Opcode::FSub,
    Opcode::FMul,
    Opcode::FDiv,
    Opcode::Icmp,
    Opcode::Fcmp,
    Opcode::Select,
    Opcode::Trunc,
    Opcode::ZExt,
    Opcode::SExt,
    Opcode::Bitcast,
    Opcode::PtrToInt,
    Opcode::IntToPtr,
    Opcode::FpToSi,
    Opcode::SiToFp,
    Opcode::FpExt,
    Opcode::FpTrunc,
    Opcode::Alloca,
    Opcode::Load,
    Opcode::Store,
    Opcode::Gep,
    Opcode::Call,
    Opcode::Phi,
    Opcode::Br,
    Opcode::CondBr,
    Opcode::Ret,
    Opcode::Unreachable,
];

const INT_PREDS: [IntPredicate; 10] = [
    IntPredicate::Eq,
    IntPredicate::Ne,
    IntPredicate::Slt,
    IntPredicate::Sle,
    IntPredicate::Sgt,
    IntPredicate::Sge,
    IntPredicate::Ult,
    IntPredicate::Ule,
    IntPredicate::Ugt,
    IntPredicate::Uge,
];

const FLOAT_PREDS: [FloatPredicate; 6] = [
    FloatPredicate::Oeq,
    FloatPredicate::One,
    FloatPredicate::Olt,
    FloatPredicate::Ole,
    FloatPredicate::Ogt,
    FloatPredicate::Oge,
];

// ---- encoding --------------------------------------------------------------

struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    /// Unsigned LEB128 — ids, counts, and magnitudes are almost always
    /// small, so variable-length integers are what makes the format
    /// compact (fixed 4-byte ids made the binary *larger* than the text).
    fn vu(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(b);
                return;
            }
            self.out.push(b | 0x80);
        }
    }
    fn u16(&mut self, v: u16) {
        self.vu(v as u64);
    }
    fn u32(&mut self, v: u32) {
        self.vu(v as u64);
    }
    fn u64(&mut self, v: u64) {
        self.vu(v);
    }
    /// Zigzag-mapped LEB128, so small negative constants stay short.
    fn i64(&mut self, v: i64) {
        self.vu(((v << 1) ^ (v >> 63)) as u64);
    }
    fn len(&mut self, v: usize) {
        self.vu(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }
}

fn encode_type(e: &mut Encoder, kind: &TypeKind) {
    match kind {
        TypeKind::Void => e.u8(0),
        TypeKind::Int(bits) => {
            e.u8(1);
            e.u16(*bits);
        }
        TypeKind::Float => e.u8(2),
        TypeKind::Double => e.u8(3),
        TypeKind::Ptr => e.u8(4),
        TypeKind::Array { elem, len } => {
            e.u8(5);
            e.u32(elem.index() as u32);
            e.u64(*len);
        }
        TypeKind::Struct { fields } => {
            e.u8(6);
            e.len(fields.len());
            for f in fields {
                e.u32(f.index() as u32);
            }
        }
        TypeKind::Func { ret, params } => {
            e.u8(7);
            e.u32(ret.index() as u32);
            e.len(params.len());
            for p in params {
                e.u32(p.index() as u32);
            }
        }
    }
}

fn encode_global(e: &mut Encoder, g: &GlobalData) {
    e.str(&g.name);
    e.u32(g.ty.index() as u32);
    e.u8(g.is_const as u8);
    match &g.init {
        GlobalInit::Zero => e.u8(0),
        GlobalInit::Ints { elem_ty, values } => {
            e.u8(1);
            e.u32(elem_ty.index() as u32);
            e.len(values.len());
            for &v in values {
                e.i64(v);
            }
        }
        GlobalInit::Bytes(bytes) => {
            e.u8(2);
            e.len(bytes.len());
            e.out.extend_from_slice(bytes);
        }
    }
}

fn encode_value(e: &mut Encoder, def: &ValueDef) {
    match def {
        ValueDef::Inst(i) => {
            e.u8(0);
            e.u32(i.index() as u32);
        }
        ValueDef::Param { index, ty } => {
            e.u8(1);
            e.u32(*index);
            e.u32(ty.index() as u32);
        }
        ValueDef::ConstInt { ty, value } => {
            e.u8(2);
            e.u32(ty.index() as u32);
            e.i64(*value);
        }
        ValueDef::ConstFloat { ty, bits } => {
            e.u8(3);
            e.u32(ty.index() as u32);
            e.u64(*bits);
        }
        ValueDef::GlobalAddr(g) => {
            e.u8(4);
            e.u32(g.index() as u32);
        }
        ValueDef::FuncAddr(f) => {
            e.u8(5);
            e.u32(f.index() as u32);
        }
        ValueDef::Undef(ty) => {
            e.u8(6);
            e.u32(ty.index() as u32);
        }
    }
}

fn encode_inst(e: &mut Encoder, inst: &InstData) {
    e.u8(inst.opcode as u8);
    e.u32(inst.ty.index() as u32);
    e.len(inst.operands.len());
    for op in &inst.operands {
        e.u32(op.index() as u32);
    }
    e.u32(inst.block.index() as u32);
    match &inst.extra {
        InstExtra::None => e.u8(0),
        InstExtra::Icmp(p) => {
            e.u8(1);
            e.u8(*p as u8);
        }
        InstExtra::Fcmp(p) => {
            e.u8(2);
            e.u8(*p as u8);
        }
        InstExtra::Gep { elem_ty } => {
            e.u8(3);
            e.u32(elem_ty.index() as u32);
        }
        InstExtra::Call { callee } => {
            e.u8(4);
            e.u32(callee.index() as u32);
        }
        InstExtra::Phi { incoming } => {
            e.u8(5);
            e.len(incoming.len());
            for b in incoming {
                e.u32(b.index() as u32);
            }
        }
        InstExtra::Br { dest } => {
            e.u8(6);
            e.u32(dest.index() as u32);
        }
        InstExtra::CondBr {
            then_dest,
            else_dest,
        } => {
            e.u8(7);
            e.u32(then_dest.index() as u32);
            e.u32(else_dest.index() as u32);
        }
        InstExtra::Alloca { elem_ty } => {
            e.u8(8);
            e.u32(elem_ty.index() as u32);
        }
    }
}

fn encode_function(e: &mut Encoder, f: &Function) {
    e.str(&f.name);
    e.len(f.param_tys().len());
    for ty in f.param_tys() {
        e.u32(ty.index() as u32);
    }
    e.u32(f.ret_ty.index() as u32);
    e.u8(f.is_declaration as u8);
    e.u8(match f.effects {
        Effects::ReadNone => 0,
        Effects::ReadOnly => 1,
        Effects::ReadWrite => 2,
    });
    let values = f.raw_values();
    e.len(values.len());
    for def in values {
        encode_value(e, def);
    }
    let insts = f.raw_insts();
    e.len(insts.len());
    for inst in insts {
        encode_inst(e, inst);
    }
    // Liveness, bit-packed (length implied by the instruction count).
    let live = f.raw_live();
    let mut byte = 0u8;
    for (i, &l) in live.iter().enumerate() {
        if l {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            e.u8(byte);
            byte = 0;
        }
    }
    if !live.len().is_multiple_of(8) {
        e.u8(byte);
    }
    let blocks = f.raw_blocks();
    e.len(blocks.len());
    for b in blocks {
        e.str(&b.name);
        e.len(b.insts.len());
        for i in &b.insts {
            e.u32(i.index() as u32);
        }
    }
    e.len(f.params().len());
    for p in f.params() {
        e.u32(p.index() as u32);
    }
}

/// Encodes `module` into the compact binary format.
pub fn encode_module(module: &Module) -> Vec<u8> {
    let mut e = Encoder { out: Vec::new() };
    e.out.extend_from_slice(&MAGIC);
    // The version is fixed-width (not a varint) so the 6-byte header is
    // stable across versions.
    e.out.extend_from_slice(&VERSION.to_le_bytes());
    e.len(module.types.num_types());
    for i in 0..module.types.num_types() {
        encode_type(&mut e, module.types.kind(TypeId(i as u32)));
    }
    e.str(&module.name);
    e.len(module.num_globals());
    for g in module.global_ids() {
        encode_global(&mut e, module.global(g));
    }
    e.len(module.num_funcs());
    for id in module.func_ids() {
        encode_function(&mut e, module.func(id));
    }
    e.out
}

// ---- decoding --------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    /// The fixed-width version field; everything after the header is a
    /// varint.
    fn fixed_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Unsigned LEB128, capped at 10 bytes / 64 bits.
    fn vu(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::Malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::Malformed("varint overflow"));
            }
        }
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        u16::try_from(self.vu()?).map_err(|_| DecodeError::Malformed("u16 overflow"))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.vu()?).map_err(|_| DecodeError::Malformed("u32 overflow"))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.vu()
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        let z = self.vu()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
    /// An element count, validated against the bytes that remain: every
    /// element occupies at least `min_elem_bytes`, so a count larger than
    /// the remainder allows is corrupt — rejecting it here means a hostile
    /// count can never force a huge allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadString)
    }
}

fn type_id(c: &mut Cursor<'_>, num_types: usize) -> Result<TypeId, DecodeError> {
    let i = c.u32()? as usize;
    if i >= num_types {
        return Err(DecodeError::IdOutOfRange("type"));
    }
    Ok(TypeId(i as u32))
}

fn decode_type(c: &mut Cursor<'_>, defined_so_far: usize) -> Result<TypeKind, DecodeError> {
    // Aggregate types may only reference earlier slots (the store interns
    // components before aggregates), which also rules out cycles.
    Ok(match c.u8()? {
        0 => TypeKind::Void,
        1 => TypeKind::Int(c.u16()?),
        2 => TypeKind::Float,
        3 => TypeKind::Double,
        4 => TypeKind::Ptr,
        5 => TypeKind::Array {
            elem: type_id(c, defined_so_far)?,
            len: c.u64()?,
        },
        6 => {
            let n = c.count(1)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(type_id(c, defined_so_far)?);
            }
            TypeKind::Struct { fields }
        }
        7 => {
            let ret = type_id(c, defined_so_far)?;
            let n = c.count(1)?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(type_id(c, defined_so_far)?);
            }
            TypeKind::Func { ret, params }
        }
        t => return Err(DecodeError::BadTag("type", t)),
    })
}

struct Limits {
    num_types: usize,
    num_globals: usize,
    num_funcs: usize,
}

fn decode_global(c: &mut Cursor<'_>, lim: &Limits) -> Result<GlobalData, DecodeError> {
    let name = c.str()?;
    let ty = type_id(c, lim.num_types)?;
    let is_const = match c.u8()? {
        0 => false,
        1 => true,
        t => return Err(DecodeError::BadTag("bool", t)),
    };
    let init = match c.u8()? {
        0 => GlobalInit::Zero,
        1 => {
            let elem_ty = type_id(c, lim.num_types)?;
            let n = c.count(1)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.i64()?);
            }
            GlobalInit::Ints { elem_ty, values }
        }
        2 => {
            let n = c.count(1)?;
            GlobalInit::Bytes(c.take(n)?.to_vec())
        }
        t => return Err(DecodeError::BadTag("global init", t)),
    };
    Ok(GlobalData {
        name,
        ty,
        init,
        is_const,
    })
}

fn decode_value(
    c: &mut Cursor<'_>,
    lim: &Limits,
    num_insts: usize,
) -> Result<ValueDef, DecodeError> {
    Ok(match c.u8()? {
        0 => {
            let i = c.u32()? as usize;
            if i >= num_insts {
                return Err(DecodeError::IdOutOfRange("instruction"));
            }
            ValueDef::Inst(InstId(i as u32))
        }
        1 => ValueDef::Param {
            index: c.u32()?,
            ty: type_id(c, lim.num_types)?,
        },
        2 => ValueDef::ConstInt {
            ty: type_id(c, lim.num_types)?,
            value: c.i64()?,
        },
        3 => ValueDef::ConstFloat {
            ty: type_id(c, lim.num_types)?,
            bits: c.u64()?,
        },
        4 => {
            let g = c.u32()? as usize;
            if g >= lim.num_globals {
                return Err(DecodeError::IdOutOfRange("global"));
            }
            ValueDef::GlobalAddr(GlobalId(g as u32))
        }
        5 => {
            let f = c.u32()? as usize;
            if f >= lim.num_funcs {
                return Err(DecodeError::IdOutOfRange("function"));
            }
            ValueDef::FuncAddr(FuncId(f as u32))
        }
        6 => ValueDef::Undef(type_id(c, lim.num_types)?),
        t => return Err(DecodeError::BadTag("value", t)),
    })
}

fn block_id(c: &mut Cursor<'_>, num_blocks: usize) -> Result<BlockId, DecodeError> {
    let b = c.u32()? as usize;
    if b >= num_blocks {
        return Err(DecodeError::IdOutOfRange("block"));
    }
    Ok(BlockId(b as u32))
}

fn decode_inst(
    c: &mut Cursor<'_>,
    lim: &Limits,
    num_values: usize,
    num_blocks: usize,
) -> Result<InstData, DecodeError> {
    let op = c.u8()?;
    let opcode = *OPCODES
        .get(op as usize)
        .ok_or(DecodeError::BadTag("opcode", op))?;
    let ty = type_id(c, lim.num_types)?;
    let n = c.count(1)?;
    let mut operands = Vec::with_capacity(n);
    for _ in 0..n {
        let v = c.u32()? as usize;
        if v >= num_values {
            return Err(DecodeError::IdOutOfRange("value"));
        }
        operands.push(ValueId(v as u32));
    }
    let block = block_id(c, num_blocks)?;
    let extra = match c.u8()? {
        0 => InstExtra::None,
        1 => {
            let p = c.u8()?;
            InstExtra::Icmp(
                *INT_PREDS
                    .get(p as usize)
                    .ok_or(DecodeError::BadTag("int predicate", p))?,
            )
        }
        2 => {
            let p = c.u8()?;
            InstExtra::Fcmp(
                *FLOAT_PREDS
                    .get(p as usize)
                    .ok_or(DecodeError::BadTag("float predicate", p))?,
            )
        }
        3 => InstExtra::Gep {
            elem_ty: type_id(c, lim.num_types)?,
        },
        4 => {
            let f = c.u32()? as usize;
            if f >= lim.num_funcs {
                return Err(DecodeError::IdOutOfRange("function"));
            }
            InstExtra::Call {
                callee: FuncId(f as u32),
            }
        }
        5 => {
            let n = c.count(1)?;
            let mut incoming = Vec::with_capacity(n);
            for _ in 0..n {
                incoming.push(block_id(c, num_blocks)?);
            }
            InstExtra::Phi { incoming }
        }
        6 => InstExtra::Br {
            dest: block_id(c, num_blocks)?,
        },
        7 => InstExtra::CondBr {
            then_dest: block_id(c, num_blocks)?,
            else_dest: block_id(c, num_blocks)?,
        },
        8 => InstExtra::Alloca {
            elem_ty: type_id(c, lim.num_types)?,
        },
        t => return Err(DecodeError::BadTag("inst extra", t)),
    };
    Ok(InstData {
        opcode,
        ty,
        operands,
        block,
        extra,
    })
}

fn decode_function(c: &mut Cursor<'_>, lim: &Limits) -> Result<Function, DecodeError> {
    let name = c.str()?;
    let n = c.count(1)?;
    let mut param_tys = Vec::with_capacity(n);
    for _ in 0..n {
        param_tys.push(type_id(c, lim.num_types)?);
    }
    let ret_ty = type_id(c, lim.num_types)?;
    let is_declaration = match c.u8()? {
        0 => false,
        1 => true,
        t => return Err(DecodeError::BadTag("bool", t)),
    };
    let effects = match c.u8()? {
        0 => Effects::ReadNone,
        1 => Effects::ReadOnly,
        2 => Effects::ReadWrite,
        t => return Err(DecodeError::BadTag("effects", t)),
    };

    // Values reference instruction ids and instructions reference block
    // ids, but each arena's size only becomes known when its section is
    // reached. Forward references are decoded with a permissive bound and
    // re-checked once the referenced arena's size is read.
    let num_values = c.count(2)?;
    let mut values = Vec::with_capacity(num_values.min(1 << 20));
    for _ in 0..num_values {
        values.push(decode_value(c, lim, u32::MAX as usize)?);
    }
    let num_insts = c.count(5)?;
    // Re-check instruction references now that the arena size is known.
    for def in &values {
        if let ValueDef::Inst(i) = def {
            if i.index() >= num_insts {
                return Err(DecodeError::IdOutOfRange("instruction"));
            }
        }
    }
    // Blocks are decoded after instructions; their count is unknown here.
    // Instructions are decoded with a permissive block bound and re-checked
    // below once the block arena is read.
    let mut insts = Vec::with_capacity(num_insts.min(1 << 20));
    for _ in 0..num_insts {
        insts.push(decode_inst(c, lim, num_values, u32::MAX as usize)?);
    }
    let live_bytes = c.take(num_insts.div_ceil(8))?;
    let live: Vec<bool> = (0..num_insts)
        .map(|i| live_bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    let num_blocks = c.count(2)?;
    let mut blocks = Vec::with_capacity(num_blocks.min(1 << 20));
    for _ in 0..num_blocks {
        let name = c.str()?;
        let n = c.count(1)?;
        let mut block_insts = Vec::with_capacity(n);
        for _ in 0..n {
            let i = c.u32()? as usize;
            if i >= num_insts {
                return Err(DecodeError::IdOutOfRange("instruction"));
            }
            block_insts.push(InstId(i as u32));
        }
        blocks.push(BlockData {
            name,
            insts: block_insts,
        });
    }
    for inst in &insts {
        if inst.block.index() >= num_blocks {
            return Err(DecodeError::IdOutOfRange("block"));
        }
        let out_of_range = match &inst.extra {
            InstExtra::Phi { incoming } => incoming.iter().any(|b| b.index() >= num_blocks),
            InstExtra::Br { dest } => dest.index() >= num_blocks,
            InstExtra::CondBr {
                then_dest,
                else_dest,
            } => then_dest.index() >= num_blocks || else_dest.index() >= num_blocks,
            _ => false,
        };
        if out_of_range {
            return Err(DecodeError::IdOutOfRange("block"));
        }
    }
    let n = c.count(1)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let v = c.u32()? as usize;
        if v >= num_values {
            return Err(DecodeError::IdOutOfRange("value"));
        }
        params.push(ValueId(v as u32));
    }

    Function::from_raw_parts(
        name,
        param_tys,
        ret_ty,
        is_declaration,
        effects,
        values,
        insts,
        live,
        blocks,
        params,
    )
    .ok_or(DecodeError::Malformed("instruction results"))
}

/// Decodes a module from the compact binary format. Inverse of
/// [`encode_module`]: the decoded module's arenas are slot-identical to the
/// encoded one's, so the printed text matches byte-for-byte. Corrupted or
/// truncated input returns a [`DecodeError`]; decoding never panics and
/// never allocates more than the input size warrants.
pub fn decode_module(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = c.fixed_u16()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let num_types = c.count(1)?;
    let mut types = TypeStore::new();
    let prelude = types.num_types();
    if num_types < prelude {
        return Err(DecodeError::Malformed("type store prelude"));
    }
    for idx in 0..num_types {
        let kind = decode_type(&mut c, idx)?;
        let id = types.intern(kind);
        // The first records must replay the standard prelude (interning
        // them is a no-op hitting the existing slot) and later records
        // must land on their own index, or every stored type id is off.
        if id.index() != idx {
            return Err(DecodeError::Malformed("type store prelude"));
        }
        // The printer and the layout queries recurse through a type, so a
        // type the text parser would refuse is refused here too.
        if types.depth(id) > MAX_TYPE_DEPTH {
            return Err(DecodeError::Malformed(TOO_DEEP));
        }
    }
    let name = c.str()?;
    let num_globals = c.count(4)?;
    let mut globals = Vec::with_capacity(num_globals.min(1 << 20));
    let glim = Limits {
        num_types,
        num_globals: 0,
        num_funcs: 0,
    };
    for _ in 0..num_globals {
        globals.push(decode_global(&mut c, &glim)?);
    }
    let num_funcs = c.count(8)?;
    let lim = Limits {
        num_types,
        num_globals,
        num_funcs,
    };
    let mut module = Module::new(name);
    module.types = types;
    for g in globals {
        module.add_global(g);
    }
    for _ in 0..num_funcs {
        module.add_func(decode_function(&mut c, &lim)?);
    }
    if c.pos != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;
    use crate::printer::print_module;

    fn sample() -> Module {
        parse_module(
            r#"
module "roundtrip"
global @a : [8 x i32] = zero
global @tab : [4 x i64] = ints i64 [1, -2, 3, -4]
global @msg : [3 x i8] = bytes [104, 105, 0]
declare @ext(i32 %p0) -> i32 readonly
func @f(i64 %p0, double %p1) -> i32 {
entry:
  %p = gep i32, @a, i64 0
  %x = load i32, %p
  %c = icmp slt %x, i32 10
  condbr %c, then, done
then:
  %y = call i32 @ext(%x)
  br done
done:
  %m = phi i32 [ %x, entry ], [ %y, then ]
  ret %m
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn wire_tags_match_declaration_order() {
        for (i, &op) in OPCODES.iter().enumerate() {
            assert_eq!(op as usize, i, "opcode table out of order at {op:?}");
        }
        for (i, &p) in INT_PREDS.iter().enumerate() {
            assert_eq!(p as usize, i);
        }
        for (i, &p) in FLOAT_PREDS.iter().enumerate() {
            assert_eq!(p as usize, i);
        }
    }

    #[test]
    fn roundtrip_is_print_identical() {
        let m = sample();
        let bytes = encode_module(&m);
        let decoded = decode_module(&bytes).expect("decodes");
        assert_eq!(print_module(&m), print_module(&decoded));
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let mut bytes = encode_module(&sample());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_module(&bad).err(), Some(DecodeError::BadMagic));
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert_eq!(
            decode_module(&bytes).err(),
            Some(DecodeError::UnsupportedVersion(0xFFFF))
        );
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let bytes = encode_module(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_module(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn decode_survives_single_byte_corruption() {
        // Every single-byte corruption either decodes to *some* module or
        // errors — it must never panic. (Printing the result must not
        // panic either: ids were range-checked.)
        let bytes = encode_module(&sample());
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            if let Ok(m) = decode_module(&bad) {
                let _ = print_module(&m);
            }
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A header claiming 2^32-1 types in a 32-byte buffer must be
        // rejected by the remaining-bytes check, not attempted.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_module(&bytes).err(), Some(DecodeError::Truncated));
    }

    #[test]
    fn over_deep_types_are_rejected() {
        let deep = |levels: usize| {
            let mut m = Module::new("deep");
            let mut ty = m.types.i32();
            for _ in 0..levels {
                ty = m.types.array(ty, 1);
            }
            m.add_global(GlobalData {
                name: "g".into(),
                ty,
                init: GlobalInit::Zero,
                is_const: false,
            });
            encode_module(&m)
        };
        let at_cap = decode_module(&deep(MAX_TYPE_DEPTH)).expect("decodes");
        assert!(print_module(&at_cap).contains("[1 x [1 x"));
        for levels in [MAX_TYPE_DEPTH + 1, 100_000] {
            assert_eq!(
                decode_module(&deep(levels)).err(),
                Some(DecodeError::Malformed(TOO_DEEP))
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_module(&sample());
        bytes.push(0);
        assert_eq!(
            decode_module(&bytes).err(),
            Some(DecodeError::TrailingBytes)
        );
    }
}
