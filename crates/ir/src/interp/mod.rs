//! Reference interpreter.
//!
//! Executes IR functions over a flat memory, recording a trace of external
//! calls and dynamic instruction counts. The interpreter is the behavioural
//! oracle of the project: a transformation is correct iff the interpreted
//! outcome (return value, external-call trace, final memory) is unchanged.

mod memory;

pub use memory::Memory;

use std::fmt;

use crate::block::BlockId;
use crate::fold::{
    as_unsigned, eval_float_binop, eval_icmp, eval_int_binop, int_binop_trap, normalize_int,
};
use crate::function::{Effects, Function};
use crate::fxhash::FxHashMap;
use crate::inst::{FloatPredicate, InstExtra, Opcode};
use crate::module::{GlobalInit, Module};
use crate::types::TypeKind;
use crate::value::{FuncId, GlobalId, ValueDef, ValueId};

/// A dynamic value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IValue {
    /// Integer (sign-extended to 64 bits).
    Int(i64),
    /// Floating-point (`f32` widened to `f64`).
    Float(f64),
    /// Pointer (address in interpreter memory).
    Ptr(u64),
    /// No value (void).
    Unit,
}

impl IValue {
    fn as_int(self) -> Result<i64, ExecError> {
        match self {
            IValue::Int(v) => Ok(v),
            IValue::Ptr(p) => Ok(p as i64),
            other => Err(ExecError::TypeConfusion(format!(
                "expected int, got {other:?}"
            ))),
        }
    }

    fn as_float(self) -> Result<f64, ExecError> {
        match self {
            IValue::Float(v) => Ok(v),
            other => Err(ExecError::TypeConfusion(format!(
                "expected float, got {other:?}"
            ))),
        }
    }

    fn as_ptr(self) -> Result<u64, ExecError> {
        match self {
            IValue::Ptr(p) => Ok(p),
            IValue::Int(v) => Ok(v as u64),
            other => Err(ExecError::TypeConfusion(format!(
                "expected pointer, got {other:?}"
            ))),
        }
    }
}

/// Runtime failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Access through the reserved null page.
    NullAccess {
        /// Faulting address.
        addr: u64,
    },
    /// Access past the end of memory.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access size.
        size: u64,
    },
    /// Access whose address is not a multiple of the accessed type's
    /// natural alignment.
    Misaligned {
        /// Faulting address.
        addr: u64,
        /// Required alignment.
        align: u64,
    },
    /// Integer division by zero.
    DivByZero,
    /// Signed division overflow (`MIN / -1` or `MIN % -1` at type width).
    DivOverflow,
    /// Allocation (alloca or globals) would exceed the interpreter's memory
    /// cap.
    AllocLimit {
        /// Requested size in bytes.
        size: u64,
    },
    /// Step budget exhausted (probable endless loop).
    StepLimit,
    /// Executed `unreachable`.
    Unreachable,
    /// Dynamic type mismatch (interpreter-level bug or malformed IR).
    TypeConfusion(String),
    /// Operation not supported by the interpreter.
    Unsupported(String),
    /// Call of an unknown function name.
    UnknownFunction(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NullAccess { addr } => write!(f, "null access at {addr:#x}"),
            ExecError::OutOfBounds { addr, size } => {
                write!(f, "out-of-bounds access at {addr:#x} (size {size})")
            }
            ExecError::Misaligned { addr, align } => {
                write!(f, "misaligned access at {addr:#x} (requires align {align})")
            }
            ExecError::DivByZero => write!(f, "integer division by zero"),
            ExecError::DivOverflow => write!(f, "signed division overflow"),
            ExecError::AllocLimit { size } => {
                write!(f, "allocation of {size} bytes exceeds the memory cap")
            }
            ExecError::StepLimit => write!(f, "step limit exceeded"),
            ExecError::Unreachable => write!(f, "reached unreachable"),
            ExecError::TypeConfusion(m) => write!(f, "type confusion: {m}"),
            ExecError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            ExecError::UnknownFunction(m) => write!(f, "unknown function: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One recorded external call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallEvent {
    /// Callee name.
    pub callee: String,
    /// Argument values at the call site.
    pub args: Vec<IValue>,
    /// Value the interpreter returned for the call.
    pub result: IValue,
}

/// Aggregate result of a top-level call.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Return value.
    pub ret: IValue,
    /// External calls, in execution order.
    pub trace: Vec<CallEvent>,
    /// Dynamic instruction count.
    pub steps: u64,
    /// Hash of final memory contents.
    pub mem_hash: u64,
}

/// The interpreter: module + memory + trace.
pub struct Interpreter<'m> {
    module: &'m Module,
    /// Linear memory (public so tests can set up buffers).
    pub mem: Memory,
    global_addrs: Vec<u64>,
    trace: Vec<CallEvent>,
    steps: u64,
    max_steps: u64,
    ext_seq: u64,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter and materializes all globals.
    pub fn new(module: &'m Module) -> Self {
        let mut mem = Memory::new();
        let mut global_addrs = Vec::new();
        for g in module.global_ids() {
            let data = module.global(g);
            let size = module.global_size(g).max(1);
            let align = module.types.align_of(data.ty).max(8);
            let addr = mem
                .alloc(size, align)
                .expect("global data exceeds the interpreter memory cap");
            match &data.init {
                GlobalInit::Zero => {}
                GlobalInit::Bytes(bytes) => {
                    mem.write_bytes(addr, bytes).expect("global init");
                }
                GlobalInit::Ints { elem_ty, values } => {
                    let esz = module.types.size_of(*elem_ty);
                    for (i, &v) in values.iter().enumerate() {
                        mem.store(
                            &module.types,
                            *elem_ty,
                            addr + i as u64 * esz,
                            IValue::Int(v),
                        )
                        .expect("global init");
                    }
                }
            }
            global_addrs.push(addr);
        }
        Interpreter {
            module,
            mem,
            global_addrs,
            trace: Vec::new(),
            steps: 0,
            max_steps: 50_000_000,
            ext_seq: 0,
        }
    }

    /// Sets the dynamic step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Address of global `g` in interpreter memory.
    pub fn global_addr(&self, g: GlobalId) -> u64 {
        self.global_addrs[g.index()]
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// External calls recorded so far.
    pub fn trace(&self) -> &[CallEvent] {
        &self.trace
    }

    /// Calls a function by name and packages the [`Outcome`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a runtime fault or unknown name.
    pub fn run(&mut self, name: &str, args: &[IValue]) -> Result<Outcome, ExecError> {
        let id = self
            .module
            .func_by_name(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))?;
        let ret = self.call(id, args.to_vec())?;
        Ok(Outcome {
            ret,
            trace: self.trace.clone(),
            steps: self.steps,
            mem_hash: self.mem.content_hash(),
        })
    }

    /// Calls function `id` with `args`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a runtime fault.
    pub fn call(&mut self, id: FuncId, args: Vec<IValue>) -> Result<IValue, ExecError> {
        let func = self.module.func(id);
        if func.is_declaration {
            return self.call_external(func, args);
        }
        let mut frame: FxHashMap<ValueId, IValue> = FxHashMap::default();
        for (i, &p) in func.params().iter().enumerate() {
            frame.insert(
                p,
                args.get(i).copied().ok_or_else(|| {
                    ExecError::TypeConfusion(format!("missing argument {i} to @{}", func.name))
                })?,
            );
        }
        let mut block = func.entry_block();
        let mut prev_block: Option<BlockId> = None;
        loop {
            // Phis first: read all incomings against the old frame, then
            // commit (parallel assignment semantics).
            let mut phi_writes: Vec<(ValueId, IValue)> = Vec::new();
            let mut first_non_phi = 0;
            for (pos, &i) in func.block(block).insts.iter().enumerate() {
                let data = func.inst(i);
                if data.opcode != Opcode::Phi {
                    first_non_phi = pos;
                    break;
                }
                first_non_phi = pos + 1;
                let InstExtra::Phi { incoming } = &data.extra else {
                    unreachable!()
                };
                let pb = prev_block
                    .ok_or_else(|| ExecError::TypeConfusion("phi in entry block".to_string()))?;
                let Some(arm) = incoming.iter().position(|&b| b == pb) else {
                    return Err(ExecError::TypeConfusion(format!(
                        "phi has no incoming for predecessor {}",
                        func.block(pb).name
                    )));
                };
                let v = self.value_of(func, &frame, data.operands[arm])?;
                self.steps += 1;
                phi_writes.push((func.inst_result(i), v));
            }
            for (dst, v) in phi_writes {
                frame.insert(dst, v);
            }

            let insts = func.block(block).insts[first_non_phi..].to_vec();
            let mut next: Option<BlockId> = None;
            for i in insts {
                self.steps += 1;
                if self.steps > self.max_steps {
                    return Err(ExecError::StepLimit);
                }
                let data = func.inst(i).clone();
                match data.opcode {
                    Opcode::Br => {
                        let InstExtra::Br { dest } = data.extra else {
                            unreachable!()
                        };
                        next = Some(dest);
                        break;
                    }
                    Opcode::CondBr => {
                        let InstExtra::CondBr {
                            then_dest,
                            else_dest,
                        } = data.extra
                        else {
                            unreachable!()
                        };
                        let c = self.value_of(func, &frame, data.operands[0])?.as_int()?;
                        next = Some(if c != 0 { then_dest } else { else_dest });
                        break;
                    }
                    Opcode::Ret => {
                        return if data.operands.is_empty() {
                            Ok(IValue::Unit)
                        } else {
                            self.value_of(func, &frame, data.operands[0])
                        };
                    }
                    Opcode::Unreachable => return Err(ExecError::Unreachable),
                    _ => {
                        let result = self.exec_inst(func, &mut frame, i)?;
                        frame.insert(func.inst_result(i), result);
                    }
                }
            }
            match next {
                Some(b) => {
                    prev_block = Some(block);
                    block = b;
                }
                None => {
                    return Err(ExecError::TypeConfusion(format!(
                        "block {} fell through without terminator",
                        func.block(block).name
                    )))
                }
            }
        }
    }

    fn value_of(
        &self,
        func: &Function,
        frame: &FxHashMap<ValueId, IValue>,
        v: ValueId,
    ) -> Result<IValue, ExecError> {
        match func.value(v) {
            ValueDef::Inst(_) | ValueDef::Param { .. } => frame.get(&v).copied().ok_or_else(|| {
                ExecError::TypeConfusion(format!("use of unevaluated value v{}", v.index()))
            }),
            ValueDef::ConstInt { value, .. } => Ok(IValue::Int(*value)),
            ValueDef::ConstFloat { bits, .. } => Ok(IValue::Float(f64::from_bits(*bits))),
            ValueDef::GlobalAddr(g) => Ok(IValue::Ptr(self.global_addrs[g.index()])),
            ValueDef::FuncAddr(f) => Ok(IValue::Ptr(0x4000_0000 + f.index() as u64)),
            ValueDef::Undef(_) => Ok(IValue::Int(0)),
        }
    }

    fn exec_inst(
        &mut self,
        func: &Function,
        frame: &mut FxHashMap<ValueId, IValue>,
        inst: crate::inst::InstId,
    ) -> Result<IValue, ExecError> {
        let types = &self.module.types;
        let data = func.inst(inst).clone();
        let op = |me: &Self, k: usize| me.value_of(func, frame, data.operands[k]);
        match data.opcode {
            o if o.is_int_binop() => {
                let a = op(self, 0)?.as_int()?;
                let b = op(self, 1)?.as_int()?;
                match eval_int_binop(types, o, data.ty, a, b) {
                    Some(r) => Ok(IValue::Int(r)),
                    None => match int_binop_trap(types, o, data.ty, a, b) {
                        Some(crate::fold::IntTrap::Overflow) => Err(ExecError::DivOverflow),
                        _ => Err(ExecError::DivByZero),
                    },
                }
            }
            o if o.is_float_binop() => {
                let a = op(self, 0)?.as_float()?;
                let b = op(self, 1)?.as_float()?;
                let r = eval_float_binop(o, a, b)
                    .ok_or_else(|| ExecError::Unsupported("float op".into()))?;
                let r = if types.kind(data.ty) == &TypeKind::Float {
                    (r as f32) as f64
                } else {
                    r
                };
                Ok(IValue::Float(r))
            }
            Opcode::Icmp => {
                let InstExtra::Icmp(pred) = data.extra else {
                    unreachable!()
                };
                let opty = func.value_ty(data.operands[0], types);
                let a = op(self, 0)?.as_int()?;
                let b = op(self, 1)?.as_int()?;
                Ok(IValue::Int(eval_icmp(types, pred, opty, a, b) as i64))
            }
            Opcode::Fcmp => {
                let InstExtra::Fcmp(pred) = data.extra else {
                    unreachable!()
                };
                let a = op(self, 0)?.as_float()?;
                let b = op(self, 1)?.as_float()?;
                let r = match pred {
                    FloatPredicate::Oeq => a == b,
                    FloatPredicate::One => a != b && !a.is_nan() && !b.is_nan(),
                    FloatPredicate::Olt => a < b,
                    FloatPredicate::Ole => a <= b,
                    FloatPredicate::Ogt => a > b,
                    FloatPredicate::Oge => a >= b,
                };
                Ok(IValue::Int(r as i64))
            }
            Opcode::Select => {
                let c = op(self, 0)?.as_int()?;
                if c != 0 {
                    op(self, 1)
                } else {
                    op(self, 2)
                }
            }
            Opcode::Trunc => {
                let v = op(self, 0)?.as_int()?;
                Ok(IValue::Int(normalize_int(types, data.ty, v)))
            }
            Opcode::ZExt => {
                let src_ty = func.value_ty(data.operands[0], types);
                let v = op(self, 0)?.as_int()?;
                Ok(IValue::Int(as_unsigned(types, src_ty, v) as i64))
            }
            Opcode::SExt => {
                let src_ty = func.value_ty(data.operands[0], types);
                let v = op(self, 0)?.as_int()?;
                Ok(IValue::Int(normalize_int(types, src_ty, v)))
            }
            Opcode::Bitcast => op(self, 0),
            Opcode::PtrToInt => Ok(IValue::Int(op(self, 0)?.as_ptr()? as i64)),
            Opcode::IntToPtr => Ok(IValue::Ptr(op(self, 0)?.as_int()? as u64)),
            Opcode::FpToSi => Ok(IValue::Int(op(self, 0)?.as_float()? as i64)),
            Opcode::SiToFp => {
                let v = op(self, 0)?.as_int()? as f64;
                let v = if types.kind(data.ty) == &TypeKind::Float {
                    (v as f32) as f64
                } else {
                    v
                };
                Ok(IValue::Float(v))
            }
            Opcode::FpExt => op(self, 0),
            Opcode::FpTrunc => {
                let v = op(self, 0)?.as_float()?;
                Ok(IValue::Float((v as f32) as f64))
            }
            Opcode::Alloca => {
                let InstExtra::Alloca { elem_ty } = data.extra else {
                    unreachable!()
                };
                let count = if data.operands.is_empty() {
                    1
                } else {
                    op(self, 0)?.as_int()?.max(0) as u64
                };
                let size = types
                    .size_of(elem_ty)
                    .checked_mul(count)
                    .ok_or(ExecError::AllocLimit { size: u64::MAX })?;
                let align = types.align_of(elem_ty).max(8);
                Ok(IValue::Ptr(self.mem.alloc(size.max(1), align)?))
            }
            Opcode::Load => {
                let addr = op(self, 0)?.as_ptr()?;
                self.mem.load(types, data.ty, addr)
            }
            Opcode::Store => {
                let value = op(self, 0)?;
                let addr = op(self, 1)?.as_ptr()?;
                let vty = func.value_ty(data.operands[0], types);
                self.mem.store(types, vty, addr, value)?;
                Ok(IValue::Unit)
            }
            Opcode::Gep => {
                let InstExtra::Gep { elem_ty } = data.extra else {
                    unreachable!()
                };
                let base = op(self, 0)?.as_ptr()?;
                let mut addr = base as i64;
                let first = op(self, 1)?.as_int()?;
                addr = addr.wrapping_add(first.wrapping_mul(types.size_of(elem_ty) as i64));
                let mut cur = elem_ty;
                for k in 2..data.operands.len() {
                    let idx = op(self, k)?.as_int()?;
                    match types.kind(cur).clone() {
                        TypeKind::Array { elem, .. } => {
                            addr = addr.wrapping_add(idx.wrapping_mul(types.size_of(elem) as i64));
                            cur = elem;
                        }
                        TypeKind::Struct { fields } => {
                            let i = idx as usize;
                            if i >= fields.len() {
                                return Err(ExecError::TypeConfusion(
                                    "struct gep index out of range".into(),
                                ));
                            }
                            addr = addr.wrapping_add(types.field_offset(cur, i) as i64);
                            cur = fields[i];
                        }
                        other => {
                            return Err(ExecError::TypeConfusion(format!(
                                "gep into non-aggregate {other:?}"
                            )))
                        }
                    }
                }
                Ok(IValue::Ptr(addr as u64))
            }
            Opcode::Call => {
                let InstExtra::Call { callee } = data.extra else {
                    unreachable!()
                };
                let mut args = Vec::with_capacity(data.operands.len());
                for k in 0..data.operands.len() {
                    args.push(op(self, k)?);
                }
                self.call(callee, args)
            }
            other => Err(ExecError::Unsupported(format!(
                "opcode {other:?} in straight-line execution"
            ))),
        }
    }

    /// Models a call to an external declaration: records a trace event and
    /// returns a deterministic value.
    ///
    /// `readnone`/`readonly` externals return a pure hash of their arguments
    /// so duplicating or reordering them is observationally neutral;
    /// `readwrite` externals additionally mix in a sequence number, making
    /// their *order* observable — which is exactly the property the
    /// scheduling analysis must preserve.
    fn call_external(&mut self, func: &Function, args: Vec<IValue>) -> Result<IValue, ExecError> {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        for b in func.name.bytes() {
            mix(b as u64);
        }
        for a in &args {
            match a {
                IValue::Int(v) => mix(*v as u64),
                IValue::Float(v) => mix(v.to_bits()),
                IValue::Ptr(p) => mix(*p),
                IValue::Unit => mix(0),
            }
        }
        if func.effects == Effects::ReadWrite {
            self.ext_seq += 1;
            mix(self.ext_seq);
        }
        let ret = match self.module.types.kind(func.ret_ty) {
            TypeKind::Void => IValue::Unit,
            TypeKind::Float | TypeKind::Double => IValue::Float((h % 1000) as f64 / 8.0),
            TypeKind::Ptr => IValue::Ptr(0),
            _ => IValue::Int((h as i64) & 0xffff),
        };
        self.trace.push(CallEvent {
            callee: func.name.clone(),
            args,
            result: ret,
        });
        Ok(ret)
    }
}

/// Convenience: checks that two modules behave identically on a given entry
/// point and argument list. Returns the two outcomes for inspection.
///
/// # Errors
///
/// Propagates the first runtime fault from either module.
pub fn run_both(
    a: &Module,
    b: &Module,
    entry: &str,
    args: &[IValue],
) -> Result<(Outcome, Outcome), ExecError> {
    let mut ia = Interpreter::new(a);
    let mut ib = Interpreter::new(b);
    let oa = ia.run(entry, args)?;
    let ob = ib.run(entry, args)?;
    Ok((oa, ob))
}

/// True when two outcomes are observationally equivalent: same return value,
/// same external-call trace, same final memory. Only meaningful when both
/// outcomes come from modules with identical global layouts; for comparing a
/// transformed module against its original (which may have gained constant
/// data), use [`check_equivalence`].
pub fn equivalent(a: &Outcome, b: &Outcome) -> bool {
    a.ret == b.ret && a.trace == b.trace && a.mem_hash == b.mem_hash
}

/// Runs `entry(args)` on both modules and checks observational equivalence:
/// same return value, same external-call trace, and identical final contents
/// of every global that exists in the *original* module (the transformed
/// module may have gained read-only data, which is ignored).
///
/// # Errors
///
/// Returns `Err(message)` describing the first divergence, or propagates a
/// formatted runtime fault.
pub fn check_equivalence(
    original: &Module,
    transformed: &Module,
    entry: &str,
    args: &[IValue],
) -> Result<(), String> {
    let mut ia = Interpreter::new(original);
    let mut ib = Interpreter::new(transformed);
    let oa = ia
        .run(entry, args)
        .map_err(|e| format!("original faulted: {e}"))?;
    let ob = ib
        .run(entry, args)
        .map_err(|e| format!("transformed faulted: {e}"))?;
    if oa.ret != ob.ret {
        return Err(format!(
            "return values differ: {:?} vs {:?}",
            oa.ret, ob.ret
        ));
    }
    if oa.trace != ob.trace {
        return Err(format!(
            "external-call traces differ:\n  original:    {:?}\n  transformed: {:?}",
            oa.trace, ob.trace
        ));
    }
    for g in original.global_ids() {
        let name = &original.global(g).name;
        let Some(g2) = transformed.global_by_name(name) else {
            return Err(format!("global @{name} disappeared"));
        };
        let size = original.global_size(g);
        let a_bytes = ia
            .mem
            .read_bytes(ia.global_addr(g), size)
            .map_err(|e| format!("{e}"))?;
        let b_bytes = ib
            .mem
            .read_bytes(ib.global_addr(g2), size)
            .map_err(|e| format!("{e}"))?;
        if a_bytes != b_bytes {
            return Err(format!("final contents of @{name} differ"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn interp_ret(text: &str, entry: &str, args: &[IValue]) -> IValue {
        let m = parse_module(text).unwrap();
        let mut i = Interpreter::new(&m);
        i.run(entry, args).unwrap().ret
    }

    #[test]
    fn arithmetic_and_return() {
        let text = r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %1 = mul i32 %p0, i32 3
  %2 = add i32 %1, i32 4
  ret %2
}
"#;
        assert_eq!(interp_ret(text, "f", &[IValue::Int(5)]), IValue::Int(19));
    }

    #[test]
    fn loop_with_phi_counts() {
        let text = r#"
module "t"
func @sum(i32 %p0) -> i32 {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %3, loop ]
  %2 = phi i32 [ i32 0, entry ], [ %4, loop ]
  %3 = add i32 %1, i32 1
  %4 = add i32 %2, %3
  %5 = icmp slt %3, %p0
  condbr %5, loop, exit
exit:
  ret %4
}
"#;
        // sum of 1..=10 = 55
        assert_eq!(interp_ret(text, "sum", &[IValue::Int(10)]), IValue::Int(55));
    }

    #[test]
    fn memory_and_geps() {
        let text = r#"
module "t"
global @buf : [8 x i32] = zero
func @fill() -> i32 {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
  %g = gep i32, @buf, %1
  store %1, %g
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, i32 8
  condbr %3, loop, exit
exit:
  %p3 = gep i32, @buf, i32 3
  %v = load i32, %p3
  ret %v
}
"#;
        assert_eq!(interp_ret(text, "fill", &[]), IValue::Int(3));
    }

    #[test]
    fn struct_geps() {
        let text = r#"
module "t"
global @s : { i8, i32, i8 } = zero
func @f() -> i32 {
entry:
  %p = gep { i8, i32, i8 }, @s, i64 0, i32 1
  store i32 77, %p
  %v = load i32, %p
  ret %v
}
"#;
        assert_eq!(interp_ret(text, "f", &[]), IValue::Int(77));
    }

    #[test]
    fn external_calls_recorded_and_deterministic() {
        let text = r#"
module "t"
declare @ext(i32 %p0) -> i32 readwrite
func @f() -> i32 {
entry:
  %1 = call i32 @ext(i32 1)
  %2 = call i32 @ext(i32 1)
  %3 = add i32 %1, %2
  ret %3
}
"#;
        let m = parse_module(text).unwrap();
        let mut i1 = Interpreter::new(&m);
        let o1 = i1.run("f", &[]).unwrap();
        let mut i2 = Interpreter::new(&m);
        let o2 = i2.run("f", &[]).unwrap();
        assert_eq!(o1.trace.len(), 2);
        assert_eq!(o1, o2, "execution must be deterministic");
        // Same args but different sequence points -> different results for
        // readwrite externals.
        assert_ne!(o1.trace[0].result, o1.trace[1].result);
    }

    #[test]
    fn readnone_externals_are_pure() {
        let text = r#"
module "t"
declare @pure(i32 %p0) -> i32 readnone
func @f() -> i32 {
entry:
  %1 = call i32 @pure(i32 9)
  %2 = call i32 @pure(i32 9)
  %3 = sub i32 %1, %2
  ret %3
}
"#;
        assert_eq!(interp_ret(text, "f", &[]), IValue::Int(0));
    }

    #[test]
    fn nested_internal_calls() {
        let text = r#"
module "t"
func @sq(i32 %p0) -> i32 {
entry:
  %1 = mul i32 %p0, %p0
  ret %1
}
func @f(i32 %p0) -> i32 {
entry:
  %1 = call i32 @sq(%p0)
  %2 = call i32 @sq(%1)
  ret %2
}
"#;
        assert_eq!(interp_ret(text, "f", &[IValue::Int(3)]), IValue::Int(81));
    }

    #[test]
    fn step_limit_stops_endless_loops() {
        let text = r#"
module "t"
func @spin() -> void {
entry:
  br loop
loop:
  br loop
}
"#;
        let m = parse_module(text).unwrap();
        let mut i = Interpreter::new(&m).with_max_steps(1000);
        assert_eq!(i.run("spin", &[]), Err(ExecError::StepLimit));
    }

    #[test]
    fn select_and_float_ops() {
        let text = r#"
module "t"
func @f(double %p0) -> double {
entry:
  %1 = fmul double %p0, double 2.0
  %2 = fcmp ogt %1, double 10.0
  %3 = select double %2, %1, double 0.0
  ret %3
}
"#;
        assert_eq!(
            interp_ret(text, "f", &[IValue::Float(6.0)]),
            IValue::Float(12.0)
        );
        assert_eq!(
            interp_ret(text, "f", &[IValue::Float(1.0)]),
            IValue::Float(0.0)
        );
    }

    fn interp_err(text: &str, entry: &str, args: &[IValue]) -> ExecError {
        let m = parse_module(text).unwrap();
        let mut i = Interpreter::new(&m);
        i.run(entry, args).unwrap_err()
    }

    #[test]
    fn division_by_zero_traps() {
        let text = r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %1 = sdiv i32 %p0, %p1
  ret %1
}
"#;
        assert_eq!(
            interp_err(text, "f", &[IValue::Int(7), IValue::Int(0)]),
            ExecError::DivByZero
        );
        let rem = r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %1 = srem i32 %p0, %p1
  ret %1
}
"#;
        assert_eq!(
            interp_err(rem, "f", &[IValue::Int(7), IValue::Int(0)]),
            ExecError::DivByZero
        );
    }

    #[test]
    fn signed_division_overflow_traps_at_type_width() {
        let sdiv = r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %1 = sdiv i32 %p0, %p1
  ret %1
}
"#;
        // i32::MIN / -1 overflows i32.
        assert_eq!(
            interp_err(sdiv, "f", &[IValue::Int(i32::MIN as i64), IValue::Int(-1)]),
            ExecError::DivOverflow
        );
        let srem = r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %1 = srem i32 %p0, %p1
  ret %1
}
"#;
        assert_eq!(
            interp_err(srem, "f", &[IValue::Int(i32::MIN as i64), IValue::Int(-1)]),
            ExecError::DivOverflow
        );
        // The same numerator is fine at i64 width.
        let wide = r#"
module "t"
func @f(i64 %p0, i64 %p1) -> i64 {
entry:
  %1 = sdiv i64 %p0, %p1
  ret %1
}
"#;
        let m = parse_module(wide).unwrap();
        let mut i = Interpreter::new(&m);
        let o = i
            .run("f", &[IValue::Int(i32::MIN as i64), IValue::Int(-1)])
            .unwrap();
        assert_eq!(o.ret, IValue::Int(-(i32::MIN as i64)));
        // i8 width: -128 / -1 overflows.
        let narrow = r#"
module "t"
func @f(i8 %p0, i8 %p1) -> i8 {
entry:
  %1 = sdiv i8 %p0, %p1
  ret %1
}
"#;
        assert_eq!(
            interp_err(narrow, "f", &[IValue::Int(-128), IValue::Int(-1)]),
            ExecError::DivOverflow
        );
    }

    #[test]
    fn misaligned_access_traps() {
        let text = r#"
module "t"
global @buf : [4 x i32] = zero
func @f(i64 %p0) -> i32 {
entry:
  %p = gep i8, @buf, %p0
  %v = load i32, %p
  ret %v
}
"#;
        assert_eq!(interp_err(text, "f", &[IValue::Int(1)]), {
            let m = parse_module(text).unwrap();
            let i = Interpreter::new(&m);
            let addr = i.global_addr(crate::value::GlobalId::from_index(0)) + 1;
            ExecError::Misaligned { addr, align: 4 }
        });
        let store = r#"
module "t"
global @buf : [4 x i32] = zero
func @f(i64 %p0) -> void {
entry:
  %p = gep i8, @buf, %p0
  store i32 1, %p
  ret
}
"#;
        assert!(matches!(
            interp_err(store, "f", &[IValue::Int(2)]),
            ExecError::Misaligned { align: 4, .. }
        ));
    }

    #[test]
    fn wild_pointer_access_traps() {
        let text = r#"
module "t"
func @f(i64 %p0) -> i64 {
entry:
  %p = inttoptr ptr %p0
  %v = load i64, %p
  ret %v
}
"#;
        assert!(matches!(
            interp_err(text, "f", &[IValue::Int(0)]),
            ExecError::NullAccess { .. }
        ));
        assert!(matches!(
            interp_err(text, "f", &[IValue::Int(1 << 40)]),
            ExecError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn oversized_alloca_traps_instead_of_aborting() {
        let text = r#"
module "t"
func @f(i64 %p0) -> ptr {
entry:
  %a = alloca i64, %p0
  ret %a
}
"#;
        assert!(matches!(
            interp_err(text, "f", &[IValue::Int(i64::MAX / 2)]),
            ExecError::AllocLimit { .. }
        ));
    }

    #[test]
    fn alloca_is_usable_memory() {
        let text = r#"
module "t"
func @f() -> i64 {
entry:
  %a = alloca [4 x i64]
  %p = gep i64, %a, i64 2
  store i64 42, %p
  %v = load i64, %p
  ret %v
}
"#;
        assert_eq!(interp_ret(text, "f", &[]), IValue::Int(42));
    }
}
