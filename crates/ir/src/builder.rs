//! Instruction builders.
//!
//! [`Builder`] emits instructions into an existing function (used by
//! transformation passes); [`FuncBuilder`] stages a brand-new function and
//! adds it to a module on [`FuncBuilder::finish`] (used by front ends, tests,
//! and the benchmark suites).

use crate::block::BlockId;
use crate::function::Function;
use crate::inst::{FloatPredicate, InstData, InstExtra, InstId, IntPredicate, Opcode, Operands};
use crate::module::Module;
use crate::types::{TypeId, TypeStore};
use crate::value::{FuncId, GlobalId, ValueId};

/// Emits instructions into an existing function.
///
/// The builder tracks a *current block*; every emitted instruction is
/// appended to it. Result types are derived from operands where possible and
/// taken explicitly otherwise.
pub struct Builder<'a> {
    /// The function being edited.
    pub func: &'a mut Function,
    /// The module's type store.
    pub types: &'a mut TypeStore,
    cur: Option<BlockId>,
}

impl<'a> Builder<'a> {
    /// Creates a builder over `func` using `types`, with no current block.
    pub fn on(func: &'a mut Function, types: &'a mut TypeStore) -> Self {
        Builder {
            func,
            types,
            cur: None,
        }
    }

    /// Creates a new block and makes it current.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        let b = self.func.add_block(name);
        self.cur = Some(b);
        b
    }

    /// Switches the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = Some(block);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been created or selected yet.
    pub fn current(&self) -> BlockId {
        self.cur.expect("builder has no current block")
    }

    fn emit(
        &mut self,
        opcode: Opcode,
        ty: TypeId,
        operands: Operands,
        extra: InstExtra,
    ) -> ValueId {
        let block = self.current();
        let (inst, value) = self.func.create_inst(InstData {
            opcode,
            ty,
            operands,
            block,
            extra,
        });
        self.func.append_inst(block, inst);
        let _ = inst;
        value
    }

    /// Emits the given instruction data verbatim, returning its result.
    pub fn emit_raw(&mut self, data: InstData) -> (InstId, ValueId) {
        let block = self.current();
        let mut data = data;
        data.block = block;
        let (inst, value) = self.func.create_inst(data);
        self.func.append_inst(block, inst);
        (inst, value)
    }

    // ----- constants -------------------------------------------------------

    /// Integer constant of type `ty`.
    pub fn iconst(&mut self, ty: TypeId, value: i64) -> ValueId {
        self.func.const_int(ty, value)
    }

    /// `i32` constant.
    pub fn i32_const(&mut self, value: i64) -> ValueId {
        let ty = self.types.i32();
        self.func.const_int(ty, value)
    }

    /// `i64` constant.
    pub fn i64_const(&mut self, value: i64) -> ValueId {
        let ty = self.types.i64();
        self.func.const_int(ty, value)
    }

    /// Floating constant of type `ty`.
    pub fn fconst(&mut self, ty: TypeId, value: f64) -> ValueId {
        self.func.const_float(ty, value)
    }

    /// Address of global `g`.
    pub fn global(&mut self, g: GlobalId) -> ValueId {
        self.func.global_addr(g)
    }

    // ----- arithmetic ------------------------------------------------------

    /// Generic two-operand arithmetic/logic operation. The result type is
    /// the type of `a`.
    pub fn binop(&mut self, opcode: Opcode, a: ValueId, b: ValueId) -> ValueId {
        debug_assert!(opcode.is_binop(), "{opcode:?} is not a binop");
        let ty = self.func.value_ty(a, self.types);
        self.emit(opcode, ty, [a, b].into(), InstExtra::None)
    }

    /// `add`
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::Add, a, b)
    }
    /// `sub`
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::Sub, a, b)
    }
    /// `mul`
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::Mul, a, b)
    }
    /// `sdiv`
    pub fn sdiv(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::SDiv, a, b)
    }
    /// `and`
    pub fn and(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::And, a, b)
    }
    /// `or`
    pub fn or(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::Or, a, b)
    }
    /// `xor`
    pub fn xor(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::Xor, a, b)
    }
    /// `shl`
    pub fn shl(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::Shl, a, b)
    }
    /// `lshr`
    pub fn lshr(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::LShr, a, b)
    }
    /// `ashr`
    pub fn ashr(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::AShr, a, b)
    }
    /// `fadd`
    pub fn fadd(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::FAdd, a, b)
    }
    /// `fsub`
    pub fn fsub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::FSub, a, b)
    }
    /// `fmul`
    pub fn fmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::FMul, a, b)
    }
    /// `fdiv`
    pub fn fdiv(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binop(Opcode::FDiv, a, b)
    }

    /// Integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: IntPredicate, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.types.i1();
        self.emit(Opcode::Icmp, ty, [a, b].into(), InstExtra::Icmp(pred))
    }

    /// Floating comparison producing `i1`.
    pub fn fcmp(&mut self, pred: FloatPredicate, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.types.i1();
        self.emit(Opcode::Fcmp, ty, [a, b].into(), InstExtra::Fcmp(pred))
    }

    /// `select cond, a, b`
    pub fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.func.value_ty(a, self.types);
        self.emit(Opcode::Select, ty, [cond, a, b].into(), InstExtra::None)
    }

    /// Cast `v` to `ty` with the given cast opcode.
    pub fn cast(&mut self, opcode: Opcode, v: ValueId, ty: TypeId) -> ValueId {
        debug_assert!(opcode.is_cast(), "{opcode:?} is not a cast");
        self.emit(opcode, ty, [v].into(), InstExtra::None)
    }

    /// `zext`
    pub fn zext(&mut self, v: ValueId, ty: TypeId) -> ValueId {
        self.cast(Opcode::ZExt, v, ty)
    }
    /// `sext`
    pub fn sext(&mut self, v: ValueId, ty: TypeId) -> ValueId {
        self.cast(Opcode::SExt, v, ty)
    }
    /// `trunc`
    pub fn trunc(&mut self, v: ValueId, ty: TypeId) -> ValueId {
        self.cast(Opcode::Trunc, v, ty)
    }
    /// `sitofp`
    pub fn sitofp(&mut self, v: ValueId, ty: TypeId) -> ValueId {
        self.cast(Opcode::SiToFp, v, ty)
    }
    /// `fptosi`
    pub fn fptosi(&mut self, v: ValueId, ty: TypeId) -> ValueId {
        self.cast(Opcode::FpToSi, v, ty)
    }

    // ----- memory ----------------------------------------------------------

    /// `alloca` of `count` elements of `elem_ty` (pass `None` for one).
    pub fn alloca(&mut self, elem_ty: TypeId, count: Option<ValueId>) -> ValueId {
        let ty = self.types.ptr();
        let operands = count.into_iter().collect();
        self.emit(Opcode::Alloca, ty, operands, InstExtra::Alloca { elem_ty })
    }

    /// Typed load from `ptr`.
    pub fn load(&mut self, ty: TypeId, ptr: ValueId) -> ValueId {
        self.emit(Opcode::Load, ty, [ptr].into(), InstExtra::None)
    }

    /// Store `value` to `ptr`.
    pub fn store(&mut self, value: ValueId, ptr: ValueId) -> ValueId {
        let ty = self.types.void();
        self.emit(Opcode::Store, ty, [value, ptr].into(), InstExtra::None)
    }

    /// `gep elem_ty, base, indices...` — the first index scales by
    /// `size_of(elem_ty)`, later indices navigate into aggregates.
    pub fn gep(&mut self, elem_ty: TypeId, base: ValueId, indices: &[ValueId]) -> ValueId {
        let ty = self.types.ptr();
        let mut operands = Operands::with_capacity(1 + indices.len());
        operands.push(base);
        operands.extend_from_slice(indices);
        self.emit(Opcode::Gep, ty, operands, InstExtra::Gep { elem_ty })
    }

    // ----- calls & control -------------------------------------------------

    /// Direct call. `ret_ty` must match the callee's return type.
    pub fn call(&mut self, callee: FuncId, ret_ty: TypeId, args: &[ValueId]) -> ValueId {
        self.emit(
            Opcode::Call,
            ret_ty,
            args.into(),
            InstExtra::Call { callee },
        )
    }

    /// `phi` with `(value, predecessor)` incomings.
    pub fn phi(&mut self, ty: TypeId, incomings: &[(ValueId, BlockId)]) -> ValueId {
        let operands = incomings.iter().map(|&(v, _)| v).collect();
        let incoming = incomings.iter().map(|&(_, b)| b).collect();
        self.emit(Opcode::Phi, ty, operands, InstExtra::Phi { incoming })
    }

    /// Unconditional branch.
    pub fn br(&mut self, dest: BlockId) -> ValueId {
        let ty = self.types.void();
        self.emit(Opcode::Br, ty, Operands::new(), InstExtra::Br { dest })
    }

    /// Conditional branch on `cond`.
    pub fn cond_br(&mut self, cond: ValueId, then_dest: BlockId, else_dest: BlockId) -> ValueId {
        let ty = self.types.void();
        self.emit(
            Opcode::CondBr,
            ty,
            [cond].into(),
            InstExtra::CondBr {
                then_dest,
                else_dest,
            },
        )
    }

    /// Return (with an optional value).
    pub fn ret(&mut self, value: Option<ValueId>) -> ValueId {
        let ty = self.types.void();
        self.emit(
            Opcode::Ret,
            ty,
            value.into_iter().collect(),
            InstExtra::None,
        )
    }

    /// `unreachable`
    pub fn unreachable(&mut self) -> ValueId {
        let ty = self.types.void();
        self.emit(Opcode::Unreachable, ty, Operands::new(), InstExtra::None)
    }
}

/// Stages a new function and installs it into a module when finished.
pub struct FuncBuilder<'m> {
    module: &'m mut Module,
    func: Option<Function>,
    cur: Option<BlockId>,
}

impl<'m> FuncBuilder<'m> {
    /// Starts building a new function definition in `module`.
    pub fn new(
        module: &'m mut Module,
        name: impl Into<String>,
        param_tys: Vec<TypeId>,
        ret_ty: TypeId,
    ) -> Self {
        let func = Function::new(name, param_tys, ret_ty);
        FuncBuilder {
            module,
            func: Some(func),
            cur: None,
        }
    }

    /// The staged function's `index`-th parameter.
    pub fn param(&self, index: usize) -> ValueId {
        self.func.as_ref().unwrap().param(index)
    }

    /// Runs `f` with an instruction [`Builder`] over the staged function.
    pub fn ins<R>(&mut self, f: impl FnOnce(&mut Builder<'_>) -> R) -> R {
        let func = self.func.as_mut().unwrap();
        let mut b = Builder {
            func,
            types: &mut self.module.types,
            cur: self.cur,
        };
        let r = f(&mut b);
        self.cur = b.cur;
        r
    }

    /// Creates a block in the staged function and makes it current.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        let b = self.func.as_mut().unwrap().add_block(name);
        self.cur = Some(b);
        b
    }

    /// Switches the insertion point.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = Some(block);
    }

    /// Resolves a callee and return type by name.
    ///
    /// # Panics
    ///
    /// Panics if the module has no function with that name.
    pub fn callee(&self, name: &str) -> (FuncId, TypeId) {
        let id = self
            .module
            .func_by_name(name)
            .unwrap_or_else(|| panic!("unknown callee {name}"));
        (id, self.module.func(id).ret_ty)
    }

    /// Access to the module being extended.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    /// Installs the staged function into the module.
    pub fn finish(mut self) -> FuncId {
        let func = self.func.take().unwrap();
        self.module.add_func(func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Effects;

    #[test]
    fn build_simple_function() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "addmul", vec![i32t, i32t], i32t);
        let a = fb.param(0);
        let b = fb.param(1);
        fb.block("entry");
        let r = fb.ins(|b_| {
            let s = b_.add(a, b);
            let p = b_.mul(s, s);
            b_.ret(Some(p));
            p
        });
        let id = fb.finish();
        let f = m.func(id);
        assert_eq!(f.num_live_insts(), 3);
        assert_eq!(f.value_ty(r, &m.types), m.types.i32());
    }

    #[test]
    fn build_loop_with_phi() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "count", vec![i32t], i32t);
        let n = fb.param(0);
        let entry = fb.block("entry");
        let (loop_bb, exit_bb) = fb.ins(|b| {
            let loop_bb = b.func.add_block("loop");
            let exit_bb = b.func.add_block("exit");
            b.br(loop_bb);
            (loop_bb, exit_bb)
        });
        fb.switch_to(loop_bb);
        fb.ins(|b| {
            let zero = b.i32_const(0);
            let iv = b.phi(b.types.i32(), &[(zero, entry)]);
            let one = b.i32_const(1);
            let next = b.add(iv, one);
            // Patch the phi with the loopback incoming.
            let iv_inst = b.func.value(iv).as_inst().unwrap();
            b.func.inst_mut(iv_inst).operands.push(next);
            if let InstExtra::Phi { incoming } = &mut b.func.inst_mut(iv_inst).extra {
                incoming.push(loop_bb);
            }
            let done = b.icmp(IntPredicate::Sge, next, n);
            b.cond_br(done, exit_bb, loop_bb);
            b.switch_to(exit_bb);
            b.ret(Some(iv));
        });
        let id = fb.finish();
        let f = m.func(id);
        assert_eq!(f.num_blocks(), 3);
        assert!(f.terminator(loop_bb).is_some());
    }

    #[test]
    fn call_through_declaration() {
        let mut m = Module::new("t");
        let void = m.types.void();
        let ptr = m.types.ptr();
        m.declare_func("sink", vec![ptr], void, Effects::ReadWrite);
        let mut fb = FuncBuilder::new(&mut m, "caller", vec![ptr], void);
        let p = fb.param(0);
        fb.block("entry");
        let (sink, ret_ty) = fb.callee("sink");
        fb.ins(|b| {
            b.call(sink, ret_ty, &[p]);
            b.ret(None);
        });
        let id = fb.finish();
        assert_eq!(m.func(id).num_live_insts(), 2);
    }
}
