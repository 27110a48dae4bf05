//! TTI-style code-size cost model (§IV-F).
//!
//! Estimates the byte size of an IR instruction when lowered to the target,
//! like LLVM's `TargetTransformInfo` code-size cost used by RoLAG's
//! profitability analysis. The estimate is intentionally cheap and *not*
//! identical to the measured size produced by the `rolag-lower` backend —
//! the gap between the two is what produces profitability false positives,
//! as discussed in §V-A of the paper.

use rolag_ir::{Function, InstExtra, InstId, Module, Opcode, TypeKind, UseMap, ValueDef};

/// A target-specific code-size model.
///
/// `uses` is the function's use map, computed once by the caller and shared
/// across every instruction of an estimate — sizing a gep needs its users
/// (to decide addressing-mode folding), and recomputing the map per
/// instruction would make every block estimate linear in the whole function.
pub trait SizeModel {
    /// Estimated byte size of `inst` after lowering.
    fn inst_size(&self, module: &Module, func: &Function, uses: &UseMap, inst: InstId) -> u32;

    /// Fixed per-function overhead (prologue/epilogue).
    fn function_overhead(&self) -> u32 {
        4
    }
}

/// x86-64 `-Os`-flavoured size model. The default everywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct X86SizeModel;

impl X86SizeModel {
    fn has_const_operand(func: &Function, inst: InstId) -> bool {
        func.inst(inst)
            .operands
            .iter()
            .any(|&v| func.value(v).is_constant())
    }

    /// A `gep` folds into the addressing mode of its users when every use is
    /// the address operand of a load/store and the shape fits
    /// `base + index*scale + disp`.
    fn gep_folds(module: &Module, func: &Function, uses: &UseMap, inst: InstId) -> bool {
        let data = func.inst(inst);
        let InstExtra::Gep { elem_ty } = data.extra else {
            return false;
        };
        if data.operands.len() > 2 {
            return false; // struct navigation lowered separately
        }
        let scale = module.types.size_of(elem_ty);
        if !matches!(scale, 1 | 2 | 4 | 8) {
            return false;
        }
        let result = func.inst_result(inst);
        let users = uses.of(result);
        !users.is_empty()
            && users.iter().all(|&(user, op_idx)| {
                let udata = func.inst(user);
                match udata.opcode {
                    Opcode::Load => op_idx == 0,
                    Opcode::Store => op_idx == 1,
                    _ => false,
                }
            })
    }
}

impl SizeModel for X86SizeModel {
    fn inst_size(&self, module: &Module, func: &Function, uses: &UseMap, inst: InstId) -> u32 {
        let data = func.inst(inst);
        match data.opcode {
            Opcode::Add | Opcode::Sub | Opcode::And | Opcode::Or | Opcode::Xor => {
                if Self::has_const_operand(func, inst) {
                    4
                } else {
                    3
                }
            }
            Opcode::Mul => 4,
            Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem => 6,
            Opcode::Shl | Opcode::LShr | Opcode::AShr => {
                if Self::has_const_operand(func, inst) {
                    4
                } else {
                    5 // shifts by register go through %cl
                }
            }
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => 4,
            Opcode::Icmp => 3,
            Opcode::Fcmp => 4,
            Opcode::Select => 7,
            Opcode::ZExt | Opcode::SExt => 3,
            Opcode::Trunc | Opcode::Bitcast | Opcode::PtrToInt | Opcode::IntToPtr => 0,
            Opcode::FpToSi | Opcode::SiToFp | Opcode::FpExt | Opcode::FpTrunc => 4,
            Opcode::Alloca => {
                if data.operands.is_empty() {
                    0 // static frame slot
                } else {
                    7 // dynamic stack adjustment
                }
            }
            Opcode::Load => 4,
            Opcode::Store => {
                if func.value(data.operands[0]).is_constant() {
                    6 // mov [mem], imm
                } else {
                    4
                }
            }
            Opcode::Gep => {
                if Self::gep_folds(module, func, uses, inst) {
                    0
                } else {
                    4 // lea
                }
            }
            Opcode::Call => 5,
            Opcode::Phi => 0,
            Opcode::Br => 2,
            Opcode::CondBr => 2, // jcc (cmp accounted separately)
            Opcode::Ret => 1,
            Opcode::Unreachable => 1,
        }
    }
}

/// ARM Thumb-2 `-Os` size model: the embedded setting the paper's
/// introduction motivates (code size translating directly to device cost).
/// Most instructions encode in 2 bytes, with 4-byte wide encodings for
/// larger immediates, loads/stores with big offsets, and calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Thumb2SizeModel;

impl SizeModel for Thumb2SizeModel {
    fn inst_size(&self, module: &Module, func: &Function, uses: &UseMap, inst: InstId) -> u32 {
        let data = func.inst(inst);
        let has_big_imm = data.operands.iter().any(|&v| {
            matches!(func.value(v), ValueDef::ConstInt { value, .. } if *value < -128 || *value > 255)
        });
        match data.opcode {
            Opcode::Add | Opcode::Sub | Opcode::And | Opcode::Or | Opcode::Xor => {
                if has_big_imm {
                    4
                } else {
                    2
                }
            }
            Opcode::Mul => 4,
            Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem => 4,
            Opcode::Shl | Opcode::LShr | Opcode::AShr => 2,
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => 4, // VFP
            Opcode::Icmp => 2,
            Opcode::Fcmp => 4,
            Opcode::Select => 6, // IT block + moves
            Opcode::ZExt | Opcode::SExt => 2,
            Opcode::Trunc | Opcode::Bitcast | Opcode::PtrToInt | Opcode::IntToPtr => 0,
            Opcode::FpToSi | Opcode::SiToFp | Opcode::FpExt | Opcode::FpTrunc => 4,
            Opcode::Alloca => 0,
            Opcode::Load | Opcode::Store => {
                // Global addresses need a literal-pool load of the base.
                let ptr = *data.operands.last().expect("memory operand");
                if matches!(func.value(ptr), ValueDef::GlobalAddr(_)) {
                    6
                } else {
                    2
                }
            }
            Opcode::Gep => {
                if X86SizeModel::gep_folds(module, func, uses, inst) {
                    0
                } else {
                    4 // add with shifted register
                }
            }
            Opcode::Call => 4, // bl
            Opcode::Phi => 0,
            Opcode::Br | Opcode::CondBr => 2,
            Opcode::Ret => 2, // bx lr
            Opcode::Unreachable => 2,
        }
    }

    fn function_overhead(&self) -> u32 {
        4 // push {lr} ... pop {pc}
    }
}

/// Lowering target selectable in the pass options. The same rolling
/// decision can flip between targets: Thumb-2's tiny loop overhead makes
/// more rolls profitable, x86-64's cheap immediates fewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetKind {
    /// x86-64 `-Os` (the paper's evaluation target).
    #[default]
    X86_64,
    /// ARM Thumb-2 `-Os` (the embedded motivation).
    Thumb2,
}

impl TargetKind {
    /// Estimated `.text` size of `func` under this target's model.
    pub fn function_estimate(self, module: &Module, func: &Function) -> u32 {
        match self {
            TargetKind::X86_64 => function_size_estimate(&X86SizeModel, module, func),
            TargetKind::Thumb2 => function_size_estimate(&Thumb2SizeModel, module, func),
        }
    }

    /// Fixed per-function overhead under this target's model.
    pub fn function_overhead(self) -> u32 {
        match self {
            TargetKind::X86_64 => X86SizeModel.function_overhead(),
            TargetKind::Thumb2 => Thumb2SizeModel.function_overhead(),
        }
    }
}

/// Estimated `.text` size of one function under `model`. The use map is
/// computed once and shared across every block.
pub fn function_size_estimate<M: SizeModel>(model: &M, module: &Module, func: &Function) -> u32 {
    if func.is_declaration {
        return 0;
    }
    let uses = func.compute_uses();
    let body: u32 = func
        .block_ids()
        .flat_map(|b| &func.block(b).insts)
        .map(|&i| model.inst_size(module, func, &uses, i))
        .sum();
    body + model.function_overhead()
}

/// Estimated `.text` size of the whole module.
pub fn module_text_estimate<M: SizeModel>(model: &M, module: &Module) -> u64 {
    module
        .func_ids()
        .map(|f| function_size_estimate(model, module, module.func(f)) as u64)
        .sum()
}

/// Total bytes of initialized constant data (`.rodata`): the cost of global
/// constant arrays emitted for mismatching nodes.
pub fn module_rodata_size(module: &Module) -> u64 {
    module
        .global_ids()
        .filter(|&g| module.global(g).is_const)
        .map(|g| module.global_size(g))
        .sum()
}

/// Estimated size of a *set* of values if they had to be materialized: used
/// by profitability to price mismatching nodes. Constants that fit an
/// immediate are free; anything else costs a register move.
pub fn operand_materialization_cost(
    _module: &Module,
    func: &Function,
    v: rolag_ir::ValueId,
) -> u32 {
    match func.value(v) {
        ValueDef::ConstInt { value, .. } => {
            if *value >= i32::MIN as i64 && *value <= i32::MAX as i64 {
                0
            } else {
                10 // movabs
            }
        }
        ValueDef::ConstFloat { .. } => 8, // constant-pool load
        ValueDef::GlobalAddr(_) | ValueDef::FuncAddr(_) => 0,
        _ => 0,
    }
}

/// Helper used in several passes: true when `ty` is lowered to zero bytes of
/// data (void / function types).
pub fn is_zero_sized(module: &Module, ty: rolag_ir::TypeId) -> bool {
    matches!(
        module.types.kind(ty),
        TypeKind::Void | TypeKind::Func { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn f_size(text: &str) -> u32 {
        let m = parse_module(text).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        function_size_estimate(&X86SizeModel, &m, f)
    }

    #[test]
    fn straight_line_bigger_than_empty() {
        let small = f_size("module \"t\"\nfunc @f() -> void {\nentry:\n  ret\n}\n");
        let big = f_size(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 %p0, i32 1
  %2 = mul i32 %1, %1
  %3 = sub i32 %2, %p0
  ret %3
}
"#,
        );
        assert!(big > small);
        assert_eq!(small, 4 + 1);
    }

    #[test]
    fn folded_gep_is_free() {
        let folded = f_size(
            r#"
module "t"
global @g : [8 x i32] = zero
func @f(i64 %p0) -> i32 {
entry:
  %p = gep i32, @g, %p0
  %v = load i32, %p
  ret %v
}
"#,
        );
        let unfolded = f_size(
            r#"
module "t"
global @g : [8 x i32] = zero
func @f(i64 %p0) -> ptr {
entry:
  %p = gep i32, @g, %p0
  ret %p
}
"#,
        );
        // In the folded case the gep contributes nothing beyond the load.
        assert_eq!(folded, 4 + 4 + 1);
        assert_eq!(unfolded, 4 + 4 + 1);
    }

    #[test]
    fn phis_and_control_are_cheap() {
        let loop_fn = f_size(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, %p0
  condbr %3, loop, exit
exit:
  ret %2
}
"#,
        );
        // br 2 + phi 0 + add 4 + icmp 3 + condbr 2 + ret 1 + overhead 4.
        assert_eq!(loop_fn, 16);
    }

    #[test]
    fn rodata_counts_const_globals_only() {
        let m = parse_module(
            "module \"t\"\nconst @a : [4 x i32] = ints i32 [1,2,3,4]\nglobal @b : [4 x i32] = zero\n",
        )
        .unwrap();
        assert_eq!(module_rodata_size(&m), 16);
    }
}
