//! Instruction selection: IR → abstract x86-64 machine instructions with
//! byte sizes.
//!
//! The selector models the size-relevant behaviours of an `-Os` x86-64
//! backend:
//!
//! * `gep`s whose only users are loads/stores fold into addressing modes;
//! * multiplications by powers of two become shifts;
//! * `icmp` feeding a `condbr` fuses into `cmp` + `jcc`;
//! * immediates pick short encodings when they fit in 8 bits;
//! * backward (loop) jumps use the short `rel8` form, forward jumps the
//!   near `rel32` form.
//!
//! It intentionally disagrees in detail with the cheap TTI-style estimate in
//! `rolag-analysis` — the same gap a real backend has against LLVM's cost
//! model, which the paper identifies as the source of profitability false
//! positives (§V-A).

use std::collections::{HashMap, HashSet};

use rolag_ir::{BlockId, Function, InstExtra, InstId, Module, Opcode, TypeKind, ValueDef, ValueId};

/// Register class of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// General-purpose (integers, pointers).
    Gpr,
    /// SSE vector registers (floats).
    Xmm,
}

/// One selected machine instruction (we only track what sizing and register
/// allocation need).
#[derive(Debug, Clone)]
pub struct MachineInst {
    /// Encoded size in bytes.
    pub size: u32,
    /// Value defined, if any.
    pub def: Option<ValueId>,
    /// Values read.
    pub uses: Vec<ValueId>,
    /// Short mnemonic (debugging / tests).
    pub mnemonic: &'static str,
}

/// Machine code for one block.
#[derive(Debug, Clone)]
pub struct MachineBlock {
    /// Source IR block.
    pub block: BlockId,
    /// Selected instructions in order.
    pub insts: Vec<MachineInst>,
}

/// Machine code for one function, pre-register-allocation.
#[derive(Debug, Clone)]
pub struct MachineFunction {
    /// Blocks in layout order.
    pub blocks: Vec<MachineBlock>,
    /// Whether a stack frame is required (allocas present).
    pub needs_frame: bool,
    /// Register class per value (values that live in registers).
    pub reg_class: HashMap<ValueId, RegClass>,
}

impl MachineFunction {
    /// Sum of encoded instruction bytes (before spill code).
    pub fn code_bytes(&self) -> u32 {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .map(|i| i.size)
            .sum()
    }
}

fn const_int(func: &Function, v: ValueId) -> Option<i64> {
    func.value(v).as_const_int()
}

fn imm_size(value: i64) -> u32 {
    if (-128..=127).contains(&value) {
        1
    } else {
        4
    }
}

/// Which geps fold entirely into their users' addressing modes.
fn folded_geps(module: &Module, func: &Function) -> HashSet<InstId> {
    let uses = func.compute_uses();
    let mut folded = HashSet::new();
    for inst in func.live_insts() {
        let data = func.inst(inst);
        if data.opcode != Opcode::Gep {
            continue;
        }
        let InstExtra::Gep { elem_ty } = data.extra else {
            continue;
        };
        if data.operands.len() > 2 {
            continue;
        }
        let scale = module.types.size_of(elem_ty);
        if !matches!(scale, 1 | 2 | 4 | 8) {
            continue;
        }
        let users = uses.of(func.inst_result(inst));
        let all_mem = !users.is_empty()
            && users.iter().all(|&(u, idx)| {
                let ud = func.inst(u);
                (ud.opcode == Opcode::Load && idx == 0) || (ud.opcode == Opcode::Store && idx == 1)
            });
        if all_mem {
            folded.insert(inst);
        }
    }
    folded
}

/// Size of a memory operand (`modrm` + optional SIB + displacement),
/// given the address expression.
fn address_bytes(module: &Module, func: &Function, ptr: ValueId, folded: &HashSet<InstId>) -> u32 {
    match func.value(ptr) {
        // RIP-relative global: modrm + disp32.
        ValueDef::GlobalAddr(_) => 5,
        ValueDef::Inst(i) if folded.contains(i) => {
            let data = func.inst(*i);
            // base + index*scale (+disp): modrm + SIB, plus disp when the
            // index is a constant.
            match const_int(func, data.operands[1]) {
                Some(c) => {
                    let InstExtra::Gep { elem_ty } = data.extra else {
                        return 2;
                    };
                    let disp = c * module.types.size_of(elem_ty) as i64;
                    if disp == 0 {
                        2
                    } else {
                        1 + imm_size(disp)
                    }
                }
                None => 2,
            }
        }
        _ => 1,
    }
}

/// Function-wide context instruction selection needs beyond one block's
/// content: the set of folded geps and the layout position of every block
/// (for jump sizing).
struct SelectCx {
    folded: HashSet<InstId>,
    block_pos: HashMap<BlockId, usize>,
}

/// Builds the cross-block selection context for `func`.
fn select_context(module: &Module, func: &Function) -> SelectCx {
    SelectCx {
        folded: folded_geps(module, func),
        block_pos: func.block_ids().enumerate().map(|(i, b)| (b, i)).collect(),
    }
}

/// Selects machine instructions for one block at layout position `bpos`.
/// Returns the selected block and whether it forces a stack frame (allocas).
/// Defined values are classified into `reg_class` as a side effect.
fn select_block(
    module: &Module,
    func: &Function,
    cx: &SelectCx,
    bpos: usize,
    b: BlockId,
    reg_class: &mut HashMap<ValueId, RegClass>,
) -> (MachineBlock, bool) {
    let folded = &cx.folded;
    let block_pos = &cx.block_pos;
    let classify = |func: &Function, v: ValueId| {
        let ty = func.value_ty(v, &module.types);
        let class = if module.types.is_float(ty) {
            RegClass::Xmm
        } else {
            RegClass::Gpr
        };
        (ty, class)
    };

    let mut needs_frame = false;
    let mut insts: Vec<MachineInst> = Vec::new();
    {
        let ir_insts = &func.block(b).insts;
        for (pos, &i) in ir_insts.iter().enumerate() {
            let data = func.inst(i);
            let result = func.inst_result(i);
            let mut reg_uses: Vec<ValueId> = data
                .operands
                .iter()
                .copied()
                .filter(|&v| matches!(func.value(v), ValueDef::Inst(_) | ValueDef::Param { .. }))
                .collect();
            let mut def = None;
            if !matches!(module.types.kind(data.ty), TypeKind::Void) {
                let (_, class) = classify(func, result);
                reg_class.insert(result, class);
                def = Some(result);
            }

            let mut push = |size: u32, mnemonic: &'static str, insts: &mut Vec<MachineInst>| {
                insts.push(MachineInst {
                    size,
                    def,
                    uses: std::mem::take(&mut reg_uses),
                    mnemonic,
                });
            };

            match data.opcode {
                Opcode::Add | Opcode::Sub | Opcode::And | Opcode::Or | Opcode::Xor => {
                    let size = match data.operands.iter().find_map(|&v| const_int(func, v)) {
                        Some(c) => 2 + imm_size(c),
                        None => 3,
                    };
                    push(size, "alu", &mut insts);
                }
                Opcode::Mul => {
                    let size = match data.operands.iter().find_map(|&v| const_int(func, v)) {
                        Some(c) if c > 0 && (c as u64).is_power_of_two() => 4, // shl
                        Some(c) => 3 + imm_size(c),                            // imul r, r, imm
                        None => 4,                                             // imul r, r
                    };
                    push(size, "mul", &mut insts);
                }
                Opcode::SDiv | Opcode::SRem => push(7, "idiv", &mut insts), // cqo + idiv
                Opcode::UDiv | Opcode::URem => push(6, "div", &mut insts),  // xor edx + div
                Opcode::Shl | Opcode::LShr | Opcode::AShr => {
                    let size = match const_int(func, data.operands[1]) {
                        Some(_) => 4,
                        None => 6, // mov cl + shift
                    };
                    push(size, "shift", &mut insts);
                }
                Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
                    push(4, "sse", &mut insts);
                }
                Opcode::Icmp => {
                    let size = match data.operands.iter().find_map(|&v| const_int(func, v)) {
                        Some(c) => 2 + imm_size(c),
                        None => 3,
                    };
                    // Fuses with a consuming condbr; the jcc is charged
                    // there.
                    push(size, "cmp", &mut insts);
                }
                Opcode::Fcmp => push(4, "ucomis", &mut insts),
                Opcode::Select => push(9, "cmov", &mut insts), // test + cmov + mov
                Opcode::ZExt => push(3, "movzx", &mut insts),
                Opcode::SExt => push(4, "movsx", &mut insts),
                Opcode::Trunc | Opcode::Bitcast | Opcode::PtrToInt | Opcode::IntToPtr => {
                    push(0, "nop", &mut insts)
                }
                Opcode::FpToSi | Opcode::SiToFp => push(5, "cvt", &mut insts),
                Opcode::FpExt | Opcode::FpTrunc => push(4, "cvtss", &mut insts),
                Opcode::Alloca => {
                    needs_frame = true;
                    // Static slot: a lea to take its address.
                    push(4, "lea", &mut insts);
                }
                Opcode::Load => {
                    let addr = address_bytes(module, func, data.operands[0], folded);
                    push(2 + addr, "mov.load", &mut insts);
                }
                Opcode::Store => {
                    let addr = address_bytes(module, func, data.operands[1], folded);
                    let size = match const_int(func, data.operands[0]) {
                        Some(c) => 2 + addr + imm_size(c).max(1),
                        None => 2 + addr,
                    };
                    push(size, "mov.store", &mut insts);
                }
                Opcode::Gep => {
                    if folded.contains(&i) {
                        push(0, "fold", &mut insts);
                    } else {
                        // lea with base+index*scale or an add for byte
                        // arithmetic.
                        push(4, "lea", &mut insts);
                    }
                }
                Opcode::Call => push(5, "call", &mut insts),
                Opcode::Phi => {
                    // Lowered as a move on each incoming edge; charge one
                    // move here (the other typically coalesces away).
                    push(3, "phi.mov", &mut insts);
                }
                Opcode::Br => {
                    let InstExtra::Br { dest } = data.extra else {
                        unreachable!()
                    };
                    let backward = block_pos[&dest] <= bpos;
                    // Fallthrough to the next block costs nothing.
                    let size = if block_pos[&dest] == bpos + 1 {
                        0
                    } else if backward {
                        2
                    } else {
                        5
                    };
                    push(size, "jmp", &mut insts);
                }
                Opcode::CondBr => {
                    let InstExtra::CondBr { then_dest, .. } = data.extra else {
                        unreachable!()
                    };
                    let backward = block_pos[&then_dest] <= bpos;
                    let size = if backward { 2 } else { 6 };
                    push(size, "jcc", &mut insts);
                }
                Opcode::Ret => push(1, "ret", &mut insts),
                Opcode::Unreachable => push(1, "ud2", &mut insts),
            }
            let _ = pos;
        }
    }
    (MachineBlock { block: b, insts }, needs_frame)
}

/// Selects machine instructions for `func`.
pub fn select_function(module: &Module, func: &Function) -> MachineFunction {
    let cx = select_context(module, func);
    let mut reg_class: HashMap<ValueId, RegClass> = HashMap::new();
    let mut needs_frame = false;
    let mut blocks = Vec::new();
    for (bpos, b) in func.block_ids().enumerate() {
        let (mb, frame) = select_block(module, func, &cx, bpos, b, &mut reg_class);
        needs_frame |= frame;
        blocks.push(mb);
    }
    MachineFunction {
        blocks,
        needs_frame,
        reg_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn select(text: &str) -> (Module, MachineFunction) {
        let m = parse_module(text).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        let mf = select_function(&m, f);
        (m.clone(), mf)
    }

    #[test]
    fn folded_gep_has_no_code() {
        let (_m, mf) = select(
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
        let sizes: Vec<(&str, u32)> = mf.blocks[0]
            .insts
            .iter()
            .map(|i| (i.mnemonic, i.size))
            .collect();
        assert_eq!(sizes[0], ("fold", 0));
        assert_eq!(sizes[1].0, "mov.load");
        assert!(sizes[1].1 >= 4);
    }

    #[test]
    fn short_vs_long_immediates() {
        let (_m, mf) = select(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %a = add i32 %p0, i32 5
  %b = add i32 %a, i32 100000
  ret %b
}
"#,
        );
        let alu: Vec<u32> = mf.blocks[0]
            .insts
            .iter()
            .filter(|i| i.mnemonic == "alu")
            .map(|i| i.size)
            .collect();
        assert_eq!(alu, vec![3, 6]);
    }

    #[test]
    fn power_of_two_mul_is_a_shift() {
        let (_m, mf) = select(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %a = mul i32 %p0, i32 8
  %b = mul i32 %a, i32 100
  ret %b
}
"#,
        );
        let muls: Vec<u32> = mf.blocks[0]
            .insts
            .iter()
            .filter(|i| i.mnemonic == "mul")
            .map(|i| i.size)
            .collect();
        assert_eq!(muls[0], 4);
        assert!(muls[1] >= 4);
    }

    #[test]
    fn backward_jumps_are_short() {
        let (_m, mf) = select(
            r#"
module "t"
func @f(i32 %p0) -> void {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, %p0
  condbr %3, loop, exit
exit:
  ret
}
"#,
        );
        // entry's br falls through; loop's jcc is backward -> 2 bytes.
        let entry_br = mf.blocks[0].insts.last().unwrap();
        assert_eq!(entry_br.size, 0);
        let jcc = mf.blocks[1]
            .insts
            .iter()
            .find(|i| i.mnemonic == "jcc")
            .unwrap();
        assert_eq!(jcc.size, 2);
    }

    #[test]
    fn allocas_force_a_frame() {
        let (_m, mf) =
            select("module \"t\"\nfunc @f() -> ptr {\nentry:\n  %a = alloca i64\n  ret %a\n}\n");
        assert!(mf.needs_frame);
    }

    #[test]
    fn float_values_use_xmm_class() {
        let (_m, mf) = select(
            r#"
module "t"
func @f(double %p0) -> double {
entry:
  %a = fmul double %p0, double 2.0
  ret %a
}
"#,
        );
        assert!(mf.reg_class.values().any(|&c| c == RegClass::Xmm));
    }
}
