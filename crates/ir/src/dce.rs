//! Dead code elimination.
//!
//! Removes live-range-dead instructions (no uses, no side effects) and
//! unreachable blocks. Used as a cleanup after loop rolling and constant
//! folding.

use crate::block::BlockId;
use crate::fold::normalize_int;
use crate::function::{Effects, Function};
use crate::inst::{InstExtra, InstId, Opcode};
use crate::module::Module;
use crate::types::TypeStore;
use crate::value::{FuncId, ValueDef};

/// Whether an instruction must be kept even when its result is unused.
fn is_root(
    func: &Function,
    types: &TypeStore,
    inst: InstId,
    callee_effects: &dyn Fn(FuncId) -> Effects,
) -> bool {
    let data = func.inst(inst);
    match data.opcode {
        Opcode::Store | Opcode::Ret | Opcode::Br | Opcode::CondBr | Opcode::Unreachable => true,
        Opcode::Call => match &data.extra {
            InstExtra::Call { callee } => callee_effects(*callee) != Effects::ReadNone,
            _ => true,
        },
        // Division traps at run time (zero divisor; signed `MIN / -1`), so
        // an unused division is only dead when its divisor is a constant
        // that provably cannot trap at the operation's width.
        op @ (Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem) => {
            let safe_divisor = func
                .value(data.operands[1])
                .as_const_int()
                .is_some_and(|v| {
                    let d = normalize_int(types, data.ty, v);
                    d != 0 && (matches!(op, Opcode::UDiv | Opcode::URem) || d != -1)
                });
            !safe_divisor
        }
        _ => false,
    }
}

/// Removes dead instructions from one function, resolving call effects
/// through `callee_effects`. Returns how many were removed.
///
/// Uses are counted once over the live instructions. A worklist then
/// removes each unused non-root instruction and takes one use off each of
/// its operands; an operand's instruction whose count reaches zero joins
/// the worklist. This reaches the fixpoint that removing every unused
/// instruction and recounting until none is left reaches, with one count
/// instead of one per round: a dead cycle (phis naming each other) keeps
/// its counts above zero and stays, as it does there.
pub fn run_dce_with(
    func: &mut Function,
    types: &TypeStore,
    callee_effects: &dyn Fn(FuncId) -> Effects,
) -> usize {
    let mut uses = vec![0u32; func.num_values()];
    for i in func.live_insts() {
        for &op in &func.inst(i).operands {
            uses[op.index()] += 1;
        }
    }
    let dead = |func: &Function, uses: &[u32], i: InstId| {
        uses[func.inst_result(i).index()] == 0 && !is_root(func, types, i, callee_effects)
    };
    let mut work: Vec<InstId> = func
        .live_insts()
        .filter(|&i| dead(func, &uses, i))
        .collect();
    let mut removed = 0;
    while let Some(i) = work.pop() {
        let operands = func.inst(i).operands.clone();
        func.remove_inst(i);
        removed += 1;
        for op in operands {
            let count = &mut uses[op.index()];
            *count -= 1;
            if *count > 0 {
                continue;
            }
            if let ValueDef::Inst(def) = *func.value(op) {
                if func.is_live(def) && dead(func, &uses, def) {
                    work.push(def);
                }
            }
        }
    }
    removed + remove_unreachable_blocks(func, types.void()).dropped
}

/// Removes dead instructions from one function. Returns how many were
/// removed.
pub fn run_dce_on(module: &Module, func: &mut Function) -> usize {
    run_dce_with(func, &module.types, &|callee| module.func(callee).effects)
}

/// What [`remove_unreachable_blocks`] dropped, and the work it took to
/// find it. The work counts are exact, so a test can bound how they grow
/// with the function where a timing would depend on the machine's load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnreachableRemoval {
    /// Instructions dropped with the dead blocks.
    pub dropped: usize,
    /// Blocks visited by the reachability walk, the sealing pass and the
    /// phi pass.
    pub blocks_visited: u64,
    /// Phis whose incoming blocks were checked against the sealed ones.
    pub phis_scanned: u64,
}

/// Removes blocks unreachable from the entry (sealing their ids with
/// `unreachable`).
pub fn remove_unreachable_blocks(
    func: &mut Function,
    void_ty: crate::types::TypeId,
) -> UnreachableRemoval {
    let mut out = UnreachableRemoval::default();
    if func.num_blocks() == 0 {
        return out;
    }
    let mut reachable = vec![false; func.num_blocks()];
    let mut work = vec![func.entry_block()];
    while let Some(b) = work.pop() {
        if std::mem::replace(&mut reachable[b.index()], true) {
            continue;
        }
        out.blocks_visited += 1;
        for s in func.successors(b) {
            work.push(s);
        }
    }
    // Seal every dead block first, in block order (the seals' arena ids
    // follow that order), then prune the phi incomings that named a block
    // sealed here in one pass over the blocks: linear in the function, not
    // one pass over it per dead block.
    let blocks: Vec<BlockId> = func.block_ids().collect();
    let mut sealed_now = vec![false; blocks.len()];
    for &b in &blocks {
        out.blocks_visited += 1;
        if reachable[b.index()] {
            continue;
        }
        let insts = &func.block(b).insts;
        // Already sealed: a lone `unreachable` contributes no code or
        // edges, and its incomings are left alone. Re-sealing would count
        // as progress every time and spin the cleanup fixpoint forever.
        if insts.len() == 1 && func.inst(insts[0]).opcode == Opcode::Unreachable {
            continue;
        }
        out.dropped += insts.len();
        func.detach_block(b);
        // Keep the block well formed: it still exists (ids are stable) but
        // is sealed off with `unreachable`, contributing no code or edges.
        let (seal, _) = func.create_inst(crate::inst::InstData {
            opcode: Opcode::Unreachable,
            ty: void_ty,
            operands: crate::inst::Operands::new(),
            block: b,
            extra: InstExtra::None,
        });
        func.append_inst(b, seal);
        sealed_now[b.index()] = true;
    }
    if !sealed_now.contains(&true) {
        return out;
    }
    for &b in &blocks {
        out.blocks_visited += 1;
        for k in 0..func.block(b).insts.len() {
            let i = func.block(b).insts[k];
            let names_sealed = match &func.inst(i).extra {
                InstExtra::Phi { incoming } => {
                    out.phis_scanned += 1;
                    incoming.iter().any(|p| sealed_now[p.index()])
                }
                _ => false,
            };
            if !names_sealed {
                continue;
            }
            let data = func.inst_mut(i);
            if let InstExtra::Phi { incoming } = &mut data.extra {
                let mut kept = 0;
                for j in 0..incoming.len() {
                    if !sealed_now[incoming[j].index()] {
                        incoming[kept] = incoming[j];
                        data.operands[kept] = data.operands[j];
                        kept += 1;
                    }
                }
                incoming.truncate(kept);
                data.operands.truncate(kept);
            }
        }
    }
    out
}

/// Runs DCE over every definition in the module. Returns the number of
/// instructions removed.
pub fn run_dce(module: &mut Module) -> usize {
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut removed = 0;
    for id in ids {
        if module.func(id).is_declaration {
            continue;
        }
        // Clone-free split: take the function out, run against the module
        // (its stub keeps the effects self-calls read), and put it back.
        let mut func = module.take_func(id);
        removed += run_dce_on(module, &mut func);
        module.replace_func(id, func);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    #[test]
    fn removes_unused_pure_instructions() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t], i32t);
        let a = fb.param(0);
        fb.block("entry");
        fb.ins(|b| {
            let one = b.i32_const(1);
            let _dead = b.add(a, one);
            let _dead2 = b.mul(a, a);
            b.ret(Some(a));
        });
        let id = fb.finish();
        let removed = run_dce(&mut m);
        assert_eq!(removed, 2);
        assert_eq!(m.func(id).num_live_insts(), 1);
    }

    #[test]
    fn keeps_stores_and_effectful_calls() {
        let mut m = Module::new("t");
        let ptr = m.types.ptr();
        let void = m.types.void();
        m.declare_func("effect", vec![], void, Effects::ReadWrite);
        m.declare_func("pure", vec![], m.types.i32(), Effects::ReadNone);
        let mut fb = FuncBuilder::new(&mut m, "f", vec![ptr], void);
        let p = fb.param(0);
        fb.block("entry");
        let (eff, eff_ty) = fb.callee("effect");
        let (pure_fn, pure_ty) = fb.callee("pure");
        fb.ins(|b| {
            let x = b.i32_const(3);
            b.store(x, p);
            b.call(eff, eff_ty, &[]);
            b.call(pure_fn, pure_ty, &[]); // dead: readnone, unused
            b.ret(None);
        });
        let id = fb.finish();
        let removed = run_dce(&mut m);
        assert_eq!(removed, 1);
        assert_eq!(m.func(id).num_live_insts(), 3);
    }

    #[test]
    fn chains_of_dead_code_collapse() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t], i32t);
        let a = fb.param(0);
        fb.block("entry");
        fb.ins(|b| {
            let x = b.add(a, a);
            let y = b.mul(x, x);
            let _z = b.sub(y, a);
            b.ret(Some(a));
        });
        let id = fb.finish();
        run_dce(&mut m);
        assert_eq!(m.func(id).num_live_insts(), 1);
    }

    #[test]
    fn keeps_unused_divisions_that_may_trap() {
        let text = r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %a = sdiv i32 %p0, %p1
  %b = sdiv i32 %p0, i32 0
  %c = srem i32 %p0, i32 -1
  %d = udiv i32 %p0, i32 -1
  %e = sdiv i32 %p0, i32 4
  ret i32 0
}
"#;
        let mut m = crate::parser::parse_module(text).unwrap();
        let removed = run_dce(&mut m);
        // Unknown divisor, zero divisor, and signed -1 divisor must stay
        // (they can trap); `udiv` by all-ones and `sdiv` by 4 cannot.
        assert_eq!(removed, 2);
        let f = m.func(m.func_by_name("f").unwrap());
        let kept: Vec<_> = f
            .live_insts()
            .filter(|&i| f.inst(i).opcode != Opcode::Ret)
            .map(|i| f.inst(i).opcode)
            .collect();
        assert_eq!(kept, vec![Opcode::SDiv, Opcode::SDiv, Opcode::SRem]);
    }

    #[test]
    fn sealing_unreachable_blocks_is_idempotent() {
        // A sealed block must not be re-sealed on the next run: the
        // cleanup fixpoint (`simplify` + DCE until no change) would
        // otherwise count the re-seal as progress and loop forever.
        let text = r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  br join
dead:
  %1 = add i32 %p0, i32 5
  br join
join:
  %2 = phi i32 [ %p0, entry ], [ %1, dead ]
  ret %2
}
"#;
        let mut m = crate::parser::parse_module(text).unwrap();
        assert!(run_dce(&mut m) > 0);
        assert_eq!(run_dce(&mut m), 0, "second DCE run must be a no-op");
    }

    #[test]
    fn drops_unreachable_blocks_and_patches_phis() {
        let text = r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  br join
dead:
  %1 = add i32 %p0, i32 5
  br join
join:
  %2 = phi i32 [ %p0, entry ], [ %1, dead ]
  ret %2
}
"#;
        let mut m = crate::parser::parse_module(text).unwrap();
        run_dce(&mut m);
        let f = m.func(m.func_by_name("f").unwrap());
        // dead block emptied; phi has one incoming now.
        let join = f.block_by_name("join").unwrap();
        let phi = f.block(join).insts[0];
        assert_eq!(f.inst(phi).operands.len(), 1);
        assert!(crate::verify::verify_module(&m).is_ok());
    }
}
