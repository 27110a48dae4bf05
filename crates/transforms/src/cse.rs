//! Local common-subexpression elimination.
//!
//! A block-local value-numbering pass over pure instructions plus
//! redundant-load elimination with conservative invalidation. This models
//! the piece of the `-Os` pipeline the paper blames for defeating LLVM's
//! rerolling: "loop unrolling tends to enable other optimizations, such as
//! common sub-expression elimination, limiting LLVM's ability to reroll the
//! loop" (§V-C). Deduplicating loop-invariant subexpressions across unrolled
//! iterations makes the iterations structurally unequal — fatal for the
//! baseline's strict isomorphism check, while RoLAG represents the shared
//! value as an identical node.

use std::collections::HashMap;

use rolag_analysis::alias::may_alias;
use rolag_ir::{
    BlockId, Effects, Function, InstExtra, InstId, Module, Opcode, Operands, TypeId, ValueId,
};

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExtraKey {
    None,
    Icmp(rolag_ir::IntPredicate),
    Fcmp(u8),
    Gep(TypeId),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExprKey {
    opcode: Opcode,
    ty: TypeId,
    operands: Operands,
    extra: ExtraKey,
}

fn key_of(func: &Function, inst: InstId) -> Option<ExprKey> {
    let data = func.inst(inst);
    let cse_able = data.opcode.is_binop()
        || data.opcode.is_cast()
        || matches!(
            data.opcode,
            Opcode::Gep | Opcode::Icmp | Opcode::Fcmp | Opcode::Select
        );
    if !cse_able {
        return None;
    }
    let extra = match &data.extra {
        InstExtra::None => ExtraKey::None,
        InstExtra::Icmp(p) => ExtraKey::Icmp(*p),
        InstExtra::Fcmp(p) => ExtraKey::Fcmp(*p as u8),
        InstExtra::Gep { elem_ty } => ExtraKey::Gep(*elem_ty),
        _ => return None,
    };
    Some(ExprKey {
        opcode: data.opcode,
        ty: data.ty,
        operands: data.operands.clone(),
        extra,
    })
}

/// Runs CSE over one block. Returns the number of instructions removed.
fn cse_block(module: &Module, func: &mut Function, block: BlockId) -> usize {
    let mut exprs: HashMap<ExprKey, ValueId> = HashMap::new();
    // Available loads: (ptr, ty) -> value, invalidated by clobbers.
    let mut loads: HashMap<(ValueId, TypeId), ValueId> = HashMap::new();
    let mut removed = 0;
    let insts: Vec<InstId> = func.block(block).insts.clone();
    for inst in insts {
        if !func.is_live(inst) {
            continue;
        }
        let data = func.inst(inst).clone();
        match data.opcode {
            Opcode::Load => {
                let lkey = (data.operands[0], data.ty);
                if let Some(&prev) = loads.get(&lkey) {
                    let result = func.inst_result(inst);
                    func.replace_all_uses(result, prev);
                    func.remove_inst(inst);
                    removed += 1;
                } else {
                    loads.insert(lkey, func.inst_result(inst));
                }
            }
            Opcode::Store => {
                // Forward the stored value to later identical loads, and
                // invalidate anything that may alias.
                let vty = func.value_ty(data.operands[0], &module.types);
                let size = module.types.size_of(vty);
                loads.retain(|&(p, t), _| {
                    !may_alias(
                        module,
                        func,
                        p,
                        module.types.size_of(t),
                        data.operands[1],
                        size,
                    )
                });
                loads.insert((data.operands[1], vty), data.operands[0]);
            }
            Opcode::Call => {
                if let InstExtra::Call { callee } = data.extra {
                    if module.func(callee).effects == Effects::ReadWrite {
                        loads.clear();
                    }
                }
            }
            _ => {
                if let Some(key) = key_of(func, inst) {
                    if let Some(&prev) = exprs.get(&key) {
                        let result = func.inst_result(inst);
                        func.replace_all_uses(result, prev);
                        func.remove_inst(inst);
                        removed += 1;
                    } else {
                        exprs.insert(key, func.inst_result(inst));
                    }
                }
            }
        }
    }
    removed
}

/// Runs CSE over every block of every definition. Returns removals.
pub fn cse_module(module: &mut Module) -> usize {
    let ids: Vec<_> = module.func_ids().collect();
    let mut removed = 0;
    for id in ids {
        if module.func(id).is_declaration {
            continue;
        }
        let mut func = module.func(id).clone();
        for block in func.block_ids().collect::<Vec<_>>() {
            removed += cse_block(module, &mut func, block);
        }
        module.replace_func(id, func);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::interp::check_equivalence;
    use rolag_ir::parser::parse_module;
    use rolag_ir::verify::verify_module;

    fn run(text: &str) -> (Module, Module, usize) {
        let orig = parse_module(text).unwrap();
        let mut m = orig.clone();
        let removed = cse_module(&mut m);
        verify_module(&m).expect("verifies");
        (orig, m, removed)
    }

    #[test]
    fn dedups_pure_expressions() {
        let (orig, m, removed) = run(r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %a = add i32 %p0, %p1
  %b = add i32 %p0, %p1
  %c = mul i32 %a, %b
  ret %c
}
"#);
        assert_eq!(removed, 1);
        check_equivalence(
            &orig,
            &m,
            "f",
            &[
                rolag_ir::interp::IValue::Int(3),
                rolag_ir::interp::IValue::Int(4),
            ],
        )
        .expect("equivalent");
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.num_live_insts(), 3);
    }

    #[test]
    fn dedups_redundant_loads_until_clobbered() {
        let (orig, m, removed) = run(r#"
module "t"
global @g : [4 x i32] = ints i32 [5, 6, 7, 8]
func @f(ptr %p0) -> i32 {
entry:
  %q = gep i32, @g, i64 0
  %v1 = load i32, %q
  %v2 = load i32, %q
  store i32 9, %p0
  %v3 = load i32, %q
  %s1 = add i32 %v1, %v2
  %s2 = add i32 %s1, %v3
  ret %s2
}
"#);
        // v2 dedups with v1; v3 survives (the store through %p0 may alias).
        assert_eq!(removed, 1);
        let mut i = rolag_ir::interp::Interpreter::new(&m);
        // Give it a valid scratch pointer: reuse @g's tail element.
        let g = m.global_by_name("g").unwrap();
        let addr = i.global_addr(g) + 12;
        let out = i.run("f", &[rolag_ir::interp::IValue::Ptr(addr)]).unwrap();
        assert_eq!(out.ret, rolag_ir::interp::IValue::Int(15));
        let _ = orig;
    }

    #[test]
    fn store_forwards_to_identical_load() {
        let (orig, m, removed) = run(r#"
module "t"
global @g : [4 x i32] = zero
func @f() -> i32 {
entry:
  %q = gep i32, @g, i64 1
  store i32 42, %q
  %v = load i32, %q
  ret %v
}
"#);
        assert_eq!(removed, 1);
        check_equivalence(&orig, &m, "f", &[]).expect("equivalent");
    }

    #[test]
    fn external_calls_invalidate_loads() {
        let (_orig, m, removed) = run(r#"
module "t"
declare @clobber() -> void readwrite
global @g : [4 x i32] = zero
func @f() -> i32 {
entry:
  %q = gep i32, @g, i64 0
  %v1 = load i32, %q
  call void @clobber()
  %v2 = load i32, %q
  %s = add i32 %v1, %v2
  ret %s
}
"#);
        assert_eq!(removed, 0);
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.num_live_insts(), 6);
    }

    #[test]
    fn invariant_loads_across_unrolled_iterations_dedup() {
        // The mechanism that defeats the baseline rerolling: an invariant
        // load repeated per unrolled iteration collapses to one.
        let text = r#"
module "t"
global @a : [16 x i32] = zero
func @f() -> void {
entry:
  br loop
loop:
  %iv = phi i64 [ i64 0, entry ], [ %ivn, loop ]
  %q = gep i32, @a, i64 15
  %inv = load i32, %q
  %s0 = gep i32, @a, %iv
  store %inv, %s0
  %ivn = add i64 %iv, i64 1
  %cmp = icmp slt %ivn, i64 8
  condbr %cmp, loop, exit
exit:
  ret
}
"#;
        let orig = parse_module(text).unwrap();
        let mut m = orig.clone();
        crate::unroll::unroll_module(&mut m, 4);
        let before = m.func(m.func_by_name("f").unwrap()).num_live_insts();
        let removed = cse_module(&mut m);
        assert!(removed >= 3, "the 4 invariant loads collapse to 1");
        let after = m.func(m.func_by_name("f").unwrap()).num_live_insts();
        assert!(after < before);
        check_equivalence(&orig, &m, "f", &[]).expect("equivalent");
    }
}
