//! Loop flattening (§V-C improvement).
//!
//! When RoLAG rolls the body of an existing loop, it creates a nested loop:
//! the old header keeps the outer induction variable stepping by the lane
//! count while the new inner loop walks the lanes. LLVM's rerolling wins
//! slightly in that situation because it *reuses* the outer loop; the paper
//! suggests "running a loop flattening pass after RoLAG" to close the gap.
//!
//! This pass recognizes exactly that nest:
//!
//! ```text
//! P  -> B                      B: outer phis, br R
//! B  -> R                      R: inner loop, iv2 = 0..n step 1,
//! R  -> R | E                     indices computed as add(iv, iv2)
//! E  -> B | X                  E: ivn = add iv, n; cmp; condbr B, X
//! ```
//!
//! with `iv = 0, n, 2n, ..` and a bound divisible by `n`, and rewrites it
//! into a single loop `iv2 = 0..bound step 1`, deleting the outer control.

use rolag_analysis::dom::DomTree;
use rolag_analysis::loops::{find_loops, trip_count};
use rolag_ir::{Function, InlineList, InstExtra, InstId, Module, Opcode, Operands, ValueId};

/// Result of one flattening attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlattenOutcome {
    /// The nest was flattened.
    Flattened,
    /// The shape did not match.
    NotApplicable,
}

/// One flattening step: tries every candidate nest pair of `loops` and
/// rewrites the first match. Returns `true` when a nest was flattened —
/// the forest is then stale and must be recomputed before the next step.
fn flatten_step(module: &Module, func: &mut Function, loops: &[rolag_analysis::Loop]) -> bool {
    // Candidate inner loops: single-block, nested inside a 3-block outer
    // loop.
    for inner in loops.iter().filter(|l| l.is_single_block()) {
        for outer in loops.iter().filter(|l| l.blocks.len() == 3) {
            if !outer.blocks.contains(&inner.header) || outer.header == inner.header {
                continue;
            }
            if try_flatten(module, func, outer, inner) == FlattenOutcome::Flattened {
                return true;
            }
        }
    }
    false
}

/// Flattens every matching two-level nest in `func`. Returns the number of
/// nests flattened.
fn flatten_function(module: &Module, func: &mut Function) -> usize {
    let mut count = 0;
    loop {
        let dom = DomTree::compute(func);
        let loops = find_loops(func, &dom);
        if !flatten_step(module, func, &loops) {
            break;
        }
        count += 1;
    }
    count
}

/// Flattens every matching nest in every function.
pub fn flatten_module(module: &mut Module) -> usize {
    let ids: Vec<_> = module.func_ids().collect();
    let mut count = 0;
    for id in ids {
        if module.func(id).is_declaration {
            continue;
        }
        let mut func = module.func(id).clone();
        count += flatten_function(module, &mut func);
        module.replace_func(id, func);
    }
    count
}

fn const_of(func: &Function, v: ValueId) -> Option<i64> {
    func.value(v).as_const_int()
}

fn try_flatten(
    module: &Module,
    func: &mut Function,
    outer: &rolag_analysis::Loop,
    inner: &rolag_analysis::Loop,
) -> FlattenOutcome {
    let b = outer.header; // outer header / inner preheader
    let r = inner.header; // inner loop block
    let e = outer.latch; // outer latch / inner exit
    if b == r || r == e || b == e {
        return FlattenOutcome::NotApplicable;
    }

    // B: phis then a single `br R`.
    let b_insts = func.block(b).insts.clone();
    let Some((&b_term, b_phis)) = b_insts.split_last() else {
        return FlattenOutcome::NotApplicable;
    };
    if !matches!(func.inst(b_term).extra, InstExtra::Br { dest } if dest == r) {
        return FlattenOutcome::NotApplicable;
    }
    if b_phis.iter().any(|&i| func.inst(i).opcode != Opcode::Phi) {
        return FlattenOutcome::NotApplicable;
    }

    // Inner loop: iv2 from 0 step 1 with constant trips n, testing next.
    let Some(inner_tc) = trip_count(module, func, inner) else {
        return FlattenOutcome::NotApplicable;
    };
    let Some(n) = inner_tc.known_trips else {
        return FlattenOutcome::NotApplicable;
    };
    if inner_tc.iv.step != 1 || !inner_tc.tests_next || const_of(func, inner_tc.iv.init) != Some(0)
    {
        return FlattenOutcome::NotApplicable;
    }

    // E: exactly [ivn = add iv, n][cmp][condbr B, X].
    let e_insts = func.block(e).insts.clone();
    if e_insts.len() != 3 {
        return FlattenOutcome::NotApplicable;
    }
    let (latch_add, cmp, e_term) = (e_insts[0], e_insts[1], e_insts[2]);
    let InstExtra::CondBr {
        then_dest,
        else_dest,
    } = func.inst(e_term).extra
    else {
        return FlattenOutcome::NotApplicable;
    };
    if then_dest != b {
        return FlattenOutcome::NotApplicable;
    }
    let exit_block = else_dest;
    if func.inst(cmp).opcode != Opcode::Icmp
        || func.inst(e_term).operands[0] != func.inst_result(cmp)
    {
        return FlattenOutcome::NotApplicable;
    }
    // Latch: add(iv, n) where iv is an outer B-phi with init 0.
    if func.inst(latch_add).opcode != Opcode::Add {
        return FlattenOutcome::NotApplicable;
    }
    let (iv_outer, step) = {
        let ops = &func.inst(latch_add).operands;
        match (const_of(func, ops[0]), const_of(func, ops[1])) {
            (Some(c), None) => (ops[1], c),
            (None, Some(c)) => (ops[0], c),
            _ => return FlattenOutcome::NotApplicable,
        }
    };
    if step != n as i64 {
        return FlattenOutcome::NotApplicable;
    }
    // cmp: icmp slt/ult (add result) bound-const; bound divisible by n.
    let cmp_ops = func.inst(cmp).operands.clone();
    if cmp_ops[0] != func.inst_result(latch_add) {
        return FlattenOutcome::NotApplicable;
    }
    let Some(bound) = const_of(func, cmp_ops[1]) else {
        return FlattenOutcome::NotApplicable;
    };
    use rolag_ir::IntPredicate as P;
    let InstExtra::Icmp(pred) = func.inst(cmp).extra else {
        return FlattenOutcome::NotApplicable;
    };
    if !matches!(pred, P::Slt | P::Ult) || bound <= 0 || bound % n as i64 != 0 {
        return FlattenOutcome::NotApplicable;
    }

    // iv_outer must be a phi of B with init 0 whose only uses are the latch
    // add and `add(iv_outer, iv2)` instructions inside R.
    let Some(iv_phi) = func.value(iv_outer).as_inst() else {
        return FlattenOutcome::NotApplicable;
    };
    if func.inst(iv_phi).block != b || func.inst(iv_phi).opcode != Opcode::Phi {
        return FlattenOutcome::NotApplicable;
    }
    // Its init (non-E incoming) must be 0.
    {
        let InstExtra::Phi { incoming } = &func.inst(iv_phi).extra else {
            return FlattenOutcome::NotApplicable;
        };
        for (k, &inb) in incoming.iter().enumerate() {
            if inb != e && const_of(func, func.inst(iv_phi).operands[k]) != Some(0) {
                return FlattenOutcome::NotApplicable;
            }
        }
    }
    let iv2 = inner_tc.iv.phi_value;
    let uses = func.compute_uses();
    let mut fold_adds: Vec<InstId> = Vec::new();
    for &(user, _) in uses.of(iv_outer) {
        if user == latch_add {
            continue;
        }
        let data = func.inst(user);
        let is_fold_add = data.opcode == Opcode::Add
            && data.block == r
            && ((data.operands[0] == iv_outer && data.operands[1] == iv2)
                || (data.operands[1] == iv_outer && data.operands[0] == iv2));
        if !is_fold_add {
            return FlattenOutcome::NotApplicable;
        }
        fold_adds.push(user);
    }

    // --- rewrite ------------------------------------------------------------
    // 1. Inner bound becomes the full range.
    let i64_bound = {
        let ty = func.value_ty(func.inst_result(inner_tc.iv.step_inst), &module.types);
        func.const_int(ty, bound)
    };
    let inner_cmp = inner_tc.cmp;
    for op in func.inst_mut(inner_cmp).operands.iter_mut().skip(1) {
        *op = i64_bound;
    }
    // 2. `add(iv, iv2)` collapses to iv2.
    for add in fold_adds {
        let old = func.inst_result(add);
        func.replace_all_uses(old, iv2);
        func.remove_inst(add);
    }
    // 3. The outer loop runs once: E falls through to the exit.
    func.remove_inst(latch_add);
    func.remove_inst(cmp);
    func.remove_inst(e_term);
    let (new_br, _) = func.create_inst(rolag_ir::InstData {
        opcode: Opcode::Br,
        ty: module.types.void(),
        operands: Operands::new(),
        block: e,
        extra: InstExtra::Br { dest: exit_block },
    });
    func.append_inst(e, new_br);
    // 4. B's phis lose their E arm and collapse to their single init.
    for &phi in b_phis {
        let data = func.inst(phi).clone();
        let InstExtra::Phi { incoming } = &data.extra else {
            continue;
        };
        let keep: Operands = incoming
            .iter()
            .zip(&data.operands)
            .filter(|(&inb, _)| inb != e)
            .map(|(_, &v)| v)
            .collect();
        if keep.len() == 1 {
            let old = func.inst_result(phi);
            func.replace_all_uses(old, keep[0]);
            func.remove_inst(phi);
        } else {
            // Multiple non-E preds: just drop the E arms.
            let data = func.inst_mut(phi);
            let InstExtra::Phi { incoming } = &mut data.extra else {
                continue;
            };
            let mut ops = Operands::new();
            let mut inc = InlineList::new();
            for (k, &inb) in incoming.iter().enumerate() {
                if inb != e {
                    inc.push(inb);
                    ops.push(data.operands[k]);
                }
            }
            *incoming = inc;
            data.operands = ops;
        }
    }
    // Inner phis referencing B keep working: B still precedes R once.
    FlattenOutcome::Flattened
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cleanup_module;
    use rolag_ir::interp::check_equivalence;
    use rolag_ir::parser::parse_module;
    use rolag_ir::verify::verify_module;

    /// unroll ×8 → RoLAG-style nest is simulated here by hand: outer loop
    /// stepping by 4 with an inner 0..4 loop adding the ivs.
    const NEST: &str = r#"
module "n"
global @a : [32 x i64] = zero
func @f() -> i64 {
entry:
  br outerh
outerh:
  %iv = phi i64 [ i64 0, entry ], [ %ivn, outerl ]
  br inner
inner:
  %iv2 = phi i64 [ i64 0, outerh ], [ %iv2n, inner ]
  %idx = add i64 %iv, %iv2
  %q = gep i64, @a, %idx
  store %idx, %q
  %iv2n = add i64 %iv2, i64 1
  %c2 = icmp slt %iv2n, i64 4
  condbr %c2, inner, outerl
outerl:
  %ivn = add i64 %iv, i64 4
  %c = icmp slt %ivn, i64 32
  condbr %c, outerh, exit
exit:
  %p = gep i64, @a, i64 17
  %v = load i64, %p
  ret %v
}
"#;

    #[test]
    fn flattens_the_canonical_nest() {
        let original = parse_module(NEST).unwrap();
        let mut m = original.clone();
        assert_eq!(flatten_module(&mut m), 1);
        cleanup_module(&mut m);
        verify_module(&m).expect("verifies");
        check_equivalence(&original, &m, "f", &[]).expect("equivalent");
        // The outer latch compare is gone: only one loop remains.
        let f = m.func(m.func_by_name("f").unwrap());
        let dom = rolag_analysis::DomTree::compute(f);
        assert_eq!(rolag_analysis::find_loops(f, &dom).len(), 1);
    }

    #[test]
    fn flattened_code_is_smaller() {
        let original = parse_module(NEST).unwrap();
        let mut m = original.clone();
        flatten_module(&mut m);
        cleanup_module(&mut m);
        let before = rolag_analysis::cost::function_size_estimate(
            &rolag_analysis::X86SizeModel,
            &original,
            original.func(original.func_by_name("f").unwrap()),
        );
        let after = rolag_analysis::cost::function_size_estimate(
            &rolag_analysis::X86SizeModel,
            &m,
            m.func(m.func_by_name("f").unwrap()),
        );
        assert!(after < before, "{after} >= {before}");
    }

    #[test]
    fn refuses_indivisible_or_offset_nests() {
        // Outer iv starts at 2: not the canonical rolled shape.
        let text = NEST.replace("[ i64 0, entry ]", "[ i64 2, entry ]");
        let mut m = parse_module(&text).unwrap();
        assert_eq!(flatten_module(&mut m), 0);
    }

    #[test]
    fn refuses_extra_uses_of_the_outer_iv() {
        // The outer iv escapes into the store value: cannot flatten.
        let text = NEST.replace("store %idx, %q", "store %iv, %q");
        let mut m = parse_module(&text).unwrap();
        assert_eq!(flatten_module(&mut m), 0);
    }
}
