//! Partial unrolling of single-block counted loops.
//!
//! This is the preparation step the paper applies to TSVC: "we have forced
//! all its inner loops to unroll by a factor of 8" (§V-C). The unroller
//! clones the loop body `factor - 1` times, materializing `iv + k*step`
//! adds for the induction variable (the *root* instructions that LLVM's
//! rerolling later looks for) and chaining accumulator phis through the
//! copies.

use std::collections::HashMap;

use rolag_analysis::dom::DomTree;
use rolag_analysis::loops::{find_loops, trip_count, Loop, TripCount};
use rolag_ir::{
    Function, InstData, InstExtra, InstId, Module, Opcode, Operands, TypeStore, ValueId,
};

/// Result of attempting to unroll one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollOutcome {
    /// The loop was unrolled by the given factor.
    Unrolled {
        /// Factor applied.
        factor: u32,
    },
    /// The loop shape is unsupported (multi-block, no induction variable,
    /// no analyzable trip count).
    UnsupportedShape,
    /// The trip count is not statically known or not divisible by the
    /// factor; unrolling would need an epilogue, which we do not generate.
    IndivisibleTripCount,
}

/// Unrolls every eligible single-block loop of `func` by `factor`, each
/// against the pre-pass `module_snapshot`. Returns one outcome per
/// detected loop.
pub fn unroll_loops_in_function(
    module_types: &mut TypeStore,
    module_snapshot: &Module,
    func: &mut Function,
    factor: u32,
) -> Vec<UnrollOutcome> {
    assert!(factor >= 2, "unroll factor must be at least 2");
    let dom = DomTree::compute(func);
    let loops = find_loops(func, &dom);
    loops
        .iter()
        .map(|lp| unroll_one(module_types, module_snapshot, func, lp, factor))
        .collect()
}

/// Unrolls every eligible loop in every function of `module`.
pub fn unroll_module(module: &mut Module, factor: u32) -> Vec<UnrollOutcome> {
    let snapshot = module.clone();
    let ids: Vec<_> = module.func_ids().collect();
    let mut outcomes = Vec::new();
    for id in ids {
        if module.func(id).is_declaration {
            continue;
        }
        let (func, types) = module.func_and_types_mut(id);
        outcomes.extend(unroll_loops_in_function(types, &snapshot, func, factor));
    }
    outcomes
}

fn unroll_one(
    types: &mut TypeStore,
    module: &Module,
    func: &mut Function,
    lp: &Loop,
    factor: u32,
) -> UnrollOutcome {
    if !lp.is_single_block() {
        return UnrollOutcome::UnsupportedShape;
    }
    let Some(tc) = trip_count(module, func, lp) else {
        return UnrollOutcome::UnsupportedShape;
    };
    let Some(trips) = tc.known_trips else {
        return UnrollOutcome::IndivisibleTripCount;
    };
    if trips % factor as u64 != 0 || trips < factor as u64 {
        return UnrollOutcome::IndivisibleTripCount;
    }
    // The exit compare must test the incremented value; otherwise the
    // "continue" decision for intermediate copies would differ.
    if !tc.tests_next {
        return UnrollOutcome::UnsupportedShape;
    }
    apply_unroll(types, func, lp, &tc, factor);
    UnrollOutcome::Unrolled { factor }
}

fn apply_unroll(
    types: &mut TypeStore,
    func: &mut Function,
    lp: &Loop,
    tc: &TripCount,
    factor: u32,
) {
    let header = lp.header;
    let iv = &tc.iv;
    let iv_ty = func.value_ty(iv.phi_value, types);

    let all: Vec<InstId> = func.block(header).insts.clone();
    let term = *all.last().expect("loop block has terminator");
    let cmp = tc.cmp;

    let mut phis: Vec<InstId> = Vec::new();
    let mut body: Vec<InstId> = Vec::new();
    for &i in &all {
        if i == term || i == cmp {
            continue;
        }
        if func.inst(i).opcode == Opcode::Phi {
            phis.push(i);
        } else {
            body.push(i);
        }
    }

    // Detach compare and terminator; they will be re-appended last.
    func.remove_inst(cmp);
    func.remove_inst(term);

    // Recurrence value per phi (the operand flowing around the back edge).
    let mut phi_recur: HashMap<InstId, ValueId> = HashMap::new();
    for &p in &phis {
        let data = func.inst(p);
        let InstExtra::Phi { incoming } = &data.extra else {
            continue;
        };
        for (k, &inb) in incoming.iter().enumerate() {
            if inb == lp.latch {
                phi_recur.insert(p, data.operands[k]);
            }
        }
    }

    // map: original value -> value in the *current* copy.
    let mut map: HashMap<ValueId, ValueId> = HashMap::new();
    let mut last_map = map.clone();

    for k in 1..factor as u64 {
        // Advance phis: copy k sees the previous copy's recurrence values.
        let prev = if k == 1 { None } else { Some(&last_map) };
        let mut new_map: HashMap<ValueId, ValueId> = HashMap::new();
        for &p in &phis {
            let pv = func.inst_result(p);
            if p == iv.phi {
                continue; // the iv is materialized directly below
            }
            if let Some(&r) = phi_recur.get(&p) {
                let carried = match prev {
                    None => r,
                    Some(m) => *m.get(&r).unwrap_or(&r),
                };
                new_map.insert(pv, carried);
            }
        }
        // Materialize iv_k = iv0 + k*step.
        let offset = func.const_int(iv_ty, (k as i64) * iv.step);
        let (iv_k_inst, iv_k) = func.create_inst(InstData {
            opcode: Opcode::Add,
            ty: iv_ty,
            operands: [iv.phi_value, offset].into(),
            block: header,
            extra: InstExtra::None,
        });
        func.append_inst(header, iv_k_inst);
        new_map.insert(iv.phi_value, iv_k);

        // Clone the body in order.
        for &i in &body {
            let data = func.inst(i).clone();
            let operands: Operands = data
                .operands
                .iter()
                .map(|op| *new_map.get(op).unwrap_or(op))
                .collect();
            let (ci, cv) = func.create_inst(InstData {
                opcode: data.opcode,
                ty: data.ty,
                operands,
                block: header,
                extra: data.extra,
            });
            func.append_inst(header, ci);
            new_map.insert(func.inst_result(i), cv);
        }
        map = new_map.clone();
        last_map = new_map;
    }

    // New latch increment: iv_next = iv0 + factor*step.
    let big_step = func.const_int(iv_ty, factor as i64 * iv.step);
    let (latch_add, latch_v) = func.create_inst(InstData {
        opcode: Opcode::Add,
        ty: iv_ty,
        operands: [iv.phi_value, big_step].into(),
        block: header,
        extra: InstExtra::None,
    });
    func.append_inst(header, latch_add);

    // Re-append compare (now against the new increment) and terminator.
    let old_next = func.inst_result(iv.step_inst);
    func.append_inst(header, cmp);
    for op in &mut func.inst_mut(cmp).operands {
        if *op == old_next {
            *op = latch_v;
        }
    }
    func.append_inst(header, term);

    // Patch phi back-edge operands to the last copy's values, and rewrite
    // *external* uses of loop values to the final copy's values.
    for &p in &phis {
        let Some(&r) = phi_recur.get(&p) else {
            continue;
        };
        let new_r = if p == iv.phi {
            latch_v
        } else {
            *map.get(&r).unwrap_or(&r)
        };
        let pv_data = func.inst_mut(p);
        let InstExtra::Phi { incoming } = &pv_data.extra else {
            continue;
        };
        let arm = incoming
            .iter()
            .position(|&b| b == lp.latch)
            .expect("latch incoming");
        pv_data.operands[arm] = new_r;
    }

    // External uses (outside the header block) of body values flow from the
    // last executed copy.
    let finals: Vec<(ValueId, ValueId)> = body
        .iter()
        .filter_map(|&i| {
            let v = func.inst_result(i);
            map.get(&v).map(|&nv| (v, nv))
        })
        .chain(std::iter::once((old_next, latch_v)))
        .collect();
    let users: Vec<(InstId, usize, ValueId)> = {
        let uses = func.compute_uses();
        finals
            .iter()
            .flat_map(|&(old, new)| {
                uses.of(old)
                    .iter()
                    .map(move |&(user, idx)| (user, idx, new))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    for (user, idx, new) in users {
        if func.inst(user).block != header {
            func.inst_mut(user).operands[idx] = new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::interp::{equivalent, IValue, Interpreter};
    use rolag_ir::parser::parse_module;
    use rolag_ir::verify::verify_module;

    const INIT_LOOP: &str = r#"
module "t"
global @a : [64 x i32] = zero
func @f() -> i32 {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
  %p = gep i32, @a, %1
  %m = mul i32 %1, i32 5
  store %m, %p
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, i32 64
  condbr %3, loop, exit
exit:
  %q = gep i32, @a, i32 13
  %v = load i32, %q
  ret %v
}
"#;

    const SUM_LOOP: &str = r#"
module "t"
global @a : [32 x i32] = ints i32 [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32]
func @f() -> i32 {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
  %s = phi i32 [ i32 0, entry ], [ %ns, loop ]
  %p = gep i32, @a, %1
  %v = load i32, %p
  %ns = add i32 %s, %v
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, i32 32
  condbr %3, loop, exit
exit:
  ret %ns
}
"#;

    fn unroll_and_check(text: &str, factor: u32) -> Module {
        let mut m = parse_module(text).unwrap();
        let orig = m.clone();
        let outcomes = unroll_module(&mut m, factor);
        assert_eq!(outcomes, vec![UnrollOutcome::Unrolled { factor }]);
        verify_module(&m).expect("unrolled module must verify");
        let mut ia = Interpreter::new(&orig);
        let mut ib = Interpreter::new(&m);
        let oa = ia.run("f", &[]).unwrap();
        let ob = ib.run("f", &[]).unwrap();
        assert!(equivalent(&oa, &ob), "unroll changed behaviour");
        m
    }

    #[test]
    fn unrolls_store_loop_by_8_preserving_semantics() {
        let mut m = unroll_and_check(INIT_LOOP, 8);
        crate::pipeline::cleanup_module(&mut m);
        let f = m.func(m.func_by_name("f").unwrap());
        let lp = f.block_by_name("loop").unwrap();
        // After DCE: 8 copies of (gep, mul, store) + 7 iv adds + latch add
        // + phi + cmp + br. The per-copy clones of the step add are dead.
        assert_eq!(f.block(lp).insts.len(), 8 * 3 + 7 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn unrolls_reduction_loop_preserving_sum() {
        let m = unroll_and_check(SUM_LOOP, 4);
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("f", &[]).unwrap().ret, IValue::Int(33 * 16));
    }

    #[test]
    fn refuses_indivisible_trip_counts() {
        let mut m = parse_module(INIT_LOOP).unwrap();
        let outcomes = unroll_module(&mut m, 7);
        assert_eq!(outcomes, vec![UnrollOutcome::IndivisibleTripCount]);
    }

    #[test]
    fn refuses_multi_block_loops() {
        let text = r#"
module "t"
func @f() -> void {
entry:
  br header
header:
  %1 = phi i32 [ i32 0, entry ], [ %2, latch ]
  br latch
latch:
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, i32 8
  condbr %3, header, exit
exit:
  ret
}
"#;
        let mut m = parse_module(text).unwrap();
        let outcomes = unroll_module(&mut m, 2);
        assert_eq!(outcomes, vec![UnrollOutcome::UnsupportedShape]);
    }

    #[test]
    fn unroll_by_full_trip_count_works() {
        let text = r#"
module "t"
global @a : [4 x i32] = zero
func @f() -> i32 {
entry:
  br loop
loop:
  %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
  %p = gep i32, @a, %1
  store %1, %p
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, i32 4
  condbr %3, loop, exit
exit:
  %q = gep i32, @a, i32 3
  %v = load i32, %q
  ret %v
}
"#;
        let m = unroll_and_check(text, 4);
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("f", &[]).unwrap().ret, IValue::Int(3));
    }
}
