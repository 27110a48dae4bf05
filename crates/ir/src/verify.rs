//! IR verifier.
//!
//! Checks structural invariants (terminators, phi placement), type
//! correctness of operands, and SSA dominance of definitions over uses.

use std::fmt;

use crate::block::BlockId;
use crate::dom::DomTree;
use crate::function::Function;
use crate::fxhash::FxHashSet;
use crate::inst::{InstExtra, InstId, Opcode};
use crate::module::Module;
use crate::types::TypeKind;
use crate::value::{ValueDef, ValueId};

/// A single verification failure.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Function the error occurred in.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function in `module`.
///
/// # Errors
///
/// Returns all violations found (empty `Ok` means the module is well formed).
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for f in module.func_ids() {
        let func = module.func(f);
        if func.is_declaration {
            continue;
        }
        verify_function(module, func, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies a single function, appending violations to `errors`.
pub fn verify_function(module: &Module, func: &Function, errors: &mut Vec<VerifyError>) {
    let mut err = |message: String| {
        errors.push(VerifyError {
            func: func.name.clone(),
            message,
        })
    };

    if func.num_blocks() == 0 {
        err("definition has no blocks".into());
        return;
    }

    // Structural checks.
    for b in func.block_ids() {
        let block = func.block(b);
        match block.last_inst() {
            None => err(format!("block {} is empty", block.name)),
            Some(last) => {
                if !func.inst(last).opcode.is_terminator() {
                    err(format!("block {} does not end in a terminator", block.name));
                }
            }
        }
        let mut seen_non_phi = false;
        for (pos, &i) in block.insts.iter().enumerate() {
            let data = func.inst(i);
            if data.opcode.is_terminator() && pos + 1 != block.insts.len() {
                err(format!(
                    "terminator {} in the middle of block {}",
                    data.opcode.mnemonic(),
                    block.name
                ));
            }
            if data.opcode == Opcode::Phi {
                if seen_non_phi {
                    err(format!(
                        "phi after non-phi instruction in block {}",
                        block.name
                    ));
                }
            } else {
                seen_non_phi = true;
            }
        }
    }

    // Phi incoming edges must match predecessors (listed on the first phi).
    let mut preds: Option<Vec<Vec<BlockId>>> = None;
    for b in func.block_ids() {
        let mut pred_set: Option<FxHashSet<BlockId>> = None;
        for &i in &func.block(b).insts {
            let data = func.inst(i);
            if data.opcode != Opcode::Phi {
                continue;
            }
            if let InstExtra::Phi { incoming } = &data.extra {
                if incoming.len() != data.operands.len() {
                    err("phi operand/incoming arity mismatch".into());
                    continue;
                }
                let pred_set = pred_set.get_or_insert_with(|| {
                    let preds = preds.get_or_insert_with(|| func.predecessors());
                    preds[b.index()].iter().copied().collect()
                });
                let in_set: FxHashSet<BlockId> = incoming.iter().copied().collect();
                if in_set != *pred_set {
                    err(format!(
                        "phi in block {} incoming blocks do not match predecessors",
                        func.block(b).name
                    ));
                }
            }
        }
    }

    // Type checks.
    for b in func.block_ids() {
        for &i in &func.block(b).insts {
            check_inst_types(module, func, i, &mut err);
        }
    }

    // Dominance: definitions must dominate uses. Blocks the entry does
    // not reach are checked against the dominator forest rooted at the
    // blocks no edge enters (`DomTree::forest`), and a block on a cycle no
    // root reaches is taken as dominated by every block.
    let dom = DomTree::forest(func);
    let dominates = |a: BlockId, b: BlockId| !dom.is_reachable(b) || dom.dominates(a, b);
    let mut def_pos: Vec<Option<(BlockId, usize)>> = vec![None; func.num_values()];
    for b in func.block_ids() {
        for (pos, &i) in func.block(b).insts.iter().enumerate() {
            def_pos[func.inst_result(i).index()] = Some((b, pos));
        }
    }
    for b in func.block_ids() {
        for (pos, &i) in func.block(b).insts.iter().enumerate() {
            let data = func.inst(i);
            for (op_idx, &op) in data.operands.iter().enumerate() {
                if !matches!(func.value(op), ValueDef::Inst(_)) {
                    continue;
                }
                let Some((def_bb, def_pos_in_bb)) = def_pos[op.index()] else {
                    err(format!(
                        "operand of {} refers to a detached instruction",
                        data.opcode.mnemonic()
                    ));
                    continue;
                };
                if data.opcode == Opcode::Phi {
                    // Phi uses must dominate the *incoming edge*, i.e. the
                    // def must dominate the incoming block's terminator.
                    if let InstExtra::Phi { incoming } = &data.extra {
                        let in_bb = incoming[op_idx];
                        if !dominates(def_bb, in_bb) {
                            err(format!(
                                "phi incoming value does not dominate edge from {}",
                                func.block(in_bb).name
                            ));
                        }
                    }
                } else if def_bb == b {
                    if def_pos_in_bb >= pos {
                        err(format!(
                            "use of value before its definition in block {}",
                            func.block(b).name
                        ));
                    }
                } else if !dominates(def_bb, b) {
                    err(format!(
                        "definition in {} does not dominate use in {}",
                        func.block(def_bb).name,
                        func.block(b).name
                    ));
                }
            }
        }
    }
}

fn check_inst_types(module: &Module, func: &Function, i: InstId, err: &mut impl FnMut(String)) {
    let types = &module.types;
    let data = func.inst(i);
    let ty_of = |v: ValueId| func.value_ty(v, types);
    match data.opcode {
        op if op.is_binop() => {
            if data.operands.len() != 2 {
                err(format!("{} must have 2 operands", op.mnemonic()));
                return;
            }
            let (a, b) = (ty_of(data.operands[0]), ty_of(data.operands[1]));
            if a != data.ty || b != data.ty {
                err(format!(
                    "{} operand types ({}, {}) do not match result type {}",
                    op.mnemonic(),
                    types.display(a),
                    types.display(b),
                    types.display(data.ty)
                ));
            }
            let ok_class = if op.is_float_binop() {
                types.is_float(data.ty)
            } else {
                types.is_int(data.ty)
            };
            if !ok_class {
                err(format!(
                    "{} on wrong type class {}",
                    op.mnemonic(),
                    types.display(data.ty)
                ));
            }
        }
        Opcode::Icmp | Opcode::Fcmp => {
            if data.operands.len() != 2 {
                err("cmp must have 2 operands".into());
                return;
            }
            if ty_of(data.operands[0]) != ty_of(data.operands[1]) {
                err("cmp operand types differ".into());
            }
        }
        Opcode::Select => {
            if data.operands.len() != 3 {
                err("select must have 3 operands".into());
                return;
            }
            if ty_of(data.operands[0]) != types.i1() {
                err("select condition must be i1".into());
            }
            if ty_of(data.operands[1]) != data.ty || ty_of(data.operands[2]) != data.ty {
                err("select arms must match result type".into());
            }
        }
        Opcode::Load if (data.operands.len() != 1 || !types.is_ptr(ty_of(data.operands[0]))) => {
            err("load needs a single pointer operand".into());
        }
        Opcode::Store if (data.operands.len() != 2 || !types.is_ptr(ty_of(data.operands[1]))) => {
            err("store needs (value, pointer) operands".into());
        }
        Opcode::Gep => {
            if data.operands.is_empty() || !types.is_ptr(ty_of(data.operands[0])) {
                err("gep base must be a pointer".into());
            }
            for &idx in &data.operands[1..] {
                if !types.is_int(ty_of(idx)) {
                    err("gep indices must be integers".into());
                }
            }
        }
        Opcode::Call => {
            if let InstExtra::Call { callee } = &data.extra {
                let callee = module.func(*callee);
                if callee.ret_ty != data.ty {
                    err(format!(
                        "call result type {} does not match @{} return type",
                        types.display(data.ty),
                        callee.name
                    ));
                }
                if callee.param_tys().len() != data.operands.len() {
                    err(format!(
                        "call to @{} has {} args, expected {}",
                        callee.name,
                        data.operands.len(),
                        callee.param_tys().len()
                    ));
                } else {
                    for (k, (&arg, &pty)) in
                        data.operands.iter().zip(callee.param_tys()).enumerate()
                    {
                        if ty_of(arg) != pty {
                            err(format!("call to @{} arg {k} type mismatch", callee.name));
                        }
                    }
                }
            } else {
                err("call without callee".into());
            }
        }
        Opcode::CondBr if (data.operands.len() != 1 || ty_of(data.operands[0]) != types.i1()) => {
            err("condbr condition must be i1".into());
        }
        Opcode::Ret => {
            let want_void = matches!(types.kind(func.ret_ty), TypeKind::Void);
            match (want_void, data.operands.len()) {
                (true, 0) => {}
                (false, 1) => {
                    if ty_of(data.operands[0]) != func.ret_ty {
                        err("ret value type does not match function return type".into());
                    }
                }
                _ => err("ret arity does not match function return type".into()),
            }
        }
        Opcode::Phi => {
            for &op in &data.operands {
                if ty_of(op) != data.ty {
                    err("phi operand type mismatch".into());
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{InstData, IntPredicate};
    use crate::module::Module;

    fn check(m: &Module) -> Vec<VerifyError> {
        match verify_module(m) {
            Ok(()) => Vec::new(),
            Err(e) => e,
        }
    }

    #[test]
    fn well_formed_function_passes() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t], i32t);
        let a = fb.param(0);
        fb.block("entry");
        fb.ins(|b| {
            let one = b.i32_const(1);
            let s = b.add(a, one);
            b.ret(Some(s));
        });
        fb.finish();
        assert!(check(&m).is_empty());
    }

    #[test]
    fn missing_terminator_is_caught() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t], i32t);
        let a = fb.param(0);
        fb.block("entry");
        fb.ins(|b| {
            let one = b.i32_const(1);
            b.add(a, one);
        });
        fb.finish();
        let errs = check(&m);
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn type_mismatch_is_caught() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t, i64t], i32t);
        let a = fb.param(0);
        let b64 = fb.param(1);
        fb.block("entry");
        fb.ins(|b| {
            // Manually construct a bad add: i32 result with an i64 operand.
            let (i, v) = b.func.create_inst(InstData {
                opcode: Opcode::Add,
                ty: b.types.i32(),
                operands: vec![a, b64],
                block: b.current(),
                extra: InstExtra::None,
            });
            b.func.append_inst(b.current(), i);
            b.ret(Some(v));
        });
        fb.finish();
        let errs = check(&m);
        assert!(errs.iter().any(|e| e.message.contains("do not match")));
    }

    #[test]
    fn use_before_def_is_caught() {
        let text = "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %1 = add i32 %2, i32 1\n  %2 = add i32 %p0, i32 1\n  ret %2\n}\n";
        let m = crate::parser::parse_module(text).unwrap();
        let errs = check(&m);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("before its definition")));
    }

    #[test]
    fn phi_predecessor_mismatch_is_caught() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t], i32t);
        let a = fb.param(0);
        let entry = fb.block("entry");
        fb.ins(|b| {
            let exit = b.func.add_block("exit");
            b.br(exit);
            b.switch_to(exit);
            // Phi claims an incoming edge from "exit", which is not a pred.
            let bad = b.phi(b.types.i32(), &[(a, exit)]);
            b.ret(Some(bad));
        });
        fb.finish();
        let _ = entry;
        let errs = check(&m);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("incoming blocks do not match")));
    }

    #[test]
    fn cross_block_dominance() {
        // A value defined in a branch arm used in the join must fail;
        // the same value routed through a phi must pass.
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let i1t = m.types.i1();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t, i1t], i32t);
        let a = fb.param(0);
        let c = fb.param(1);
        fb.block("entry");
        fb.ins(|b| {
            let then_bb = b.func.add_block("then");
            let join = b.func.add_block("join");
            b.cond_br(c, then_bb, join);
            b.switch_to(then_bb);
            let one = b.i32_const(1);
            let t = b.add(a, one);
            b.br(join);
            b.switch_to(join);
            let cmp = b.icmp(IntPredicate::Eq, t, a); // bad use of t
            let z = b.select(cmp, t, a);
            b.ret(Some(z));
        });
        fb.finish();
        let errs = check(&m);
        assert!(errs.iter().any(|e| e.message.contains("does not dominate")));
    }

    /// An edge from a block the entry does not reach must not hide the
    /// entry's dominance over a reachable block.
    #[test]
    fn unreachable_predecessor_keeps_dominance() {
        let text = "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %1 = add i32 %p0, i32 1\n  br join\norphan:\n  br join\njoin:\n  %2 = add i32 %1, i32 2\n  ret %2\n}\n";
        let m = crate::parser::parse_module(text).unwrap();
        assert_eq!(check(&m), Vec::new());
    }

    /// Uses inside unreachable blocks keep their verdicts: a block no edge
    /// enters roots its own dominator tree, so the entry's definitions do
    /// not reach below it while its own do; a cycle no root reaches is
    /// dominated by every block.
    #[test]
    fn unreachable_uses_are_checked_from_their_own_roots() {
        let verdict = |body: &str| {
            let text = format!("module \"t\"\nfunc @f(i32 %p0) -> i32 {{\nentry:\n  %1 = add i32 %p0, i32 1\n  ret %1\n{body}}}\n");
            check(&crate::parser::parse_module(&text).unwrap())
        };
        let errs = verdict("orphan:\n  br tail\ntail:\n  %2 = add i32 %1, i32 2\n  ret %2\n");
        assert!(errs
            .iter()
            .any(|e| e.message.contains("does not dominate use in tail")));
        let own = "orphan:\n  %2 = add i32 %p0, i32 2\n  br tail\ntail:\n  %3 = add i32 %2, i32 3\n  ret %3\n";
        assert_eq!(verdict(own), Vec::new());
        let cycle =
            "spin:\n  %2 = add i32 %3, i32 2\n  br spun\nspun:\n  %3 = add i32 %2, %1\n  br spin\n";
        assert_eq!(verdict(cycle), Vec::new());
    }
}
