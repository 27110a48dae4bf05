//! Dead-code elimination removes what repeated passes remove.
//!
//! `run_dce_with` counts uses once and then follows a worklist. The
//! reference here is the round-based form it replaced: count every live
//! instruction's uses, remove every unused instruction that is not a root,
//! and count again until a round removes nothing. Both must leave the same
//! instructions live and the same blocks and instruction bodies, on the unrolled TSVC
//! kernels, on 128 AnghaBench-like modules and on the Table I programs at
//! scale 0.02, each taken before any cleanup so that there is dead code to
//! find, and on hand-written functions with a dead phi cycle (which both
//! keep) and divisions that may trap (which both keep).

use rolag_ir::dce::{remove_unreachable_blocks, run_dce_with};
use rolag_ir::fold::normalize_int;
use rolag_ir::parser::parse_module;
use rolag_ir::{Effects, Function, InstExtra, InstId, Module, Opcode, TypeStore};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::unroll_module;

/// Whether `i` must stay although its result is unused: what has effects,
/// and a division whose divisor is not a constant that cannot trap.
fn is_root(module: &Module, f: &Function, i: InstId) -> bool {
    let data = f.inst(i);
    match data.opcode {
        Opcode::Store | Opcode::Ret | Opcode::Br | Opcode::CondBr | Opcode::Unreachable => true,
        Opcode::Call => match &data.extra {
            InstExtra::Call { callee } => module.func(*callee).effects != Effects::ReadNone,
            _ => true,
        },
        op @ (Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem) => {
            let types: &TypeStore = &module.types;
            !f.value(data.operands[1]).as_const_int().is_some_and(|v| {
                let d = normalize_int(types, data.ty, v);
                d != 0 && (matches!(op, Opcode::UDiv | Opcode::URem) || d != -1)
            })
        }
        _ => false,
    }
}

/// The round-based reference: returns how many instructions it removed.
fn iterated_dce(module: &Module, f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let uses = f.compute_uses();
        let dead: Vec<InstId> = f
            .live_insts()
            .filter(|&i| !is_root(module, f, i) && uses.count(f.inst_result(i)) == 0)
            .collect();
        if dead.is_empty() {
            break;
        }
        for &i in &dead {
            f.remove_inst(i);
        }
        removed += dead.len();
    }
    removed + remove_unreachable_blocks(f, module.types.void()).dropped
}

/// Runs both on every definition of `module`; returns the instructions
/// removed.
fn compare(label: &str, module: &Module) -> usize {
    let mut total = 0;
    for id in module.func_ids() {
        let f = module.func(id);
        if f.is_declaration {
            continue;
        }
        let mut worklist = f.clone();
        let n = run_dce_with(&mut worklist, &module.types, &|callee| {
            module.func(callee).effects
        });
        let mut reference = f.clone();
        let want = iterated_dce(module, &mut reference);
        assert_eq!(n, want, "{label}/{}: removed count", f.name);
        let live = |f: &Function| f.live_insts().collect::<Vec<_>>();
        assert_eq!(
            live(&worklist),
            live(&reference),
            "{label}/{}: live set",
            f.name
        );
        let layout = |f: &Function| {
            f.block_ids()
                .map(|b| (f.block(b).insts.clone(), f.block(b).name.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(layout(&worklist), layout(&reference), "{label}/{}", f.name);
        let bodies = |f: &Function| {
            f.live_insts()
                .map(|i| f.inst(i).clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(&worklist), bodies(&reference), "{label}/{}", f.name);
        total += n;
    }
    total
}

#[test]
fn worklist_dce_removes_what_repeated_rounds_remove() {
    let mut removed = 0;
    for spec in all_kernels() {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        removed += compare(spec.name, &m);
    }
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    });
    for (name, _, mut m) in angha {
        unroll_module(&mut m, 4);
        removed += compare(&name, &m);
    }
    for spec in TABLE1 {
        removed += compare(spec.name, &build_program(spec, 7, 0.02));
    }
    assert!(removed > 1000, "only {removed} instructions were dead");
}

#[test]
fn dead_phi_cycles_and_trapping_divisions_stay() {
    let text = r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %a = sdiv i32 %p0, %p1
  %b = sdiv i32 %p0, i32 0
  %c = srem i32 %p0, i32 -1
  %d = udiv i32 %p0, i32 -1
  %e = sdiv i32 %p0, i32 4
  %f = add i32 %e, %d
  br loop
loop:
  %x = phi i32 [ i32 0, entry ], [ %y, loop ]
  %y = add i32 %x, i32 1
  %z = mul i32 %y, %f
  %t = icmp slt %p0, i32 8
  condbr %t, loop, exit
exit:
  ret i32 0
}
"#;
    let m = parse_module(text).unwrap();
    assert_eq!(compare("hand-written", &m), 4);
    let f = m.func(m.func_by_name("f").unwrap());
    let mut f = f.clone();
    run_dce_with(&mut f, &m.types, &|_| Effects::ReadWrite);
    let kept: Vec<Opcode> = f.live_insts().map(|i| f.inst(i).opcode).collect();
    // The trapping divisions and the dead phi cycle (`%x`, `%y`) stay;
    // `%z`, `%f`, `%e` and `%d` go.
    assert_eq!(
        kept,
        [
            Opcode::SDiv,
            Opcode::SDiv,
            Opcode::SRem,
            Opcode::Br,
            Opcode::Phi,
            Opcode::Add,
            Opcode::Icmp,
            Opcode::CondBr,
            Opcode::Ret
        ]
    );
}
