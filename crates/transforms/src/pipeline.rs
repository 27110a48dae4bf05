//! Cleanup pipeline: constant folding + DCE to a fixed point.
//!
//! Run after unrolling and after loop rolling, playing the role of the
//! surrounding `-Os` pipeline in the paper's evaluation setup.

use rolag_ir::dce::run_dce_with;
use rolag_ir::fold::simplify_function;
use rolag_ir::{Effects, FuncId, Function, Module, TypeStore};

/// Snapshots the memory-effect annotation of every function, indexed by
/// [`FuncId`]. Passes compute this once and share it across all the
/// functions they touch — effects only depend on declarations, which
/// rolling and cleanup never change.
pub fn effects_table(module: &Module) -> Vec<Effects> {
    module.func_ids().map(|f| module.func(f).effects).collect()
}

/// Simplifies and DCEs a detached function body until nothing changes,
/// using a pre-computed [`effects_table`]. Returns the total number of
/// instructions rewritten or removed.
///
/// This is the borrow-friendly core shared by [`cleanup_module`] and the
/// RoLAG pass's post-roll cleanup (which holds the function outside the
/// module while speculating).
pub fn cleanup_in_place(func: &mut Function, types: &mut TypeStore, effects: &[Effects]) -> usize {
    let mut total = 0;
    loop {
        let mut changed = simplify_function(func, types);
        changed += run_dce_with(func, types, &|callee| {
            effects.get(callee.index()).copied().unwrap_or_default()
        });
        total += changed;
        if changed == 0 {
            break;
        }
    }
    total
}

/// Runs [`cleanup_in_place`] over every definition in the module. The call
/// effects table is computed once, so this is linear in module size.
pub fn cleanup_module(module: &mut Module) -> usize {
    let effects = effects_table(module);
    let ids: Vec<FuncId> = module.func_ids().collect();
    let mut total = 0;
    for id in ids {
        if module.func(id).is_declaration {
            continue;
        }
        let (func, types) = module.func_and_types_mut(id);
        total += cleanup_in_place(func, types, &effects);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    #[test]
    fn cleanup_folds_and_removes() {
        let text = r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 i32 2, i32 3
  %2 = mul i32 %1, i32 0
  %3 = add i32 %p0, %2
  %4 = mul i32 %3, i32 7
  ret %3
}
"#;
        let mut m = parse_module(text).unwrap();
        let id = m.func_by_name("f").unwrap();
        assert_eq!(cleanup_module(&mut m), 4);
        // %1,%2 fold away, %3 becomes %p0, %4 is dead.
        let f = m.func(id);
        assert_eq!(f.num_live_insts(), 1);
        let ret = f.live_insts().next().unwrap();
        assert_eq!(f.inst(ret).operands[0], f.param(0));
    }

    #[test]
    fn cleanup_is_idempotent() {
        let text = r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 %p0, i32 1
  ret %1
}
"#;
        let mut m = parse_module(text).unwrap();
        assert!(cleanup_module(&mut m) == 0);
        assert_eq!(cleanup_module(&mut m), 0);
    }
}
