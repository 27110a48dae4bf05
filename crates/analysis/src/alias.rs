//! Base-object + constant-offset alias analysis.
//!
//! Good enough for the loop-rolling scheduler: it distinguishes accesses to
//! different globals/allocas and to provably disjoint constant offsets from
//! the same base, and says "may alias" for everything else.

use rolag_ir::{Function, InstExtra, Module, Opcode, TypeKind, ValueDef, ValueId};

/// The root object a pointer was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseObject {
    /// A module global.
    Global(rolag_ir::GlobalId),
    /// A stack allocation (identified by its `alloca` instruction).
    Alloca(rolag_ir::InstId),
    /// A pointer-typed parameter.
    Param(u32),
    /// Any other root (call result, loaded pointer, phi, ...).
    Opaque(ValueId),
}

impl BaseObject {
    /// True if the object is a distinct named allocation (global or alloca),
    /// which cannot alias a *different* named allocation.
    pub fn is_identified(&self) -> bool {
        matches!(self, BaseObject::Global(_) | BaseObject::Alloca(_))
    }
}

/// Result of tracing a pointer value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtrInfo {
    /// The root object.
    pub base: BaseObject,
    /// Byte offset from the root, when statically known.
    pub offset: Option<i64>,
}

/// Traces `v` through `gep` chains to its base object and constant offset.
pub fn resolve_pointer(module: &Module, func: &Function, v: ValueId) -> PtrInfo {
    let mut cur = v;
    let mut offset: Option<i64> = Some(0);
    loop {
        match func.value(cur) {
            ValueDef::GlobalAddr(g) => {
                return PtrInfo {
                    base: BaseObject::Global(*g),
                    offset,
                }
            }
            ValueDef::Param { index, .. } => {
                return PtrInfo {
                    base: BaseObject::Param(*index),
                    offset,
                }
            }
            ValueDef::Inst(i) => {
                let data = func.inst(*i);
                match data.opcode {
                    Opcode::Alloca => {
                        return PtrInfo {
                            base: BaseObject::Alloca(*i),
                            offset,
                        }
                    }
                    Opcode::Gep => {
                        let InstExtra::Gep { elem_ty } = data.extra else {
                            unreachable!()
                        };
                        offset = match (offset, gep_const_offset(module, func, *i, elem_ty)) {
                            (Some(acc), Some(d)) => Some(acc + d),
                            _ => None,
                        };
                        cur = data.operands[0];
                    }
                    Opcode::Bitcast => {
                        cur = data.operands[0];
                    }
                    _ => {
                        return PtrInfo {
                            base: BaseObject::Opaque(cur),
                            offset,
                        }
                    }
                }
            }
            _ => {
                return PtrInfo {
                    base: BaseObject::Opaque(cur),
                    offset,
                }
            }
        }
    }
}

/// Byte offset contributed by one `gep`, if all indices are constants.
fn gep_const_offset(
    module: &Module,
    func: &Function,
    gep: rolag_ir::InstId,
    elem_ty: rolag_ir::TypeId,
) -> Option<i64> {
    let data = func.inst(gep);
    let types = &module.types;
    let mut total: i64 = 0;
    let first = func.value(data.operands[1]).as_const_int()?;
    total += first * types.size_of(elem_ty) as i64;
    let mut cur = elem_ty;
    for &idx_v in &data.operands[2..] {
        let idx = func.value(idx_v).as_const_int()?;
        match types.kind(cur).clone() {
            TypeKind::Array { elem, .. } => {
                total += idx * types.size_of(elem) as i64;
                cur = elem;
            }
            TypeKind::Struct { fields } => {
                let i = usize::try_from(idx).ok()?;
                if i >= fields.len() {
                    return None;
                }
                total += types.field_offset(cur, i) as i64;
                cur = fields[i];
            }
            _ => return None,
        }
    }
    Some(total)
}

/// May the byte ranges `[a, a+size_a)` and `[b, b+size_b)` overlap?
pub fn may_alias(
    module: &Module,
    func: &Function,
    a: ValueId,
    size_a: u64,
    b: ValueId,
    size_b: u64,
) -> bool {
    let pa = resolve_pointer(module, func, a);
    let pb = resolve_pointer(module, func, b);
    ranges_may_alias(&pa, size_a, &pb, size_b)
}

/// [`may_alias`] over already-resolved pointers: may `[pa, pa+size_a)` and
/// `[pb, pb+size_b)` overlap? Lets a caller comparing many accesses
/// resolve each pointer once instead of once per pair.
pub(crate) fn ranges_may_alias(pa: &PtrInfo, size_a: u64, pb: &PtrInfo, size_b: u64) -> bool {
    if pa.base != pb.base {
        // Two *different identified* objects never alias; an identified
        // object also cannot alias an unrelated alloca. Anything involving
        // params or opaque roots may.
        if pa.base.is_identified() && pb.base.is_identified() {
            return false;
        }
        // A local alloca's address has not escaped through a parameter.
        if matches!(pa.base, BaseObject::Alloca(_)) && matches!(pb.base, BaseObject::Param(_)) {
            return false;
        }
        if matches!(pb.base, BaseObject::Alloca(_)) && matches!(pa.base, BaseObject::Param(_)) {
            return false;
        }
        return true;
    }
    match (pa.offset, pb.offset) {
        (Some(oa), Some(ob)) => {
            let (start_a, end_a) = (oa, oa + size_a as i64);
            let (start_b, end_b) = (ob, ob + size_b as i64);
            start_a < end_b && start_b < end_a
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn setup() -> (Module, rolag_ir::FuncId) {
        let text = r#"
module "t"
global @a : [8 x i32] = zero
global @b : [8 x i32] = zero
func @f(ptr %p0, ptr %p1, i32 %p2) -> void {
entry:
  %g0 = gep i32, @a, i32 0
  %g1 = gep i32, @a, i32 1
  %g4 = gep i32, @b, i32 1
  %gv = gep i32, @a, %p2
  %al = alloca [4 x i32]
  %ga = gep i32, %al, i32 2
  %gp = gep i32, %p0, i32 1
  store i32 1, %g0
  store i32 1, %g1
  store i32 1, %g4
  store i32 1, %gv
  store i32 1, %ga
  store i32 1, %gp
  ret
}
"#;
        let m = parse_module(text).unwrap();
        let f = m.func_by_name("f").unwrap();
        (m, f)
    }

    fn nth_store_ptr(func: &Function, n: usize) -> ValueId {
        let b = func.entry_block();
        func.block(b)
            .insts
            .iter()
            .filter(|&&i| func.inst(i).opcode == Opcode::Store)
            .nth(n)
            .map(|&i| func.inst(i).operands[1])
            .unwrap()
    }

    #[test]
    fn disjoint_offsets_of_same_global_do_not_alias() {
        let (m, fid) = setup();
        let f = m.func(fid);
        let g0 = nth_store_ptr(f, 0);
        let g1 = nth_store_ptr(f, 1);
        assert!(!may_alias(&m, f, g0, 4, g1, 4));
        // Overlapping ranges do alias.
        assert!(may_alias(&m, f, g0, 8, g1, 4));
    }

    #[test]
    fn different_globals_never_alias() {
        let (m, fid) = setup();
        let f = m.func(fid);
        let g1 = nth_store_ptr(f, 1);
        let g4 = nth_store_ptr(f, 2);
        assert!(!may_alias(&m, f, g1, 4, g4, 4));
    }

    #[test]
    fn variable_index_aliases_conservatively() {
        let (m, fid) = setup();
        let f = m.func(fid);
        let g0 = nth_store_ptr(f, 0);
        let gv = nth_store_ptr(f, 3);
        assert!(may_alias(&m, f, g0, 4, gv, 4));
        // ... but still not across distinct globals.
        let g4 = nth_store_ptr(f, 2);
        assert!(!may_alias(&m, f, gv, 4, g4, 4));
    }

    #[test]
    fn alloca_does_not_alias_globals_or_params() {
        let (m, fid) = setup();
        let f = m.func(fid);
        let ga = nth_store_ptr(f, 4);
        let g0 = nth_store_ptr(f, 0);
        let gp = nth_store_ptr(f, 5);
        assert!(!may_alias(&m, f, ga, 4, g0, 4));
        assert!(!may_alias(&m, f, ga, 4, gp, 4));
    }

    #[test]
    fn params_alias_globals_and_each_other() {
        let (m, fid) = setup();
        let f = m.func(fid);
        let gp = nth_store_ptr(f, 5);
        let g0 = nth_store_ptr(f, 0);
        assert!(may_alias(&m, f, gp, 4, g0, 4));
        let p0 = f.param(0);
        let p1 = f.param(1);
        assert!(may_alias(&m, f, p0, 4, p1, 4));
    }

    #[test]
    fn resolve_tracks_struct_offsets() {
        let text = r#"
module "t"
global @s : { i32, i32, i32 } = zero
func @f() -> void {
entry:
  %p = gep { i32, i32, i32 }, @s, i64 0, i32 2
  store i32 1, %p
  ret
}
"#;
        let m = parse_module(text).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        let p = nth_store_ptr(f, 0);
        let info = resolve_pointer(&m, f, p);
        assert_eq!(info.offset, Some(8));
    }
}
