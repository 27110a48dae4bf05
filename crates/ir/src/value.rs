//! SSA values.
//!
//! Every operand in the IR is a [`ValueId`] indexing a per-function value
//! table. A value is either the result of an instruction, a function
//! parameter, an interned constant, the address of a global, or `undef`.

use crate::inst::InstId;
use crate::types::TypeId;

/// Index of a value in its function's value table. The default is value
/// 0; it fills the unused slots of an [`InlineList`](crate::InlineList).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a value id from a raw index.
    pub fn from_index(index: usize) -> Self {
        ValueId(index as u32)
    }
}

/// Index of a global variable in the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub(crate) u32);

impl GlobalId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a global id from a raw index.
    pub fn from_index(index: usize) -> Self {
        GlobalId(index as u32)
    }
}

/// Index of a function in the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub(crate) u32);

impl FuncId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a function id from a raw index.
    pub fn from_index(index: usize) -> Self {
        FuncId(index as u32)
    }
}

/// What a value *is*.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum ValueDef {
    /// Result of an instruction.
    Inst(InstId),
    /// The `index`-th parameter of the enclosing function.
    Param { index: u32, ty: TypeId },
    /// Integer constant. `value` holds the sign-extended bit pattern.
    ConstInt { ty: TypeId, value: i64 },
    /// Floating-point constant, stored as raw IEEE-754 bits of the `f64`
    /// superset representation.
    ConstFloat { ty: TypeId, bits: u64 },
    /// Address of a module global (type `ptr`).
    GlobalAddr(GlobalId),
    /// Address of a module function (type `ptr`).
    FuncAddr(FuncId),
    /// Undefined value of the given type.
    Undef(TypeId),
}

impl ValueDef {
    /// Returns the instruction id if this value is an instruction result.
    pub fn as_inst(&self) -> Option<InstId> {
        match self {
            ValueDef::Inst(id) => Some(*id),
            _ => None,
        }
    }

    /// Returns the integer constant payload, if any.
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            ValueDef::ConstInt { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// True for constants, globals, and function addresses — values that
    /// need no computation.
    pub fn is_constant(&self) -> bool {
        matches!(
            self,
            ValueDef::ConstInt { .. }
                | ValueDef::ConstFloat { .. }
                | ValueDef::GlobalAddr(_)
                | ValueDef::FuncAddr(_)
                | ValueDef::Undef(_)
        )
    }
}

/// Interning key for function-local constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ConstKey {
    Int(TypeId, i64),
    Float(TypeId, u64),
    Global(GlobalId),
    Func(FuncId),
    Undef(TypeId),
}

impl ValueDef {
    /// The interning key of a constant definition, or `None` for
    /// instruction results and parameters.
    pub(crate) fn const_key(&self) -> Option<ConstKey> {
        Some(match *self {
            ValueDef::ConstInt { ty, value } => ConstKey::Int(ty, value),
            ValueDef::ConstFloat { ty, bits } => ConstKey::Float(ty, bits),
            ValueDef::GlobalAddr(g) => ConstKey::Global(g),
            ValueDef::FuncAddr(f) => ConstKey::Func(f),
            ValueDef::Undef(ty) => ConstKey::Undef(ty),
            ValueDef::Inst(_) | ValueDef::Param { .. } => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_def_classification() {
        let c = ValueDef::ConstInt {
            ty: TypeId(1),
            value: 7,
        };
        assert!(c.is_constant());
        assert_eq!(c.as_const_int(), Some(7));
        assert_eq!(c.as_inst(), None);

        let p = ValueDef::Param {
            index: 0,
            ty: TypeId(1),
        };
        assert!(!p.is_constant());
    }

    #[test]
    fn id_round_trips() {
        assert_eq!(ValueId::from_index(42).index(), 42);
        assert_eq!(GlobalId::from_index(3).index(), 3);
        assert_eq!(FuncId::from_index(9).index(), 9);
    }
}
