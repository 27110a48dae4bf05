//! Instructions.

use crate::block::BlockId;
use crate::inline_list::InlineList;
use crate::types::TypeId;
use crate::value::{FuncId, ValueId};

/// Index of an instruction in its function's instruction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub(crate) u32);

impl InstId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs an instruction id from a raw index.
    pub fn from_index(index: usize) -> Self {
        InstId(index as u32)
    }
}

/// Instruction opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // mnemonic variants are self-describing
pub enum Opcode {
    // Integer arithmetic.
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    // Floating-point arithmetic.
    FAdd,
    FSub,
    FMul,
    FDiv,
    // Comparisons.
    Icmp,
    Fcmp,
    // Misc scalar.
    Select,
    // Casts.
    Trunc,
    ZExt,
    SExt,
    Bitcast,
    PtrToInt,
    IntToPtr,
    FpToSi,
    SiToFp,
    FpExt,
    FpTrunc,
    // Memory.
    Alloca,
    Load,
    Store,
    Gep,
    // Control / calls.
    Call,
    Phi,
    Br,
    CondBr,
    Ret,
    Unreachable,
}

impl Opcode {
    /// True for `br`, `condbr`, `ret`, and `unreachable`.
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Br | Opcode::CondBr | Opcode::Ret | Opcode::Unreachable
        )
    }

    /// True for two-operand integer arithmetic/logic ops.
    pub fn is_int_binop(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::SDiv
                | Opcode::UDiv
                | Opcode::SRem
                | Opcode::URem
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::LShr
                | Opcode::AShr
        )
    }

    /// True for two-operand floating-point ops.
    pub fn is_float_binop(self) -> bool {
        matches!(
            self,
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv
        )
    }

    /// True for any two-operand arithmetic/logic op.
    pub fn is_binop(self) -> bool {
        self.is_int_binop() || self.is_float_binop()
    }

    /// True for value casts.
    pub fn is_cast(self) -> bool {
        matches!(
            self,
            Opcode::Trunc
                | Opcode::ZExt
                | Opcode::SExt
                | Opcode::Bitcast
                | Opcode::PtrToInt
                | Opcode::IntToPtr
                | Opcode::FpToSi
                | Opcode::SiToFp
                | Opcode::FpExt
                | Opcode::FpTrunc
        )
    }

    /// True if the operation is commutative (`a op b == b op a`).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::FAdd
                | Opcode::FMul
        )
    }

    /// True if the operation is associative. Floating-point ops are only
    /// associative under fast-math; the caller decides whether to allow
    /// them (§IV-C5).
    pub fn is_associative(self, fast_math: bool) -> bool {
        match self {
            Opcode::Add | Opcode::Mul | Opcode::And | Opcode::Or | Opcode::Xor => true,
            Opcode::FAdd | Opcode::FMul => fast_math,
            _ => false,
        }
    }

    /// The neutral (identity) element of the operation with respect to its
    /// *second* operand, if one exists: `a op e == a`.
    pub fn neutral_element(self) -> Option<NeutralElement> {
        match self {
            Opcode::Add | Opcode::Sub | Opcode::Or | Opcode::Xor => Some(NeutralElement::Zero),
            Opcode::Shl | Opcode::LShr | Opcode::AShr => Some(NeutralElement::Zero),
            Opcode::Mul | Opcode::SDiv | Opcode::UDiv => Some(NeutralElement::One),
            Opcode::And => Some(NeutralElement::AllOnes),
            Opcode::FAdd | Opcode::FSub => Some(NeutralElement::FZero),
            Opcode::FMul | Opcode::FDiv => Some(NeutralElement::FOne),
            _ => None,
        }
    }

    /// Short mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::SDiv => "sdiv",
            Opcode::UDiv => "udiv",
            Opcode::SRem => "srem",
            Opcode::URem => "urem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::LShr => "lshr",
            Opcode::AShr => "ashr",
            Opcode::FAdd => "fadd",
            Opcode::FSub => "fsub",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::Icmp => "icmp",
            Opcode::Fcmp => "fcmp",
            Opcode::Select => "select",
            Opcode::Trunc => "trunc",
            Opcode::ZExt => "zext",
            Opcode::SExt => "sext",
            Opcode::Bitcast => "bitcast",
            Opcode::PtrToInt => "ptrtoint",
            Opcode::IntToPtr => "inttoptr",
            Opcode::FpToSi => "fptosi",
            Opcode::SiToFp => "sitofp",
            Opcode::FpExt => "fpext",
            Opcode::FpTrunc => "fptrunc",
            Opcode::Alloca => "alloca",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Gep => "gep",
            Opcode::Call => "call",
            Opcode::Phi => "phi",
            Opcode::Br => "br",
            Opcode::CondBr => "condbr",
            Opcode::Ret => "ret",
            Opcode::Unreachable => "unreachable",
        }
    }

    /// Parses a mnemonic back into an opcode.
    pub fn from_mnemonic(name: &str) -> Option<Opcode> {
        Some(match name {
            "add" => Opcode::Add,
            "sub" => Opcode::Sub,
            "mul" => Opcode::Mul,
            "sdiv" => Opcode::SDiv,
            "udiv" => Opcode::UDiv,
            "srem" => Opcode::SRem,
            "urem" => Opcode::URem,
            "and" => Opcode::And,
            "or" => Opcode::Or,
            "xor" => Opcode::Xor,
            "shl" => Opcode::Shl,
            "lshr" => Opcode::LShr,
            "ashr" => Opcode::AShr,
            "fadd" => Opcode::FAdd,
            "fsub" => Opcode::FSub,
            "fmul" => Opcode::FMul,
            "fdiv" => Opcode::FDiv,
            "icmp" => Opcode::Icmp,
            "fcmp" => Opcode::Fcmp,
            "select" => Opcode::Select,
            "trunc" => Opcode::Trunc,
            "zext" => Opcode::ZExt,
            "sext" => Opcode::SExt,
            "bitcast" => Opcode::Bitcast,
            "ptrtoint" => Opcode::PtrToInt,
            "inttoptr" => Opcode::IntToPtr,
            "fptosi" => Opcode::FpToSi,
            "sitofp" => Opcode::SiToFp,
            "fpext" => Opcode::FpExt,
            "fptrunc" => Opcode::FpTrunc,
            "alloca" => Opcode::Alloca,
            "load" => Opcode::Load,
            "store" => Opcode::Store,
            "gep" => Opcode::Gep,
            "call" => Opcode::Call,
            "phi" => Opcode::Phi,
            "br" => Opcode::Br,
            "condbr" => Opcode::CondBr,
            "ret" => Opcode::Ret,
            "unreachable" => Opcode::Unreachable,
            _ => return None,
        })
    }
}

/// Neutral elements of binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeutralElement {
    /// Integer 0.
    Zero,
    /// Integer 1.
    One,
    /// All bits set (−1).
    AllOnes,
    /// Floating 0.0.
    FZero,
    /// Floating 1.0.
    FOne,
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // mnemonic variants are self-describing
pub enum IntPredicate {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl IntPredicate {
    /// Printer mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntPredicate::Eq => "eq",
            IntPredicate::Ne => "ne",
            IntPredicate::Slt => "slt",
            IntPredicate::Sle => "sle",
            IntPredicate::Sgt => "sgt",
            IntPredicate::Sge => "sge",
            IntPredicate::Ult => "ult",
            IntPredicate::Ule => "ule",
            IntPredicate::Ugt => "ugt",
            IntPredicate::Uge => "uge",
        }
    }

    /// Parses a mnemonic back into a predicate.
    pub fn from_mnemonic(name: &str) -> Option<Self> {
        Some(match name {
            "eq" => IntPredicate::Eq,
            "ne" => IntPredicate::Ne,
            "slt" => IntPredicate::Slt,
            "sle" => IntPredicate::Sle,
            "sgt" => IntPredicate::Sgt,
            "sge" => IntPredicate::Sge,
            "ult" => IntPredicate::Ult,
            "ule" => IntPredicate::Ule,
            "ugt" => IntPredicate::Ugt,
            "uge" => IntPredicate::Uge,
            _ => return None,
        })
    }
}

/// Floating-point comparison predicates (ordered subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // mnemonic variants are self-describing
pub enum FloatPredicate {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FloatPredicate {
    /// Printer mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatPredicate::Oeq => "oeq",
            FloatPredicate::One => "one",
            FloatPredicate::Olt => "olt",
            FloatPredicate::Ole => "ole",
            FloatPredicate::Ogt => "ogt",
            FloatPredicate::Oge => "oge",
        }
    }

    /// Parses a mnemonic back into a predicate.
    pub fn from_mnemonic(name: &str) -> Option<Self> {
        Some(match name {
            "oeq" => FloatPredicate::Oeq,
            "one" => FloatPredicate::One,
            "olt" => FloatPredicate::Olt,
            "ole" => FloatPredicate::Ole,
            "ogt" => FloatPredicate::Ogt,
            "oge" => FloatPredicate::Oge,
            _ => return None,
        })
    }
}

/// Opcode-specific payload.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum InstExtra {
    /// No payload.
    None,
    /// `icmp` predicate.
    Icmp(IntPredicate),
    /// `fcmp` predicate.
    Fcmp(FloatPredicate),
    /// `gep` element type: the first index scales by `size_of(elem_ty)`;
    /// further indices navigate aggregates.
    Gep { elem_ty: TypeId },
    /// Direct call to a module function (operands are the arguments).
    Call { callee: FuncId },
    /// `phi` incoming blocks, parallel to the operand list.
    Phi { incoming: InlineList<BlockId> },
    /// Unconditional branch target.
    Br { dest: BlockId },
    /// Conditional branch targets (operand 0 is the `i1` condition).
    CondBr {
        then_dest: BlockId,
        else_dest: BlockId,
    },
    /// `alloca` element type (operand 0, if present, is the count).
    Alloca { elem_ty: TypeId },
}

/// An instruction's operand list.
pub type Operands = InlineList<ValueId>;

/// An instruction: opcode, result type, operands, and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct InstData {
    /// Operation.
    pub opcode: Opcode,
    /// Result type; `void` for stores, branches, etc.
    pub ty: TypeId,
    /// SSA operands, inline up to three (see [`InlineList`]).
    pub operands: Operands,
    /// Block the instruction currently belongs to.
    pub block: BlockId,
    /// Opcode-specific payload.
    pub extra: InstExtra,
}

impl InstData {
    /// Successor blocks, for terminators.
    pub fn successors(&self) -> InlineList<BlockId> {
        match &self.extra {
            InstExtra::Br { dest } => [*dest].into(),
            InstExtra::CondBr {
                then_dest,
                else_dest,
            } => [*then_dest, *else_dest].into(),
            _ => InlineList::new(),
        }
    }

    /// Whether this instruction reads or writes memory or has other side
    /// effects that forbid deleting it when unused. Calls are refined by the
    /// callee's effect annotation at the analysis layer.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self.opcode,
            Opcode::Store | Opcode::Call | Opcode::Ret | Opcode::Br | Opcode::CondBr
        ) || self.opcode.is_terminator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Opcode::Br.is_terminator());
        assert!(Opcode::Ret.is_terminator());
        assert!(!Opcode::Add.is_terminator());
        assert!(!Opcode::Store.is_terminator());
    }

    #[test]
    fn commutativity_and_associativity() {
        assert!(Opcode::Add.is_commutative());
        assert!(!Opcode::Sub.is_commutative());
        assert!(Opcode::Xor.is_associative(false));
        assert!(!Opcode::FAdd.is_associative(false));
        assert!(Opcode::FAdd.is_associative(true));
    }

    #[test]
    fn neutral_elements() {
        assert_eq!(Opcode::Add.neutral_element(), Some(NeutralElement::Zero));
        assert_eq!(Opcode::Mul.neutral_element(), Some(NeutralElement::One));
        assert_eq!(Opcode::And.neutral_element(), Some(NeutralElement::AllOnes));
        assert_eq!(Opcode::Icmp.neutral_element(), None);
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in [
            Opcode::Add,
            Opcode::Gep,
            Opcode::Phi,
            Opcode::CondBr,
            Opcode::FpToSi,
            Opcode::Unreachable,
        ] {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn predicate_round_trip() {
        for p in [IntPredicate::Eq, IntPredicate::Slt, IntPredicate::Uge] {
            assert_eq!(IntPredicate::from_mnemonic(p.mnemonic()), Some(p));
        }
        for p in [FloatPredicate::Oeq, FloatPredicate::Ole] {
            assert_eq!(FloatPredicate::from_mnemonic(p.mnemonic()), Some(p));
        }
    }
}
