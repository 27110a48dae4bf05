//! A hash-consed symbolic expression arena with abstraction-aware
//! normalization.
//!
//! The validator proves value equality between the original region and the
//! symbolically unrolled loop by interning both sides into this arena and
//! comparing [`ExprId`]s. Interning normalizes exactly the algebraic
//! abstractions the aligner is allowed to exploit (see
//! [`crate::ABSTRACTIONS`]): integer constant folding, neutral-element
//! identities, zero-offset pointer arithmetic, operand ordering for
//! commutative operations, and flattened n-ary chains for
//! associative-commutative reductions. Anything the arena does not
//! normalize stays symbolic, so a failed comparison can only reject a
//! rewrite, never accept a wrong one.

use std::hash::BuildHasher;

use rolag_ir::fold::{eval_icmp, eval_int_binop, normalize_int};
use rolag_ir::fxhash::{FxBuildHasher, FxHashMap};
use rolag_ir::{
    FloatPredicate, FuncId, GlobalId, InlineList, InstId, IntPredicate, NeutralElement, Opcode,
    TypeId, TypeStore, ValueId,
};

/// Handle to an interned [`Expr`]. Equal ids mean structurally equal
/// expressions after normalization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// Position of this expression in the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The non-operand payload of an operation expression — the parts of
/// [`rolag_ir::InstExtra`] that make sense outside a CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtraKey {
    /// No payload.
    None,
    /// `icmp` predicate.
    Icmp(IntPredicate),
    /// `fcmp` predicate.
    Fcmp(FloatPredicate),
    /// `gep` element type.
    Gep(TypeId),
    /// Direct call target.
    Call(FuncId),
    /// `alloca` element type.
    Alloca(TypeId),
}

/// A normalized symbolic expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An integer constant, stored normalized for its type.
    Int {
        /// Type of the constant.
        ty: TypeId,
        /// Sign-extended normalized value.
        value: i64,
    },
    /// A floating-point constant as raw `f64` bits.
    Float {
        /// Type of the constant.
        ty: TypeId,
        /// IEEE-754 bit pattern.
        bits: u64,
    },
    /// The address of a module global.
    Global(GlobalId),
    /// The address of a module function.
    Func(FuncId),
    /// An undefined value.
    Undef(TypeId),
    /// An opaque leaf naming a value of the *original* function: a
    /// parameter, a value defined outside the candidate block, or the
    /// result of an effectful region instruction (load/call/alloca).
    Orig(ValueId),
    /// Memory freshly allocated by the rewrite itself (a generated
    /// `alloca`), named by the generated instruction.
    Fresh(InstId),
    /// A (non-folded) operation over interned operands.
    Op {
        /// Operation.
        opcode: Opcode,
        /// Result type.
        ty: TypeId,
        /// Payload.
        extra: ExtraKey,
        /// Operand expressions, in instruction order (commutative binary
        /// operations are stored with sorted operands).
        args: InlineList<ExprId>,
    },
    /// A flattened associative-commutative chain: `opcode` applied to the
    /// whole (sorted) argument list, with constants folded and neutral
    /// elements dropped. This is how reduction trees, linear reduction
    /// chains, and their rolled accumulator loops all reach one canonical
    /// form.
    Chain {
        /// The associative-commutative operation.
        opcode: Opcode,
        /// Result (and operand) type.
        ty: TypeId,
        /// At least two non-neutral, sorted operand expressions.
        args: InlineList<ExprId>,
    },
}

/// The interning arena. Equal expressions — modulo the normalizations
/// listed in the module docs — receive equal [`ExprId`]s.
pub struct ExprArena {
    exprs: Vec<Expr>,
    /// Hash of an interned expression -> the newest id with that hash.
    /// Older ids sharing the hash chain through `next_same_hash`, so each
    /// expression is stored once, in `exprs`.
    by_hash: FxHashMap<u64, ExprId>,
    next_same_hash: Vec<Option<ExprId>>,
    fast_math: bool,
}

impl ExprArena {
    /// Creates an empty arena. `fast_math` controls whether `fadd`/`fmul`
    /// are treated as associative (reassociation of float reductions).
    pub fn new(fast_math: bool) -> Self {
        ExprArena {
            exprs: Vec::new(),
            by_hash: FxHashMap::default(),
            next_same_hash: Vec::new(),
            fast_math,
        }
    }

    /// The expression behind `id`.
    pub fn get(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }

    /// Interns `e` as-is (no normalization).
    pub fn intern(&mut self, e: Expr) -> ExprId {
        let hash = FxBuildHasher::default().hash_one(&e);
        let mut next = self.by_hash.get(&hash).copied();
        while let Some(id) = next {
            if self.exprs[id.index()] == e {
                return id;
            }
            next = self.next_same_hash[id.index()];
        }
        let id = ExprId(u32::try_from(self.exprs.len()).expect("arena overflow"));
        self.exprs.push(e);
        self.next_same_hash.push(self.by_hash.insert(hash, id));
        id
    }

    /// Interns the integer constant `value` of type `ty`, normalized.
    pub fn int(&mut self, types: &TypeStore, ty: TypeId, value: i64) -> ExprId {
        let value = normalize_int(types, ty, value);
        self.intern(Expr::Int { ty, value })
    }

    /// Builds (and normalizes) the operation `opcode` over `args`.
    pub fn op(
        &mut self,
        types: &TypeStore,
        opcode: Opcode,
        ty: TypeId,
        extra: ExtraKey,
        mut args: InlineList<ExprId>,
    ) -> ExprId {
        // Integer constant folding.
        if opcode.is_int_binop() && args.len() == 2 {
            if let (&Expr::Int { value: a, .. }, &Expr::Int { value: b, .. }) =
                (self.get(args[0]), self.get(args[1]))
            {
                if let Some(v) = eval_int_binop(types, opcode, ty, a, b) {
                    return self.int(types, ty, v);
                }
            }
        }
        if opcode == Opcode::Icmp && args.len() == 2 {
            if let ExtraKey::Icmp(pred) = extra {
                if let (
                    &Expr::Int {
                        ty: aty, value: a, ..
                    },
                    &Expr::Int { value: b, .. },
                ) = (self.get(args[0]), self.get(args[1]))
                {
                    let r = eval_icmp(types, pred, aty, a, b);
                    return self.int(types, ty, i64::from(r));
                }
            }
        }
        if matches!(opcode, Opcode::Trunc | Opcode::SExt | Opcode::ZExt) && args.len() == 1 {
            if let &Expr::Int { ty: from, value } = self.get(args[0]) {
                let v = if opcode == Opcode::ZExt {
                    rolag_ir::fold::as_unsigned(types, from, value) as i64
                } else {
                    value
                };
                return self.int(types, ty, v);
            }
        }
        // `gep base, 0, 0, ...` is the base pointer (neutral pointer op).
        if opcode == Opcode::Gep
            && args.len() >= 2
            && args[1..]
                .iter()
                .all(|&a| matches!(self.get(a), Expr::Int { value: 0, .. }))
        {
            return args[0];
        }
        // Neutral-element identities: `x op neutral == x`.
        if args.len() == 2 && opcode.is_binop() {
            if self.is_neutral_operand(opcode, ty, args[1]) {
                return args[0];
            }
            if opcode.is_commutative() && self.is_neutral_operand(opcode, ty, args[0]) {
                return args[1];
            }
        }
        // Associative-commutative operations flatten into sorted chains.
        if args.len() == 2 && opcode.is_commutative() && opcode.is_associative(self.fast_math) {
            return self.chain(types, opcode, ty, args);
        }
        // Commutative but not associative (float without fast-math): at
        // least canonicalize the operand order.
        if args.len() == 2 && opcode.is_commutative() && args[0] > args[1] {
            args.swap(0, 1);
        }
        self.intern(Expr::Op {
            opcode,
            ty,
            extra,
            args,
        })
    }

    /// Flattens nested same-op chains, folds constants, drops neutral
    /// elements, and sorts; the canonical form for AC reductions.
    fn chain(
        &mut self,
        types: &TypeStore,
        opcode: Opcode,
        ty: TypeId,
        parts: InlineList<ExprId>,
    ) -> ExprId {
        let mut stack = parts;
        let mut flat: InlineList<ExprId> = InlineList::new();
        let mut acc: Option<i64> = None;
        while let Some(p) = stack.pop() {
            match self.get(p) {
                Expr::Chain {
                    opcode: o,
                    ty: t,
                    args,
                } if *o == opcode && *t == ty => stack.extend(args.iter().copied()),
                &Expr::Int { value, .. } if types.is_int(ty) => {
                    acc = Some(match acc {
                        None => value,
                        Some(c) => eval_int_binop(types, opcode, ty, c, value)
                            .expect("AC integer ops are total"),
                    });
                }
                e => {
                    if !expr_is_neutral(e, opcode, ty) {
                        flat.push(p);
                    }
                }
            }
        }
        if let Some(c) = acc {
            if Some(normalize_int(types, ty, c)) != neutral_int_value(types, opcode, ty) {
                let cid = self.int(types, ty, c);
                flat.push(cid);
            }
        }
        match flat.len() {
            0 => self.neutral_leaf(types, opcode, ty),
            1 => flat[0],
            _ => {
                flat.sort_unstable();
                self.intern(Expr::Chain {
                    opcode,
                    ty,
                    args: flat,
                })
            }
        }
    }

    fn is_neutral_operand(&self, opcode: Opcode, ty: TypeId, e: ExprId) -> bool {
        expr_is_neutral(self.get(e), opcode, ty)
    }

    /// The neutral constant of an AC operation, as a leaf (used when a
    /// chain cancels away entirely).
    fn neutral_leaf(&mut self, types: &TypeStore, opcode: Opcode, ty: TypeId) -> ExprId {
        match opcode
            .neutral_element()
            .expect("AC op has a neutral element")
        {
            NeutralElement::Zero => self.int(types, ty, 0),
            NeutralElement::One => self.int(types, ty, 1),
            NeutralElement::AllOnes => self.int(types, ty, -1),
            NeutralElement::FZero => self.intern(Expr::Float {
                ty,
                bits: 0f64.to_bits(),
            }),
            NeutralElement::FOne => self.intern(Expr::Float {
                ty,
                bits: 1f64.to_bits(),
            }),
        }
    }
}

/// The normalized integer value of `opcode`'s neutral element, when it has
/// an integer one.
fn neutral_int_value(types: &TypeStore, opcode: Opcode, ty: TypeId) -> Option<i64> {
    match opcode.neutral_element()? {
        NeutralElement::Zero => Some(0),
        NeutralElement::One => Some(normalize_int(types, ty, 1)),
        NeutralElement::AllOnes => Some(-1),
        NeutralElement::FZero | NeutralElement::FOne => None,
    }
}

/// Whether `e` is the neutral constant for `opcode` at type `ty`.
fn expr_is_neutral(e: &Expr, opcode: Opcode, ty: TypeId) -> bool {
    let Some(n) = opcode.neutral_element() else {
        return false;
    };
    match (n, e) {
        (NeutralElement::Zero, Expr::Int { ty: t, value: 0 }) => *t == ty,
        (NeutralElement::One, Expr::Int { ty: t, value }) => *t == ty && *value == 1,
        (NeutralElement::AllOnes, Expr::Int { ty: t, value: -1 }) => *t == ty,
        (NeutralElement::FZero, Expr::Float { ty: t, bits }) => *t == ty && *bits == 0f64.to_bits(),
        (NeutralElement::FOne, Expr::Float { ty: t, bits }) => *t == ty && *bits == 1f64.to_bits(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> (TypeStore, ExprArena) {
        (TypeStore::new(), ExprArena::new(false))
    }

    #[test]
    fn constants_fold_and_normalize() {
        let (types, mut a) = arena();
        let i32t = types.i32();
        let x = a.int(&types, i32t, 7);
        let y = a.int(&types, i32t, 5);
        let s = a.op(&types, Opcode::Add, i32t, ExtraKey::None, [x, y].into());
        assert_eq!(
            a.get(s),
            &Expr::Int {
                ty: i32t,
                value: 12
            }
        );
        // i32 wrap-around normalizes.
        let big = a.int(&types, i32t, i64::from(i32::MAX));
        let one = a.int(&types, i32t, 1);
        let w = a.op(&types, Opcode::Add, i32t, ExtraKey::None, [big, one].into());
        assert_eq!(
            a.get(w),
            &Expr::Int {
                ty: i32t,
                value: i64::from(i32::MIN)
            }
        );
    }

    #[test]
    fn commutative_operands_canonicalize() {
        let (types, mut a) = arena();
        let i32t = types.i32();
        let p = a.intern(Expr::Orig(ValueId::from_index(3)));
        let q = a.intern(Expr::Orig(ValueId::from_index(9)));
        let pq = a.op(&types, Opcode::Mul, i32t, ExtraKey::None, [p, q].into());
        let qp = a.op(&types, Opcode::Mul, i32t, ExtraKey::None, [q, p].into());
        assert_eq!(pq, qp);
        // Subtraction is not commutative.
        let s1 = a.op(&types, Opcode::Sub, i32t, ExtraKey::None, [p, q].into());
        let s2 = a.op(&types, Opcode::Sub, i32t, ExtraKey::None, [q, p].into());
        assert_ne!(s1, s2);
    }

    #[test]
    fn reduction_trees_and_chains_agree() {
        // ((a+b)+(c+d)) vs (((a+b)+c)+d) vs (d+(c+(b+a))): one canonical id.
        let (types, mut a) = arena();
        let i32t = types.i32();
        let vs: Vec<ExprId> = (0..4)
            .map(|i| a.intern(Expr::Orig(ValueId::from_index(i))))
            .collect();
        let add = |a: &mut ExprArena, x, y| {
            a.op(&types, Opcode::Add, i32t, ExtraKey::None, [x, y].into())
        };
        let t1 = {
            let l = add(&mut a, vs[0], vs[1]);
            let r = add(&mut a, vs[2], vs[3]);
            add(&mut a, l, r)
        };
        let t2 = {
            let l = add(&mut a, vs[0], vs[1]);
            let l = add(&mut a, l, vs[2]);
            add(&mut a, l, vs[3])
        };
        let t3 = {
            let r = add(&mut a, vs[1], vs[0]);
            let r = add(&mut a, vs[2], r);
            add(&mut a, vs[3], r)
        };
        assert_eq!(t1, t2);
        assert_eq!(t2, t3);
    }

    #[test]
    fn neutral_elements_vanish() {
        let (types, mut a) = arena();
        let i32t = types.i32();
        let x = a.intern(Expr::Orig(ValueId::from_index(1)));
        let zero = a.int(&types, i32t, 0);
        let one = a.int(&types, i32t, 1);
        let ones = a.int(&types, i32t, -1);
        assert_eq!(
            a.op(&types, Opcode::Add, i32t, ExtraKey::None, [x, zero].into()),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::Sub, i32t, ExtraKey::None, [x, zero].into()),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::Mul, i32t, ExtraKey::None, [one, x].into()),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::And, i32t, ExtraKey::None, [x, ones].into()),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::Shl, i32t, ExtraKey::None, [x, zero].into()),
            x
        );
        // But `0 - x` is not `x`.
        assert_ne!(
            a.op(&types, Opcode::Sub, i32t, ExtraKey::None, [zero, x].into()),
            x
        );
    }

    #[test]
    fn zero_geps_are_the_base_pointer() {
        let (types, mut a) = arena();
        let i32t = types.i32();
        let i64t = types.i64();
        let base = a.intern(Expr::Global(GlobalId::from_index(0)));
        let zero = a.int(&types, i64t, 0);
        let g = a.op(
            &types,
            Opcode::Gep,
            types.ptr(),
            ExtraKey::Gep(i32t),
            [base, zero].into(),
        );
        assert_eq!(g, base);
        let two = a.int(&types, i64t, 2);
        let g2 = a.op(
            &types,
            Opcode::Gep,
            types.ptr(),
            ExtraKey::Gep(i32t),
            [base, two].into(),
        );
        assert_ne!(g2, base);
    }

    #[test]
    fn float_reassociation_requires_fast_math() {
        let types = TypeStore::new();
        let f64t = types.double();
        let mk = |fast: bool| {
            let mut a = ExprArena::new(fast);
            let vs: Vec<ExprId> = (0..3)
                .map(|i| a.intern(Expr::Orig(ValueId::from_index(i))))
                .collect();
            let l = a.op(
                &types,
                Opcode::FAdd,
                f64t,
                ExtraKey::None,
                [vs[0], vs[1]].into(),
            );
            let t1 = a.op(
                &types,
                Opcode::FAdd,
                f64t,
                ExtraKey::None,
                [l, vs[2]].into(),
            );
            let r = a.op(
                &types,
                Opcode::FAdd,
                f64t,
                ExtraKey::None,
                [vs[1], vs[2]].into(),
            );
            let t2 = a.op(
                &types,
                Opcode::FAdd,
                f64t,
                ExtraKey::None,
                [vs[0], r].into(),
            );
            t1 == t2
        };
        assert!(!mk(false), "strict floats must not reassociate");
        assert!(mk(true), "fast-math floats reassociate");
    }

    #[test]
    fn icmp_and_casts_fold() {
        let (types, mut a) = arena();
        let i64t = types.i64();
        let i1t = types.i1();
        let i32t = types.i32();
        let three = a.int(&types, i64t, 3);
        let five = a.int(&types, i64t, 5);
        let lt = a.op(
            &types,
            Opcode::Icmp,
            i1t,
            ExtraKey::Icmp(IntPredicate::Ult),
            [three, five].into(),
        );
        match a.get(lt) {
            Expr::Int { value, .. } => assert_ne!(*value, 0),
            e => panic!("icmp did not fold: {e:?}"),
        }
        let t = a.op(&types, Opcode::Trunc, i32t, ExtraKey::None, [five].into());
        assert_eq!(a.get(t), &Expr::Int { ty: i32t, value: 5 });
    }
}
