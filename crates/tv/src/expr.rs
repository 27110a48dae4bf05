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
//!
//! Operand lists live in one pool the arena owns, so an expression is a
//! fixed-size record and interning a chain of any length allocates
//! nothing once the arena has held one as long. The intern table is
//! open-addressed and starts small at each use, so [`ExprArena::reset`]
//! costs what the last use interned and keeps every buffer for the next
//! validation.

use std::hash::Hasher;

use rolag_ir::fold::{eval_icmp, eval_int_binop, normalize_int};
use rolag_ir::fxhash::FxHasher;
use rolag_ir::{
    FloatPredicate, FuncId, GlobalId, InstId, IntPredicate, NeutralElement, Opcode, TypeId,
    TypeStore, ValueId,
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

/// The operand list of an operation or chain: a run of the arena's operand
/// pool, read with [`ExprArena::args`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Args {
    start: u32,
    len: u32,
}

impl Args {
    /// Number of operands.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when there are no operands.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The non-operand payload of an operation expression — the parts of
/// [`rolag_ir::InstExtra`] that make sense outside a CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        args: Args,
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
        args: Args,
    },
}

impl ExtraKey {
    /// The payload as a kind tag and a value.
    fn key(self) -> (u64, u64) {
        match self {
            ExtraKey::None => (0, 0),
            ExtraKey::Icmp(p) => (1, p as u64),
            ExtraKey::Fcmp(p) => (2, p as u64),
            ExtraKey::Gep(ty) => (3, ty.index() as u64),
            ExtraKey::Call(f) => (4, f.index() as u64),
            ExtraKey::Alloca(ty) => (5, ty.index() as u64),
        }
    }
}

impl Expr {
    /// The shape packed into two words: the kind of expression with its
    /// opcode and type, and its payload. Equal shapes have equal keys.
    fn key(self) -> [u64; 2] {
        match self {
            Expr::Int { ty, value } => [(ty.index() as u64) << 8, value as u64],
            Expr::Float { ty, bits } => [1 | (ty.index() as u64) << 8, bits],
            Expr::Global(g) => [2, g.index() as u64],
            Expr::Func(f) => [3, f.index() as u64],
            Expr::Undef(ty) => [4, ty.index() as u64],
            Expr::Orig(v) => [5, v.index() as u64],
            Expr::Fresh(i) => [6, i.index() as u64],
            Expr::Op {
                opcode, ty, extra, ..
            } => {
                let (tag, value) = extra.key();
                let head = 7 | (opcode as u64) << 8 | tag << 16 | (ty.index() as u64) << 32;
                [head, value]
            }
            Expr::Chain { opcode, ty, .. } => {
                [8 | (opcode as u64) << 8 | (ty.index() as u64) << 32, 0]
            }
        }
    }

    /// The hash interning files an expression with key `key` and operands
    /// `args` under: the key, then the operands two to a word.
    fn intern_hash([kind, payload]: [u64; 2], args: &[ExprId]) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write_u64(kind);
        hasher.write_u64(payload);
        for pair in args.chunks(2) {
            let high = pair.get(1).map_or(u64::MAX, |a| a.0 as u64);
            hasher.write_u64(pair[0].0 as u64 | high << 32);
        }
        hasher.finish()
    }
}

/// One slot of the arena's intern table: the id it holds plus one (zero
/// for an empty slot), and the top half of its expression's scrambled
/// hash, which picks the slot and screens candidates.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u32,
    id: u32,
}

/// The smallest intern table a use of the arena starts with.
const MIN_TABLE: usize = 128;

/// The interning arena. Equal expressions — modulo the normalizations
/// listed in the module docs — receive equal [`ExprId`]s.
#[derive(Default)]
pub struct ExprArena {
    exprs: Vec<Expr>,
    /// The key and the slot tag of each expression, parallel to `exprs`.
    keys: Vec<[u64; 2]>,
    tags: Vec<u32>,
    /// The operand lists of every operation and chain, back to back.
    pool: Vec<ExprId>,
    /// Open-addressed index of `exprs`, probed linearly in its first
    /// `table_len` slots: a power of two at least twice the number of
    /// expressions. Slots past `table_len` are always empty, so emptying
    /// the table costs the slots the last use of the arena reached.
    slots: Vec<Slot>,
    table_len: usize,
    /// Work lists of [`ExprArena::chain`], kept between calls.
    stack: Vec<ExprId>,
    flat: Vec<ExprId>,
    fast_math: bool,
}

impl ExprArena {
    /// Creates an empty arena. `fast_math` controls whether `fadd`/`fmul`
    /// are treated as associative (reassociation of float reductions).
    pub fn new(fast_math: bool) -> Self {
        ExprArena {
            fast_math,
            ..ExprArena::default()
        }
    }

    /// Empties the arena for a new use under `fast_math`, keeping every
    /// buffer's capacity. The intern table shrinks back to its smallest
    /// size, so a small use probes a table that stays in cache.
    pub fn reset(&mut self, fast_math: bool) {
        self.exprs.clear();
        self.keys.clear();
        self.tags.clear();
        self.pool.clear();
        self.slots[..self.table_len].fill(Slot::default());
        self.table_len = 0;
        self.fast_math = fast_math;
    }

    /// The expression behind `id`.
    pub fn get(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }

    /// The operands of an operation or chain.
    pub fn args(&self, args: Args) -> &[ExprId] {
        &self.pool[args.start as usize..(args.start + args.len) as usize]
    }

    /// Interns the leaf `e` as-is (no normalization); operations and
    /// chains are built with [`ExprArena::op`].
    pub fn intern(&mut self, e: Expr) -> ExprId {
        debug_assert!(!matches!(e, Expr::Op { .. } | Expr::Chain { .. }));
        self.intern_with(e, &[])
    }

    /// The first slot to probe for an expression whose slot tag is `tag`:
    /// the tag's top bits.
    fn home(&self, tag: u32) -> usize {
        (tag >> (32 - self.table_len.trailing_zeros())) as usize
    }

    /// Doubles the intern table (or starts it at [`MIN_TABLE`] slots) and
    /// re-indexes every expression.
    fn grow(&mut self) {
        let old = self.table_len;
        self.table_len = (old * 2).max(MIN_TABLE);
        if self.slots.len() < self.table_len {
            self.slots.resize(self.table_len, Slot::default());
        }
        self.slots[..old].fill(Slot::default());
        let mask = self.table_len - 1;
        for (id, &tag) in self.tags.iter().enumerate() {
            let mut pos = self.home(tag);
            while self.slots[pos].id != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = Slot {
                tag,
                id: id as u32 + 1,
            };
        }
    }

    /// Interns `shape` over the operands `args`: an existing expression
    /// with the same shape and operands, or a new one whose operands are
    /// copied to the pool.
    fn intern_with(&mut self, shape: Expr, args: &[ExprId]) -> ExprId {
        if (self.exprs.len() + 1) * 2 > self.table_len {
            self.grow();
        }
        let key = shape.key();
        // Fibonacci hashing: the top bits of the product mix every bit of
        // the hash.
        let tag = (Expr::intern_hash(key, args).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32;
        let mask = self.table_len - 1;
        let mut pos = self.home(tag);
        loop {
            let slot = self.slots[pos];
            if slot.id == 0 {
                break;
            }
            let id = slot.id as usize - 1;
            if slot.tag == tag && self.keys[id] == key {
                let same_args = match self.exprs[id] {
                    Expr::Op { args: a, .. } | Expr::Chain { args: a, .. } => self.args(a) == args,
                    _ => true,
                };
                if same_args {
                    return ExprId(id as u32);
                }
            }
            pos = (pos + 1) & mask;
        }
        let id = u32::try_from(self.exprs.len()).expect("arena overflow");
        let stored = Args {
            start: u32::try_from(self.pool.len()).expect("arena overflow"),
            len: args.len() as u32,
        };
        self.pool.extend_from_slice(args);
        self.exprs.push(match shape {
            Expr::Op {
                opcode, ty, extra, ..
            } => Expr::Op {
                opcode,
                ty,
                extra,
                args: stored,
            },
            Expr::Chain { opcode, ty, .. } => Expr::Chain {
                opcode,
                ty,
                args: stored,
            },
            leaf => leaf,
        });
        self.keys.push(key);
        self.tags.push(tag);
        self.slots[pos] = Slot { tag, id: id + 1 };
        ExprId(id)
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
        args: &[ExprId],
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
            return self.chain(types, opcode, ty, [args[0], args[1]]);
        }
        let shape = Expr::Op {
            opcode,
            ty,
            extra,
            args: Args::default(),
        };
        // Commutative but not associative (float without fast-math): at
        // least canonicalize the operand order.
        if args.len() == 2 && opcode.is_commutative() && args[0] > args[1] {
            return self.intern_with(shape, &[args[1], args[0]]);
        }
        self.intern_with(shape, args)
    }

    /// Flattens nested same-op chains, folds constants, drops neutral
    /// elements, and sorts; the canonical form for AC reductions.
    fn chain(
        &mut self,
        types: &TypeStore,
        opcode: Opcode,
        ty: TypeId,
        parts: [ExprId; 2],
    ) -> ExprId {
        // Two operands that are neither same-op chains nor integer
        // constants to fold: the chain is the pair, sorted. (`op` already
        // returned for a neutral operand.)
        let plain = |e: &Expr| match *e {
            Expr::Chain {
                opcode: o, ty: t, ..
            } => o != opcode || t != ty,
            Expr::Int { .. } => !types.is_int(ty),
            _ => true,
        };
        if plain(self.get(parts[0])) && plain(self.get(parts[1])) {
            let shape = Expr::Chain {
                opcode,
                ty,
                args: Args::default(),
            };
            let (lo, hi) = (parts[0].min(parts[1]), parts[0].max(parts[1]));
            return self.intern_with(shape, &[lo, hi]);
        }
        // One plain operand and one integer constant of the chain's type:
        // the constant is already normalized, so the chain is the pair,
        // sorted, unless the constant is neutral.
        if types.is_int(ty) {
            for (c, other) in [(parts[0], parts[1]), (parts[1], parts[0])] {
                if let (Expr::Int { ty: t, value }, true) = (*self.get(c), plain(self.get(other))) {
                    if t == ty {
                        if Some(value) == neutral_int_value(types, opcode, ty) {
                            return other;
                        }
                        let shape = Expr::Chain {
                            opcode,
                            ty,
                            args: Args::default(),
                        };
                        return self.intern_with(shape, &[c.min(other), c.max(other)]);
                    }
                }
            }
        }
        let mut stack = std::mem::take(&mut self.stack);
        let mut flat = std::mem::take(&mut self.flat);
        stack.clear();
        flat.clear();
        stack.extend_from_slice(&parts);
        let mut acc: Option<i64> = None;
        while let Some(p) = stack.pop() {
            match *self.get(p) {
                Expr::Chain {
                    opcode: o,
                    ty: t,
                    args,
                } if o == opcode && t == ty => stack.extend_from_slice(self.args(args)),
                Expr::Int { value, .. } if types.is_int(ty) => {
                    acc = Some(match acc {
                        None => value,
                        Some(c) => eval_int_binop(types, opcode, ty, c, value)
                            .expect("AC integer ops are total"),
                    });
                }
                e => {
                    if !expr_is_neutral(&e, opcode, ty) {
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
        let id = match flat.len() {
            0 => self.neutral_leaf(types, opcode, ty),
            1 => flat[0],
            _ => {
                flat.sort_unstable();
                let shape = Expr::Chain {
                    opcode,
                    ty,
                    args: Args::default(),
                };
                self.intern_with(shape, &flat)
            }
        };
        self.stack = stack;
        self.flat = flat;
        id
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
        let s = a.op(&types, Opcode::Add, i32t, ExtraKey::None, &[x, y]);
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
        let w = a.op(&types, Opcode::Add, i32t, ExtraKey::None, &[big, one]);
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
        let pq = a.op(&types, Opcode::Mul, i32t, ExtraKey::None, &[p, q]);
        let qp = a.op(&types, Opcode::Mul, i32t, ExtraKey::None, &[q, p]);
        assert_eq!(pq, qp);
        // Subtraction is not commutative.
        let s1 = a.op(&types, Opcode::Sub, i32t, ExtraKey::None, &[p, q]);
        let s2 = a.op(&types, Opcode::Sub, i32t, ExtraKey::None, &[q, p]);
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
        let add =
            |a: &mut ExprArena, x, y| a.op(&types, Opcode::Add, i32t, ExtraKey::None, &[x, y]);
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
            a.op(&types, Opcode::Add, i32t, ExtraKey::None, &[x, zero]),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::Sub, i32t, ExtraKey::None, &[x, zero]),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::Mul, i32t, ExtraKey::None, &[one, x]),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::And, i32t, ExtraKey::None, &[x, ones]),
            x
        );
        assert_eq!(
            a.op(&types, Opcode::Shl, i32t, ExtraKey::None, &[x, zero]),
            x
        );
        // But `0 - x` is not `x`.
        assert_ne!(
            a.op(&types, Opcode::Sub, i32t, ExtraKey::None, &[zero, x]),
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
            &[base, zero],
        );
        assert_eq!(g, base);
        let two = a.int(&types, i64t, 2);
        let g2 = a.op(
            &types,
            Opcode::Gep,
            types.ptr(),
            ExtraKey::Gep(i32t),
            &[base, two],
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
            let l = a.op(&types, Opcode::FAdd, f64t, ExtraKey::None, &[vs[0], vs[1]]);
            let t1 = a.op(&types, Opcode::FAdd, f64t, ExtraKey::None, &[l, vs[2]]);
            let r = a.op(&types, Opcode::FAdd, f64t, ExtraKey::None, &[vs[1], vs[2]]);
            let t2 = a.op(&types, Opcode::FAdd, f64t, ExtraKey::None, &[vs[0], r]);
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
            &[three, five],
        );
        match a.get(lt) {
            Expr::Int { value, .. } => assert_ne!(*value, 0),
            e => panic!("icmp did not fold: {e:?}"),
        }
        let t = a.op(&types, Opcode::Trunc, i32t, ExtraKey::None, &[five]);
        assert_eq!(a.get(t), &Expr::Int { ty: i32t, value: 5 });
    }
}
