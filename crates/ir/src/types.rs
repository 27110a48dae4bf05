//! Type system for the RoLAG IR.
//!
//! Types are interned in a per-module [`TypeStore`] and referred to by
//! [`TypeId`]. Pointers are *opaque* (as in modern LLVM): a pointer type does
//! not know its pointee; instructions that need an element type (`gep`,
//! `load`, `alloca`) carry it explicitly.

use std::collections::HashMap;
use std::fmt;

use crate::printer::push_u64;

/// An interned reference to a type inside a [`TypeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// Raw index of this type inside its store.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Structural description of a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum TypeKind {
    /// The absence of a value (function return / `store` result).
    Void,
    /// An integer of the given bit width (1..=128).
    Int(u16),
    /// 32-bit IEEE-754 float.
    Float,
    /// 64-bit IEEE-754 float.
    Double,
    /// Opaque pointer (64-bit).
    Ptr,
    /// Fixed-length array.
    Array { elem: TypeId, len: u64 },
    /// Struct with the given field types (naturally aligned, non-packed).
    Struct { fields: Vec<TypeId> },
    /// Function signature. Used for declarations and call-type equivalence.
    Func { ret: TypeId, params: Vec<TypeId> },
}

/// The scalar types every store starts with, at these ids.
const PRELUDE: [TypeKind; 9] = [
    TypeKind::Void,
    TypeKind::Int(1),
    TypeKind::Int(8),
    TypeKind::Int(16),
    TypeKind::Int(32),
    TypeKind::Int(64),
    TypeKind::Float,
    TypeKind::Double,
    TypeKind::Ptr,
];

/// Interner for [`TypeKind`]s.
///
/// Commonly used types are pre-interned and available through cheap accessor
/// methods such as [`TypeStore::i32`] and [`TypeStore::ptr`].
#[derive(Debug, Clone)]
pub struct TypeStore {
    kinds: Vec<TypeKind>,
    /// Array and struct nesting depth of each type, parallel to `kinds`.
    depths: Vec<u32>,
    map: HashMap<TypeKind, TypeId>,
    void: TypeId,
    i1: TypeId,
    i8: TypeId,
    i16: TypeId,
    i32: TypeId,
    i64: TypeId,
    float: TypeId,
    double: TypeId,
    ptr: TypeId,
}

impl Default for TypeStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeStore {
    /// Creates a store with the common scalar types pre-interned. They
    /// take fixed ids and stay out of the hash map ([`TypeStore::intern`]
    /// finds them by kind), so a new store hashes nothing and allocates
    /// twice until it meets another type.
    pub fn new() -> Self {
        TypeStore {
            kinds: PRELUDE.to_vec(),
            depths: vec![0; PRELUDE.len()],
            map: HashMap::new(),
            void: TypeId(0),
            i1: TypeId(1),
            i8: TypeId(2),
            i16: TypeId(3),
            i32: TypeId(4),
            i64: TypeId(5),
            float: TypeId(6),
            double: TypeId(7),
            ptr: TypeId(8),
        }
    }

    /// The id of `kind` when it is one of the [`PRELUDE`] types.
    fn prelude_id(kind: &TypeKind) -> Option<TypeId> {
        Some(TypeId(match kind {
            TypeKind::Void => 0,
            TypeKind::Int(1) => 1,
            TypeKind::Int(8) => 2,
            TypeKind::Int(16) => 3,
            TypeKind::Int(32) => 4,
            TypeKind::Int(64) => 5,
            TypeKind::Float => 6,
            TypeKind::Double => 7,
            TypeKind::Ptr => 8,
            _ => return None,
        }))
    }

    /// Interns `kind`, returning the canonical [`TypeId`] for it.
    pub fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(id) = Self::prelude_id(&kind) {
            return id;
        }
        if let Some(&id) = self.map.get(&kind) {
            return id;
        }
        let id = TypeId(self.kinds.len() as u32);
        // A compound kind only references ids interned before it, so the
        // depth is one lookup per child, never a recursive walk.
        let depth = match &kind {
            TypeKind::Array { elem, .. } => 1 + self.depths[elem.index()],
            TypeKind::Struct { fields } => {
                1 + fields
                    .iter()
                    .map(|f| self.depths[f.index()])
                    .max()
                    .unwrap_or(0)
            }
            TypeKind::Func { ret, params } => params
                .iter()
                .chain([ret])
                .map(|t| self.depths[t.index()])
                .max()
                .unwrap_or(0),
            _ => 0,
        };
        self.depths.push(depth);
        self.kinds.push(kind.clone());
        self.map.insert(kind, id);
        id
    }

    /// Looks up the structural kind of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this store.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.index()]
    }

    /// How many array and struct types enclose one another in `id`: 0 for
    /// a scalar, 1 for `[4 x i32]`, 2 for `{ [4 x i32] }`. The text
    /// parser refuses a type deeper than
    /// [`MAX_TYPE_DEPTH`](crate::parser::MAX_TYPE_DEPTH), and the printer
    /// and the layout queries recurse this deep.
    pub fn depth(&self, id: TypeId) -> usize {
        self.depths[id.index()] as usize
    }

    /// `void`
    pub fn void(&self) -> TypeId {
        self.void
    }
    /// `i1`
    pub fn i1(&self) -> TypeId {
        self.i1
    }
    /// `i8`
    pub fn i8(&self) -> TypeId {
        self.i8
    }
    /// `i16`
    pub fn i16(&self) -> TypeId {
        self.i16
    }
    /// `i32`
    pub fn i32(&self) -> TypeId {
        self.i32
    }
    /// `i64`
    pub fn i64(&self) -> TypeId {
        self.i64
    }
    /// `float`
    pub fn float(&self) -> TypeId {
        self.float
    }
    /// `double`
    pub fn double(&self) -> TypeId {
        self.double
    }
    /// Opaque pointer.
    pub fn ptr(&self) -> TypeId {
        self.ptr
    }

    /// Interns an integer type of the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 128.
    pub fn int(&mut self, bits: u16) -> TypeId {
        assert!((1..=128).contains(&bits), "invalid integer width {bits}");
        self.intern(TypeKind::Int(bits))
    }

    /// Interns `[len x elem]`.
    pub fn array(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(TypeKind::Array { elem, len })
    }

    /// Interns a struct type with the given fields.
    pub fn struct_(&mut self, fields: Vec<TypeId>) -> TypeId {
        self.intern(TypeKind::Struct { fields })
    }

    /// Interns a function signature type.
    pub fn func(&mut self, ret: TypeId, params: Vec<TypeId>) -> TypeId {
        self.intern(TypeKind::Func { ret, params })
    }

    /// Returns true if `id` is an integer type.
    pub fn is_int(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Int(_))
    }

    /// Returns true if `id` is `float` or `double`.
    pub fn is_float(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Float | TypeKind::Double)
    }

    /// Returns true if `id` is a pointer.
    pub fn is_ptr(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Ptr)
    }

    /// Bit width of an integer type, or `None` for non-integers.
    pub fn int_width(&self, id: TypeId) -> Option<u16> {
        match self.kind(id) {
            TypeKind::Int(w) => Some(*w),
            _ => None,
        }
    }

    /// In-memory size of the type in bytes.
    ///
    /// Integers round up to the next power-of-two byte size (capped at 16);
    /// structs use natural alignment with padding, matching a typical
    /// x86-64 C ABI layout.
    pub fn size_of(&self, id: TypeId) -> u64 {
        match self.kind(id) {
            TypeKind::Void => 0,
            TypeKind::Int(bits) => int_byte_size(*bits),
            TypeKind::Float => 4,
            TypeKind::Double => 8,
            TypeKind::Ptr => 8,
            TypeKind::Array { elem, len } => self.size_of(*elem) * len,
            TypeKind::Struct { fields } => {
                let mut offset = 0u64;
                let mut max_align = 1u64;
                for &f in fields {
                    let align = self.align_of(f);
                    max_align = max_align.max(align);
                    offset = round_up(offset, align) + self.size_of(f);
                }
                round_up(offset, max_align)
            }
            TypeKind::Func { .. } => 0,
        }
    }

    /// Natural alignment of the type in bytes.
    pub fn align_of(&self, id: TypeId) -> u64 {
        match self.kind(id) {
            TypeKind::Void | TypeKind::Func { .. } => 1,
            TypeKind::Int(bits) => int_byte_size(*bits).min(8),
            TypeKind::Float => 4,
            TypeKind::Double => 8,
            TypeKind::Ptr => 8,
            TypeKind::Array { elem, .. } => self.align_of(*elem),
            TypeKind::Struct { fields } => {
                fields.iter().map(|&f| self.align_of(f)).max().unwrap_or(1)
            }
        }
    }

    /// Byte offset of field `index` inside struct type `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a struct or `index` is out of bounds.
    pub fn field_offset(&self, id: TypeId, index: usize) -> u64 {
        match self.kind(id) {
            TypeKind::Struct { fields } => {
                let fields = fields.clone();
                assert!(index < fields.len(), "field index out of bounds");
                let mut offset = 0u64;
                for (i, &f) in fields.iter().enumerate() {
                    offset = round_up(offset, self.align_of(f));
                    if i == index {
                        return offset;
                    }
                    offset += self.size_of(f);
                }
                unreachable!()
            }
            other => panic!("field_offset on non-struct type {other:?}"),
        }
    }

    /// Whether two types are *equivalent* in the paper's sense (§IV-B):
    /// bit-for-bit losslessly bitcastable. Identical types are always
    /// equivalent; distinct scalar types are equivalent when they have the
    /// same bit size and the same register class (int/ptr vs float).
    pub fn equivalent(&self, a: TypeId, b: TypeId) -> bool {
        if a == b {
            return true;
        }
        let class = |t: TypeId| match self.kind(t) {
            TypeKind::Int(_) | TypeKind::Ptr => 0u8,
            TypeKind::Float | TypeKind::Double => 1,
            _ => 2,
        };
        class(a) == class(b) && class(a) != 2 && self.size_of(a) == self.size_of(b)
    }

    /// Number of interned types.
    pub fn num_types(&self) -> usize {
        self.kinds.len()
    }

    /// Interns every type of `other` with index `>= base_len` into `self`,
    /// returning the full old→new id mapping for `other`'s id space
    /// (identity below `base_len`).
    ///
    /// Intended for merging a worker store back into the store it was
    /// cloned from: `base_len` is the clone-time type count, so ids below
    /// it mean the same type in both stores. Relies on the interner's
    /// append-only invariant that a compound kind only references ids
    /// interned before it.
    pub fn absorb(&mut self, other: &TypeStore, base_len: usize) -> Vec<TypeId> {
        let mut map: Vec<TypeId> = (0..other.kinds.len() as u32).map(TypeId).collect();
        for i in base_len..other.kinds.len() {
            let remapped = match &other.kinds[i] {
                TypeKind::Array { elem, len } => TypeKind::Array {
                    elem: map[elem.index()],
                    len: *len,
                },
                TypeKind::Struct { fields } => TypeKind::Struct {
                    fields: fields.iter().map(|f| map[f.index()]).collect(),
                },
                TypeKind::Func { ret, params } => TypeKind::Func {
                    ret: map[ret.index()],
                    params: params.iter().map(|p| map[p.index()]).collect(),
                },
                scalar => scalar.clone(),
            };
            map[i] = self.intern(remapped);
        }
        map
    }

    /// Renders `id` as IR text (e.g. `i32`, `[4 x i32]`).
    pub fn display(&self, id: TypeId) -> String {
        let mut out = String::new();
        self.write_type(id, &mut out);
        out
    }

    /// Appends the IR text of `id` to `out` — [`display`](Self::display)
    /// without a `String` per (nested) type, for the printer's buffer.
    pub(crate) fn write_type(&self, id: TypeId, out: &mut String) {
        match self.kind(id) {
            TypeKind::Void => out.push_str("void"),
            TypeKind::Int(w) => {
                out.push('i');
                push_u64(out, u64::from(*w));
            }
            TypeKind::Float => out.push_str("float"),
            TypeKind::Double => out.push_str("double"),
            TypeKind::Ptr => out.push_str("ptr"),
            TypeKind::Array { elem, len } => {
                out.push('[');
                push_u64(out, *len);
                out.push_str(" x ");
                self.write_type(*elem, out);
                out.push(']');
            }
            TypeKind::Struct { fields } => {
                out.push_str("{ ");
                self.write_list(fields, out);
                out.push_str(" }");
            }
            TypeKind::Func { ret, params } => {
                out.push_str("fn(");
                self.write_list(params, out);
                out.push_str(") -> ");
                self.write_type(*ret, out);
            }
        }
    }

    fn write_list(&self, ids: &[TypeId], out: &mut String) {
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            self.write_type(id, out);
        }
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

fn int_byte_size(bits: u16) -> u64 {
    let bytes = (bits as u64).div_ceil(8);
    bytes.next_power_of_two().min(16)
}

fn round_up(value: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (value + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut store = TypeStore::new();
        let a = store.int(32);
        let b = store.int(32);
        assert_eq!(a, b);
        assert_eq!(a, store.i32());
    }

    #[test]
    fn distinct_types_get_distinct_ids() {
        let mut store = TypeStore::new();
        assert_ne!(store.int(32), store.int(64));
        assert_ne!(store.float(), store.double());
    }

    #[test]
    fn depth_counts_enclosing_aggregates() {
        let mut store = TypeStore::new();
        let i32_ = store.i32();
        assert_eq!(store.depth(i32_), 0);
        let arr = store.array(i32_, 4);
        assert_eq!(store.depth(arr), 1);
        let empty = store.struct_(vec![]);
        assert_eq!(store.depth(empty), 1);
        let outer = store.struct_(vec![i32_, arr]);
        assert_eq!(store.depth(outer), 2);
        let sig = store.func(i32_, vec![outer]);
        assert_eq!(store.depth(sig), 2);
        let mut deep = i32_;
        for _ in 0..100_000 {
            deep = store.array(deep, 1);
        }
        assert_eq!(store.depth(deep), 100_000);
    }

    #[test]
    fn array_sizes() {
        let mut store = TypeStore::new();
        let arr = store.array(store.i32(), 10);
        assert_eq!(store.size_of(arr), 40);
        assert_eq!(store.align_of(arr), 4);
    }

    #[test]
    fn struct_layout_with_padding() {
        let mut store = TypeStore::new();
        // { i8, i32, i8 } -> offsets 0, 4, 8; size rounded to 12.
        let s = store.struct_(vec![store.i8(), store.i32(), store.i8()]);
        assert_eq!(store.field_offset(s, 0), 0);
        assert_eq!(store.field_offset(s, 1), 4);
        assert_eq!(store.field_offset(s, 2), 8);
        assert_eq!(store.size_of(s), 12);
        assert_eq!(store.align_of(s), 4);
    }

    #[test]
    fn odd_integer_widths_round_up() {
        let mut store = TypeStore::new();
        let i24 = store.int(24);
        assert_eq!(store.size_of(i24), 4);
        let i65 = store.int(65);
        assert_eq!(store.size_of(i65), 16);
    }

    #[test]
    fn equivalence_follows_bit_size_and_class() {
        let mut store = TypeStore::new();
        assert!(store.equivalent(store.i64(), store.ptr()));
        assert!(store.equivalent(store.i32(), store.i32()));
        let i24 = store.int(24);
        // i24 occupies 4 bytes but is not the same bit size as i32; we still
        // treat byte-size equality as the equivalence criterion, like a
        // lossless bitcast through memory.
        assert!(store.equivalent(i24, store.i32()));
        assert!(!store.equivalent(store.i32(), store.i64()));
        assert!(!store.equivalent(store.float(), store.i32()));
        assert!(!store.equivalent(store.float(), store.double()));
    }

    #[test]
    fn absorb_merges_worker_types() {
        let mut base = TypeStore::new();
        let base_len = base.num_types();
        let mut worker = base.clone();
        // Worker interns new compound types in its own order.
        let w_arr = worker.array(worker.i32(), 4);
        let w_nest = worker.array(w_arr, 2);
        // Base meanwhile interned something else, shifting indices.
        let b_other = base.array(base.i64(), 7);
        let map = base.absorb(&worker, base_len);
        // Pre-existing ids are identity-mapped.
        assert_eq!(map[base.i32().index()], base.i32());
        // Worker types land in base with correct structure.
        let merged_arr = map[w_arr.index()];
        let merged_nest = map[w_nest.index()];
        assert_eq!(base.display(merged_arr), "[4 x i32]");
        assert_eq!(base.display(merged_nest), "[2 x [4 x i32]]");
        assert_ne!(merged_arr, b_other);
        // Absorbing twice is idempotent.
        let map2 = base.absorb(&worker, base_len);
        assert_eq!(map, map2);
    }

    #[test]
    fn display_forms() {
        let mut store = TypeStore::new();
        let arr = store.array(store.i8(), 3);
        let s = store.struct_(vec![store.i32(), arr]);
        assert_eq!(store.display(s), "{ i32, [3 x i8] }");
        let f = store.func(store.void(), vec![store.ptr()]);
        assert_eq!(store.display(f), "fn(ptr) -> void");
    }
}
