//! Block-level dependence information.
//!
//! For a single basic block this records, per instruction, its direct
//! intra-block SSA edges (operands and users, as compressed rows) and — for
//! memory operations — the other memory operations it must keep its order
//! with, as bitset rows over block positions. No transitive closure is
//! stored: a question about what an instruction reaches is answered by
//! walking the edges from it, so it costs what it reaches. This is the
//! foundation of the loop-rolling scheduling analysis (§IV-D).

use std::sync::Arc;

use rolag_ir::{BlockId, Effects, Function, InstExtra, InstId, Module, Opcode, ValueDef, ValueId};

use crate::alias::{may_alias, ranges_may_alias, resolve_pointer, PtrInfo};

/// Memory behaviour of one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccess {
    /// Reads memory.
    pub reads: bool,
    /// Writes memory.
    pub writes: bool,
    /// Accessed location `(pointer, size)`; `None` means "unknown /
    /// the whole world" (e.g. an external call).
    pub loc: Option<(ValueId, u64)>,
}

/// Summarizes how `inst` touches memory (`None` = does not touch memory).
pub fn mem_access(module: &Module, func: &Function, inst: InstId) -> Option<MemAccess> {
    let data = func.inst(inst);
    match data.opcode {
        Opcode::Load => Some(MemAccess {
            reads: true,
            writes: false,
            loc: Some((data.operands[0], module.types.size_of(data.ty))),
        }),
        Opcode::Store => {
            let vty = func.value_ty(data.operands[0], &module.types);
            Some(MemAccess {
                reads: false,
                writes: true,
                loc: Some((data.operands[1], module.types.size_of(vty))),
            })
        }
        Opcode::Call => {
            let InstExtra::Call { callee } = &data.extra else {
                return None;
            };
            match module.func(*callee).effects {
                Effects::ReadNone => None,
                Effects::ReadOnly => Some(MemAccess {
                    reads: true,
                    writes: false,
                    loc: None,
                }),
                Effects::ReadWrite => Some(MemAccess {
                    reads: true,
                    writes: true,
                    loc: None,
                }),
            }
        }
        _ => None,
    }
}

/// Do `a` and `b` conflict (at least one writes, and their footprints may
/// overlap)? Conflicting pairs must retain their program order.
pub fn conflicts(module: &Module, func: &Function, a: InstId, b: InstId) -> bool {
    let (Some(ma), Some(mb)) = (mem_access(module, func, a), mem_access(module, func, b)) else {
        return false;
    };
    if !(ma.writes || mb.writes) {
        return false;
    }
    match (ma.loc, mb.loc) {
        (Some((pa, sa)), Some((pb, sb))) => may_alias(module, func, pa, sa, pb, sb),
        _ => true, // unknown footprint conflicts with everything
    }
}

/// Compact bit set over instruction positions.
#[derive(Debug, Clone, PartialEq)]
pub struct PosSet {
    words: Vec<u64>,
}

impl PosSet {
    /// Empty set sized for `n` positions.
    pub fn new(n: usize) -> Self {
        PosSet {
            words: vec![0; n.div_ceil(64)],
        }
    }
    /// Inserts position `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    /// Removes position `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }
    /// Inserts position `i`; returns true if it was not already present.
    pub fn insert_new(&mut self, i: usize) -> bool {
        let word = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
    /// Removes every position of `other`.
    pub fn subtract(&mut self, other: &PosSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
    /// In-place union; returns true if `self` changed.
    pub fn union_with(&mut self, other: &PosSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }
    /// True when the two sets share a position.
    pub fn intersects(&self, other: &PosSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }
    /// The smallest position in both sets.
    pub fn first_common(&self, other: &PosSet) -> Option<usize> {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .find_map(|(w, (a, b))| {
                let both = a & b;
                (both != 0).then(|| w * 64 + both.trailing_zeros() as usize)
            })
    }
    /// The largest position in both sets.
    pub fn last_common(&self, other: &PosSet) -> Option<usize> {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .rev()
            .find_map(|(w, (a, b))| {
                let both = a & b;
                (both != 0).then(|| w * 64 + 63 - both.leading_zeros() as usize)
            })
    }
    /// Iterates set positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Where every live instruction of a function sits: its block and its
/// position in that block, in one dense array indexed by [`InstId`].
///
/// One pass over the layout builds it, so a cache keyed by
/// [`Function::revision`] builds it once per revision and shares it with
/// every block of that revision.
#[derive(Debug, Clone, PartialEq)]
pub struct InstPositions {
    /// `(block index, position)` per instruction slot; the block index is
    /// `u32::MAX` for a detached slot.
    slots: Vec<(u32, u32)>,
}

impl InstPositions {
    /// Indexes every live instruction of `func`.
    pub fn compute(func: &Function) -> Self {
        let mut slots = vec![(u32::MAX, 0); func.num_insts()];
        for block in func.block_ids() {
            for (p, &inst) in func.block(block).insts.iter().enumerate() {
                slots[inst.index()] = (block.index() as u32, p as u32);
            }
        }
        InstPositions { slots }
    }

    /// Position of `inst` within `block`; `None` when it lives in another
    /// block, is detached, or was created after the index.
    pub fn in_block(&self, inst: InstId, block: BlockId) -> Option<usize> {
        match self.slots.get(inst.index()) {
            Some(&(b, p)) if b as usize == block.index() => Some(p as usize),
            _ => None,
        }
    }
}

/// Dependence information for one basic block.
///
/// Holds the direct SSA edges between the block's instructions and the
/// memory conflict rows; transitive questions are answered by walking the
/// edges from the positions asked about, so they cost what they reach.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDeps {
    /// Instructions in block order.
    pub insts: Vec<InstId>,
    block: BlockId,
    /// The function-wide position index the block was read through.
    index: Arc<InstPositions>,
    /// `operands[operand_start[i]..operand_start[i + 1]]` are the positions
    /// of the in-block instructions whose results `i` reads, all before `i`.
    operand_start: Vec<u32>,
    operands: Vec<u32>,
    /// The same edges reversed: `users[user_start[p]..user_start[p + 1]]`
    /// are the positions that read `p`'s result, ascending.
    user_start: Vec<u32>,
    users: Vec<u32>,
    /// Positions of the block's phis.
    phis: Vec<usize>,
    /// `conflicts[i]` = for a memory operation, the positions of every
    /// memory operation it conflicts with, earlier or later (the relation
    /// is symmetric); `None` for positions that do not touch memory.
    conflicts: Vec<Option<PosSet>>,
}

/// One memory operation of a block, its pointer resolved once.
struct ResolvedAccess {
    pos: usize,
    writes: bool,
    /// Resolved footprint; `None` = the whole world.
    loc: Option<(PtrInfo, u64)>,
}

impl BlockDeps {
    /// Computes dependences for `block` of `func`, indexing the function's
    /// instruction positions first; see [`BlockDeps::compute_with`].
    pub fn compute(module: &Module, func: &Function, block: BlockId) -> Self {
        Self::compute_with(module, func, block, Arc::new(InstPositions::compute(func)))
    }

    /// Computes dependences for `block` of `func` through `index`, which
    /// must describe `func`'s current layout.
    ///
    /// Each memory operation's pointer is resolved once, so the pairwise
    /// conflict test compares resolved [`PtrInfo`]s instead of re-walking
    /// `gep` chains per pair; the result equals [`conflicts`] on every
    /// pair.
    pub fn compute_with(
        module: &Module,
        func: &Function,
        block: BlockId,
        index: Arc<InstPositions>,
    ) -> Self {
        let insts: Vec<InstId> = func.block(block).insts.clone();
        let n = insts.len();
        let mut operand_start = Vec::with_capacity(n + 1);
        operand_start.push(0);
        let mut operands = Vec::new();
        // `user_start[p + 1]` counts the users of `p` until the prefix sum.
        let mut user_start = vec![0u32; n + 1];
        let mut phis = Vec::new();
        for (i, &inst) in insts.iter().enumerate() {
            let data = func.inst(inst);
            if data.opcode == Opcode::Phi {
                phis.push(i);
            }
            for &op in &data.operands {
                if let ValueDef::Inst(def) = func.value(op) {
                    if let Some(p) = index.in_block(*def, block).filter(|&p| p < i) {
                        operands.push(p as u32);
                        user_start[p + 1] += 1;
                    }
                }
            }
            operand_start.push(operands.len() as u32);
        }
        for p in 1..=n {
            user_start[p] += user_start[p - 1];
        }
        let mut cursor = user_start.clone();
        let mut users = vec![0u32; operands.len()];
        for i in 0..n {
            for &p in &operands[operand_start[i] as usize..operand_start[i + 1] as usize] {
                let slot = &mut cursor[p as usize];
                users[*slot as usize] = i as u32;
                *slot += 1;
            }
        }

        let accesses: Vec<ResolvedAccess> = insts
            .iter()
            .enumerate()
            .filter_map(|(i, &inst)| {
                let ma = mem_access(module, func, inst)?;
                Some(ResolvedAccess {
                    pos: i,
                    writes: ma.writes,
                    loc: ma
                        .loc
                        .map(|(ptr, size)| (resolve_pointer(module, func, ptr), size)),
                })
            })
            .collect();
        let mut rows = vec![PosSet::new(n); accesses.len()];
        for (k, a) in accesses.iter().enumerate() {
            for (l, b) in accesses.iter().enumerate().skip(k + 1) {
                if !(a.writes || b.writes) {
                    continue;
                }
                let conflict = match (&a.loc, &b.loc) {
                    (Some((pa, sa)), Some((pb, sb))) => ranges_may_alias(pa, *sa, pb, *sb),
                    _ => true, // unknown footprint conflicts with everything
                };
                if conflict {
                    rows[k].insert(b.pos);
                    rows[l].insert(a.pos);
                }
            }
        }
        let mut conflicts = vec![None; n];
        for (a, row) in accesses.iter().zip(rows) {
            conflicts[a.pos] = Some(row);
        }
        BlockDeps {
            insts,
            block,
            index,
            operand_start,
            operands,
            user_start,
            users,
            phis,
            conflicts,
        }
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the block is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Position of `inst` within the block.
    pub fn position(&self, inst: InstId) -> Option<usize> {
        self.index.in_block(inst, self.block)
    }

    /// Positions of the in-block instructions whose results position `i`
    /// reads (each earlier than `i`).
    pub fn operands(&self, i: usize) -> &[u32] {
        &self.operands[self.operand_start[i] as usize..self.operand_start[i + 1] as usize]
    }

    /// Positions of the in-block instructions that read position `p`'s
    /// result (each later than `p`), ascending.
    pub fn users(&self, p: usize) -> &[u32] {
        &self.users[self.user_start[p] as usize..self.user_start[p + 1] as usize]
    }

    /// Positions of the block's phis, ascending.
    pub fn phis(&self) -> &[usize] {
        &self.phis
    }

    /// Does the instruction at `later` transitively depend (via SSA) on the
    /// instruction at `earlier`? Walks operand edges down from `later`,
    /// never below `earlier`.
    pub fn depends_on(&self, later: usize, earlier: usize) -> bool {
        if later <= earlier {
            return false;
        }
        let mut seen = PosSet::new(self.len());
        let mut stack = vec![later];
        while let Some(i) = stack.pop() {
            for &p in self.operands(i) {
                let p = p as usize;
                if p == earlier {
                    return true;
                }
                if p > earlier && seen.insert_new(p) {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// All `(earlier, later)` conflicting memory-op position pairs, sorted.
    pub fn mem_conflicts(&self) -> Vec<(usize, usize)> {
        self.conflicts
            .iter()
            .enumerate()
            .filter_map(|(i, row)| row.as_ref().map(|row| (i, row)))
            .flat_map(|(i, row)| row.iter().filter(move |&j| j > i).map(move |j| (i, j)))
            .collect()
    }

    /// The memory operations position `i` conflicts with, in either
    /// direction; `None` when `i` does not touch memory.
    pub fn conflict_row(&self, i: usize) -> Option<&PosSet> {
        self.conflicts[i].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn deps_of(text: &str) -> (Module, rolag_ir::FuncId, BlockDeps) {
        let m = parse_module(text).unwrap();
        let fid = m.func_by_name("f").unwrap();
        let func = m.func(fid);
        let d = BlockDeps::compute(&m, func, func.entry_block());
        (m, fid, d)
    }

    #[test]
    fn transitive_ssa_deps() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 %p0, i32 1
  %2 = mul i32 %1, i32 2
  %3 = sub i32 %2, i32 3
  %4 = add i32 %p0, i32 9
  ret %3
}
"#,
        );
        assert!(d.depends_on(2, 0), "sub depends on add transitively");
        assert!(d.depends_on(2, 1));
        assert!(!d.depends_on(3, 0), "independent add has no deps");
        assert!(d.depends_on(4, 2), "ret depends on sub");
    }

    #[test]
    fn conflicting_stores_to_same_location() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
global @g : [4 x i32] = zero
func @f() -> void {
entry:
  %p = gep i32, @g, i32 0
  store i32 1, %p
  store i32 2, %p
  ret
}
"#,
        );
        assert_eq!(d.mem_conflicts(), &[(1, 2)]);
    }

    #[test]
    fn disjoint_stores_do_not_conflict() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
global @g : [4 x i32] = zero
func @f() -> void {
entry:
  %p0 = gep i32, @g, i32 0
  %p1 = gep i32, @g, i32 1
  store i32 1, %p0
  store i32 2, %p1
  ret
}
"#,
        );
        assert!(d.mem_conflicts().is_empty());
    }

    #[test]
    fn loads_conflict_with_overlapping_stores_only() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
global @g : [4 x i32] = zero
global @h : [4 x i32] = zero
func @f() -> i32 {
entry:
  %p0 = gep i32, @g, i32 2
  %q = gep i32, @h, i32 2
  store i32 1, %p0
  %v = load i32, %p0
  %w = load i32, %q
  %s = add i32 %v, %w
  ret %s
}
"#,
        );
        // store@2 conflicts with load@3 (same loc) but not load@4 (other
        // global); the two loads never conflict.
        assert_eq!(d.mem_conflicts(), &[(2, 3)]);
    }

    #[test]
    fn external_calls_conflict_with_everything() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
declare @ext() -> void readwrite
declare @pure(i32 %p0) -> i32 readnone
global @g : [4 x i32] = zero
func @f() -> void {
entry:
  %p = gep i32, @g, i32 0
  store i32 1, %p
  call void @ext()
  %v = call i32 @pure(i32 5)
  store %v, %p
  ret
}
"#,
        );
        // store@1 x call@2, call@2 x store@4, store@1 x store@4.
        let mut pairs = d.mem_conflicts().to_vec();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 2), (1, 4), (2, 4)]);
    }

    /// Checks the conflict rows against the pairwise reference: symmetric,
    /// `None` exactly off memory, and equal to `mem_conflicts()` and to
    /// [`conflicts`] on every pair.
    fn assert_rows_match_pairwise(m: &Module, func: &Function, d: &BlockDeps) {
        let n = d.len();
        let mut pairs = Vec::new();
        for i in 0..n {
            let is_mem = mem_access(m, func, d.insts[i]).is_some();
            assert_eq!(d.conflict_row(i).is_some(), is_mem, "row presence at {i}");
            for j in 0..n {
                let row_hit = d.conflict_row(i).is_some_and(|r| r.contains(j));
                let sym_hit = d.conflict_row(j).is_some_and(|r| r.contains(i));
                assert_eq!(row_hit, sym_hit, "asymmetric rows at ({i}, {j})");
                let reference = i != j && conflicts(m, func, d.insts[i], d.insts[j]);
                assert_eq!(row_hit, reference, "row vs pairwise at ({i}, {j})");
                if row_hit && i < j {
                    pairs.push((i, j));
                }
            }
        }
        assert_eq!(d.mem_conflicts(), pairs);
    }

    #[test]
    fn conflict_rows_are_symmetric_and_match_pairs() {
        let text = r#"
module "t"
declare @ext() -> void readwrite
declare @peek() -> i32 readonly
global @g : [4 x i32] = zero
global @h : [4 x i32] = zero
func @f(ptr %p0) -> void {
entry:
  %a = gep i32, @g, i32 0
  %b = gep i32, @g, i32 1
  %c = gep i32, @h, i32 0
  store i32 1, %a
  %v = load i32, %b
  store %v, %c
  %w = call i32 @peek()
  store %w, %p0
  call void @ext()
  %x = load i32, %a
  store %x, %b
  ret
}
"#;
        let m = parse_module(text).unwrap();
        let func = m.func(m.func_by_name("f").unwrap());
        let d = BlockDeps::compute(&m, func, func.entry_block());
        assert!(!d.mem_conflicts().is_empty());
        assert_rows_match_pairwise(&m, func, &d);
    }

    #[test]
    fn rows_straddle_word_boundaries() {
        // Memory ops and an SSA chain at positions 63, 64, 127 and 128: the
        // last bit of a word and the first of the next, twice over.
        let mut text = String::from(
            "module \"t\"\nglobal @g : [4 x i32] = zero\nglobal @h : [4 x i32] = zero\n\
             func @f(i32 %p0) -> void {\nentry:\n  %q = gep i32, @h, i32 1\n",
        );
        let mut prev = "%p0".to_string();
        for pos in 1..130 {
            let line = match pos {
                63 => format!("  store {prev}, @g\n"),
                64 => "  %l64 = load i32, @g\n".to_string(),
                127 => "  store %l64, %q\n".to_string(),
                128 => "  %l128 = load i32, %q\n".to_string(),
                _ => {
                    let line = format!("  %v{pos} = add i32 {prev}, i32 1\n");
                    prev = format!("%v{pos}");
                    line
                }
            };
            text.push_str(&line);
        }
        text.push_str("  ret\n}\n");
        let m = parse_module(&text).unwrap();
        let func = m.func(m.func_by_name("f").unwrap());
        let d = BlockDeps::compute(&m, func, func.entry_block());
        assert_eq!(d.len(), 131);
        assert_eq!(d.mem_conflicts(), vec![(63, 64), (127, 128)]);
        assert!(d.depends_on(127, 64), "store of %l64 across the boundary");
        assert!(d.depends_on(63, 1), "the add chain reaches the first word");
        assert!(d.depends_on(129, 62));
        assert!(!d.depends_on(129, 64), "the chain skips the loads");
        assert!(d.depends_on(128, 0), "load through %q at position 0");
        assert_rows_match_pairwise(&m, func, &d);
        let row = d.conflict_row(64).unwrap();
        assert_eq!(row.first_common(row), Some(63));
        assert_eq!(row.last_common(row), Some(63));
    }

    #[test]
    fn pos_set_basics() {
        let mut s = PosSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, vec![0, 64, 129]);
        let mut t = PosSet::new(130);
        t.insert(5);
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s));
        assert!(t.contains(0) && t.contains(5));
        assert!(t.intersects(&s) && !PosSet::new(130).intersects(&s));
        assert_eq!(t.first_common(&s), Some(0));
        assert_eq!(t.last_common(&s), Some(129));
    }
}
