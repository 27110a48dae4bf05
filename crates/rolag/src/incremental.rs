//! Change tracking for the incremental fixpoint engine in [`crate::pass`].
//!
//! The fixpoint loop commits at most one roll per sweep, and a roll touches
//! a small neighbourhood of the function: the rolled block (which becomes
//! the preheader), the new loop and exit blocks, and whatever the cleanup
//! pipeline simplifies in their wake. Everything the pass computes per
//! block — candidate lists, size estimates, and reject verdicts — can
//! therefore be cached across sweeps, as long as a commit invalidates every
//! entry whose inputs may have changed.
//!
//! Soundness rests on one rule. All cross-block inputs of those cached
//! computations flow along SSA def-use edges:
//!
//! * seed collection resolves pointer operands through their (possibly
//!   cross-block) defining instructions — a *transitive* dependence on the
//!   **content** of blocks reachable from the cached block along use→def
//!   edges — and classifies reductions using whole-function use counts of
//!   the values the cached block defines — a *one-hop* dependence on which
//!   blocks **use** those values;
//! * the scheduling analysis classifies values as external by looking at
//!   their uses outside the candidate block — the same one-hop user
//!   dependence;
//! * the size model charges a `gep` zero bytes exactly when all of its
//!   direct users fold it into an addressing mode — one hop again.
//!
//! So after a commit the **dirty set** is *directed*: starting from the
//! content-changed blocks, dirtiness propagates transitively along def→use
//! edges (every block that — directly or through a chain of defining
//! instructions — reads something a changed block defines has a stale
//! pointer-resolution input), plus one hop along use→def edges from the
//! changed blocks only (the defining blocks of their operands see their
//! use counts and gep-folding users change). Blocks that merely share a
//! *definition* with a changed block — sibling users — keep their caches:
//! their content, their def chains, and the users of their own values are
//! all untouched. The old engine used the full undirected closure here,
//! which over-invalidated exactly those siblings (on straight-line TSVC
//! kernels every commit wiped every memo entry; see
//! `FixpointCacheStats::memo_hit_rate`).
//!
//! Edges are taken in both the old and new versions of the function — a
//! deleted use is as significant as an added one. Any block outside the
//! dirty set has byte-identical content *and* unchanged cross-block inputs,
//! so its cached candidates, size estimate, and memoized verdicts are
//! exactly what a fresh computation would produce. Change detection itself
//! is exact — blocks are compared structurally, never by hash — so the
//! engine's output is byte-identical to the full-rescan reference by
//! construction, not probabilistically.

use std::collections::VecDeque;

use rolag_analysis::cost::BlockSizeCache;
use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::{BlockId, Function, Module, ValueDef, ValueId};
use rolag_lower::SizeSketch;

use crate::seeds::Candidate;

/// A memoized reject verdict for a candidate attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoVerdict {
    /// The graph build, scheduling analysis, or code generator rejected
    /// the candidate.
    Schedule,
    /// The candidate generated code but the size delta was not profitable.
    Unprofitable,
    /// The candidate generated code but the translation validator refused
    /// to prove the rewrite (`RolagOptions::validate`).
    Validator,
}

/// One memoized verdict plus the blocks it depends on.
#[derive(Debug, Clone)]
pub(crate) struct MemoEntry {
    /// The replayable verdict.
    pub verdict: MemoVerdict,
    /// Blocks this verdict was derived from: the candidate's own block,
    /// plus (for profitability verdicts) every existing block the attempt
    /// changed or whose size estimate the delta recomputed. The entry dies
    /// when a commit dirties any of them.
    pub deps: Vec<BlockId>,
}

/// Per-function caches of the incremental engine, keyed by stable
/// [`BlockId`]s (blocks are only ever appended, never removed or renumbered,
/// and instruction/value arenas are append-only, so ids cached for clean
/// blocks stay valid across commits).
#[derive(Debug, Default)]
pub(crate) struct FunctionCache {
    /// Per-block size estimates (delta profitability, §IV-F).
    pub sizes: BlockSizeCache,
    /// Per-block lowered-size summaries (`RolagOptions::measured_cost`):
    /// machine code bytes plus regalloc interval fragments that recombine
    /// into an exact `measure_function` result without re-selecting clean
    /// blocks.
    pub sketch: SizeSketch,
    /// Per-block candidate lists (dirty-block worklist).
    pub cands: FxHashMap<BlockId, Vec<Candidate>>,
    /// Reject verdicts keyed by the structural candidate itself.
    pub memo: FxHashMap<Candidate, MemoEntry>,
}

impl FunctionCache {
    /// Brings the caches past a commit that turned `old` into `new` by
    /// changing the blocks `changed`: drops every cached fact that may
    /// depend on a block of the commit's [`dirty_closure`], then re-keys
    /// the surviving per-block entries to `new`'s revision. Without the
    /// re-key the revision-aware caches would self-heal by dropping
    /// *everything* on their next sync (any structural mutation bumps the
    /// counter), which is safe but defeats the point of a dirty set.
    ///
    /// `sketch` is the commit's priced trial sketch (measured-cost mode),
    /// exact for `new`: adopting it spares re-selecting the changed blocks,
    /// and its clean-block summaries are Arc-shared with the sweep sketch,
    /// so the carry copies pointers, not fragment vectors. Without one the
    /// dirty blocks' summaries are dropped — sound because `dirty` ⊇
    /// changed ∪ measure-affected (the def→use closure plus the one-hop
    /// use→def hop covers both one-hop couplings of the lowered size).
    pub fn commit(
        &mut self,
        module: &Module,
        old: &Function,
        new: &Function,
        changed: &[BlockId],
        sketch: Option<SizeSketch>,
    ) {
        let dirty = dirty_closure(old, new, changed);
        for &b in &dirty {
            self.sizes.invalidate(b);
            self.cands.remove(&b);
        }
        self.sizes.carry_to(new.revision());
        match sketch {
            Some(s) => {
                self.sketch = s;
                if cfg!(debug_assertions) {
                    // Counters are saved around the audit so debug and
                    // release report identical cache stats.
                    let (hits, misses) = (self.sketch.hits, self.sketch.misses);
                    let carried = self.sketch.measure(module, new);
                    debug_assert_eq!(
                        carried,
                        rolag_lower::measure_function(module, new),
                        "sketch carried across a commit diverged from a full lowering"
                    );
                    self.sketch.hits = hits;
                    self.sketch.misses = misses;
                }
            }
            None => {
                for &b in &dirty {
                    self.sketch.invalidate(b);
                }
            }
        }
        self.sketch.carry_to(new.revision());
        self.memo.retain(|cand, entry| {
            !dirty.contains(&cand.block()) && entry.deps.iter().all(|d| !dirty.contains(d))
        });
    }
}

/// The block defining `v`, when `v` is an instruction result.
fn def_block(f: &Function, v: ValueId) -> Option<BlockId> {
    match f.value(v) {
        ValueDef::Inst(i) => Some(f.inst(*i).block),
        _ => None,
    }
}

/// True when `block` has byte-identical content in both versions: same
/// label, same instruction list, identical data for every instruction, and
/// identical definitions behind every operand id (value arenas are
/// append-only, so for two snapshots of one function lineage id equality
/// already implies def equality — the extra check keeps the comparison
/// honest for arbitrary function pairs, e.g. in tests).
fn block_content_equal(old: &Function, new: &Function, block: BlockId) -> bool {
    let (a, b) = (old.block(block), new.block(block));
    if a.name != b.name || a.insts != b.insts {
        return false;
    }
    a.insts.iter().all(|&i| {
        old.inst(i) == new.inst(i)
            && old
                .inst(i)
                .operands
                .iter()
                .all(|&v| old.value(v) == new.value(v))
    })
}

/// Blocks whose content differs between `old` and `new` — two snapshots of
/// the same function, before and after a (speculative or committed) roll —
/// including blocks that exist only in `new`. Block ids are stable and
/// blocks are never removed, so `new`'s blocks are a superset of `old`'s.
pub(crate) fn changed_blocks(old: &Function, new: &Function) -> Vec<BlockId> {
    let shared = old.num_blocks().min(new.num_blocks());
    let mut out: Vec<BlockId> = (0..shared)
        .map(BlockId::from_index)
        .filter(|&b| !block_content_equal(old, new, b))
        .collect();
    out.extend((shared..new.num_blocks()).map(BlockId::from_index));
    out
}

/// [`changed_blocks`] computed in O(touched) from `new`'s open speculation
/// journal instead of a whole-function walk: the journal names every block
/// the window may have touched (a superset), and a content compare against
/// `old` — the pre-window clone — filters blocks the window restored
/// verbatim. Debug builds cross-check against the full walk.
pub(crate) fn speculated_changed_blocks(old: &Function, new: &Function) -> Vec<BlockId> {
    let out: Vec<BlockId> = new
        .speculated_blocks()
        .into_iter()
        .filter(|&b| b.index() >= old.num_blocks() || !block_content_equal(old, new, b))
        .collect();
    debug_assert_eq!(
        out,
        changed_blocks(old, new),
        "journal-filtered changed set diverged from the full walk"
    );
    out
}

/// Records the directed block-level def-use edges of `f`: `users[d]` holds
/// the blocks with an instruction whose operand is defined in block `d`,
/// and `defs[b]` the defining blocks of block `b`'s operands.
fn add_value_flow_edges(
    f: &Function,
    users: &mut [FxHashSet<usize>],
    defs: &mut [FxHashSet<usize>],
) {
    for b in f.block_ids() {
        for &i in &f.block(b).insts {
            for &v in &f.inst(i).operands {
                if let Some(d) = def_block(f, v) {
                    if d != b {
                        users[d.index()].insert(b.index());
                        defs[b.index()].insert(d.index());
                    }
                }
            }
        }
    }
}

/// The dirty set of a commit — directed, per the module-level argument:
///
/// * **def→use, transitive**: every block reachable from a changed block
///   along def→use edges resolves some operand chain through changed
///   content, so its cached candidates, schedule verdicts, and size
///   estimate may be stale;
/// * **use→def, one hop from the changed blocks only**: the defining
///   blocks of a changed block's operands see the use counts and
///   gep-folding users of their values change. The hop does not continue —
///   those blocks' *content* is untouched, and every cached fact depends
///   on block content, never on another block's cached analysis.
///
/// Edges from either function version count (a deleted use is as
/// significant as an added one). Sibling users of a shared definition stay
/// clean — the old undirected closure dirtied them for nothing.
fn dirty_closure(old: &Function, new: &Function, changed: &[BlockId]) -> FxHashSet<BlockId> {
    let n = old.num_blocks().max(new.num_blocks());
    let mut users: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); n];
    let mut defs: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); n];
    add_value_flow_edges(old, &mut users, &mut defs);
    add_value_flow_edges(new, &mut users, &mut defs);

    let mut dirty: FxHashSet<BlockId> = FxHashSet::default();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &b in changed {
        if dirty.insert(b) {
            queue.push_back(b.index());
        }
    }
    // Forward transitive closure along def→use edges.
    while let Some(i) = queue.pop_front() {
        for &j in &users[i] {
            if dirty.insert(BlockId::from_index(j)) {
                queue.push_back(j);
            }
        }
    }
    // One hop along use→def edges from the *changed* blocks (not from the
    // whole forward closure).
    for &b in changed {
        for &d in &defs[b.index()] {
            dirty.insert(BlockId::from_index(d));
        }
    }
    dirty
}

/// Unchanged blocks whose *size estimate* may still differ between the two
/// versions: an instruction's size depends on its own content, its
/// operands' immutable definitions, and — for `gep` folding — its direct
/// users. Only the last is non-local, and only by one hop: a block editing
/// the users of a `gep` can flip the estimate of the block defining it. So
/// the affected set is the defining blocks of every operand used by the
/// changed blocks, in either version.
pub(crate) fn size_affected_blocks(
    old: &Function,
    new: &Function,
    changed: &[BlockId],
) -> FxHashSet<BlockId> {
    let changed_set: FxHashSet<BlockId> = changed.iter().copied().collect();
    let mut out = FxHashSet::default();
    for f in [old, new] {
        for &b in changed {
            if b.index() >= f.num_blocks() {
                continue;
            }
            for &i in &f.block(b).insts {
                for &v in &f.inst(i).operands {
                    if let Some(d) = def_block(f, v) {
                        if !changed_set.contains(&d) {
                            out.insert(d);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Unchanged blocks whose *machine code* (per-block lowered-size summary)
/// may differ between the two versions. The lowered size couples blocks in
/// both def-use directions, one hop each:
///
/// * a `gep`'s defining block drops to zero bytes exactly when every user
///   folds it — so the defining blocks of a changed block's operands are
///   affected (same hop as [`size_affected_blocks`]);
/// * a load or store *embeds the displacement* of the gep it folds — so
///   blocks using a value defined in a changed block are affected too (the
///   cheap TTI estimate has no such reverse edge: it prices loads and
///   stores without looking at the folded gep's constants).
pub(crate) fn measure_affected_blocks(
    old: &Function,
    new: &Function,
    changed: &[BlockId],
) -> FxHashSet<BlockId> {
    let changed_set: FxHashSet<BlockId> = changed.iter().copied().collect();
    let mut out = size_affected_blocks(old, new, changed);
    for f in [old, new] {
        for b in f.block_ids() {
            if changed_set.contains(&b) || out.contains(&b) {
                continue;
            }
            for &i in &f.block(b).insts {
                for &v in &f.inst(i).operands {
                    if let Some(d) = def_block(f, v) {
                        if changed_set.contains(&d) {
                            out.insert(b);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn two_funcs(a: &str, b: &str) -> (Function, Function) {
        let ma = parse_module(a).unwrap();
        let mb = parse_module(b).unwrap();
        let fa = ma.func(ma.func_by_name("f").unwrap()).clone();
        let fb = mb.func(mb.func_by_name("f").unwrap()).clone();
        (fa, fb)
    }

    #[test]
    fn identical_functions_have_no_changes() {
        let text = r#"
module "t"
global @a : [4 x i32] = zero
func @f() -> void {
entry:
  %g = gep i32, @a, i64 0
  store i32 1, %g
  ret
}
"#;
        let (a, b) = two_funcs(text, text);
        assert!(changed_blocks(&a, &b).is_empty());
    }

    #[test]
    fn closure_dirties_defs_one_hop_but_not_sibling_users() {
        // def in b0, used in b1 and b2: changing b2 must dirty b0 (its
        // value's use set changed) but NOT b1 — b1's content, def chain,
        // and users are all untouched, so its caches are still exact.
        let text = r#"
module "t"
global @a : [4 x i32] = zero
func @f() -> void {
entry:
  %g = gep i32, @a, i64 0
  br b1
b1:
  store i32 1, %g
  br b2
b2:
  store i32 2, %g
  ret
}
"#;
        let changed_text = text.replace("store i32 2", "store i32 3");
        let (a, b) = two_funcs(text, &changed_text);
        let changed = changed_blocks(&a, &b);
        assert_eq!(changed, vec![BlockId::from_index(2)]);
        let dirty = dirty_closure(&a, &b, &changed);
        assert!(dirty.contains(&BlockId::from_index(0)), "defining block");
        assert!(!dirty.contains(&BlockId::from_index(1)), "sibling user");
        assert!(dirty.contains(&BlockId::from_index(2)));

        // The one-hop size-affected set reaches the defining block too.
        let affected = size_affected_blocks(&a, &b, &changed);
        assert!(affected.contains(&BlockId::from_index(0)));
        assert!(!affected.contains(&BlockId::from_index(1)));
    }

    #[test]
    fn closure_follows_def_use_chains_transitively() {
        // b0 defines %g, b1 derives %h from %g, b2 uses %h. Changing b0
        // must dirty b1 (direct user) and b2 (resolves %h through b1's gep
        // back into b0's content) — the forward def→use closure.
        let text = r#"
module "t"
global @a : [8 x i32] = zero
func @f() -> void {
entry:
  %g = gep i32, @a, i64 0
  br b1
b1:
  %h = gep i32, %g, i64 2
  br b2
b2:
  store i32 1, %h
  ret
}
"#;
        let changed_text = text.replace("i64 0", "i64 4");
        let (a, b) = two_funcs(text, &changed_text);
        let changed = changed_blocks(&a, &b);
        assert_eq!(changed, vec![BlockId::from_index(0)]);
        let dirty = dirty_closure(&a, &b, &changed);
        assert!(dirty.contains(&BlockId::from_index(1)), "direct user");
        assert!(dirty.contains(&BlockId::from_index(2)), "transitive user");
    }

    #[test]
    fn measure_affected_includes_both_one_hop_directions() {
        // %g defined in entry, folded by the store in b1. Changing entry
        // affects b1's machine code (embedded displacement); changing b1
        // affects entry's (gep folding decision). Neither reaches b2.
        let text = r#"
module "t"
global @a : [4 x i32] = zero
global @b : [4 x i32] = zero
func @f() -> void {
entry:
  %g = gep i32, @a, i64 0
  br b1
b1:
  store i32 1, %g
  br b2
b2:
  %h = gep i32, @b, i64 2
  store i32 2, %h
  ret
}
"#;
        let changed_text = text.replace("i64 0\n  br b1", "i64 1\n  br b1");
        let (a, b) = two_funcs(text, &changed_text);
        let changed = changed_blocks(&a, &b);
        assert_eq!(changed, vec![BlockId::from_index(0)]);
        let affected = measure_affected_blocks(&a, &b, &changed);
        assert!(affected.contains(&BlockId::from_index(1)), "folding user");
        assert!(!affected.contains(&BlockId::from_index(2)));

        let changed = vec![BlockId::from_index(1)];
        let affected = measure_affected_blocks(&a, &b, &changed);
        assert!(affected.contains(&BlockId::from_index(0)), "folded def");
        assert!(!affected.contains(&BlockId::from_index(2)));
    }

    #[test]
    fn disconnected_blocks_stay_clean() {
        let text = r#"
module "t"
global @a : [4 x i32] = zero
global @b : [4 x i32] = zero
func @f() -> void {
entry:
  %g = gep i32, @a, i64 0
  store i32 1, %g
  br b1
b1:
  %h = gep i32, @b, i64 0
  store i32 2, %h
  ret
}
"#;
        let changed_text = text.replace("store i32 2", "store i32 9");
        let (a, b) = two_funcs(text, &changed_text);
        let changed = changed_blocks(&a, &b);
        assert_eq!(changed, vec![BlockId::from_index(1)]);
        let dirty = dirty_closure(&a, &b, &changed);
        assert!(!dirty.contains(&BlockId::from_index(0)), "no value flow");
    }
}
