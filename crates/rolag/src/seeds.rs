//! Seed collection (§IV-A).
//!
//! Scans a basic block for groups of instructions likely to lead to
//! isomorphic code: stores grouped by base address and stored type, calls
//! grouped by callee, and roots of reduction trees. Alternating groups are
//! additionally proposed as joint candidates (§IV-C6).
//!
//! Reduction roots, single-use tree nodes and value-chain links are read
//! from a [`UseMap`] the caller passes in, one per function revision: the
//! engine lends the map its `ScheduleCache` keeps for the sweep, and
//! [`collect_candidates`] computes one per call. Collection does
//! not test whether a group can align. Reduction trees whose leaves never
//! match are still proposed, and `build_candidate_graph` refuses them at its
//! root gate before building any graph. Nor does it test whether a group's
//! graph would pass one of its own instructions into the loop (a mismatch
//! lane, an identical value, a recurrence init or a reduction carry that a
//! node also claims); `build_candidate_graph` refuses those while building,
//! the moment the pair appears.

use std::collections::BTreeMap;

use rolag_analysis::alias::{resolve_pointer, BaseObject};
use rolag_analysis::depgraph::InstPositions;
use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::{
    BlockId, Function, InstExtra, InstId, Module, Opcode, TypeId, UseMap, ValueDef, ValueId,
};

use crate::options::RolagOptions;

/// One rolling candidate for the alignment-graph builder.
///
/// Candidates are structural values over stable arena ids, so they are
/// comparable: the beam search drops a variant equal to one it already
/// enumerated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidate {
    /// One or more seed groups (more than one = a joint candidate whose
    /// groups alternate in the block). Each inner vector holds one seed
    /// value per lane, in block order.
    Seeds {
        /// The block the seeds live in.
        block: BlockId,
        /// Seed groups in emission order.
        groups: Vec<Vec<ValueId>>,
    },
    /// A reduction tree (§IV-C5).
    Reduction {
        /// The block the tree lives in.
        block: BlockId,
        /// The associative operation.
        opcode: Opcode,
        /// Internal tree instructions; `internal[0]` is the tree root.
        internal: Vec<InstId>,
        /// Leaf values, one per lane.
        leaves: Vec<ValueId>,
        /// A loop-carried or external value entering the chain (the
        /// accumulator of a partially unrolled reduction loop). Becomes the
        /// rolled accumulator's initial value, keeping the evaluation order
        /// — and therefore floating-point results — exact.
        carry: Option<ValueId>,
        /// Element type.
        ty: TypeId,
    },
}

impl Candidate {
    /// The block this candidate targets.
    pub fn block(&self) -> BlockId {
        match self {
            Candidate::Seeds { block, .. } => *block,
            Candidate::Reduction { block, .. } => *block,
        }
    }

    /// Number of lanes (rolled-loop iterations) of the candidate.
    pub fn lanes(&self) -> usize {
        match self {
            Candidate::Seeds { groups, .. } => groups[0].len(),
            Candidate::Reduction { leaves, .. } => leaves.len(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Store(BaseObject, TypeId),
    Call(rolag_ir::FuncId),
}

/// Alternative seed groupings of a base candidate for the beam-search
/// engine (`rolag::search`): the greedy engine proposes exactly one grouping
/// per region, but a group that fails as a whole may roll as a permutation
/// or a subset. Each variant is a legal candidate in its own right — it goes
/// through the same alignment, scheduling, codegen, and validation stages as
/// a base candidate, so enumeration here can be aggressive.
///
/// Variants (single-group `Seeds` candidates only; joint and reduction
/// candidates already encode their own structure):
///
/// - **Lane reorder**: lanes sorted by the seed stores' resolved constant
///   pointer offsets. Shuffled stores to `a[3], a[0], a[2], a[1]` roll as a
///   sequence once the lanes are in address order.
/// - **Sub-group splits**: the first and second halves as independent
///   groups, when both halves still clear `min_lanes`.
/// - **Trimmed groups**: the group minus its first (resp. last) lane — one
///   poisoned lane (a dependence cycle, a mismatched shape) otherwise sinks
///   the whole group.
///
/// The result is deduplicated against the base grouping and bounded (at
/// most five variants), deterministic, and in a fixed order.
pub fn candidate_variants(
    module: &Module,
    func: &Function,
    cand: &Candidate,
    opts: &RolagOptions,
) -> Vec<Candidate> {
    let Candidate::Seeds { block, groups } = cand else {
        return Vec::new();
    };
    let [lanes] = groups.as_slice() else {
        return Vec::new();
    };
    let block = *block;
    let n = lanes.len();
    let mut out: Vec<Candidate> = Vec::new();
    let push = |variant: Vec<ValueId>, out: &mut Vec<Candidate>| {
        if variant.len() < opts.min_lanes || variant == *lanes {
            return;
        }
        let c = Candidate::Seeds {
            block,
            groups: vec![variant],
        };
        if !out.contains(&c) {
            out.push(c);
        }
    };

    // Lane reorder by resolved constant store offset: only meaningful (and
    // only well-defined) when every lane is a store whose address resolves
    // to a constant offset from a common base.
    let offsets: Option<Vec<i64>> = lanes
        .iter()
        .map(|&v| {
            let ValueDef::Inst(i) = func.value(v) else {
                return None;
            };
            let data = func.inst(*i);
            if data.opcode != Opcode::Store {
                return None;
            }
            resolve_pointer(module, func, data.operands[1]).offset
        })
        .collect();
    if let Some(offsets) = offsets {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&k| (offsets[k], k));
        push(order.iter().map(|&k| lanes[k]).collect(), &mut out);
    }

    // Sub-group splits: both halves must clear the lane gate on their own.
    let half = n / 2;
    if half >= opts.min_lanes && n - half >= opts.min_lanes {
        push(lanes[..half].to_vec(), &mut out);
        push(lanes[half..].to_vec(), &mut out);
    }

    // Trimmed groups: drop the first (resp. last) lane.
    if n > opts.min_lanes {
        push(lanes[1..].to_vec(), &mut out);
        push(lanes[..n - 1].to_vec(), &mut out);
    }

    out.truncate(5);
    out
}

/// Collects rolling candidates for every block of `func`, computing the
/// function's use map and instruction positions once for all of them.
pub fn collect_candidates(module: &Module, func: &Function, opts: &RolagOptions) -> Vec<Candidate> {
    let uses = func.compute_uses();
    let positions = InstPositions::compute(func);
    let mut out = Vec::new();
    for block in func.block_ids() {
        collect_in_block(module, func, &uses, &positions, block, opts, &mut out);
    }
    out
}

/// Collects rolling candidates inside one block, appending to `out`.
///
/// `uses` and `positions` index `func` at its current revision, such as
/// the pair [`ScheduleCache::indexes`](crate::schedule::ScheduleCache::indexes)
/// lends. The use map may predate constants interned since (graph builds
/// intern without bumping the revision): collection only asks about
/// instruction results, which all existed when the map was computed.
pub fn collect_in_block(
    module: &Module,
    func: &Function,
    uses: &UseMap,
    positions: &InstPositions,
    block: BlockId,
    opts: &RolagOptions,
    out: &mut Vec<Candidate>,
) {
    // --- store and call groups, with their positions -----------------------
    let mut groups: Vec<(GroupKey, Vec<(usize, InstId)>)> = Vec::new();
    let mut index: FxHashMap<GroupKey, usize> = FxHashMap::default();
    for (pos, &i) in func.block(block).insts.iter().enumerate() {
        let data = func.inst(i);
        let key = match data.opcode {
            Opcode::Store => {
                let base = resolve_pointer(module, func, data.operands[1]).base;
                let vty = func.value_ty(data.operands[0], &module.types);
                GroupKey::Store(base, vty)
            }
            Opcode::Call => {
                let InstExtra::Call { callee } = data.extra else {
                    continue;
                };
                GroupKey::Call(callee)
            }
            _ => continue,
        };
        let slot = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push((pos, i));
    }
    let big: Vec<&(GroupKey, Vec<(usize, InstId)>)> = groups
        .iter()
        .filter(|(_, seeds)| seeds.len() >= opts.min_lanes)
        .collect();

    // --- joint candidates: alternating groups of equal size (§IV-C6) -------
    // All maximal k-way round-robins are proposed first (k >= 2), then the
    // pairwise ones not subsumed by a larger joint. Group sizes are visited
    // in ascending order, so the candidate order is deterministic.
    if opts.enable_joint {
        let mut by_size: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (idx, (_, seeds)) in big.iter().enumerate() {
            by_size.entry(seeds.len()).or_default().push(idx);
        }
        for indices in by_size.values() {
            if indices.len() < 2 {
                continue;
            }
            // Widest-first: try the full set, then all pairs.
            let mut proposed_full = false;
            if indices.len() > 2 {
                let groups: Vec<&Vec<(usize, InstId)>> =
                    indices.iter().map(|&i| &big[i].1).collect();
                if let Some(ordered) = alternation_k(&groups) {
                    out.push(Candidate::Seeds {
                        block,
                        groups: ordered
                            .iter()
                            .map(|g| g.iter().map(|&(_, i)| func.inst_result(i)).collect())
                            .collect(),
                    });
                    proposed_full = true;
                }
            }
            if !proposed_full {
                for a in 0..indices.len() {
                    for b in a + 1..indices.len() {
                        let groups = [&big[indices[a]].1, &big[indices[b]].1];
                        if let Some(ordered) = alternation_k(&groups[..]) {
                            out.push(Candidate::Seeds {
                                block,
                                groups: ordered
                                    .iter()
                                    .map(|g| g.iter().map(|&(_, i)| func.inst_result(i)).collect())
                                    .collect(),
                            });
                        }
                    }
                }
            }
        }
    }

    // --- plain groups, larger first ----------------------------------------
    let mut plain: Vec<&(GroupKey, Vec<(usize, InstId)>)> = big.clone();
    plain.sort_by_key(|(_, seeds)| (usize::MAX - seeds.len(), seeds[0].0));
    for (_, seeds) in plain {
        out.push(Candidate::Seeds {
            block,
            groups: vec![seeds.iter().map(|&(_, i)| func.inst_result(i)).collect()],
        });
    }

    // --- reduction trees (§IV-C5) -------------------------------------------
    if opts.enable_reductions {
        collect_reductions(func, uses, positions, block, opts, out);
    }

    // --- value chains (EXTENSION: paper future work, Fig. 20b) --------------
    if opts.enable_value_chains {
        collect_value_chains(func, uses, block, opts, out);
    }
}

/// EXTENSION (§V-C future work): chains of `select`s or non-associative
/// binops where each link consumes the previous one — e.g. the select chain
/// a partially unrolled min/max loop leaves behind. The chain members
/// become a seed group; the link itself is recognized by the recurrence
/// node during alignment.
fn collect_value_chains(
    func: &Function,
    uses: &UseMap,
    block: BlockId,
    opts: &RolagOptions,
    out: &mut Vec<Candidate>,
) {
    let insts = &func.block(block).insts;
    let in_block: FxHashSet<InstId> = insts.iter().copied().collect();
    let eligible = |op: Opcode| {
        matches!(op, Opcode::Select) || (op.is_binop() && !op.is_associative(opts.fast_math))
    };
    // next[i] = the unique same-opcode user of i inside the block.
    let link_of = |i: InstId| -> Option<InstId> {
        let op = func.inst(i).opcode;
        let result = func.inst_result(i);
        let users: Vec<InstId> = uses
            .of(result)
            .iter()
            .map(|&(u, _)| u)
            .filter(|u| in_block.contains(u) && func.inst(*u).opcode == op)
            .collect();
        // The link is the unique same-opcode user; other users (e.g. the
        // compare feeding the next select) are resolved by the alignment
        // graph itself.
        match users.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    };
    // Heads: eligible instructions not linked from an earlier chain member.
    let mut linked: FxHashSet<InstId> = FxHashSet::default();
    for &i in insts {
        if eligible(func.inst(i).opcode) {
            if let Some(n) = link_of(i) {
                linked.insert(n);
            }
        }
    }
    for &head in insts {
        if !eligible(func.inst(head).opcode) || linked.contains(&head) {
            continue;
        }
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(next) = link_of(cur) {
            chain.push(next);
            cur = next;
        }
        if chain.len() >= opts.min_lanes.max(3) {
            out.push(Candidate::Seeds {
                block,
                groups: vec![chain.iter().map(|&i| func.inst_result(i)).collect()],
            });
        }
    }
}

/// If the position-sorted groups strictly alternate in round-robin order
/// (g0[0] < g1[0] < ... < gk[0] < g0[1] < ...), returns them in leading
/// order; otherwise `None`.
fn alternation_k<'g>(groups: &[&'g Vec<(usize, InstId)>]) -> Option<Vec<&'g Vec<(usize, InstId)>>> {
    let mut ordered: Vec<&Vec<(usize, InstId)>> = groups.to_vec();
    ordered.sort_by_key(|g| g[0].0);
    let n = ordered[0].len();
    let mut prev = None;
    for lane in 0..n {
        for g in &ordered {
            let pos = g[lane].0;
            if let Some(p) = prev {
                if pos <= p {
                    return None;
                }
            }
            prev = Some(pos);
        }
    }
    Some(ordered)
}

fn collect_reductions(
    func: &Function,
    uses: &UseMap,
    positions: &InstPositions,
    block: BlockId,
    opts: &RolagOptions,
    out: &mut Vec<Candidate>,
) {
    let insts = &func.block(block).insts;
    let in_block = |inst: &InstId| positions.in_block(*inst, block).is_some();
    // Tree buffers, reused across roots: a tree too small to propose is
    // dropped without allocating, and a proposed one takes the vectors.
    let (mut internal, mut leaves, mut stack) = (Vec::new(), Vec::new(), Vec::new());
    for &i in insts {
        let data = func.inst(i);
        let opcode = data.opcode;
        if !opcode.is_binop() || !opcode.is_associative(opts.fast_math) || !opcode.is_commutative()
        {
            continue;
        }
        // Roots: results not consumed by another same-opcode inst in the
        // block.
        let result = func.inst_result(i);
        let is_root = !uses
            .of(result)
            .iter()
            .any(|&(user, _)| in_block(&user) && func.inst(user).opcode == opcode);
        if !is_root {
            continue;
        }
        // Gather the tree: internal nodes are same-opcode, single-use
        // instructions of this block.
        internal.clear();
        leaves.clear();
        internal.push(i);
        stack.push(i);
        while let Some(n) = stack.pop() {
            for &op in &func.inst(n).operands {
                let as_internal = match func.value(op) {
                    ValueDef::Inst(inner)
                        if in_block(inner)
                            && func.inst(*inner).opcode == opcode
                            && uses.count(op) == 1 =>
                    {
                        Some(*inner)
                    }
                    _ => None,
                };
                match as_internal {
                    Some(inner) => {
                        internal.push(inner);
                        stack.push(inner);
                    }
                    None => leaves.push(op),
                }
            }
        }
        // A tree of fewer than 3 leaves is just one operation.
        if leaves.len() < 3 || leaves.len() < opts.min_lanes {
            continue;
        }
        // Canonicalize leaf order by block position (associativity and
        // commutativity allow it): this lets strided leaves align their
        // index groups into sequences rather than shuffled mismatch arrays.
        let leaf_pos = |v: ValueId, func: &Function| match func.value(v) {
            ValueDef::Inst(inner) => {
                if func.inst(*inner).opcode == Opcode::Phi {
                    // Phis sort first: they are carry candidates.
                    0
                } else {
                    positions.in_block(*inner, block).unwrap_or(usize::MAX)
                }
            }
            _ => 0,
        };
        leaves.sort_by_key(|&v| leaf_pos(v, func));
        // A single non-rollable leaf (a phi of this block, or a value from
        // outside) is the accumulator carried into a partially unrolled
        // reduction; split it off as the chain's entry value.
        let is_plain = |v: ValueId| match func.value(v) {
            ValueDef::Inst(inner) => in_block(inner) && func.inst(*inner).opcode != Opcode::Phi,
            _ => false,
        };
        let odd: Vec<usize> = (0..leaves.len())
            .filter(|&k| !is_plain(leaves[k]))
            .collect();
        let carry = if odd.len() == 1 && leaves.len() >= 4 {
            Some(leaves.remove(odd[0]))
        } else {
            None
        };
        out.push(Candidate::Reduction {
            block,
            opcode,
            internal: std::mem::take(&mut internal),
            leaves: std::mem::take(&mut leaves),
            carry,
            ty: data.ty,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn candidates(text: &str) -> (Module, Vec<Candidate>) {
        let m = parse_module(text).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        let opts = RolagOptions::default();
        let c = collect_candidates(&m, f, &opts);
        (m.clone(), c)
    }

    #[test]
    fn stores_group_by_base_and_type() {
        let (_m, c) = candidates(
            r#"
module "t"
global @a : [8 x i32] = zero
global @b : [8 x i32] = zero
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  %b0 = gep i32, @b, i64 0
  store i32 9, %b0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  %b1 = gep i32, @b, i64 1
  store i32 8, %b1
  %a2 = gep i32, @a, i64 2
  store i32 3, %a2
  ret
}
"#,
        );
        // Groups: stores-to-@a (3 lanes), stores-to-@b (2 lanes). They do
        // not strictly alternate (a,b,a,b,a has unequal sizes), so no joint.
        let seeds: Vec<_> = c
            .iter()
            .filter_map(|c| match c {
                Candidate::Seeds { groups, .. } => Some(groups),
                _ => None,
            })
            .collect();
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].len(), 1);
        assert_eq!(seeds[0][0].len(), 3, "larger group first");
        assert_eq!(seeds[1][0].len(), 2);
    }

    #[test]
    fn calls_group_by_callee_and_joint_detected() {
        let (_m, c) = candidates(
            r#"
module "t"
declare @sink(i32 %p0) -> void readwrite
global @a : [8 x i32] = zero
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  call void @sink(i32 0)
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  call void @sink(i32 1)
  ret
}
"#,
        );
        let joints: Vec<_> = c
            .iter()
            .filter_map(|c| match c {
                Candidate::Seeds { groups, .. } if groups.len() == 2 => Some(groups),
                _ => None,
            })
            .collect();
        assert_eq!(joints.len(), 1, "stores and calls alternate");
        assert_eq!(joints[0][0].len(), 2);
        // Plain candidates for each group also exist.
        let plains = c
            .iter()
            .filter(|c| matches!(c, Candidate::Seeds { groups, .. } if groups.len() == 1))
            .count();
        assert_eq!(plains, 2);
    }

    /// Two sizes of alternating groups in one block: 2-lane stores to @a
    /// and @b, then 3-lane stores to @c and @d. Their joint candidates come
    /// out smallest size first, on every collection.
    #[test]
    fn joint_candidates_are_ordered_by_group_size() {
        let text = r#"
module "t"
global @a : [4 x i32] = zero
global @b : [4 x i32] = zero
global @c : [4 x i32] = zero
global @d : [4 x i32] = zero
func @f() -> void {
entry:
  store i32 1, @a
  store i32 2, @b
  %a1 = gep i32, @a, i64 1
  store i32 3, %a1
  %b1 = gep i32, @b, i64 1
  store i32 4, %b1
  store i32 5, @c
  store i32 6, @d
  %c1 = gep i32, @c, i64 1
  store i32 7, %c1
  %d1 = gep i32, @d, i64 1
  store i32 8, %d1
  %c2 = gep i32, @c, i64 2
  store i32 9, %c2
  %d2 = gep i32, @d, i64 2
  store i32 10, %d2
  ret
}
"#;
        let (_m, first) = candidates(text);
        let joint_lanes: Vec<(usize, usize)> = first
            .iter()
            .filter_map(|c| match c {
                Candidate::Seeds { groups, .. } if groups.len() > 1 => {
                    Some((groups.len(), groups[0].len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(joint_lanes, vec![(2, 2), (2, 3)], "ascending group size");
        for _ in 0..16 {
            assert_eq!(candidates(text).1, first, "candidate order must not vary");
        }
    }

    #[test]
    fn reduction_tree_found_with_root_first() {
        let (m, c) = candidates(
            r#"
module "t"
func @f(ptr %p0, ptr %p1) -> i32 {
entry:
  %a0 = load i32, %p0
  %b0 = load i32, %p1
  %m0 = mul i32 %a0, %b0
  %g1 = gep i32, %p0, i64 1
  %a1 = load i32, %g1
  %h1 = gep i32, %p1, i64 1
  %b1 = load i32, %h1
  %m1 = mul i32 %a1, %b1
  %g2 = gep i32, %p0, i64 2
  %a2 = load i32, %g2
  %h2 = gep i32, %p1, i64 2
  %b2 = load i32, %h2
  %m2 = mul i32 %a2, %b2
  %s0 = add i32 %m0, %m1
  %s1 = add i32 %s0, %m2
  ret %s1
}
"#,
        );
        let reds: Vec<_> = c
            .iter()
            .filter_map(|c| match c {
                Candidate::Reduction {
                    opcode,
                    internal,
                    leaves,
                    ..
                } => Some((opcode, internal, leaves)),
                _ => None,
            })
            .collect();
        assert_eq!(reds.len(), 1);
        let (op, internal, leaves) = &reds[0];
        assert_eq!(**op, Opcode::Add);
        assert_eq!(internal.len(), 2, "two adds");
        assert_eq!(leaves.len(), 3, "three muls");
        // internal[0] is the root (the final add).
        let f = m.func(m.func_by_name("f").unwrap());
        let root_val = f.inst_result(internal[0]);
        let ret = f.live_insts().last().unwrap();
        assert_eq!(f.inst(ret).operands[0], root_val);
    }

    #[test]
    fn small_groups_are_ignored() {
        let (_m, c) = candidates(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  ret
}
"#,
        );
        assert!(c.is_empty());
    }

    #[test]
    fn variants_enumerate_reorder_split_and_trims() {
        // 4 stores to @a in shuffled address order: the lane-reorder
        // variant must sort them; splits and trims must also appear.
        let (m, c) = candidates(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f() -> void {
entry:
  %a3 = gep i32, @a, i64 3
  store i32 3, %a3
  %a0 = gep i32, @a, i64 0
  store i32 0, %a0
  %a2 = gep i32, @a, i64 2
  store i32 2, %a2
  %a1 = gep i32, @a, i64 1
  store i32 1, %a1
  ret
}
"#,
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let opts = RolagOptions::default();
        let base = c
            .iter()
            .find(|c| matches!(c, Candidate::Seeds { groups, .. } if groups.len() == 1))
            .expect("one plain store group");
        let variants = candidate_variants(&m, f, base, &opts);
        assert!(!variants.is_empty());
        assert!(variants.len() <= 5, "variant fan-out must stay bounded");
        let Candidate::Seeds { groups, .. } = base else {
            unreachable!()
        };
        let lanes = &groups[0];
        let lane_sets: Vec<Vec<ValueId>> = variants
            .iter()
            .map(|v| match v {
                Candidate::Seeds { groups, .. } => groups[0].clone(),
                _ => unreachable!("variants are single-group seeds"),
            })
            .collect();
        // Lane reorder: same 4 lanes, sorted by offset 0,1,2,3 — i.e. the
        // block-order lanes at positions 1,3,2,0.
        let reordered = vec![lanes[1], lanes[3], lanes[2], lanes[0]];
        assert!(lane_sets.contains(&reordered), "offset-sorted reorder");
        // Splits: both halves.
        assert!(lane_sets.contains(&lanes[..2].to_vec()), "first half");
        assert!(lane_sets.contains(&lanes[2..].to_vec()), "second half");
        // Trims: drop-first and drop-last.
        assert!(lane_sets.contains(&lanes[1..].to_vec()), "drop-first");
        assert!(lane_sets.contains(&lanes[..3].to_vec()), "drop-last");
        // No variant duplicates the base grouping, and none is too small.
        for set in &lane_sets {
            assert_ne!(set, lanes);
            assert!(set.len() >= opts.min_lanes);
        }
    }

    #[test]
    fn variants_skip_joint_and_reduction_candidates() {
        let (m, c) = candidates(
            r#"
module "t"
func @f(i32 %p0, i32 %p1, i32 %p2, i32 %p3) -> i32 {
entry:
  %s0 = add i32 %p0, %p1
  %s1 = add i32 %s0, %p2
  %s2 = add i32 %s1, %p3
  ret %s2
}
"#,
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let opts = RolagOptions::default();
        let red = c
            .iter()
            .find(|c| matches!(c, Candidate::Reduction { .. }))
            .expect("reduction tree");
        assert!(candidate_variants(&m, f, red, &opts).is_empty());
    }

    #[test]
    fn variants_of_in_order_stores_have_no_reorder() {
        // Already in address order: the offset sort is the identity and
        // must be deduplicated away; splits and trims remain.
        let (m, c) = candidates(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 0, %a0
  %a1 = gep i32, @a, i64 1
  store i32 1, %a1
  %a2 = gep i32, @a, i64 2
  store i32 2, %a2
  %a3 = gep i32, @a, i64 3
  store i32 3, %a3
  ret
}
"#,
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let opts = RolagOptions::default();
        let base = c
            .iter()
            .find(|c| matches!(c, Candidate::Seeds { groups, .. } if groups.len() == 1))
            .unwrap();
        let Candidate::Seeds { groups, .. } = base else {
            unreachable!()
        };
        let lanes = &groups[0];
        let variants = candidate_variants(&m, f, base, &opts);
        for v in &variants {
            let Candidate::Seeds { groups, .. } = v else {
                unreachable!()
            };
            assert!(groups[0].len() < lanes.len(), "identity reorder deduped");
        }
        assert_eq!(variants.len(), 4, "two splits + two trims");
    }

    #[test]
    fn multi_use_subtrees_become_leaves() {
        // %s0 has two uses -> it cannot be an internal node; the tree seen
        // from the final add has leaves {%s0, %s0, %p2} (>=3 leaves).
        let (_m, c) = candidates(
            r#"
module "t"
func @f(i32 %p0, i32 %p1, i32 %p2) -> i32 {
entry:
  %s0 = add i32 %p0, %p1
  %d = add i32 %s0, %s0
  %r = add i32 %d, %p2
  ret %r
}
"#,
        );
        let reds: Vec<_> = c
            .iter()
            .filter_map(|c| match c {
                Candidate::Reduction {
                    leaves, internal, ..
                } => Some((leaves, internal)),
                _ => None,
            })
            .collect();
        assert_eq!(reds.len(), 1);
        assert_eq!(reds[0].0.len(), 3);
        assert_eq!(reds[0].1.len(), 2, "root and %d; %s0 stays a leaf");
    }
}
