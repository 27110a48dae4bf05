//! Bottom-up alignment-graph construction (§IV-B, Fig. 6).
//!
//! Starting from a group of seed instructions, the builder follows use-def
//! chains towards operands, classifying each operand group as a matching,
//! identical, mismatching, or special node. Groups are memoized so shared
//! subgraphs become shared nodes (a DAG), and instructions are *claimed* by
//! the node lane that will regenerate them, which prevents one instruction
//! from being rolled into two different iterations.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use rolag_ir::fxhash::{FxHashMap, FxHashSet, FxHasher};
use rolag_ir::{
    BlockId, Function, InstExtra, InstId, Module, NeutralElement, Opcode, TypeId, ValueDef, ValueId,
};

use crate::align::graph::{AlignGraph, NodeId, NodeKind};
use crate::options::RolagOptions;
use crate::seeds::Candidate;

/// Builds the alignment graph of a collected [`Candidate`] against `func`,
/// returning `None` when any root fails to build.
///
/// Two refusals stop the build early, and both are exact: the candidate
/// gets the verdict its full graph would get.
///
/// * The root gate: the first root group (the seed group `groups[0]`, or
///   the reduction leaves) must pass [`GraphBuilder::root_can_match`]
///   before anything is built; most reduction candidates fail there,
///   without a graph.
/// * The loop-input refusal: the build stops the moment one instruction is
///   both passed into the loop by some node
///   ([`AlignNode::loop_inputs`](super::AlignNode::loop_inputs)) and
///   claimed by a node. The builder never removes a node, changes a
///   node's kind or drops a claim, so the full graph would hold the same
///   pair, and [`AlignGraph::claimed_loop_input`] would make the scheduler
///   refuse it. Stopping here skips the rest of the graph and the block's
///   dependences.
///
/// The builder mutates `func` only to intern constants, which is inert for
/// printing (the printer numbers instruction results by block layout and
/// prints constants by content) and idempotent, so callers may build
/// against the shared working function rather than a speculative clone.
pub fn build_candidate_graph(
    module: &Module,
    func: &mut Function,
    cand: &Candidate,
    opts: &RolagOptions,
) -> Option<AlignGraph> {
    let mut builder = GraphBuilder::new(module, func, cand.block(), opts, cand.lanes());
    builder.inputs = Some(LoopInputs::default());
    let first_root = match cand {
        Candidate::Seeds { groups, .. } => &groups[0],
        Candidate::Reduction { leaves, .. } => leaves,
    };
    if !builder.root_can_match(first_root) {
        return None;
    }
    builder.build_roots(cand).then(|| builder.finish())
}

/// What the loop-input refusal tracks while a graph is built (the claims
/// are the graph's own `claimed` map).
#[derive(Debug, Default)]
struct LoopInputs {
    /// Instructions some node passes into the loop.
    fed: FxHashSet<InstId>,
    /// Set the moment one instruction is both fed and claimed.
    refused: bool,
}

/// End of a memo chain in [`GraphBuilder::memo_next`].
const NO_NODE: NodeId = NodeId(u32::MAX);

/// Nodes a builder makes room for up front; most candidate graphs of the
/// benchmark corpora fit.
const NODES_HINT: usize = 16;

#[cfg(test)]
thread_local! {
    /// Set by the collision test: every lane group hashes to one value, so
    /// every memo lookup walks one chain and must still find exactly its
    /// own group.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The memo's hash of a lane group.
fn group_hash(group: &[ValueId]) -> u64 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = FxHasher::default();
    group.hash(&mut h);
    h.finish()
}

/// Builds an [`AlignGraph`] for groups of seed values inside one block.
///
/// The groups being built live on one stack (`groups`): a node pushes its
/// operand groups, builds each as a range of the stack and pops them, so a
/// group is copied once, into the graph's lane arena, when it becomes a
/// node. The memo hash-conses groups against that arena.
pub struct GraphBuilder<'a> {
    module: &'a Module,
    /// Mutated only to intern constants (synthetic zeros / neutral
    /// elements).
    func: &'a mut Function,
    block: BlockId,
    opts: &'a RolagOptions,
    graph: AlignGraph,
    /// Armed only by [`build_candidate_graph`]: the loop-input refusal.
    /// Unarmed builders build every graph in full.
    inputs: Option<LoopInputs>,
    /// Group hash -> the newest memoized node whose lanes hash to it.
    memo: FxHashMap<u64, NodeId>,
    /// Per node: the next older memoized node with the same group hash, or
    /// [`NO_NODE`]. A lookup walks the chain comparing lanes, so a hash
    /// collision never merges two groups.
    memo_next: Vec<NodeId>,
    /// The stack of groups under construction.
    groups: Vec<ValueId>,
    /// Per lane of the group a neutral node kind classifies: the lane's
    /// instruction where the kind takes one from that lane.
    lane_insts: Vec<Option<InstId>>,
    /// Opcode frequencies of the group `try_binop_neutral` classifies.
    op_counts: Vec<(Opcode, usize)>,
}

impl<'a> GraphBuilder<'a> {
    /// Creates a builder for a graph with `lanes` iterations.
    pub fn new(
        module: &'a Module,
        func: &'a mut Function,
        block: BlockId,
        opts: &'a RolagOptions,
        lanes: usize,
    ) -> Self {
        GraphBuilder {
            module,
            func,
            block,
            opts,
            graph: AlignGraph::new(lanes),
            inputs: None,
            memo: FxHashMap::default(),
            memo_next: Vec::new(),
            groups: Vec::new(),
            lane_insts: Vec::new(),
            op_counts: Vec::new(),
        }
    }

    /// Makes room for a graph of [`NODES_HINT`] nodes before the first
    /// root is built, so a refusal at the root gate allocates nothing.
    fn reserve(&mut self) {
        if self.graph.num_nodes() > 0 {
            return;
        }
        let lanes = self.graph.lanes;
        self.graph.reserve(NODES_HINT);
        self.memo.reserve(NODES_HINT);
        self.memo_next.reserve(NODES_HINT);
        self.groups.reserve(lanes * 8);
        self.lane_insts.reserve(lanes);
    }

    /// Whether the armed loop-input refusal has fired. A refused builder
    /// builds nothing more: `build_group` returns at once, and the graph is
    /// never finished, so what it returns is never read.
    fn refused(&self) -> bool {
        self.inputs.as_ref().is_some_and(|inputs| inputs.refused)
    }

    /// Adds a node whose lanes are the stacked group `lanes` and, when
    /// armed, records the instructions it passes into the loop, refusing
    /// the build if a node already claims one of them.
    fn add_node(&mut self, kind: NodeKind, lanes: Range<usize>, children: &[NodeId]) -> NodeId {
        let id = self.graph.add_node(kind, &self.groups[lanes], children);
        self.memo_next.push(NO_NODE);
        if let Some(inputs) = self.inputs.as_mut() {
            for &v in self.graph.node(id).loop_inputs() {
                if let Some(inst) = self.func.value(v).as_inst() {
                    inputs.fed.insert(inst);
                    inputs.refused |= self.graph.claimed.contains_key(&inst);
                }
            }
        }
        id
    }

    /// The memoized node whose lanes are the stacked group `group`.
    fn memo_lookup(&self, hash: u64, group: Range<usize>) -> Option<NodeId> {
        let group = &self.groups[group];
        let mut at = *self.memo.get(&hash)?;
        while at != NO_NODE {
            if self.graph.node(at).lanes() == group {
                return Some(at);
            }
            at = self.memo_next[at.index()];
        }
        None
    }

    /// Memoizes `node` under its group's hash.
    fn memoize(&mut self, hash: u64, node: NodeId) {
        self.memo_next[node.index()] = self.memo.insert(hash, node).unwrap_or(NO_NODE);
    }

    /// Claims `inst` for `lane` of `node` and, when armed, refuses the build
    /// if some node already passes `inst` into the loop.
    fn claim(&mut self, inst: InstId, node: NodeId, lane: usize) {
        self.graph.claimed.insert(inst, (node, lane));
        if let Some(inputs) = self.inputs.as_mut() {
            inputs.refused |= inputs.fed.contains(&inst);
        }
    }

    /// Consumes the builder, returning the graph.
    pub fn finish(self) -> AlignGraph {
        self.graph
    }

    /// Pushes `group` onto the group stack and returns its range.
    fn push_group(&mut self, group: &[ValueId]) -> Range<usize> {
        let start = self.groups.len();
        self.groups.extend_from_slice(group);
        start..self.groups.len()
    }

    /// Whether `group` can become a `Match` node as the first root of an
    /// empty graph: the structural gate of `try_match` (distinct rollable
    /// instructions of the block that agree on opcode, type, operand
    /// count, extras and operand types).
    ///
    /// A refusal is exact. With no node built and nothing claimed, the
    /// steps of `build_group` before `try_match` (identical lanes, integer
    /// constants, recurrences) cannot yield a `Match`, and the steps after
    /// it never do, so a group this refuses never roots a graph. Refusing
    /// it here skips the whole build and leaves `func` untouched.
    pub fn root_can_match(&self, group: &[ValueId]) -> bool {
        debug_assert!(
            self.graph.node_ids().next().is_none(),
            "the root gate is exact only for the first root"
        );
        self.match_gate(group)
    }

    /// Builds every root of `cand` in order, as [`build_candidate_graph`]
    /// does, stopping at the first that fails; true when all were built.
    /// An unarmed builder (one from [`GraphBuilder::new`]) builds them in
    /// full, which makes this the reference the refusals are checked
    /// against.
    pub fn build_roots(&mut self, cand: &Candidate) -> bool {
        match cand {
            Candidate::Seeds { groups, .. } => {
                groups.iter().all(|g| self.build_seed_root(g).is_some())
            }
            Candidate::Reduction {
                opcode,
                internal,
                leaves,
                carry,
                ty,
                ..
            } => self
                .build_reduction_root(*opcode, internal.clone(), leaves, *carry, *ty)
                .is_some(),
        }
    }

    /// Builds the graph rooted at a seed group (one value per lane) and
    /// registers it as a root. Returns `None` when the seeds do not form a
    /// matching node (seed groups are only useful if the seeds themselves
    /// align).
    pub fn build_seed_root(&mut self, group: &[ValueId]) -> Option<NodeId> {
        assert_eq!(group.len(), self.graph.lanes, "seed group lane mismatch");
        self.reserve();
        let r = self.push_group(group);
        let id = self.build_group(r.clone());
        self.groups.truncate(r.start);
        if self.refused() {
            return None;
        }
        match self.graph.node(id).kind() {
            NodeKind::Match { .. } => {
                self.graph.roots.push(id);
                Some(id)
            }
            _ => None,
        }
    }

    /// Builds a reduction root (§IV-C5): `internal` are the tree's internal
    /// operations (all `opcode`), `leaves` its leaf values, which become the
    /// new seed group.
    pub fn build_reduction_root(
        &mut self,
        opcode: Opcode,
        internal: Vec<InstId>,
        leaves: &[ValueId],
        carry: Option<ValueId>,
        ty: TypeId,
    ) -> Option<NodeId> {
        assert_eq!(leaves.len(), self.graph.lanes, "leaf group lane mismatch");
        if !self.opts.enable_reductions {
            return None;
        }
        self.reserve();
        let r = self.push_group(leaves);
        let child = self.build_group(r.clone());
        // A reduction is only useful if its leaves align into real code.
        if self.refused() || !matches!(self.graph.node(child).kind(), NodeKind::Match { .. }) {
            self.groups.truncate(r.start);
            return None;
        }
        let node = self.add_node(
            NodeKind::Reduction {
                opcode,
                internal,
                carry,
                ty,
            },
            r.clone(),
            &[child],
        );
        self.groups.truncate(r.start);
        if self.refused() {
            return None;
        }
        self.graph.roots.push(node);
        Some(node)
    }

    /// Classifies and builds the node for the stacked group `r`.
    fn build_group(&mut self, r: Range<usize>) -> NodeId {
        if self.refused() {
            return NodeId(self.graph.num_nodes() as u32 - 1);
        }
        let hash = group_hash(&self.groups[r.clone()]);
        if let Some(id) = self.memo_lookup(hash, r.clone()) {
            return id;
        }

        // 1. Identical values in every lane: loop-invariant.
        let group = &self.groups[r.clone()];
        if group.iter().all(|&v| v == group[0]) {
            return self.leaf(r, hash, NodeKind::Identical);
        }

        // 2. Integer-constant groups: sequence or mismatch (§IV-C1).
        if let Some(ty) = self.const_int_type(group) {
            if self.opts.enable_sequences {
                let values = group.iter().map(|&v| match self.func.value(v) {
                    ValueDef::ConstInt { value, .. } => *value,
                    _ => unreachable!("checked by const_int_type"),
                });
                if let Some((start, step)) = arithmetic_progression(values) {
                    return self.leaf(r, hash, NodeKind::Sequence { start, step, ty });
                }
            }
            return self.leaf(r, hash, NodeKind::Mismatch);
        }

        // 3. Chained dependence (§IV-C4): the group is a one-lane-shifted
        //    view of some value-producing node already in the graph (in the
        //    common case, the parent the recursion came from — but a compare
        //    feeding a select chain reaches the same shifted group from a
        //    sibling, so the search covers the whole graph).
        if self.opts.enable_recurrences {
            let target = self.graph.node_ids().find(|&t| {
                let tn = self.graph.node(t);
                matches!(
                    tn.kind(),
                    NodeKind::Match { .. }
                        | NodeKind::GepNeutral { .. }
                        | NodeKind::BinOpNeutral { .. }
                ) && tn.lanes().len() == group.len()
                    && (1..group.len()).all(|k| group[k] == tn.lanes()[k - 1])
            });
            if let Some(target) = target {
                let init = group[0];
                let node = self.add_node(NodeKind::Recurrence { init, target }, r, &[target]);
                self.memoize(hash, node);
                return node;
            }
        }

        // 4. Exactly matching instructions.
        if let Some(node) = self.try_match(r.clone(), hash) {
            return node;
        }

        // 5. Neutral pointer operations (§IV-C2).
        if self.opts.enable_gep_neutral {
            if let Some(node) = self.try_gep_neutral(r.clone(), hash) {
                return node;
            }
        }

        // 6. Neutral elements of binary operations (§IV-C3).
        if self.opts.enable_binop_neutral {
            if let Some(node) = self.try_binop_neutral(r.clone(), hash) {
                return node;
            }
        }

        // 7. Give up: a mismatching node.
        self.leaf(r, hash, NodeKind::Mismatch)
    }

    fn leaf(&mut self, group: Range<usize>, hash: u64, kind: NodeKind) -> NodeId {
        let node = self.add_node(kind, group, &[]);
        self.memoize(hash, node);
        node
    }

    /// The common type of `group` when every lane is an integer constant
    /// of the first lane's type.
    fn const_int_type(&self, group: &[ValueId]) -> Option<TypeId> {
        let ty0 = self.func.value_ty(group[0], &self.module.types);
        group
            .iter()
            .all(|&v| matches!(self.func.value(v), ValueDef::ConstInt { ty, .. } if *ty == ty0))
            .then_some(ty0)
    }

    /// Instruction lane eligible for rolling: a non-phi, non-terminator,
    /// non-alloca instruction of the target block, not yet claimed.
    fn rollable_inst(&self, v: ValueId) -> Option<InstId> {
        let inst = self.func.value(v).as_inst()?;
        let data = self.func.inst(inst);
        if data.block != self.block || !self.func.is_live(inst) {
            return None;
        }
        if data.opcode == Opcode::Phi
            || data.opcode == Opcode::Alloca
            || data.opcode.is_terminator()
        {
            return None;
        }
        if self.graph.claimed.contains_key(&inst) {
            return None;
        }
        Some(inst)
    }

    /// Whether `group` is made of distinct rollable instructions that
    /// agree on opcode, type, operand count, extras and operand types.
    fn match_gate(&self, group: &[ValueId]) -> bool {
        let Some(first) = self.rollable_inst(group[0]) else {
            return false;
        };
        let first = self.func.inst(first);
        for (k, &v) in group.iter().enumerate().skip(1) {
            let Some(inst) = self.rollable_inst(v) else {
                return false;
            };
            // Lanes must be distinct instructions.
            if group[..k]
                .iter()
                .any(|&u| self.func.value(u).as_inst() == Some(inst))
            {
                return false;
            }
            let data = self.func.inst(inst);
            if data.opcode != first.opcode
                || data.ty != first.ty
                || data.operands.len() != first.operands.len()
                || !extras_compatible(&first.extra, &data.extra)
            {
                return false;
            }
            for (a, b) in first.operands.iter().zip(&data.operands) {
                let ta = self.func.value_ty(*a, &self.module.types);
                let tb = self.func.value_ty(*b, &self.module.types);
                if ta != tb {
                    return false;
                }
            }
        }
        true
    }

    /// The instruction of lane `k` of the stacked group `r`, which
    /// [`GraphBuilder::match_gate`] let through.
    fn matched_inst(&self, r: &Range<usize>, k: usize) -> InstId {
        self.func
            .value(self.groups[r.start + k])
            .as_inst()
            .expect("the match gate admits instruction lanes only")
    }

    fn try_match(&mut self, r: Range<usize>, hash: u64) -> Option<NodeId> {
        if !self.match_gate(&self.groups[r.clone()]) {
            return None;
        }
        let lanes = r.len();
        let first = self.func.inst(self.matched_inst(&r, 0));
        let (opcode, nops) = (first.opcode, first.operands.len());

        // Create the node first so claims and recurrence detection can see
        // it while the children are built.
        let node = self.add_node(NodeKind::Match { opcode }, r.clone(), &[]);
        self.memoize(hash, node);
        for lane in 0..lanes {
            let inst = self.matched_inst(&r, lane);
            self.claim(inst, node, lane);
        }
        if self.refused() {
            return Some(node);
        }

        let base = self.push_operand_groups(&r, opcode, nops);
        self.build_children(node, base, nops, lanes);
        Some(node)
    }

    /// Builds the `count` groups of `lanes` values stacked from `base` as
    /// the children of `node`, in order, and pops them.
    fn build_children(&mut self, node: NodeId, base: usize, count: usize, lanes: usize) {
        self.graph.reserve_children(node, count);
        for k in 0..count {
            let start = base + k * lanes;
            let child = self.build_group(start..start + lanes);
            self.graph.set_child(node, k, child);
        }
        self.groups.truncate(base);
    }

    /// Stacks the operands of the matched instructions of the stacked
    /// group `r`, one group per operand position, reordering commutative
    /// operands to maximize similarity (§IV-C3); returns where the groups
    /// start.
    fn push_operand_groups(&mut self, r: &Range<usize>, opcode: Opcode, nops: usize) -> usize {
        let lanes = r.len();
        let base = self.groups.len();
        self.groups
            .resize(base + nops * lanes, ValueId::from_index(0));
        let reorder = self.opts.enable_commutative && opcode.is_commutative() && nops == 2;
        for lane in 0..lanes {
            let ops = &self.func.inst(self.matched_inst(r, lane)).operands;
            if reorder && lane > 0 {
                let (a, b) = (ops[0], ops[1]);
                let ref_a = self.groups[base];
                let ref_b = self.groups[base + lanes];
                let keep = self.similarity(a, ref_a) + self.similarity(b, ref_b);
                let swap = self.similarity(b, ref_a) + self.similarity(a, ref_b);
                if swap > keep {
                    self.groups[base + lane] = b;
                    self.groups[base + lanes + lane] = a;
                    continue;
                }
            }
            for (k, &op) in ops.iter().enumerate() {
                self.groups[base + k * lanes + lane] = op;
            }
        }
        base
    }

    /// Cheap shape-similarity score used by commutative reordering.
    fn similarity(&self, a: ValueId, b: ValueId) -> i32 {
        if a == b {
            return 4;
        }
        match (self.func.value(a), self.func.value(b)) {
            (ValueDef::Inst(ia), ValueDef::Inst(ib)) => {
                if self.func.inst(*ia).opcode == self.func.inst(*ib).opcode {
                    3
                } else {
                    1
                }
            }
            (ValueDef::ConstInt { .. }, ValueDef::ConstInt { .. }) => 2,
            (ValueDef::Param { .. }, ValueDef::Param { .. }) => 2,
            _ => 0,
        }
    }

    /// Neutral pointer operations: a mix of `gep base, idx` lanes and bare
    /// `base` lanes becomes one `gep` whose index group gets a synthetic 0
    /// for the bare lanes (§IV-C2, Fig. 9). In `lane_insts`, a gep lane
    /// holds its instruction and a bare lane `None`.
    fn try_gep_neutral(&mut self, r: Range<usize>, hash: u64) -> Option<NodeId> {
        self.lane_insts.clear();
        let mut base: Option<ValueId> = None;
        let mut elem_ty: Option<TypeId> = None;
        let mut gep_count = 0usize;
        for k in r.clone() {
            let v = self.groups[k];
            if let Some(inst) = self.rollable_inst(v) {
                let data = self.func.inst(inst);
                if data.opcode == Opcode::Gep && data.operands.len() == 2 {
                    let InstExtra::Gep { elem_ty: ety } = data.extra else {
                        return None;
                    };
                    if *elem_ty.get_or_insert(ety) != ety {
                        return None;
                    }
                    if *base.get_or_insert(data.operands[0]) != data.operands[0] {
                        return None;
                    }
                    self.lane_insts.push(Some(inst));
                    gep_count += 1;
                    continue;
                }
            }
            // Non-gep lane: must be the base pointer itself.
            match base {
                Some(b) if b != v => return None,
                _ => {
                    base = Some(v);
                }
            }
            self.lane_insts.push(None);
        }
        let base = base?;
        let elem_ty = elem_ty?;
        if gep_count == 0 {
            return None;
        }
        // Bare lanes must actually be the base (re-check first lanes seen
        // before the base was pinned by a gep).
        for (lane, &v) in self.lane_insts.iter().zip(&self.groups[r.clone()]) {
            if lane.is_none() && v != base {
                return None;
            }
        }
        // All gep index operands must share one integer type.
        let mut idx_ty: Option<TypeId> = None;
        for &i in self.lane_insts.iter().flatten() {
            let t = self
                .func
                .value_ty(self.func.inst(i).operands[1], &self.module.types);
            if *idx_ty.get_or_insert(t) != t {
                return None;
            }
        }
        let idx_ty = idx_ty?;

        let lanes = r.len();
        let node = self.add_node(NodeKind::GepNeutral { elem_ty }, r, &[]);
        self.memoize(hash, node);
        for k in 0..lanes {
            if let Some(i) = self.lane_insts[k] {
                self.claim(i, node, k);
            }
        }
        if self.refused() {
            return Some(node);
        }
        let zero = self.func.const_int(idx_ty, 0);
        let stacked = self.groups.len();
        self.groups.extend(std::iter::repeat_n(base, lanes));
        for k in 0..lanes {
            let idx = match self.lane_insts[k] {
                Some(i) => self.func.inst(i).operands[1],
                None => zero,
            };
            self.groups.push(idx);
        }
        self.build_children(node, stacked, 2, lanes);
        Some(node)
    }

    /// Neutral elements of binary operations: the most frequent binop
    /// becomes the node's operation; other lanes are padded as
    /// `value ⊕ neutral` (§IV-C3). In `lane_insts`, a lane of that
    /// operation holds its instruction and any other lane `None`.
    fn try_binop_neutral(&mut self, r: Range<usize>, hash: u64) -> Option<NodeId> {
        // Find the most frequent eligible opcode among instruction lanes.
        self.op_counts.clear();
        for k in r.clone() {
            if let Some(inst) = self.rollable_inst(self.groups[k]) {
                let op = self.func.inst(inst).opcode;
                if op.is_binop() && op.neutral_element().is_some() {
                    match self.op_counts.iter_mut().find(|(o, _)| *o == op) {
                        Some((_, c)) => *c += 1,
                        None => self.op_counts.push((op, 1)),
                    }
                }
            }
        }
        let (opcode, count) = self.op_counts.iter().copied().max_by_key(|&(_, c)| c)?;
        let lanes = r.len();
        if count < 2 || count == lanes {
            // All-same-opcode groups were already rejected by `try_match`
            // for structural reasons; padding cannot help them.
            return None;
        }
        let ty = self.func.value_ty(self.groups[r.start], &self.module.types);
        // Every lane must produce the same type as the operation.
        for &v in &self.groups[r.clone()] {
            if self.func.value_ty(v, &self.module.types) != ty {
                return None;
            }
        }
        let neutral = self.neutral_const(opcode, ty)?;

        self.lane_insts.clear();
        for k in r.clone() {
            let op = match self.rollable_inst(self.groups[k]) {
                Some(i) if self.func.inst(i).opcode == opcode => Some(i),
                _ => None,
            };
            self.lane_insts.push(op);
        }

        let first = r.start;
        let node = self.add_node(NodeKind::BinOpNeutral { opcode, ty }, r, &[]);
        self.memoize(hash, node);
        for k in 0..lanes {
            if let Some(i) = self.lane_insts[k] {
                self.claim(i, node, k);
            }
        }
        if self.refused() {
            return Some(node);
        }
        let stacked = self.groups.len();
        for k in 0..lanes {
            let lhs = match self.lane_insts[k] {
                Some(i) => self.func.inst(i).operands[0],
                None => self.groups[first + k],
            };
            self.groups.push(lhs);
        }
        for k in 0..lanes {
            let rhs = match self.lane_insts[k] {
                Some(i) => self.func.inst(i).operands[1],
                None => neutral,
            };
            self.groups.push(rhs);
        }
        self.build_children(node, stacked, 2, lanes);
        Some(node)
    }

    fn neutral_const(&mut self, opcode: Opcode, ty: TypeId) -> Option<ValueId> {
        let types = &self.module.types;
        Some(match opcode.neutral_element()? {
            NeutralElement::Zero if types.is_int(ty) => self.func.const_int(ty, 0),
            NeutralElement::One if types.is_int(ty) => self.func.const_int(ty, 1),
            NeutralElement::AllOnes if types.is_int(ty) => self.func.const_int(ty, -1),
            NeutralElement::FZero if types.is_float(ty) => self.func.const_float(ty, 0.0),
            NeutralElement::FOne if types.is_float(ty) => self.func.const_float(ty, 1.0),
            _ => return None,
        })
    }
}

fn extras_compatible(a: &InstExtra, b: &InstExtra) -> bool {
    match (a, b) {
        (InstExtra::None, InstExtra::None) => true,
        (InstExtra::Icmp(x), InstExtra::Icmp(y)) => x == y,
        (InstExtra::Fcmp(x), InstExtra::Fcmp(y)) => x == y,
        (InstExtra::Gep { elem_ty: x }, InstExtra::Gep { elem_ty: y }) => x == y,
        (InstExtra::Call { callee: x }, InstExtra::Call { callee: y }) => x == y,
        _ => false,
    }
}

/// Detects `S_i = S_0 + i*(S_1 - S_0)` with a non-zero common difference.
fn arithmetic_progression(consts: impl IntoIterator<Item = i64>) -> Option<(i64, i64)> {
    let mut consts = consts.into_iter();
    let (first, second) = (consts.next()?, consts.next()?);
    let step = second.checked_sub(first)?;
    if step == 0 {
        return None;
    }
    let mut prev = second;
    for c in consts {
        if c.checked_sub(prev)? != step {
            return None;
        }
        prev = c;
    }
    Some((first, step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn build_from_stores(text: &str) -> (Module, AlignGraph) {
        let module = parse_module(text).unwrap();
        let fid = module.func_by_name("f").unwrap();
        let mut func = module.func(fid).clone();
        let block = func.entry_block();
        let seeds: Vec<ValueId> = func
            .block(block)
            .insts
            .iter()
            .filter(|&&i| func.inst(i).opcode == Opcode::Store)
            .map(|&i| func.inst_result(i))
            .collect();
        let opts = RolagOptions::default();
        let mut b = GraphBuilder::new(&module, &mut func, block, &opts, seeds.len());
        let root = b.build_seed_root(&seeds);
        assert!(root.is_some(), "seed stores should match");
        (module.clone(), b.finish())
    }

    #[test]
    fn simple_store_sequence_aligns() {
        // Fig. 7: three stores of constants 5, 1, 0 to ptr[0..2].
        let (_m, g) = build_from_stores(
            r#"
module "t"
func @f(ptr %p0) -> void {
entry:
  %a = gep i32, %p0, i64 0
  store i32 5, %a
  %b = gep i32, %p0, i64 1
  store i32 1, %b
  %c = gep i32, %p0, i64 2
  store i32 0, %c
  ret
}
"#,
        );
        let kinds = g.count_kinds();
        assert_eq!(kinds.matching, 2, "store node + gep node");
        assert_eq!(kinds.mismatching, 1, "the 5,1,0 constants");
        assert_eq!(kinds.sequence, 1, "the 0,1,2 indices");
        assert_eq!(kinds.identical, 1, "the base pointer");
        assert_eq!(g.graph_insts().count(), 6);
    }

    #[test]
    fn graph_claiming_its_own_loop_input_is_refused_only_when_armed() {
        // Both stores write %g0: the identical value group passes %g0 into
        // the loop, and the pointer group claims it as lane 0 of a gep.
        let module = parse_module(
            r#"
module "t"
global @a : [8 x ptr] = zero
func @f() -> void {
entry:
  %g0 = gep ptr, @a, i64 0
  store %g0, %g0
  %g1 = gep ptr, @a, i64 1
  store %g0, %g1
  ret
}
"#,
        )
        .unwrap();
        let func = module.func(module.func_by_name("f").unwrap());
        let block = func.entry_block();
        let seeds: Vec<ValueId> = func
            .block(block)
            .insts
            .iter()
            .filter(|&&i| func.inst(i).opcode == Opcode::Store)
            .map(|&i| func.inst_result(i))
            .collect();
        let opts = RolagOptions::default();
        let mut full = func.clone();
        let mut b = GraphBuilder::new(&module, &mut full, block, &opts, seeds.len());
        b.build_seed_root(&seeds)
            .expect("the unarmed builder builds it");
        let graph = b.finish();
        let claim = graph.claimed_loop_input(&full).expect("a claimed input");
        assert_eq!(claim.value, func.inst_result(func.block(block).insts[0]));
        assert_eq!(claim.lane, 0);
        assert_eq!(
            *graph.node(claim.node).kind(),
            NodeKind::Match {
                opcode: Opcode::Gep
            }
        );

        let cand = Candidate::Seeds {
            block,
            groups: vec![seeds],
        };
        let mut work = func.clone();
        assert!(build_candidate_graph(&module, &mut work, &cand, &opts).is_none());
    }

    #[test]
    fn arithmetic_progression_detection() {
        assert_eq!(arithmetic_progression([0, 16, 32, 48, 64]), Some((0, 16)));
        assert_eq!(arithmetic_progression([5, 4, 3, 2]), Some((5, -1)));
        assert_eq!(arithmetic_progression([1, 2, 4]), None);
        assert_eq!(arithmetic_progression([7, 7, 7]), None);
    }

    #[test]
    fn gep_neutral_unifies_base_and_offsets() {
        // Fig. 9: stores to p, p+16, p+32 (bytes).
        let (_m, g) = build_from_stores(
            r#"
module "t"
func @f(ptr %p0) -> void {
entry:
  store i64 1, %p0
  %b = gep i8, %p0, i64 16
  store i64 2, %b
  %c = gep i8, %p0, i64 32
  store i64 3, %c
  ret
}
"#,
        );
        let kinds = g.count_kinds();
        assert_eq!(kinds.gep_neutral, 1);
        // Two sequences: byte offsets 0,16,32 (with the synthetic zero) and
        // the stored values 1,2,3.
        assert_eq!(kinds.sequence, 2);
        assert_eq!(kinds.mismatching, 0);
    }

    #[test]
    fn binop_neutral_pads_missing_ops() {
        // Lanes: add(x,1), x, add(y,3) -> add node with neutral 0 on lane 1.
        let (_m, g) = build_from_stores(
            r#"
module "t"
func @f(ptr %p0, i32 %p1, i32 %p2) -> void {
entry:
  %v0 = add i32 %p1, i32 1
  %a = gep i32, %p0, i64 0
  store %v0, %a
  %b = gep i32, %p0, i64 1
  store %p1, %b
  %v2 = add i32 %p2, i32 3
  %c = gep i32, %p0, i64 2
  store %v2, %c
  ret
}
"#,
        );
        let kinds = g.count_kinds();
        assert_eq!(kinds.binop_neutral, 1);
        // rhs group 1, 0, 3 is a mismatch; lhs group p1, p1, p2 too.
        assert!(kinds.mismatching >= 2);
    }

    #[test]
    fn commutative_reordering_recovers_alignment() {
        // mul(x, load) vs mul(load, x): positions differ; reordering aligns.
        let (_m, g) = build_from_stores(
            r#"
module "t"
global @a : [4 x i32] = zero
func @f(ptr %p0, i32 %p1) -> void {
entry:
  %q0 = gep i32, @a, i64 0
  %l0 = load i32, %q0
  %v0 = mul i32 %p1, %l0
  %s0 = gep i32, %p0, i64 0
  store %v0, %s0
  %q1 = gep i32, @a, i64 1
  %l1 = load i32, %q1
  %v1 = mul i32 %l1, %p1
  %s1 = gep i32, %p0, i64 1
  store %v1, %s1
  ret
}
"#,
        );
        let kinds = g.count_kinds();
        // With reordering, the mul operands align as (p1-identical,
        // load-match); without it, both operand groups would mismatch.
        assert_eq!(kinds.matching, 5, "store, store-gep, mul, load, load-gep");
        assert_eq!(kinds.mismatching, 0);
    }

    #[test]
    fn disabled_options_fall_back_to_mismatch() {
        let module = parse_module(
            r#"
module "t"
func @f(ptr %p0) -> void {
entry:
  %a = gep i32, %p0, i64 0
  store i32 5, %a
  %b = gep i32, %p0, i64 1
  store i32 6, %b
  ret
}
"#,
        )
        .unwrap();
        let fid = module.func_by_name("f").unwrap();
        let mut func = module.func(fid).clone();
        let block = func.entry_block();
        let seeds: Vec<ValueId> = func
            .block(block)
            .insts
            .iter()
            .filter(|&&i| func.inst(i).opcode == Opcode::Store)
            .map(|&i| func.inst_result(i))
            .collect();
        let opts = RolagOptions::no_special_nodes();
        let mut b = GraphBuilder::new(&module, &mut func, block, &opts, seeds.len());
        b.build_seed_root(&seeds).unwrap();
        let g = b.finish();
        let kinds = g.count_kinds();
        assert_eq!(kinds.sequence, 0);
        // Indices 0,1 and constants 5,6 both degrade to mismatches.
        assert_eq!(kinds.mismatching, 2);
    }

    /// Everything a graph holds, read through its public accessors, so two
    /// builds compare node for node.
    fn layout(graph: &AlignGraph) -> impl PartialEq + std::fmt::Debug {
        let nodes: Vec<_> = graph
            .node_ids()
            .map(|id| {
                let n = graph.node(id);
                (n.kind().clone(), n.lanes().to_vec(), n.children().to_vec())
            })
            .collect();
        let mut claims: Vec<_> = graph.claimed.iter().map(|(&i, &c)| (i, c)).collect();
        claims.sort_unstable();
        (graph.lanes, nodes, graph.roots.clone(), claims)
    }

    /// With every lane group hashed to one value, each memo lookup walks
    /// one chain of every memoized node, and must still find exactly the
    /// node of its own group: every candidate graph of the unrolled TSVC
    /// kernels and of 128 AnghaBench-like modules, built in full and as the
    /// engine builds it, comes out node for node as with the real hash.
    #[test]
    fn memo_collisions_build_identical_graphs() {
        use rolag_suites::angha::{stream, AnghaConfig};
        use rolag_suites::tsvc::{all_kernels, build_kernel_module};
        use rolag_transforms::{cleanup_module, cse_module, unroll_module};

        let tsvc = all_kernels().into_iter().map(|spec| {
            let mut m = build_kernel_module(&spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            m
        });
        let angha = stream(&AnghaConfig {
            seed: 0x0a17_4a90,
            functions: 128,
        })
        .map(|(_, _, m)| m);
        let opts = RolagOptions::default();
        let build = |m: &Module, f: &Function, cand: &Candidate, collide: bool| {
            COLLIDE.with(|c| c.set(collide));
            let mut work = f.clone();
            let mut b = GraphBuilder::new(m, &mut work, cand.block(), &opts, cand.lanes());
            let built = b.build_roots(cand);
            let full = layout(&b.finish());
            let mut work = f.clone();
            let armed = build_candidate_graph(m, &mut work, cand, &opts).map(|g| layout(&g));
            COLLIDE.with(|c| c.set(false));
            (built, full, armed)
        };
        let (mut graphs, mut shared) = (0, 0);
        for m in tsvc.chain(angha) {
            for id in m.func_ids() {
                let f = m.func(id);
                if f.is_declaration {
                    continue;
                }
                for cand in crate::seeds::collect_candidates(&m, f, &opts) {
                    let real = build(&m, f, &cand, false);
                    let collided = build(&m, f, &cand, true);
                    assert_eq!(real, collided, "@{} {cand:?}", f.name);
                    graphs += 1;
                    let mut work = f.clone();
                    let mut b = GraphBuilder::new(&m, &mut work, cand.block(), &opts, cand.lanes());
                    b.build_roots(&cand);
                    let g = b.finish();
                    let mut children: Vec<NodeId> = g
                        .node_ids()
                        .flat_map(|id| g.node(id).children().to_vec())
                        .collect();
                    let edges = children.len();
                    children.sort_unstable();
                    children.dedup();
                    shared += usize::from(children.len() < edges);
                }
            }
        }
        assert!(graphs > 1000, "{graphs} candidates");
        assert!(
            shared > 50,
            "only {shared} graphs share a node: the memo went unused"
        );
    }
}
