//! Alignment-graph data structures (§IV-B, Fig. 7).

use rolag_ir::fxhash::FxHashMap;
use rolag_ir::{Function, InstId, Opcode, TypeId, ValueId};

use crate::stats::NodeKindCounts;

/// Index of a node inside an [`AlignGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Classification of an alignment-graph node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Isomorphic instructions merged into one loop-body instruction.
    Match {
        /// Common opcode.
        opcode: Opcode,
    },
    /// The same value in every lane (loop-invariant); used directly.
    Identical,
    /// Differing values, loaded from an array inside the loop (Fig. 14).
    Mismatch,
    /// `start .. start + (lanes-1)*step, step` — a monotonic integer
    /// sequence represented as a function of the induction variable
    /// (§IV-C1, Fig. 8).
    Sequence {
        /// First element.
        start: i64,
        /// Common difference.
        step: i64,
        /// Integer type of the elements.
        ty: TypeId,
    },
    /// Mixed group of `gep`s off one base pointer and the bare base pointer
    /// itself, unified through `p + 0 == p` (§IV-C2, Fig. 9).
    GepNeutral {
        /// Element type of the unified `gep`.
        elem_ty: TypeId,
    },
    /// Mixed group unified through the neutral element of the dominant
    /// binary operation (§IV-C3).
    BinOpNeutral {
        /// Dominant opcode.
        opcode: Opcode,
        /// Operand/result type.
        ty: TypeId,
    },
    /// Chained dependence lowered to a phi (§IV-C4, Fig. 10).
    Recurrence {
        /// Value entering the chain at the first iteration.
        init: ValueId,
        /// The node whose previous-iteration value feeds the chain.
        target: NodeId,
    },
    /// A reduction tree collapsed into an accumulator (§IV-C5, Fig. 11).
    Reduction {
        /// Associative (and here commutative) operation.
        opcode: Opcode,
        /// The internal tree instructions (deleted when rolling).
        internal: Vec<InstId>,
        /// Incoming accumulator value, if the tree is a carried chain; the
        /// rolled phi initializes from it instead of the neutral element.
        carry: Option<ValueId>,
        /// Element/accumulator type.
        ty: TypeId,
    },
}

/// Candidate-level annotations for [`AlignGraph::to_dot_with`].
#[derive(Debug, Clone, Default)]
pub struct DotInfo {
    /// Measured code size (bytes) of the speculative rolled function.
    pub score: Option<u64>,
    /// Translation-validator verdict for the candidate (`proved`, or the
    /// rejection's error text).
    pub verdict: Option<String>,
}

/// One alignment-graph node, borrowed from its [`AlignGraph`]: a
/// classification, the per-lane values it represents, and its operand
/// children. The lanes and children are slices of the graph's arenas.
#[derive(Debug, Clone, Copy)]
pub struct AlignNode<'g> {
    kind: &'g NodeKind,
    lanes: &'g [ValueId],
    children: &'g [NodeId],
}

impl<'g> AlignNode<'g> {
    /// Node classification.
    pub fn kind(&self) -> &'g NodeKind {
        self.kind
    }

    /// One value per lane (per rolled-loop iteration).
    pub fn lanes(&self) -> &'g [ValueId] {
        self.lanes
    }

    /// Child node per operand position (meaning depends on the kind).
    pub fn children(&self) -> &'g [NodeId] {
        self.children
    }

    /// The values this node passes into the rolled loop from outside it:
    /// every lane of a `Mismatch` (loaded from an array inside the loop), the
    /// one value of an `Identical`, a `Recurrence`'s initial value and a
    /// `Reduction`'s carry. Other kinds pass nothing in.
    pub fn loop_inputs(&self) -> &'g [ValueId] {
        match self.kind {
            NodeKind::Mismatch => self.lanes,
            NodeKind::Identical => &self.lanes[..1],
            NodeKind::Recurrence { init, .. } => std::slice::from_ref(init),
            NodeKind::Reduction { carry: Some(v), .. } => std::slice::from_ref(v),
            _ => &[],
        }
    }
}

/// A loop input that the graph itself rolls away (see
/// [`AlignGraph::claimed_loop_input`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimedLoopInput {
    /// The value a node passes into the loop.
    pub value: ValueId,
    /// The node that claims the value's instruction.
    pub node: NodeId,
    /// The claiming lane.
    pub lane: usize,
}

/// A node as the graph stores it: its kind and the ranges its lanes and
/// children occupy in the graph's arenas.
#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    lanes: (u32, u32),
    children: (u32, u32),
}

/// The alignment graph: a DAG over groups of values, with one or more roots
/// (several roots = the joint-node case of §IV-C6, emitted in order).
///
/// Every node's lanes live in one graph-wide value arena and its children
/// in one node arena, so a graph costs its allocator a few arena doublings,
/// however many nodes it has (see DESIGN.md, *Alignment-graph layout*).
#[derive(Debug, Clone)]
pub struct AlignGraph {
    /// Number of lanes = iterations of the rolled loop.
    pub lanes: usize,
    nodes: Vec<NodeData>,
    lane_arena: Vec<ValueId>,
    child_arena: Vec<NodeId>,
    /// Roots in emission order.
    pub roots: Vec<NodeId>,
    /// Instructions claimed by a node lane: inst -> (node, lane index).
    pub(crate) claimed: FxHashMap<InstId, (NodeId, usize)>,
}

/// A child slot reserved by [`AlignGraph::reserve_children`] and not yet
/// filled.
const UNFILLED: NodeId = NodeId(u32::MAX);

impl AlignGraph {
    /// Creates an empty graph with the given lane count.
    pub fn new(lanes: usize) -> Self {
        AlignGraph {
            lanes,
            nodes: Vec::new(),
            lane_arena: Vec::new(),
            child_arena: Vec::new(),
            roots: Vec::new(),
            claimed: FxHashMap::default(),
        }
    }

    /// Makes room for about `nodes` more nodes of [`AlignGraph::lanes`]
    /// lanes and two children each, and half as many claims as lanes.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.nodes.reserve(nodes);
        self.lane_arena.reserve(nodes * self.lanes);
        self.child_arena.reserve(nodes * 2);
        self.claimed.reserve(nodes * self.lanes / 2);
    }

    /// Adds a node with copies of `lanes` and `children` and returns its
    /// id.
    pub fn add_node(&mut self, kind: NodeKind, lanes: &[ValueId], children: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let lane_start = self.lane_arena.len() as u32;
        self.lane_arena.extend_from_slice(lanes);
        let child_start = self.child_arena.len() as u32;
        self.child_arena.extend_from_slice(children);
        self.nodes.push(NodeData {
            kind,
            lanes: (lane_start, self.lane_arena.len() as u32),
            children: (child_start, self.child_arena.len() as u32),
        });
        id
    }

    /// Gives `node`, which has no children yet, `count` child slots at the
    /// end of the child arena, to be filled in order by
    /// [`AlignGraph::set_child`] while other nodes are added.
    pub(crate) fn reserve_children(&mut self, node: NodeId, count: usize) {
        let start = self.child_arena.len() as u32;
        self.child_arena
            .resize(self.child_arena.len() + count, UNFILLED);
        self.nodes[node.index()].children = (start, self.child_arena.len() as u32);
    }

    /// Fills child slot `k` of `node`.
    pub(crate) fn set_child(&mut self, node: NodeId, k: usize, child: NodeId) {
        let (start, _) = self.nodes[node.index()].children;
        self.child_arena[start as usize + k] = child;
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> AlignNode<'_> {
        let n = &self.nodes[id.index()];
        AlignNode {
            kind: &n.kind,
            lanes: &self.lane_arena[n.lanes.0 as usize..n.lanes.1 as usize],
            children: &self.child_arena[n.children.0 as usize..n.children.1 as usize],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Which node/lane claimed `inst`, if any.
    pub fn claim_of(&self, inst: InstId) -> Option<(NodeId, usize)> {
        self.claimed.get(&inst).copied()
    }

    /// The instructions the rolled loop replaces: the claimed lanes, then
    /// the reduction-tree internals. An instruction is listed once.
    pub fn graph_insts(&self) -> impl Iterator<Item = InstId> + '_ {
        let internals = self.nodes.iter().flat_map(|n| match &n.kind {
            NodeKind::Reduction { internal, .. } => internal.as_slice(),
            _ => &[],
        });
        self.claimed
            .keys()
            .copied()
            .chain(internals.copied().filter(|i| !self.claimed.contains_key(i)))
    }

    /// The first loop input (in node order, then input order) whose
    /// instruction a node claims, if any. Such a graph can never be
    /// scheduled: the value would have to exist before the loop that
    /// computes it. The scheduler refuses it, and the graph builder refuses
    /// to finish it inside `build_candidate_graph`.
    ///
    /// Reduction-tree instructions, the other instructions a graph rolls
    /// away, are never loop inputs. A loop input is an operand of a claimed
    /// instruction under the tree's leaves (or the carry, an operand of the
    /// tree), so if it were the tree's root the tree would use itself, and
    /// if it were another tree instruction, that single-use instruction
    /// would have a second use, which the scheduler refuses on its own.
    pub fn claimed_loop_input(&self, func: &Function) -> Option<ClaimedLoopInput> {
        self.node_ids()
            .flat_map(|id| self.node(id).loop_inputs())
            .find_map(|&value| {
                let (node, lane) = self.claim_of(func.value(value).as_inst()?)?;
                Some(ClaimedLoopInput { value, node, lane })
            })
    }

    /// Deterministic emission order: post-order under each root, roots in
    /// sequence. The scheduler computes it once per graph it lets through
    /// and hands it to the code generator with the
    /// [`Schedule`](crate::schedule::Schedule).
    pub fn emission_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut state = vec![Visit::New; self.nodes.len()];
        for &r in &self.roots {
            self.post_order(r, &mut state, &mut order);
        }
        order
    }

    fn post_order(&self, n: NodeId, state: &mut [Visit], order: &mut Vec<NodeId>) {
        if state[n.index()] != Visit::New {
            return; // visited, or a recurrence back-edge
        }
        state[n.index()] = Visit::OnPath;
        for &c in self.node(n).children() {
            self.post_order(c, state, order);
        }
        state[n.index()] = Visit::Done;
        order.push(n);
    }

    /// Renders the graph in Graphviz `dot` syntax for debugging: one box
    /// per node labelled with its kind and lane count, edges to operand
    /// children (recurrence back edges dashed).
    pub fn to_dot(&self) -> String {
        self.to_dot_with(&DotInfo::default())
    }

    /// [`AlignGraph::to_dot`] with caller-supplied candidate annotations:
    /// the beam search attaches its measured score and the translation
    /// validator's verdict as a graph-level banner, so a rejected
    /// candidate's dump says *why* it was rejected and what it would have
    /// cost.
    pub fn to_dot_with(&self, info: &DotInfo) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph align {\n  rankdir=BT;\n");
        let mut banner = Vec::new();
        if let Some(score) = info.score {
            banner.push(format!("score={score}B"));
        }
        if let Some(verdict) = &info.verdict {
            banner.push(format!("tv={verdict}"));
        }
        if !banner.is_empty() {
            let _ = writeln!(
                out,
                "  label=\"{}\";\n  labelloc=t;",
                banner.join(" ").replace('"', "'")
            );
        }
        for id in self.node_ids() {
            let n = self.node(id);
            let label = match n.kind() {
                NodeKind::Match { opcode } => format!("match:{}", opcode.mnemonic()),
                NodeKind::Identical => "identical".to_string(),
                NodeKind::Mismatch => "mismatch".to_string(),
                NodeKind::Sequence { start, step, .. } => {
                    format!("seq {start}..,{step}")
                }
                NodeKind::GepNeutral { .. } => "gep+0".to_string(),
                NodeKind::BinOpNeutral { opcode, .. } => {
                    format!("{}+neutral", opcode.mnemonic())
                }
                NodeKind::Recurrence { .. } => "recurrence".to_string(),
                NodeKind::Reduction { opcode, .. } => {
                    format!("reduce:{}", opcode.mnemonic())
                }
            };
            let shape = match n.kind() {
                NodeKind::Match { .. } => "box",
                NodeKind::Mismatch => "octagon",
                _ => "ellipse",
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{} x{}\", shape={}];",
                id.index(),
                label,
                n.lanes().len(),
                shape
            );
            for &c in n.children() {
                let style = if matches!(n.kind(), NodeKind::Recurrence { .. }) {
                    " [style=dashed]"
                } else {
                    ""
                };
                let _ = writeln!(out, "  n{} -> n{}{};", id.index(), c.index(), style);
            }
        }
        for &r in &self.roots {
            let _ = writeln!(out, "  n{} [penwidth=2];", r.index());
        }
        out.push_str("}\n");
        out
    }

    /// Counts node kinds (for the Fig. 16 / Fig. 19 breakdowns).
    pub fn count_kinds(&self) -> NodeKindCounts {
        let mut c = NodeKindCounts::default();
        for n in &self.nodes {
            match n.kind {
                NodeKind::Match { .. } => c.matching += 1,
                NodeKind::Identical => c.identical += 1,
                NodeKind::Mismatch => c.mismatching += 1,
                NodeKind::Sequence { .. } => c.sequence += 1,
                NodeKind::GepNeutral { .. } => c.gep_neutral += 1,
                NodeKind::BinOpNeutral { .. } => c.binop_neutral += 1,
                NodeKind::Recurrence { .. } => c.recurrence += 1,
                NodeKind::Reduction { .. } => c.reduction += 1,
            }
        }
        c
    }
}

/// Where [`AlignGraph::emission_order`]'s walk stands with a node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Visit {
    New,
    OnPath,
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_order_is_post_order() {
        let mut g = AlignGraph::new(2);
        let a = g.add_node(NodeKind::Identical, &[], &[]);
        let b = g.add_node(NodeKind::Mismatch, &[], &[]);
        let root = g.add_node(
            NodeKind::Match {
                opcode: Opcode::Add,
            },
            &[],
            &[a, b],
        );
        g.roots.push(root);
        assert_eq!(g.emission_order(), vec![a, b, root]);
    }

    #[test]
    fn shared_children_emitted_once() {
        let mut g = AlignGraph::new(2);
        let shared = g.add_node(NodeKind::Identical, &[], &[]);
        let l = g.add_node(
            NodeKind::Match {
                opcode: Opcode::Add,
            },
            &[],
            &[shared],
        );
        let r = g.add_node(
            NodeKind::Match {
                opcode: Opcode::Mul,
            },
            &[],
            &[shared],
        );
        g.roots.extend([l, r]);
        assert_eq!(g.emission_order(), vec![shared, l, r]);
    }

    #[test]
    fn recurrence_cycle_does_not_loop_forever() {
        let mut g = AlignGraph::new(3);
        // root -> rec -> root (cycle through the recurrence back edge).
        let root_placeholder = NodeId(1);
        let rec = g.add_node(
            NodeKind::Recurrence {
                init: rolag_ir::ValueId::from_index(0),
                target: root_placeholder,
            },
            &[],
            &[root_placeholder],
        );
        let root = g.add_node(
            NodeKind::Match {
                opcode: Opcode::Call,
            },
            &[],
            &[rec],
        );
        assert_eq!(root, root_placeholder);
        g.roots.push(root);
        assert_eq!(g.emission_order(), vec![rec, root]);
    }

    #[test]
    fn dot_output_contains_every_node_and_edge() {
        let mut g = AlignGraph::new(3);
        let seq = g.add_node(
            NodeKind::Sequence {
                start: 0,
                step: 4,
                ty: rolag_ir::TypeStore::new().i64(),
            },
            &[],
            &[],
        );
        let root = g.add_node(
            NodeKind::Match {
                opcode: Opcode::Store,
            },
            &[],
            &[seq],
        );
        g.roots.push(root);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph align"));
        assert!(dot.contains("match:store"));
        assert!(dot.contains("seq 0..,4"));
        assert!(dot.contains("n1 -> n0"));
        assert!(dot.contains("penwidth=2"));
    }

    /// Byte-exact golden over a graph holding every node kind: any change
    /// to the dot rendering — a relabelled kind, a dropped edge style, a
    /// reshuffled attribute — must be made consciously, here.
    #[test]
    fn dot_golden_covers_every_node_kind() {
        let types = rolag_ir::TypeStore::new();
        let i32t = types.i32();
        let mut g = AlignGraph::new(4);
        let seq = g.add_node(
            NodeKind::Sequence {
                start: 2,
                step: 3,
                ty: i32t,
            },
            &[],
            &[],
        );
        let ident = g.add_node(NodeKind::Identical, &[], &[]);
        let mis = g.add_node(NodeKind::Mismatch, &[], &[]);
        let gep = g.add_node(NodeKind::GepNeutral { elem_ty: i32t }, &[], &[seq]);
        let neutral = g.add_node(
            NodeKind::BinOpNeutral {
                opcode: Opcode::Add,
                ty: i32t,
            },
            &[],
            &[ident],
        );
        let red = g.add_node(
            NodeKind::Reduction {
                opcode: Opcode::Add,
                internal: Vec::new(),
                carry: None,
                ty: i32t,
            },
            &[],
            &[mis],
        );
        let root_placeholder = NodeId(7);
        let rec = g.add_node(
            NodeKind::Recurrence {
                init: rolag_ir::ValueId::from_index(0),
                target: root_placeholder,
            },
            &[],
            &[root_placeholder],
        );
        let root = g.add_node(
            NodeKind::Match {
                opcode: Opcode::Store,
            },
            &[],
            &[gep, neutral, red, rec],
        );
        assert_eq!(root, root_placeholder);
        g.roots.push(root);

        let expected = "\
digraph align {
  rankdir=BT;
  label=\"score=25B tv=loop body references an unclaimed value\";
  labelloc=t;
  n0 [label=\"seq 2..,3 x0\", shape=ellipse];
  n1 [label=\"identical x0\", shape=ellipse];
  n2 [label=\"mismatch x0\", shape=octagon];
  n3 [label=\"gep+0 x0\", shape=ellipse];
  n3 -> n0;
  n4 [label=\"add+neutral x0\", shape=ellipse];
  n4 -> n1;
  n5 [label=\"reduce:add x0\", shape=ellipse];
  n5 -> n2;
  n6 [label=\"recurrence x0\", shape=ellipse];
  n6 -> n7 [style=dashed];
  n7 [label=\"match:store x0\", shape=box];
  n7 -> n3;
  n7 -> n4;
  n7 -> n5;
  n7 -> n6;
  n7 [penwidth=2];
}
";
        // The golden is the *annotated* rendering; the plain `to_dot` is
        // the same text minus the two banner lines.
        let info = DotInfo {
            score: Some(25),
            verdict: Some("loop body references an unclaimed value".into()),
        };
        assert_eq!(g.to_dot_with(&info), expected, "dot golden drifted");
        assert_eq!(
            g.to_dot(),
            expected.replace(
                "  label=\"score=25B tv=loop body references an unclaimed value\";\n  labelloc=t;\n",
                ""
            ),
            "plain dot must be the annotated dot minus the banner"
        );
    }

    #[test]
    fn kind_counting() {
        let mut g = AlignGraph::new(2);
        g.add_node(NodeKind::Identical, &[], &[]);
        g.add_node(NodeKind::Mismatch, &[], &[]);
        g.add_node(
            NodeKind::Sequence {
                start: 0,
                step: 1,
                ty: rolag_ir::TypeStore::new().i32(),
            },
            &[],
            &[],
        );
        let c = g.count_kinds();
        assert_eq!(c.identical, 1);
        assert_eq!(c.mismatching, 1);
        assert_eq!(c.sequence, 1);
        assert_eq!(c.total(), 3);
    }
}
