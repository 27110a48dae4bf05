//! Alignment-graph data structures (§IV-B, Fig. 7).

use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::{InstId, Opcode, TypeId, ValueId};

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

/// One alignment-graph node: a classification, the per-lane values it
/// represents, and its operand children.
#[derive(Debug, Clone)]
pub struct AlignNode {
    /// Node classification.
    pub kind: NodeKind,
    /// One value per lane (per rolled-loop iteration).
    pub lanes: Vec<ValueId>,
    /// Child node per operand position (meaning depends on `kind`).
    pub children: Vec<NodeId>,
}

/// The alignment graph: a DAG over groups of values, with one or more roots
/// (several roots = the joint-node case of §IV-C6, emitted in order).
#[derive(Debug, Clone)]
pub struct AlignGraph {
    /// Number of lanes = iterations of the rolled loop.
    pub lanes: usize,
    nodes: Vec<AlignNode>,
    /// Roots in emission order.
    pub roots: Vec<NodeId>,
    pub(crate) memo: FxHashMap<Vec<ValueId>, NodeId>,
    /// Instructions claimed by a node lane: inst -> (node, lane index).
    pub(crate) claimed: FxHashMap<InstId, (NodeId, usize)>,
}

impl AlignGraph {
    /// Creates an empty graph with the given lane count.
    pub fn new(lanes: usize) -> Self {
        AlignGraph {
            lanes,
            nodes: Vec::new(),
            roots: Vec::new(),
            memo: FxHashMap::default(),
            claimed: FxHashMap::default(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: AlignNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &AlignNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to the node with id `id`.
    pub fn node_mut(&mut self, id: NodeId) -> &mut AlignNode {
        &mut self.nodes[id.index()]
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

    /// The set of instructions the rolled loop replaces (claimed lanes plus
    /// reduction-tree internals).
    pub fn graph_insts(&self) -> FxHashSet<InstId> {
        let mut set: FxHashSet<InstId> = self.claimed.keys().copied().collect();
        for n in &self.nodes {
            if let NodeKind::Reduction { internal, .. } = &n.kind {
                set.extend(internal.iter().copied());
            }
        }
        set
    }

    /// Deterministic emission order: post-order under each root, roots in
    /// sequence. Shared by the scheduler (to validate memory order) and the
    /// code generator (to emit the loop body).
    pub fn emission_order(&self) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut visited = vec![false; self.nodes.len()];
        let mut on_path = vec![false; self.nodes.len()];
        for &r in &self.roots {
            self.post_order(r, &mut visited, &mut on_path, &mut order);
        }
        order
    }

    fn post_order(
        &self,
        n: NodeId,
        visited: &mut [bool],
        on_path: &mut [bool],
        order: &mut Vec<NodeId>,
    ) {
        if visited[n.index()] || on_path[n.index()] {
            return; // visited, or a recurrence back-edge
        }
        on_path[n.index()] = true;
        for &c in &self.node(n).children.clone() {
            self.post_order(c, visited, on_path, order);
        }
        on_path[n.index()] = false;
        visited[n.index()] = true;
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
            let label = match &n.kind {
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
            let shape = match &n.kind {
                NodeKind::Match { .. } => "box",
                NodeKind::Mismatch => "octagon",
                _ => "ellipse",
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{} x{}\", shape={}];",
                id.index(),
                label,
                n.lanes.len(),
                shape
            );
            for &c in &n.children {
                let style = if matches!(n.kind, NodeKind::Recurrence { .. }) {
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
            match &n.kind {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: NodeKind) -> AlignNode {
        AlignNode {
            kind,
            lanes: Vec::new(),
            children: Vec::new(),
        }
    }

    #[test]
    fn emission_order_is_post_order() {
        let mut g = AlignGraph::new(2);
        let a = g.add_node(leaf(NodeKind::Identical));
        let b = g.add_node(leaf(NodeKind::Mismatch));
        let root = g.add_node(AlignNode {
            kind: NodeKind::Match {
                opcode: Opcode::Add,
            },
            lanes: Vec::new(),
            children: vec![a, b],
        });
        g.roots.push(root);
        assert_eq!(g.emission_order(), vec![a, b, root]);
    }

    #[test]
    fn shared_children_emitted_once() {
        let mut g = AlignGraph::new(2);
        let shared = g.add_node(leaf(NodeKind::Identical));
        let l = g.add_node(AlignNode {
            kind: NodeKind::Match {
                opcode: Opcode::Add,
            },
            lanes: Vec::new(),
            children: vec![shared],
        });
        let r = g.add_node(AlignNode {
            kind: NodeKind::Match {
                opcode: Opcode::Mul,
            },
            lanes: Vec::new(),
            children: vec![shared],
        });
        g.roots.extend([l, r]);
        assert_eq!(g.emission_order(), vec![shared, l, r]);
    }

    #[test]
    fn recurrence_cycle_does_not_loop_forever() {
        let mut g = AlignGraph::new(3);
        // root -> rec -> root (cycle through the recurrence back edge).
        let root_placeholder = NodeId(1);
        let rec = g.add_node(AlignNode {
            kind: NodeKind::Recurrence {
                init: rolag_ir::ValueId::from_index(0),
                target: root_placeholder,
            },
            lanes: Vec::new(),
            children: vec![root_placeholder],
        });
        let root = g.add_node(AlignNode {
            kind: NodeKind::Match {
                opcode: Opcode::Call,
            },
            lanes: Vec::new(),
            children: vec![rec],
        });
        assert_eq!(root, root_placeholder);
        g.roots.push(root);
        assert_eq!(g.emission_order(), vec![rec, root]);
    }

    #[test]
    fn dot_output_contains_every_node_and_edge() {
        let mut g = AlignGraph::new(3);
        let seq = g.add_node(leaf(NodeKind::Sequence {
            start: 0,
            step: 4,
            ty: rolag_ir::TypeStore::new().i64(),
        }));
        let root = g.add_node(AlignNode {
            kind: NodeKind::Match {
                opcode: Opcode::Store,
            },
            lanes: Vec::new(),
            children: vec![seq],
        });
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
        let seq = g.add_node(leaf(NodeKind::Sequence {
            start: 2,
            step: 3,
            ty: i32t,
        }));
        let ident = g.add_node(leaf(NodeKind::Identical));
        let mis = g.add_node(leaf(NodeKind::Mismatch));
        let gep = g.add_node(AlignNode {
            kind: NodeKind::GepNeutral { elem_ty: i32t },
            lanes: Vec::new(),
            children: vec![seq],
        });
        let neutral = g.add_node(AlignNode {
            kind: NodeKind::BinOpNeutral {
                opcode: Opcode::Add,
                ty: i32t,
            },
            lanes: Vec::new(),
            children: vec![ident],
        });
        let red = g.add_node(AlignNode {
            kind: NodeKind::Reduction {
                opcode: Opcode::Add,
                internal: Vec::new(),
                carry: None,
                ty: i32t,
            },
            lanes: Vec::new(),
            children: vec![mis],
        });
        let root_placeholder = NodeId(7);
        let rec = g.add_node(AlignNode {
            kind: NodeKind::Recurrence {
                init: rolag_ir::ValueId::from_index(0),
                target: root_placeholder,
            },
            lanes: Vec::new(),
            children: vec![root_placeholder],
        });
        let root = g.add_node(AlignNode {
            kind: NodeKind::Match {
                opcode: Opcode::Store,
            },
            lanes: Vec::new(),
            children: vec![gep, neutral, red, rec],
        });
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
        g.add_node(leaf(NodeKind::Identical));
        g.add_node(leaf(NodeKind::Mismatch));
        g.add_node(leaf(NodeKind::Sequence {
            start: 0,
            step: 1,
            ty: rolag_ir::TypeStore::new().i32(),
        }));
        let c = g.count_kinds();
        assert_eq!(c.identical, 1);
        assert_eq!(c.mismatching, 1);
        assert_eq!(c.sequence, 1);
        assert_eq!(c.total(), 3);
    }
}
