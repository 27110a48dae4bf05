//! Dominator tree (Cooper–Harvey–Kennedy algorithm).
//!
//! Dominance queries are answered in O(1) from the preorder interval of
//! each block in a depth-first walk of the tree: `a` dominates `b` exactly
//! when `b`'s preorder number falls inside `a`'s subtree interval.

use crate::block::BlockId;
use crate::function::Function;

/// Marks a block no walk has reached.
const NONE: usize = usize::MAX;

/// Immediate-dominator tree for a function's CFG.
///
/// `PartialEq` compares the full computed structure (idoms and tree
/// intervals), so equality with a freshly computed tree means a cached copy
/// is still exact — the pass manager's debug-mode invalidation checker
/// relies on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomTree {
    /// `idom[b]` is the immediate dominator of block `b` (`None` for a
    /// root and for blocks no root reaches).
    idom: Vec<Option<BlockId>>,
    /// Preorder number of each block in a depth-first walk of the tree
    /// (`u32::MAX` when no root reaches the block).
    pre: Vec<u32>,
    /// The largest preorder number in each block's subtree.
    last: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `func`, rooted at its entry. Blocks
    /// the entry does not reach are in no tree, and their edges into
    /// reachable blocks are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks.
    pub fn compute(func: &Function) -> Self {
        Self::build(func, false)
    }

    /// The dominator forest the verifier checks SSA dominance against: the
    /// entry's tree as in [`DomTree::compute`], plus a tree under every
    /// other block that no edge enters. Dominance among unreachable blocks
    /// is then the path-based relation from those roots: a block reached
    /// from two roots is dominated only by itself and what dominates it on
    /// every path. Blocks on a cycle no root reaches stay in no tree.
    pub(crate) fn forest(func: &Function) -> Self {
        Self::build(func, true)
    }

    fn build(func: &Function, forest: bool) -> Self {
        let n = func.num_blocks();
        let entry = func.entry_block().index();
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ: Vec<usize> = Vec::with_capacity(n);
        succ_start.push(0);
        for b in func.block_ids() {
            succ.extend(func.successors(b).iter().map(|s| s.index()));
            succ_start.push(succ.len());
        }
        let succs = |b: usize| &succ[succ_start[b]..succ_start[b + 1]];
        let (pred_start, pred) = adjacency(
            n,
            (0..n).flat_map(|b| succs(b).iter().map(move |&s| (s, b))),
        );
        let preds = |b: usize| &pred[pred_start[b]..pred_start[b + 1]];
        let mut roots = vec![entry];
        if forest {
            roots.extend((0..n).filter(|&b| b != entry && preds(b).is_empty()));
        }

        // Postorder of every tree, root by root; `tree[b]` is the index of
        // the root whose walk reached `b` first.
        let mut tree = vec![NONE; n];
        let mut post: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for (k, &r) in roots.iter().enumerate() {
            tree[r] = k;
            stack.push((r, 0));
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                if let Some(&s) = succs(b).get(*next) {
                    *next += 1;
                    if tree[s] == NONE {
                        tree[s] = k;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }

        // Cooper–Harvey–Kennedy over a virtual root (index `n`, reverse
        // postorder number 0) whose successors are the roots.
        let virt = n;
        let mut rpo_number = vec![NONE; n + 1];
        rpo_number[virt] = 0;
        for (i, &b) in post.iter().rev().enumerate() {
            rpo_number[b] = i + 1;
        }
        let mut idom = vec![NONE; n + 1];
        idom[virt] = virt;
        for &r in &roots {
            idom[r] = virt;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &b in post.iter().rev() {
                if roots[tree[b]] == b {
                    continue;
                }
                let mut new_idom = NONE;
                for &p in preds(b) {
                    // Skip preds not processed yet or reached by no root,
                    // and keep the entry's tree closed: an edge from a block
                    // the entry does not reach cannot weaken its dominance.
                    if idom[p] == NONE || (tree[b] == 0 && tree[p] != 0) {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(&idom, &rpo_number, p, new_idom)
                    };
                }
                if new_idom != NONE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        let idom: Vec<Option<BlockId>> = idom[..n]
            .iter()
            .map(|&d| (d < n).then(|| BlockId::from_index(d)))
            .collect();

        // Preorder intervals of the tree.
        let (start, kids) = adjacency(
            n,
            idom.iter()
                .enumerate()
                .filter_map(|(b, d)| d.map(|d| (d.index(), b))),
        );
        let mut pre = vec![u32::MAX; n];
        let mut last = vec![u32::MAX; n];
        let mut counter = 0u32;
        for r in (0..n).filter(|&b| tree[b] != NONE && idom[b].is_none()) {
            pre[r] = counter;
            counter += 1;
            stack.push((r, start[r]));
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                if *next < start[b + 1] {
                    let c = kids[*next];
                    *next += 1;
                    pre[c] = counter;
                    counter += 1;
                    stack.push((c, start[c]));
                } else {
                    last[b] = counter - 1;
                    stack.pop();
                }
            }
        }
        DomTree { idom, pre, last }
    }

    /// Immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// True if `a` dominates `b` (reflexive). Unreachable blocks are
    /// dominated by nothing, not even themselves.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let pb = self.pre[b.index()];
        pb != u32::MAX && self.pre[a.index()] <= pb && pb <= self.last[a.index()]
    }

    /// True if `b` is reachable from the entry (for the verifier's forest,
    /// from any root).
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.pre[b.index()] != u32::MAX
    }
}

/// Adjacency lists in one array: the targets of the edges from `v` are
/// `list[start[v]..start[v + 1]]`, in the order `edges` yields them.
fn adjacency(
    n: usize,
    edges: impl Iterator<Item = (usize, usize)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; n + 1];
    for (v, _) in edges.clone() {
        start[v + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut list = vec![0; start[n]];
    for (v, w) in edges {
        list[fill[v]] = w;
        fill[v] += 1;
    }
    (start, list)
}

fn intersect(idom: &[usize], rpo_number: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_number[a] > rpo_number[b] {
            a = idom[a];
        }
        while rpo_number[b] > rpo_number[a] {
            b = idom[b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn first_func(text: &str) -> Function {
        let m = parse_module(text).unwrap();
        let f = m.func_ids().next().unwrap();
        m.func(f).clone()
    }

    #[test]
    fn diamond_cfg() {
        let f = first_func(
            r#"
module "t"
func @f(i1 %p0) -> i32 {
entry:
  condbr %p0, left, right
left:
  br join
right:
  br join
join:
  %1 = phi i32 [ i32 1, left ], [ i32 2, right ]
  ret %1
}
"#,
        );
        let dom = DomTree::compute(&f);
        let entry = f.block_by_name("entry").unwrap();
        let left = f.block_by_name("left").unwrap();
        let right = f.block_by_name("right").unwrap();
        let join = f.block_by_name("join").unwrap();
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(left, join));
        assert!(!dom.dominates(right, join));
        assert_eq!(dom.idom(join), Some(entry));
        assert_eq!(dom.idom(left), Some(entry));
        assert!(dom.dominates(join, join));
    }

    #[test]
    fn loop_cfg() {
        let f = first_func(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  br header
header:
  %1 = phi i32 [ i32 0, entry ], [ %2, header ]
  %2 = add i32 %1, i32 1
  %3 = icmp slt %2, %p0
  condbr %3, header, exit
exit:
  ret %2
}
"#,
        );
        let dom = DomTree::compute(&f);
        let entry = f.block_by_name("entry").unwrap();
        let header = f.block_by_name("header").unwrap();
        let exit = f.block_by_name("exit").unwrap();
        assert!(dom.dominates(header, exit));
        assert!(dom.dominates(entry, header));
        assert_eq!(dom.idom(exit), Some(header));
    }

    /// The forest roots a tree at each block without predecessors, keeps
    /// the entry's tree closed to their edges, and leaves a cycle no root
    /// reaches outside every tree.
    #[test]
    fn forest_roots_unreachable_regions() {
        let f = first_func(
            r#"
module "t"
func @f() -> void {
entry:
  br join
orphan:
  br tail
tail:
  br join
join:
  ret
other:
  br tail
spin:
  br spin
}
"#,
        );
        let b = |name: &str| f.block_by_name(name).unwrap();
        let tree = DomTree::compute(&f);
        let forest = DomTree::forest(&f);
        for dom in [&tree, &forest] {
            assert!(dom.dominates(b("entry"), b("join")));
            assert!(!dom.dominates(b("orphan"), b("join")));
            assert!(!dom.dominates(b("tail"), b("join")));
        }
        assert!(!tree.is_reachable(b("orphan")));
        assert!(!tree.dominates(b("orphan"), b("orphan")));
        assert!(forest.dominates(b("orphan"), b("orphan")));
        // `tail` is reached from two roots, so only it dominates itself.
        assert!(forest.dominates(b("tail"), b("tail")));
        assert!(!forest.dominates(b("orphan"), b("tail")));
        assert!(!forest.dominates(b("other"), b("tail")));
        assert!(!forest.is_reachable(b("spin")));
        assert!(!forest.dominates(b("spin"), b("spin")));
    }
}
