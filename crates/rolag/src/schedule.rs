//! Scheduling analysis (§IV-D, Fig. 13).
//!
//! Decides whether the instructions of an alignment graph can be rearranged
//! into loop-iteration order while preserving semantics:
//!
//! * every *external* instruction of the block must be placeable entirely
//!   before the loop (preheader side) or after it (exit side) — an
//!   instruction pulled both ways means a circular dependence crossing the
//!   graph boundary, which is prohibited;
//! * every pair of conflicting memory operations *inside* the graph must
//!   keep its original relative order under the new `(lane, node)`
//!   execution order;
//! * the values consumed by mismatching/identical/recurrence-init lanes
//!   must be available in the preheader (in particular, they must not
//!   themselves be rolled away).
//!
//! Every set the placement needs is found by walking the direct SSA edges
//! and memory conflict rows of [`BlockDeps`] from the graph, so a candidate
//! costs the instructions and rows those walks reach, plus one pass over
//! the block to list the placement (see DESIGN.md, *Scheduling analysis*).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use rolag_analysis::depgraph::{BlockDeps, InstPositions, PosSet};
use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::{BlockId, Function, InstId, Module, UseMap};

use crate::align::{AlignGraph, NodeKind};

/// A valid placement produced by the analysis.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Instructions that stay in the preheader, in original order.
    pub before: Vec<InstId>,
    /// Instructions that move to the exit block, in original order (the
    /// original terminator is last).
    pub after: Vec<InstId>,
    /// The instructions the rolled loop replaces.
    pub graph_insts: FxHashSet<InstId>,
}

/// Runs the scheduling analysis. Returns `None` when the rearrangement
/// would break semantics.
///
/// Computes the block's [`BlockDeps`] and the function's use map from
/// scratch; a caller analysing many candidates of one function state
/// should go through a [`ScheduleCache`] instead.
pub fn analyze(
    module: &Module,
    func: &Function,
    block: BlockId,
    graph: &AlignGraph,
) -> Option<Schedule> {
    let graph_insts = graph.graph_insts();
    if graph_insts.is_empty() {
        return None;
    }
    let deps = BlockDeps::compute(module, func, block);
    analyze_with(func, graph, graph_insts, &deps, &func.compute_uses())
}

/// The inputs of [`analyze`] that depend only on the function state, kept
/// across the candidates of one fixpoint sweep: per-block [`BlockDeps`],
/// the function's [`UseMap`] and its [`InstPositions`], keyed by
/// `(block, Function::revision())`.
///
/// The key is sound because the states a sweep passes between candidates
/// all carry the same revision *and* the same block contents: a rejected
/// candidate rolls its speculation window back, which restores the
/// pre-window revision together with the arenas, and interning constants
/// during graph construction never bumps the revision — it appends values
/// no instruction uses, which changes no dependence edge and no use list.
/// A commit takes a fresh revision, so the next lookup drops every entry.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    revision: Option<u64>,
    uses: Option<UseMap>,
    positions: Option<Arc<InstPositions>>,
    deps: FxHashMap<BlockId, BlockDeps>,
}

impl ScheduleCache {
    /// [`analyze`] with the block's dependences and the function's use map
    /// served from the cache when `func` still has the revision they were
    /// computed at.
    pub fn analyze(
        &mut self,
        module: &Module,
        func: &Function,
        block: BlockId,
        graph: &AlignGraph,
    ) -> Option<Schedule> {
        let graph_insts = graph.graph_insts();
        if graph_insts.is_empty() {
            return None;
        }
        self.sync(func);
        let deps = match self.deps.entry(block) {
            Entry::Occupied(hit) => {
                let deps = hit.into_mut();
                debug_assert_eq!(
                    *deps,
                    BlockDeps::compute(module, func, block),
                    "cached block dependences diverged from a fresh compute"
                );
                deps
            }
            Entry::Vacant(miss) => {
                let positions = self
                    .positions
                    .get_or_insert_with(|| Arc::new(InstPositions::compute(func)));
                miss.insert(BlockDeps::compute_with(
                    module,
                    func,
                    block,
                    Arc::clone(positions),
                ))
            }
        };
        let uses = self.uses.get_or_insert_with(|| func.compute_uses());
        analyze_with(func, graph, graph_insts, deps, uses)
    }

    /// The use map and the instruction positions of `func` at its current
    /// revision, computed on first request and shared with
    /// [`ScheduleCache::analyze`]: the engine lends them to seed collection
    /// and code generation, so a sweep builds one of each for all the
    /// candidates it collects, schedules and rolls.
    ///
    /// Read them only for values and instructions that existed at that
    /// revision. Constants interned by graph builds since then are not in
    /// the use map, because interning does not bump the revision; neither
    /// seed collection nor code generation asks about them.
    pub fn indexes(&mut self, func: &Function) -> (&UseMap, &InstPositions) {
        self.sync(func);
        let uses = self.uses.get_or_insert_with(|| func.compute_uses());
        let positions = self
            .positions
            .get_or_insert_with(|| Arc::new(InstPositions::compute(func)));
        (uses, positions)
    }

    /// Drops every entry computed at another revision of `func`.
    fn sync(&mut self, func: &Function) {
        if self.revision != Some(func.revision()) {
            self.revision = Some(func.revision());
            self.uses = None;
            self.positions = None;
            self.deps.clear();
        }
    }
}

/// The analysis proper, over precomputed dependences and uses.
fn analyze_with(
    func: &Function,
    graph: &AlignGraph,
    graph_insts: FxHashSet<InstId>,
    deps: &BlockDeps,
    uses: &UseMap,
) -> Option<Schedule> {
    let n = deps.len();

    // Sanity: every graph instruction is in this block.
    let mut in_graph = PosSet::new(n);
    let mut graph_pos = Vec::with_capacity(graph_insts.len());
    for &g in &graph_insts {
        let p = deps.position(g)?;
        in_graph.insert(p);
        graph_pos.push(p);
    }

    // --- availability of loop inputs ---------------------------------------
    // Values feeding the loop from outside (mismatch lanes, identical lanes,
    // recurrence inits) must not be instructions we are deleting.
    for node in graph.node_ids() {
        let data = graph.node(node);
        let feeds: &[rolag_ir::ValueId] = match &data.kind {
            NodeKind::Mismatch => &data.lanes,
            NodeKind::Identical => &data.lanes[..1],
            NodeKind::Recurrence { init, .. } => std::slice::from_ref(init),
            NodeKind::Reduction { carry: Some(v), .. } => std::slice::from_ref(v),
            _ => continue,
        };
        for &v in feeds {
            if let Some(inst) = func.value(v).as_inst() {
                if graph_insts.contains(&inst) {
                    return None;
                }
            }
        }
    }

    // --- lane-consistency of intra-graph uses -------------------------------
    // A rolled value may only be consumed by the same lane of another rolled
    // instruction (recurrences are routed through phis and exempt by
    // construction: the consuming lane reads the *previous* lane through the
    // recurrence node, whose shifted shape was validated when it was built).
    // (target-of-recurrence, consumer-of-recurrence) pairs: a use of the
    // target's lane k by the consumer's lane k+1 flows through the
    // recurrence phi and is legal.
    let mut shift_ok: FxHashSet<(crate::align::NodeId, crate::align::NodeId)> =
        FxHashSet::default();
    for rec in graph.node_ids() {
        let NodeKind::Recurrence { target, .. } = graph.node(rec).kind else {
            continue;
        };
        for user in graph.node_ids() {
            if graph.node(user).children.contains(&rec) {
                shift_ok.insert((target, user));
            }
        }
    }
    for (&inst, &(node, lane)) in &graph.claimed {
        let result = func.inst_result(inst);
        for &(user, _) in uses.of(result) {
            if let Some((user_node, user_lane)) = graph.claim_of(user) {
                if user_lane == lane {
                    continue;
                }
                // Shifted use through a recurrence: allowed when the user
                // consumes a recurrence of this node at the next lane.
                if user_lane == lane + 1 && shift_ok.contains(&(node, user_node)) {
                    continue;
                }
                return None;
            }
        }
    }
    // Reduction internals: all their intermediate values must stay inside
    // the tree (guaranteed single-use at collection) — double-check.
    for node in graph.node_ids() {
        if let NodeKind::Reduction { internal, .. } = &graph.node(node).kind {
            for &i in &internal[1..] {
                let result = func.inst_result(i);
                if uses.count(result) != 1 {
                    return None;
                }
            }
        }
    }

    // --- memory order inside the graph --------------------------------------
    // New execution order: iterations (lanes) outermost, emission order of
    // nodes within an iteration. Keys are sorted by block position.
    let emission = graph.emission_order();
    let mut node_order = vec![0; graph.num_nodes()];
    for (k, &id) in emission.iter().enumerate() {
        node_order[id.index()] = k;
    }
    let mut new_key: Vec<(usize, (usize, usize))> = graph
        .claimed
        .iter()
        .filter_map(|(&inst, &(node, lane))| {
            Some((deps.position(inst)?, (lane, node_order[node.index()])))
        })
        .collect();
    new_key.sort_unstable_by_key(|&(p, _)| p);
    let key_at = |p: usize| {
        new_key
            .binary_search_by_key(&p, |&(q, _)| q)
            .ok()
            .map(|k| new_key[k].1)
    };
    for &(a, ka) in &new_key {
        let Some(row) = deps.conflict_row(a) else {
            continue;
        };
        for b in row.iter().filter(|&b| b > a && in_graph.contains(b)) {
            // a < b originally; the rolled order must agree.
            if key_at(b).is_some_and(|kb| ka >= kb) {
                return None;
            }
        }
    }

    // --- classify external instructions -------------------------------------
    // An external instruction goes *before* the loop when the graph depends
    // on it (a walk up the operand edges from the graph reaches it) or it
    // conflicts with a later graph memory operation, and *after* when it
    // depends on the graph (a walk down the user edges reaches it) or
    // conflicts with an earlier one. Phis stay at the block head; the
    // terminator goes last. The walks pass through every instruction, as
    // transitive dependence does, and only externals are classified.
    let term = n.checked_sub(1)?;
    let edges = Edges {
        deps,
        in_graph: &in_graph,
    };
    let mut before = PosSet::new(n);
    let mut after = PosSet::new(n);
    edges.walk(graph_pos.clone(), &mut before, Walk::Up, false);
    edges.walk(graph_pos.clone(), &mut after, Walk::Down, false);
    for &p in deps.phis() {
        before.insert(p);
    }
    for &g in &graph_pos {
        if let Some(row) = deps.conflict_row(g) {
            for p in row.iter() {
                if p < g {
                    before.insert(p);
                } else {
                    after.insert(p);
                }
            }
        }
    }
    before.subtract(&in_graph);
    after.subtract(&in_graph);
    if !in_graph.contains(term) {
        before.remove(term);
        after.insert(term);
    }
    if before.intersects(&after) {
        return None; // pulled both ways
    }

    // --- propagate constraints among externals -------------------------------
    // For external p < q with q depending on p (SSA) or conflicting memory,
    // placement must keep p before q: everything reachable from an `after`
    // instruction along such edges goes after too (the ascending closure),
    // everything that reaches a `before` instruction goes before too (the
    // descending closure). The placement is impossible exactly when the two
    // closures meet (an after-instruction would have to precede a
    // before-instruction).
    edges.walk(after.iter().collect(), &mut after, Walk::Down, true);
    edges.walk(before.iter().collect(), &mut before, Walk::Up, true);
    before.subtract(&in_graph);
    after.subtract(&in_graph);
    if before.intersects(&after) {
        return None;
    }

    // Independent leftovers go after the loop (Fig. 13).
    let mut placed_before = Vec::new();
    let mut placed_after = Vec::new();
    for (p, &inst) in deps.insts.iter().enumerate() {
        if before.contains(p) {
            placed_before.push(inst);
        } else if !in_graph.contains(p) {
            placed_after.push(inst);
        }
    }
    Some(Schedule {
        before: placed_before,
        after: placed_after,
        graph_insts,
    })
}

/// Which SSA edges [`Edges::walk`] follows.
#[derive(Clone, Copy, PartialEq)]
enum Walk {
    /// From an instruction to the in-block definitions it reads.
    Up,
    /// From an instruction to its in-block users.
    Down,
}

/// The edges the scheduler walks: a block's dependences, and which of its
/// positions belong to the graph.
struct Edges<'a> {
    deps: &'a BlockDeps,
    in_graph: &'a PosSet,
}

impl Edges<'_> {
    /// Marks in `reached` every position reachable from `seeds` along the
    /// SSA edges of `dir`, through any instruction, as transitive
    /// dependence runs. With `conflicts`, an external memory operation also
    /// reaches the external ones it conflicts with on the same side (later
    /// for [`Walk::Down`], earlier for [`Walk::Up`]). Each position is
    /// entered once; the seeds are entered whether or not they are marked.
    fn walk(&self, seeds: Vec<usize>, reached: &mut PosSet, dir: Walk, conflicts: bool) {
        let mut stack = seeds;
        while let Some(p) = stack.pop() {
            let ssa = match dir {
                Walk::Up => self.deps.operands(p),
                Walk::Down => self.deps.users(p),
            };
            for &q in ssa {
                if reached.insert_new(q as usize) {
                    stack.push(q as usize);
                }
            }
            if !conflicts || self.in_graph.contains(p) {
                continue;
            }
            let Some(row) = self.deps.conflict_row(p) else {
                continue;
            };
            for q in row.iter() {
                if (q > p) == (dir == Walk::Down)
                    && !self.in_graph.contains(q)
                    && reached.insert_new(q)
                {
                    stack.push(q);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::GraphBuilder;
    use crate::options::RolagOptions;
    use rolag_ir::parser::parse_module;
    use rolag_ir::{Opcode, ValueId};

    /// Builds a graph from the store seeds of @f's entry block and runs the
    /// scheduling analysis.
    fn analyze_stores(text: &str) -> Option<(Schedule, usize)> {
        let module = parse_module(text).unwrap();
        let fid = module.func_by_name("f").unwrap();
        let mut func = module.func(fid).clone();
        let block = func.entry_block();
        // Mirror the real seed collector: only stores whose pointer
        // resolves to the global @a form the group under test.
        let target = module.global_by_name("a");
        let seeds: Vec<ValueId> = func
            .block(block)
            .insts
            .iter()
            .filter(|&&i| {
                let data = func.inst(i);
                data.opcode == Opcode::Store
                    && match rolag_analysis::alias::resolve_pointer(
                        &module,
                        &func,
                        data.operands[1],
                    )
                    .base
                    {
                        rolag_analysis::alias::BaseObject::Global(g) => Some(g) == target,
                        _ => false,
                    }
            })
            .map(|&i| func.inst_result(i))
            .collect();
        let opts = RolagOptions::default();
        let mut b = GraphBuilder::new(&module, &mut func, block, &opts, seeds.len());
        b.build_seed_root(&seeds)?;
        let graph = b.finish();
        let ginsts = graph.graph_insts().len();
        analyze(&module, &func, block, &graph).map(|s| (s, ginsts))
    }

    #[test]
    fn clean_store_sequence_schedules() {
        let (sched, ginsts) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f(i32 %p0) -> void {
entry:
  %v = mul i32 %p0, i32 3
  %a0 = gep i32, @a, i64 0
  store %v, %a0
  %a1 = gep i32, @a, i64 1
  store %v, %a1
  %a2 = gep i32, @a, i64 2
  store %v, %a2
  ret
}
"#,
        )
        .expect("should schedule");
        // %v feeds the loop -> before; ret -> after; 6 insts rolled.
        assert_eq!(sched.before.len(), 1);
        assert_eq!(sched.after.len(), 1);
        assert_eq!(ginsts, 6);
    }

    #[test]
    fn interleaved_conflicting_store_blocks_rolling() {
        // A store to a *may-alias* location sits between the group's
        // stores: it must stay after store#0 but before store#2 — pulled
        // both ways, so scheduling fails.
        let res = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f(ptr %p0) -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  store i32 9, %p0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        );
        assert!(res.is_none());
    }

    #[test]
    fn disjoint_interleaved_store_moves_after() {
        // Same shape, but the interleaved store goes to a provably distinct
        // global: it can be placed after the loop.
        let (sched, _) = analyze_stores(
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
  ret
}
"#,
        )
        .expect("distinct bases schedule fine");
        // gep @b + store @b + ret after (gep folds with its store user).
        assert_eq!(sched.after.len(), 3);
    }

    #[test]
    fn user_of_rolled_value_goes_after() {
        let (sched, _) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
declare @use(ptr %p0) -> void readwrite
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  %a2 = gep i32, @a, i64 2
  store i32 3, %a2
  call void @use(@a)
  ret
}
"#,
        )
        .expect("trailing call schedules after");
        assert_eq!(sched.after.len(), 2, "call + ret");
        assert!(sched.before.is_empty());
    }

    #[test]
    fn leading_call_stays_before() {
        let (sched, _) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
declare @init(ptr %p0) -> void readwrite
func @f() -> void {
entry:
  call void @init(@a)
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        )
        .expect("leading call schedules before");
        assert_eq!(sched.before.len(), 1);
    }

    #[test]
    fn call_sandwiched_by_conflicts_fails() {
        // The external call conflicts with stores on both sides.
        let res = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
declare @touch() -> void readwrite
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  call void @touch()
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        );
        assert!(res.is_none());
    }
}
