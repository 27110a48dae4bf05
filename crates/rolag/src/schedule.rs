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
//! Every check works on the bitset rows of [`BlockDeps`], so a candidate
//! costs O(n · n/64) word operations for an `n`-instruction block (see
//! DESIGN.md, *Scheduling analysis*).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use rolag_analysis::depgraph::{BlockDeps, PosSet};
use rolag_ir::{BlockId, Function, InstId, Module, Opcode, UseMap};

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
    pub graph_insts: HashSet<InstId>,
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
    analyze_with(func, block, graph, graph_insts, &deps, &func.compute_uses())
}

/// The inputs of [`analyze`] that depend only on the function state, kept
/// across the candidates of one fixpoint sweep: per-block [`BlockDeps`] and
/// the function's [`UseMap`], keyed by `(block, Function::revision())`.
///
/// The key is sound because the states a sweep passes between candidates
/// all carry the same revision *and* the same block contents: a rejected
/// candidate rolls its speculation window back, which restores the
/// pre-window revision together with the arenas, and interning constants
/// during graph construction never bumps the revision — it appends values
/// no instruction uses, which changes no dependence row and no use list.
/// A commit takes a fresh revision, so the next lookup drops every entry.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    revision: Option<u64>,
    uses: Option<UseMap>,
    deps: HashMap<BlockId, BlockDeps>,
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
            Entry::Vacant(miss) => miss.insert(BlockDeps::compute(module, func, block)),
        };
        let uses = self.uses.get_or_insert_with(|| func.compute_uses());
        analyze_with(func, block, graph, graph_insts, deps, uses)
    }

    /// The use map of `func` at its current revision, computed on first
    /// request and shared with [`ScheduleCache::analyze`]: the incremental
    /// engine lends it to seed collection, so a sweep builds one map for
    /// every block it scans and every candidate it schedules.
    ///
    /// Read it only for values that existed at that revision. Constants
    /// interned by graph builds since then are not in it, because interning
    /// does not bump the revision; seed collection never asks about them.
    pub fn uses(&mut self, func: &Function) -> &UseMap {
        self.sync(func);
        self.uses.get_or_insert_with(|| func.compute_uses())
    }

    /// Drops every entry computed at another revision of `func`.
    fn sync(&mut self, func: &Function) {
        if self.revision != Some(func.revision()) {
            self.revision = Some(func.revision());
            self.uses = None;
            self.deps.clear();
        }
    }
}

/// The analysis proper, over precomputed dependences and uses.
fn analyze_with(
    func: &Function,
    block: BlockId,
    graph: &AlignGraph,
    graph_insts: HashSet<InstId>,
    deps: &BlockDeps,
    uses: &UseMap,
) -> Option<Schedule> {
    let n = deps.len();

    // Sanity: every graph instruction is in this block.
    let mut in_graph = PosSet::new(n);
    for &g in &graph_insts {
        in_graph.insert(deps.position(g)?);
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
    let mut shift_ok: HashSet<(crate::align::NodeId, crate::align::NodeId)> = HashSet::new();
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
    // nodes within an iteration.
    let emission = graph.emission_order();
    let node_order: HashMap<_, _> = emission
        .iter()
        .enumerate()
        .map(|(k, &id)| (id, k))
        .collect();
    let mut new_key: Vec<Option<(usize, usize)>> = vec![None; n];
    for (&inst, &(node, lane)) in &graph.claimed {
        if let Some(p) = deps.position(inst) {
            new_key[p] = Some((lane, node_order[&node]));
        }
    }
    for a in in_graph.iter() {
        let (Some(row), Some(ka)) = (deps.conflict_row(a), new_key[a]) else {
            continue;
        };
        for b in row.iter().filter(|&b| b > a) {
            // a < b originally; the rolled order must agree.
            if new_key[b].is_some_and(|kb| ka >= kb) {
                return None;
            }
        }
    }

    // --- classify external instructions -------------------------------------
    // An external instruction goes *before* the loop when the graph depends
    // on it (it is in the union of the graph's dependence rows) or it
    // conflicts with a later graph memory operation, and *after* when it
    // depends on the graph (its own row meets the graph) or conflicts with an
    // earlier one. Phis stay at the block head; the terminator goes last.
    let term = *func.block(block).insts.last()?;
    let mut graph_needs = PosSet::new(n);
    for g in in_graph.iter() {
        graph_needs.union_with(deps.dep_set(g));
    }
    let mut before = PosSet::new(n);
    let mut after = PosSet::new(n);
    let mut external = Vec::with_capacity(n);
    for p in 0..n {
        if in_graph.contains(p) {
            continue;
        }
        external.push(p);
        let inst = deps.insts[p];
        if inst == term {
            after.insert(p);
            continue;
        }
        let conflicts = deps.conflict_row(p);
        let pulled_before = func.inst(inst).opcode == Opcode::Phi
            || graph_needs.contains(p)
            || conflicts.is_some_and(|row| row.last_common(&in_graph).is_some_and(|g| g > p));
        let pulled_after = deps.dep_set(p).intersects(&in_graph)
            || conflicts.is_some_and(|row| row.first_common(&in_graph).is_some_and(|g| g < p));
        match (pulled_before, pulled_after) {
            (true, true) => return None, // pulled both ways
            (true, false) => before.insert(p),
            (false, true) => after.insert(p),
            (false, false) => {}
        }
    }

    // --- propagate constraints among externals -------------------------------
    // For external p < q with q depending on p (SSA) or conflicting memory,
    // placement must keep p before q: everything reachable from an `after`
    // instruction along such edges goes after too, everything that reaches a
    // `before` instruction goes before too. Edges only run forward in the
    // block, so one ascending sweep closes `after` and one descending sweep
    // closes `before`; the placement is impossible exactly when the two
    // closures meet (an after-instruction would have to precede a
    // before-instruction).
    // Conflict rows are symmetric, so only their part below `q` counts.
    for &q in &external {
        if !after.contains(q)
            && (deps.dep_set(q).intersects(&after)
                || deps
                    .conflict_row(q)
                    .is_some_and(|row| row.first_common(&after).is_some_and(|p| p < q)))
        {
            after.insert(q);
        }
    }
    let mut needed_by_before = PosSet::new(n);
    for &p in external.iter().rev() {
        if before.contains(p) || needed_by_before.contains(p) {
            if after.contains(p) {
                return None;
            }
            before.insert(p);
            needed_by_before.union_with(deps.dep_set(p));
            if let Some(row) = deps.conflict_row(p) {
                needed_by_before.union_with(row);
            }
        }
    }

    // Independent leftovers go after the loop (Fig. 13).
    let (before, after): (Vec<usize>, Vec<usize>) =
        external.into_iter().partition(|&p| before.contains(p));
    Some(Schedule {
        before: before.into_iter().map(|p| deps.insts[p]).collect(),
        after: after.into_iter().map(|p| deps.insts[p]).collect(),
        graph_insts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::GraphBuilder;
    use crate::options::RolagOptions;
    use rolag_ir::parser::parse_module;
    use rolag_ir::ValueId;

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
