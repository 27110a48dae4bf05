//! Equivalence of the scheduling analysis, which walks direct dependence
//! edges from the graph, with the quadratic formulation it replaced. (The
//! `bitset_` test names date from the closed-row version in between.)
//!
//! `oracle` below is the quadratic formulation, kept here as the reference:
//! it scans every external instruction against every graph position, looks
//! memory conflicts up in a pair set built from the pairwise
//! `rolag_analysis::conflicts` test, materializes every dependent
//! (external, external) pair, and iterates those pairs to a fixpoint. The
//! test drives the greedy fixpoint by hand, so it sees every candidate
//! graph that reaches scheduling in every sweep, and asserts that the
//! oracle, `schedule::analyze`, and a sweep-long `ScheduleCache` return the
//! same `Option<Schedule>` (same `before`/`after` order, same graph set).
//! The hand-driven fixpoint, which clones the function for every candidate
//! instead of speculating on a journal, must also print the same module as
//! `roll_module`, which proves it visited the engine's states.

use std::collections::{HashMap, HashSet};

use rolag::align::NodeKind;
use rolag::schedule::{Schedule, ScheduleCache};
use rolag::{build_candidate_graph, collect_candidates, roll_module, AlignGraph};
use rolag::{codegen, RolagOptions};
use rolag_analysis::depgraph::{conflicts, mem_access, PosSet};
use rolag_ir::printer::print_module;
use rolag_ir::{BlockId, Function, GlobalId, InstId, Module, Opcode, ValueDef, ValueId};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::planted::big_block;
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{
    cleanup_in_place, cleanup_module, cse_module, effects_table, unroll_module,
};

/// The pre-bitset `BlockDeps`: SSA rows closed by cloning earlier rows, and
/// the conflicting memory pairs from the pairwise test.
struct OracleDeps {
    insts: Vec<InstId>,
    pos: HashMap<InstId, usize>,
    deps: Vec<PosSet>,
    mem_conflicts: Vec<(usize, usize)>,
}

impl OracleDeps {
    fn compute(module: &Module, func: &Function, block: BlockId) -> Self {
        let insts: Vec<InstId> = func.block(block).insts.clone();
        let n = insts.len();
        let mut pos = HashMap::with_capacity(n);
        let mut def_pos: HashMap<ValueId, usize> = HashMap::with_capacity(n);
        for (i, &inst) in insts.iter().enumerate() {
            pos.insert(inst, i);
            def_pos.insert(func.inst_result(inst), i);
        }
        let mut deps: Vec<PosSet> = Vec::with_capacity(n);
        for (i, &inst) in insts.iter().enumerate() {
            let mut set = PosSet::new(n);
            for &op in &func.inst(inst).operands {
                if let ValueDef::Inst(_) = func.value(op) {
                    if let Some(&p) = def_pos.get(&op) {
                        if p < i {
                            set.insert(p);
                            let prior = deps[p].clone();
                            set.union_with(&prior);
                        }
                    }
                }
            }
            deps.push(set);
        }
        let mem_positions: Vec<usize> = (0..n)
            .filter(|&i| mem_access(module, func, insts[i]).is_some())
            .collect();
        let mut mem_conflicts = Vec::new();
        for (k, &i) in mem_positions.iter().enumerate() {
            for &j in &mem_positions[k + 1..] {
                if conflicts(module, func, insts[i], insts[j]) {
                    mem_conflicts.push((i, j));
                }
            }
        }
        OracleDeps {
            insts,
            pos,
            deps,
            mem_conflicts,
        }
    }

    fn depends_on(&self, later: usize, earlier: usize) -> bool {
        self.deps[later].contains(earlier)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Unknown,
    Before,
    After,
}

/// The quadratic scheduling analysis.
fn oracle(
    module: &Module,
    func: &Function,
    block: BlockId,
    graph: &AlignGraph,
) -> Option<Schedule> {
    let graph_insts = graph.graph_insts();
    if graph_insts.is_empty() {
        return None;
    }
    let deps = OracleDeps::compute(module, func, block);
    let n = deps.insts.len();
    let conflict_set: HashSet<(usize, usize)> = deps.mem_conflicts.iter().copied().collect();
    let pos_of = |inst: InstId| deps.pos.get(&inst).copied();

    let mut in_graph = vec![false; n];
    for &g in &graph_insts {
        in_graph[pos_of(g)?] = true;
    }

    for node in graph.node_ids() {
        let data = graph.node(node);
        let feeds: Vec<ValueId> = match &data.kind {
            NodeKind::Mismatch => data.lanes.clone(),
            NodeKind::Identical => vec![data.lanes[0]],
            NodeKind::Recurrence { init, .. } => vec![*init],
            NodeKind::Reduction { carry: Some(v), .. } => vec![*v],
            _ => continue,
        };
        for v in feeds {
            if let Some(inst) = func.value(v).as_inst() {
                if graph_insts.contains(&inst) {
                    return None;
                }
            }
        }
    }

    let mut shift_ok = HashSet::new();
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
    // Claimed lanes, reached through the graph set they are part of.
    let claimed: Vec<(InstId, (rolag::NodeId, usize))> = graph_insts
        .iter()
        .filter_map(|&i| graph.claim_of(i).map(|claim| (i, claim)))
        .collect();
    let uses = func.compute_uses();
    for &(inst, (node, lane)) in &claimed {
        for &(user, _) in uses.of(func.inst_result(inst)) {
            if let Some((user_node, user_lane)) = graph.claim_of(user) {
                if user_lane == lane
                    || (user_lane == lane + 1 && shift_ok.contains(&(node, user_node)))
                {
                    continue;
                }
                return None;
            }
        }
    }
    for node in graph.node_ids() {
        if let NodeKind::Reduction { internal, .. } = &graph.node(node).kind {
            for &i in &internal[1..] {
                if uses.count(func.inst_result(i)) != 1 {
                    return None;
                }
            }
        }
    }

    let node_order: HashMap<_, _> = graph
        .emission_order()
        .iter()
        .enumerate()
        .map(|(k, &id)| (id, k))
        .collect();
    let mut new_key: HashMap<usize, (usize, usize)> = HashMap::new();
    for &(inst, (node, lane)) in &claimed {
        if let Some(p) = pos_of(inst) {
            new_key.insert(p, (lane, node_order[&node]));
        }
    }
    for &(a, b) in &deps.mem_conflicts {
        if let (Some(ka), Some(kb)) = (new_key.get(&a), new_key.get(&b)) {
            if ka >= kb {
                return None;
            }
        }
    }

    let mut side = vec![Side::Unknown; n];
    let term = *func.block(block).insts.last()?;
    for p in 0..n {
        if in_graph[p] {
            continue;
        }
        let inst = deps.insts[p];
        if inst == term {
            side[p] = Side::After;
            continue;
        }
        let mut before = func.inst(inst).opcode == Opcode::Phi;
        let mut after = false;
        for g in (0..n).filter(|&g| in_graph[g]) {
            if g > p && deps.depends_on(g, p) {
                before = true;
            }
            if p > g && deps.depends_on(p, g) {
                after = true;
            }
            if conflict_set.contains(&(p.min(g), p.max(g))) {
                if p < g {
                    before = true;
                } else {
                    after = true;
                }
            }
        }
        side[p] = match (before, after) {
            (true, true) => return None,
            (true, false) => Side::Before,
            (false, true) => Side::After,
            (false, false) => Side::Unknown,
        };
    }

    let mut ext_pairs = Vec::new();
    for q in (0..n).filter(|&q| !in_graph[q]) {
        for p in (0..q).filter(|&p| !in_graph[p]) {
            if deps.depends_on(q, p) || conflict_set.contains(&(p, q)) {
                ext_pairs.push((p, q));
            }
        }
    }
    loop {
        let mut changed = false;
        for &(p, q) in &ext_pairs {
            match (side[p], side[q]) {
                (Side::After, Side::Before) => return None,
                (Side::After, Side::Unknown) => {
                    side[q] = Side::After;
                    changed = true;
                }
                (Side::Unknown, Side::Before) => {
                    side[p] = Side::Before;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    let mut before = Vec::new();
    let mut after = Vec::new();
    for p in (0..n).filter(|&p| !in_graph[p]) {
        match side[p] {
            Side::Before => before.push(deps.insts[p]),
            _ => after.push(deps.insts[p]),
        }
    }
    Some(Schedule {
        before,
        after,
        graph_insts,
    })
}

fn assert_same(label: &str, got: &Option<Schedule>, want: &Option<Schedule>) {
    match (got, want) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_eq!(g.before, w.before, "{label}: `before` differs");
            assert_eq!(g.after, w.after, "{label}: `after` differs");
            assert_eq!(g.graph_insts, w.graph_insts, "{label}: graph set differs");
        }
        _ => panic!(
            "{label}: verdicts differ (got {}, oracle {})",
            got.is_some(),
            want.is_some()
        ),
    }
}

/// What a sweep of inputs exercised.
#[derive(Debug, Default)]
struct Tally {
    graphs: usize,
    scheduled: usize,
    rolled: usize,
}

/// Rolls `module` with a hand-driven copy of the greedy fixpoint under the
/// default options, checking every scheduling verdict on the way, and
/// asserts the result prints exactly as `roll_module`'s.
fn check_module(module: &Module, label: &str, tally: &mut Tally) {
    let opts = RolagOptions::default();
    let mut reference = module.clone();
    roll_module(&mut reference, &opts);

    let mut m = module.clone();
    let effects = effects_table(&m);
    let ids: Vec<_> = m.func_ids().collect();
    for id in ids {
        if m.func(id).is_declaration {
            continue;
        }
        let mut work = m.func(id).clone();
        let mut cache = ScheduleCache::default();
        loop {
            let old_size = opts.target.function_estimate(&m, &work) as u64;
            let mut committed = false;
            for cand in collect_candidates(&m, &work, &opts) {
                if cand.lanes() < opts.min_lanes {
                    continue;
                }
                let Some(graph) = build_candidate_graph(&m, &mut work, &cand, &opts) else {
                    continue;
                };
                let block = cand.block();
                let want = oracle(&m, &work, block, &graph);
                let what = format!("{label} {} {cand:?}", work.name);
                assert_same(
                    &what,
                    &rolag::schedule::analyze(&m, &work, block, &graph),
                    &want,
                );
                assert_same(&what, &cache.analyze(&m, &work, block, &graph), &want);
                tally.graphs += 1;
                let Some(sched) = want else {
                    continue;
                };
                tally.scheduled += 1;
                let before_globals = m.num_globals();
                let mut attempt = work.clone();
                let (uses, _) = cache.indexes(&work);
                let Some(outcome) =
                    codegen::generate(&mut m, &mut attempt, block, &graph, &sched, uses)
                else {
                    pop_globals(&mut m, before_globals);
                    continue;
                };
                if opts.cleanup {
                    cleanup_in_place(&mut attempt, &mut m.types, &effects);
                }
                let rodata: u64 = outcome.new_globals.iter().map(|&g| m.global_size(g)).sum();
                let new_size = opts.target.function_estimate(&m, &attempt) as u64 + rodata;
                if new_size < old_size {
                    work = attempt;
                    committed = true;
                    tally.rolled += 1;
                    break;
                }
                pop_globals(&mut m, before_globals);
            }
            if !committed {
                break;
            }
        }
        m.replace_func(id, work);
    }
    assert_eq!(
        print_module(&m),
        print_module(&reference),
        "{label}: the hand-driven fixpoint left the engine's path"
    );
}

fn pop_globals(m: &mut Module, keep: usize) {
    while m.num_globals() > keep {
        m.pop_global(GlobalId::from_index(m.num_globals() - 1));
    }
}

#[test]
fn bitset_schedule_matches_quadratic_oracle_on_unrolled_tsvc() {
    let mut tally = Tally::default();
    for spec in all_kernels() {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        check_module(&m, spec.name, &mut tally);
    }
    assert!(
        tally.rolled > 50 && tally.scheduled > tally.rolled && tally.graphs > tally.scheduled,
        "{tally:?}"
    );
}

#[test]
fn bitset_schedule_matches_quadratic_oracle_on_angha() {
    let config = AnghaConfig {
        functions: 128,
        ..AnghaConfig::default()
    };
    let mut tally = Tally::default();
    for (name, _, m) in stream(&config) {
        check_module(&m, &name, &mut tally);
    }
    assert!(
        tally.rolled > 0 && tally.graphs > tally.scheduled,
        "{tally:?}"
    );
}

#[test]
fn bitset_schedule_matches_quadratic_oracle_on_generated_modules() {
    let mut tally = Tally::default();
    for index in 0..256 {
        let mut m = rolag_difftest::gen::generate_module(0, index);
        check_module(&m, &format!("gen {index}"), &mut tally);
        unroll_module(&mut m, 4);
        cleanup_module(&mut m);
        check_module(&m, &format!("gen {index} unrolled"), &mut tally);
    }
    assert!(tally.rolled > 0, "{tally:?}");
}

/// The planted big-block shape: 64 independent groups of 8 stores, so
/// almost every external of a candidate sits outside its span.
#[test]
fn schedule_matches_quadratic_oracle_on_planted_big_block() {
    let mut tally = Tally::default();
    check_module(&big_block(64), "planted", &mut tally);
    assert_eq!(tally.graphs, 64, "{tally:?}");
    assert_eq!(tally.scheduled, 64, "{tally:?}");
}
