//! Loop code generation (§IV-E, Fig. 14).
//!
//! Splits the target block into preheader / loop / exit, emits one copy of
//! every alignment-graph node inside the loop, materializes mismatching
//! nodes as arrays (global constant arrays in `.rodata`, or stack arrays
//! filled in the preheader), lowers recurrences and reductions to phis, and
//! routes externally used values through exit-side arrays (or directly, when
//! only the final iteration's value escapes).

use rolag_ir::{
    BlockId, Builder, Function, GlobalData, GlobalId, GlobalInit, InstData, InstExtra, InstId,
    IntPredicate, Module, Opcode, TypeId, UseMap, ValueDef, ValueId,
};

use crate::align::{AlignGraph, NodeId, NodeKind};
use crate::schedule::Schedule;

/// What code generation produced.
#[derive(Debug, Clone)]
pub struct RollOutcome {
    /// The preheader (the original block, truncated).
    pub preheader: BlockId,
    /// The new single-block loop.
    pub loop_block: BlockId,
    /// The exit block holding the block's original tail.
    pub exit_block: BlockId,
    /// Constant-data globals created for mismatching nodes. The caller pops
    /// them from the module if it discards this attempt.
    pub new_globals: Vec<GlobalId>,
}

#[derive(Clone, Copy)]
enum MismatchLowering {
    /// Global constant array in `.rodata`.
    Const(GlobalId),
    /// Stack array filled in the preheader.
    Stack(ValueId),
}

/// Generates the rolled loop. Returns `None` (leaving `func` in an
/// unspecified state — the caller rolls its snapshot window back) when the
/// graph contains shapes the generator cannot lower, e.g. mismatching lanes
/// of differing types.
///
/// `uses` is the use map of `func` as it was scheduled, such as the one
/// [`ScheduleCache::indexes`](crate::schedule::ScheduleCache::indexes)
/// lends: the generator finds the surviving users of rolled values in it
/// and rewrites them there, so its work follows the block and the rolled
/// values' uses rather than the whole function.
pub fn generate(
    module: &mut Module,
    func: &mut Function,
    block: BlockId,
    graph: &AlignGraph,
    schedule: &Schedule,
    uses: &UseMap,
) -> Option<RollOutcome> {
    let lanes = graph.lanes as i64;

    // ---- pre-checks and constant-array planning ----------------------------
    // Every mismatching node needs a uniform element type; all-constant
    // integer mismatches become global constant arrays.
    let mut const_plans: Vec<(NodeId, TypeId, Vec<i64>)> = Vec::new();
    for node in graph.node_ids() {
        if !matches!(graph.node(node).kind, NodeKind::Mismatch) {
            continue;
        }
        let lanes_v = &graph.node(node).lanes;
        let ty = func.value_ty(lanes_v[0], &module.types);
        if lanes_v
            .iter()
            .any(|&v| func.value_ty(v, &module.types) != ty)
        {
            return None;
        }
        if module.types.size_of(ty) == 0 {
            return None;
        }
        let consts: Option<Vec<i64>> = lanes_v
            .iter()
            .map(|&v| match func.value(v) {
                ValueDef::ConstInt { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        if let Some(values) = consts {
            if module.types.is_int(ty) {
                const_plans.push((node, ty, values));
            }
        }
    }
    let mut new_globals = Vec::new();
    // Per-node maps are indexed by node id: a graph has few nodes, and
    // every map below has an entry for a good share of them.
    let num_nodes = graph.num_nodes();
    let mut lowering: Vec<Option<MismatchLowering>> = vec![None; num_nodes];
    for (node, ty, values) in const_plans {
        let name = module.fresh_global_name("rolag.cdata");
        let arr_ty = module.types.array(ty, values.len() as u64);
        let gid = module.add_global(GlobalData {
            name,
            ty: arr_ty,
            init: GlobalInit::Ints {
                elem_ty: ty,
                values,
            },
            is_const: true,
        });
        new_globals.push(gid);
        lowering[node.index()] = Some(MismatchLowering::Const(gid));
    }

    // ---- external uses of rolled values ------------------------------------
    // Uses of a claimed lane value by instructions that survive (preheader,
    // exit, or other blocks).
    // node -> lanes with external users (deterministically ordered).
    let mut ext_map: Vec<Option<Vec<usize>>> = vec![None; num_nodes];
    for (&inst, &(node, lane)) in &graph.claimed {
        let result = func.inst_result(inst);
        let has_ext = uses
            .of(result)
            .iter()
            .any(|&(user, _)| !schedule.graph_insts.contains(&user));
        if has_ext {
            ext_map[node.index()].get_or_insert_default().push(lane);
        }
    }
    // Reduction roots always escape through their final accumulator.
    for node in graph.node_ids() {
        if let NodeKind::Reduction { .. } = graph.node(node).kind {
            ext_map[node.index()].get_or_insert_default();
        }
    }
    let mut ext_lanes: Vec<(NodeId, Vec<usize>)> = graph
        .node_ids()
        .zip(ext_map)
        .filter_map(|(n, lanes)| Some((n, lanes?)))
        .collect();
    for (_, lanes_used) in ext_lanes.iter_mut() {
        lanes_used.sort_unstable();
    }

    // ---- tear the block apart ----------------------------------------------
    func.detach_block(block);
    let suffix = func.num_blocks();
    let loop_block = func.add_block(format!("rolag.loop.{suffix}"));
    let exit_block = func.add_block(format!("rolag.exit.{suffix}"));
    for &i in &schedule.before {
        func.append_inst(block, i);
    }

    let types_i64 = module.types.i64();
    let types_i1 = module.types.i1();
    let _ = types_i1;

    // ---- preheader: mismatch stack arrays & external-use arrays ------------
    let mut b = Builder::on(func, &mut module.types);
    b.switch_to(block);
    for node in graph.node_ids() {
        if lowering[node.index()].is_some() || !matches!(graph.node(node).kind, NodeKind::Mismatch)
        {
            continue;
        }
        let values = graph.node(node).lanes.clone();
        let ty = b.func.value_ty(values[0], b.types);
        let count = b.iconst(types_i64, lanes);
        let arr = b.alloca(ty, Some(count));
        for (k, &v) in values.iter().enumerate() {
            let idx = b.iconst(types_i64, k as i64);
            let slot = b.gep(ty, arr, &[idx]);
            b.store(v, slot);
        }
        lowering[node.index()] = Some(MismatchLowering::Stack(arr));
    }
    // Out-arrays for nodes where a non-final lane escapes.
    let mut out_arrays: Vec<Option<(ValueId, TypeId)>> = vec![None; num_nodes];
    for (node, lanes_used) in &ext_lanes {
        let needs_array = lanes_used.iter().any(|&k| k + 1 < graph.lanes);
        if !needs_array {
            continue;
        }
        let node_ty = b.func.value_ty(graph.node(*node).lanes[0], b.types);
        let count = b.iconst(types_i64, lanes);
        let arr = b.alloca(node_ty, Some(count));
        out_arrays[node.index()] = Some((arr, node_ty));
    }
    b.br(loop_block);

    // ---- loop: induction variable and phis ----------------------------------
    b.switch_to(loop_block);
    let zero = b.iconst(types_i64, 0);
    let iv = b.phi(types_i64, &[(zero, block), (zero, loop_block)]);

    // Pre-create recurrence and reduction phis (phis must head the block).
    let mut node_phi: Vec<Option<ValueId>> = vec![None; num_nodes];
    for node in graph.node_ids() {
        match &graph.node(node).kind {
            NodeKind::Recurrence { init, .. } => {
                let init = *init;
                let ty = b.func.value_ty(init, b.types);
                let phi = b.phi(ty, &[(init, block), (init, loop_block)]);
                node_phi[node.index()] = Some(phi);
            }
            NodeKind::Reduction {
                opcode, ty, carry, ..
            } => {
                let (opcode, ty, carry) = (*opcode, *ty, *carry);
                let init = match carry {
                    Some(v) => v,
                    None => neutral_value(&mut b, opcode, ty)?,
                };
                let phi = b.phi(ty, &[(init, block), (init, loop_block)]);
                node_phi[node.index()] = Some(phi);
            }
            _ => {}
        }
    }

    // ---- loop body -----------------------------------------------------------
    let mut emitted: Vec<Option<ValueId>> = vec![None; num_nodes];
    let mut phi_patches: Vec<(ValueId, ValueId)> = Vec::new(); // (phi, loop value)
    for node in graph.emission_order() {
        let value = emit_node(
            &mut b,
            graph,
            node,
            iv,
            &lowering,
            &node_phi,
            &emitted,
            &mut phi_patches,
        )?;
        emitted[node.index()] = Some(value);
    }
    // Patch recurrence phis with their target's in-loop value; reductions
    // were patched during emission.
    for node in graph.node_ids() {
        if let NodeKind::Recurrence { target, .. } = graph.node(node).kind {
            let phi = node_phi[node.index()]?;
            let target_value = emitted[target.index()]?;
            phi_patches.push((phi, target_value));
        }
    }

    // Out-array stores (ordered by node id for determinism).
    for (node, out) in graph.node_ids().zip(&out_arrays) {
        let Some((arr, ty)) = *out else {
            continue;
        };
        let value = emitted[node.index()]?;
        let slot = b.gep(ty, arr, &[iv]);
        b.store(value, slot);
    }

    // Latch.
    let one = b.iconst(types_i64, 1);
    let ivn = b.add(iv, one);
    let count = b.iconst(types_i64, lanes);
    let cmp = b.icmp(IntPredicate::Ult, ivn, count);
    b.cond_br(cmp, loop_block, exit_block);

    // Patch the iv phi and the other loop phis.
    patch_phi(b.func, iv, loop_block, ivn);
    for (phi, v) in phi_patches {
        patch_phi(b.func, phi, loop_block, v);
    }

    // ---- exit: extract escaped values, then the original tail ----------------
    b.switch_to(exit_block);
    let mut replacements: Vec<(ValueId, ValueId)> = Vec::new();
    for (node, lanes_used) in &ext_lanes {
        let node = *node;
        let node_data = graph.node(node);
        // Reduction: the escaped value is the accumulator's final value.
        if let NodeKind::Reduction { internal, .. } = &node_data.kind {
            let root_value = b.func.inst_result(internal[0]);
            replacements.push((root_value, emitted[node.index()]?));
            continue;
        }
        for &k in lanes_used {
            let old = lane_value(graph, node, k)?;
            let new = if k + 1 == graph.lanes {
                emitted[node.index()]? // final-iteration value flows out directly
            } else {
                let (arr, ty) = out_arrays[node.index()]?;
                let idx = b.iconst(types_i64, k as i64);
                let slot = b.gep(ty, arr, &[idx]);
                b.load(ty, slot)
            };
            replacements.push((old, new));
        }
    }
    for &i in &schedule.after {
        b.func.append_inst(exit_block, i);
    }
    // New instructions never read a rolled value, so the map lists every
    // use to rewrite; the rolled instructions themselves stay detached.
    for (old, new) in replacements {
        b.func.replace_uses(uses.of(old), old, new);
    }

    // Successors' phis must see the exit block as their predecessor now.
    let term = func.terminator(exit_block)?;
    for succ in func.inst(term).successors() {
        let phis: Vec<InstId> = func.block(succ).insts.clone();
        for i in phis {
            if func.inst(i).opcode != Opcode::Phi {
                continue;
            }
            if let InstExtra::Phi { incoming } = &mut func.inst_mut(i).extra {
                for inb in incoming.iter_mut() {
                    if *inb == block {
                        *inb = exit_block;
                    }
                }
            }
        }
    }

    Some(RollOutcome {
        preheader: block,
        loop_block,
        exit_block,
        new_globals,
    })
}

/// The value a node's lane `k` had in the original code.
fn lane_value(graph: &AlignGraph, node: NodeId, k: usize) -> Option<ValueId> {
    graph.node(node).lanes.get(k).copied()
}

fn neutral_value(b: &mut Builder<'_>, opcode: Opcode, ty: TypeId) -> Option<ValueId> {
    use rolag_ir::NeutralElement::*;
    Some(match opcode.neutral_element()? {
        Zero => b.iconst(ty, 0),
        One => b.iconst(ty, 1),
        AllOnes => b.iconst(ty, -1),
        FZero => b.fconst(ty, 0.0),
        FOne => b.fconst(ty, 1.0),
    })
}

fn patch_phi(func: &mut Function, phi_value: ValueId, from_block: BlockId, new_value: ValueId) {
    let inst = func
        .value(phi_value)
        .as_inst()
        .expect("phi value is an instruction");
    let data = func.inst_mut(inst);
    let InstExtra::Phi { incoming } = &data.extra else {
        panic!("not a phi");
    };
    let arm = incoming
        .iter()
        .position(|&b| b == from_block)
        .expect("phi has loop arm");
    data.operands[arm] = new_value;
}

#[allow(clippy::too_many_arguments)]
fn emit_node(
    b: &mut Builder<'_>,
    graph: &AlignGraph,
    node: NodeId,
    iv: ValueId,
    lowering: &[Option<MismatchLowering>],
    node_phi: &[Option<ValueId>],
    emitted: &[Option<ValueId>],
    phi_patches: &mut Vec<(ValueId, ValueId)>,
) -> Option<ValueId> {
    let data = graph.node(node);
    match &data.kind {
        NodeKind::Identical => Some(data.lanes[0]),
        NodeKind::Sequence { start, step, ty } => {
            let (start, step, ty) = (*start, *step, *ty);
            let iv_t = cast_iv(b, iv, ty)?;
            let val = match (start, step) {
                (0, 1) => iv_t,
                (0, s) => {
                    let c = b.iconst(ty, s);
                    b.mul(iv_t, c)
                }
                (st, 1) => {
                    let c = b.iconst(ty, st);
                    b.add(iv_t, c)
                }
                (st, s) => {
                    let c = b.iconst(ty, s);
                    let m = b.mul(iv_t, c);
                    let c2 = b.iconst(ty, st);
                    b.add(m, c2)
                }
            };
            Some(val)
        }
        NodeKind::Mismatch => {
            let ty = b.func.value_ty(data.lanes[0], b.types);
            match lowering[node.index()]? {
                MismatchLowering::Const(gid) => {
                    let base = b.global(gid);
                    let slot = b.gep(ty, base, &[iv]);
                    Some(b.load(ty, slot))
                }
                MismatchLowering::Stack(arr) => {
                    let slot = b.gep(ty, arr, &[iv]);
                    Some(b.load(ty, slot))
                }
            }
        }
        NodeKind::Match { opcode } => {
            let opcode = *opcode;
            let lane0 = b.func.value(data.lanes[0]).as_inst()?;
            let proto = b.func.inst(lane0).clone();
            let operands: Vec<ValueId> = data
                .children
                .iter()
                .map(|c| emitted[c.index()])
                .collect::<Option<Vec<_>>>()?;
            let (_, v) = b.emit_raw(InstData {
                opcode,
                ty: proto.ty,
                operands,
                block: b.current(),
                extra: proto.extra,
            });
            Some(v)
        }
        NodeKind::GepNeutral { elem_ty } => {
            let elem_ty = *elem_ty;
            let base = emitted[data.children[0].index()]?;
            let idx = emitted[data.children[1].index()]?;
            Some(b.gep(elem_ty, base, &[idx]))
        }
        NodeKind::BinOpNeutral { opcode, .. } => {
            let opcode = *opcode;
            let lhs = emitted[data.children[0].index()]?;
            let rhs = emitted[data.children[1].index()]?;
            Some(b.binop(opcode, lhs, rhs))
        }
        NodeKind::Recurrence { .. } => node_phi[node.index()],
        NodeKind::Reduction { opcode, .. } => {
            let opcode = *opcode;
            let acc = node_phi[node.index()]?;
            let leaf = emitted[data.children[0].index()]?;
            let new = b.binop(opcode, acc, leaf);
            phi_patches.push((acc, new));
            Some(new)
        }
    }
}

/// Brings the `i64` induction variable into the sequence's integer type.
fn cast_iv(b: &mut Builder<'_>, iv: ValueId, ty: TypeId) -> Option<ValueId> {
    let width = b.types.int_width(ty)?;
    match width.cmp(&64) {
        std::cmp::Ordering::Equal => Some(iv),
        std::cmp::Ordering::Less => Some(b.trunc(iv, ty)),
        std::cmp::Ordering::Greater => Some(b.sext(iv, ty)),
    }
}
