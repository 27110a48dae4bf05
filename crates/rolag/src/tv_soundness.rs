//! Soundness sweep for the translation validator: real rewrites, as code
//! generation leaves them, are planted with one wrong edit each, and the
//! validator must refuse every one with the error kind of the obligation
//! the edit breaks. The false-reject tests pin the other direction; this
//! sweep is what exercises the reject paths on engine-made rewrites.
//!
//! The rewrites are every candidate of every TSVC kernel, unrolled ×8 as
//! in §V-C (reductions among them), plus one fixture whose
//! stores conflict and whose rewrite reads a constant table. Run it with
//! `cargo test --release -p rolag --lib tv_soundness`.

use rolag_ir::parser::parse_module;
use rolag_ir::{Function, GlobalId, GlobalInit, InstId, Module, Opcode, ValueDef};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};
use rolag_tv::{validate_rewrite, RewriteHints, TvError};

use crate::align::build_candidate_graph;
use crate::codegen;
use crate::options::RolagOptions;
use crate::schedule;
use crate::seeds::{collect_candidates, Candidate};
use crate::speculate::rewrite_hints;

/// Two interleaved store runs through parameters that may alias, so every
/// `%p` store conflicts with every `%q` store. The `%p` values follow no
/// affine sequence, so the rewrite reads them from a `rolag.cdata` table.
fn aliasing_stores() -> String {
    let mut text = String::from("module \"t\"\nfunc @f(ptr %p, ptr %q) -> void {\nentry:\n");
    for (k, v) in [3, 1, 4, 1, 5, 9, 2, 6].iter().enumerate() {
        text.push_str(&format!(
            "  %p{k} = gep i32, %p, i64 {k}\n  store i32 {v}, %p{k}\n"
        ));
        text.push_str(&format!(
            "  %q{k} = gep i32, %q, i64 {k}\n  store i32 {}, %q{k}\n",
            3 * k + 1
        ));
    }
    text.push_str("  ret\n}\n");
    text
}

/// One candidate's rewrite, before cleanup, with everything the validator
/// is handed.
#[derive(Clone)]
struct Rewrite {
    what: String,
    /// The module with the rewrite's constant tables added.
    module: Module,
    orig: Function,
    rolled: Function,
    hints: RewriteHints,
    new_globals: Vec<GlobalId>,
    reduction: bool,
    /// Whether the loop body's first two stores may write the same memory.
    stores_conflict: bool,
}

impl Rewrite {
    fn validate(&self) -> Result<(), TvError> {
        validate_rewrite(&self.module, &self.orig, &self.rolled, &self.hints)
    }

    /// The claimed load, store and call originals, in block order, with
    /// their lanes.
    fn claimed_effects(&self) -> Vec<(InstId, usize)> {
        self.orig
            .block(self.hints.block)
            .insts
            .iter()
            .filter_map(|&i| {
                let lane = *self.hints.claimed_lanes.get(&i)?;
                let op = self.orig.inst(i).opcode;
                matches!(op, Opcode::Load | Opcode::Store | Opcode::Call).then_some((i, lane))
            })
            .collect()
    }
}

/// Every rewrite code generation makes of a candidate of `module`, each
/// from the module's own state.
fn rewrites(what: &str, module: &Module, stores_conflict: bool) -> Vec<Rewrite> {
    let opts = RolagOptions::default();
    let mut out = Vec::new();
    for id in module.func_ids() {
        let func = module.func(id);
        for (k, cand) in collect_candidates(module, func, &opts).iter().enumerate() {
            let mut m = module.clone();
            let mut rolled = func.clone();
            let block = cand.block();
            let Some(graph) = build_candidate_graph(&m, &mut rolled, cand, &opts) else {
                continue;
            };
            let Some(sched) = schedule::analyze(&m, &rolled, block, &graph) else {
                continue;
            };
            let orig = rolled.clone();
            let base_globals = m.num_globals();
            let uses = orig.compute_uses();
            let Some(outcome) =
                codegen::generate(&mut m, &mut rolled, block, &graph, &sched, &uses)
            else {
                continue;
            };
            out.push(Rewrite {
                what: format!("{what} @{} candidate {k}", func.name),
                hints: rewrite_hints(&graph, block, &outcome, base_globals, &opts),
                new_globals: outcome.new_globals,
                reduction: matches!(cand, Candidate::Reduction { .. }),
                stores_conflict,
                module: m,
                orig,
                rolled,
            });
        }
    }
    out
}

/// Claims the first effectful original for the lane of a later one of
/// the same opcode, and that one for the first's lane.
fn swap_effect_lanes(rw: &Rewrite) -> Option<Rewrite> {
    let effects = rw.claimed_effects();
    let &(a, lane_a) = effects.first()?;
    let opcode = rw.orig.inst(a).opcode;
    let &(b, lane_b) = effects
        .iter()
        .find(|&&(i, lane)| lane != lane_a && rw.orig.inst(i).opcode == opcode)?;
    let mut m = rw.clone();
    m.hints.claimed_lanes.insert(a, lane_b);
    m.hints.claimed_lanes.insert(b, lane_a);
    Some(m)
}

/// Claims the first effectful original for a lane the loop never runs.
fn claim_past_last_lane(rw: &Rewrite) -> Option<Rewrite> {
    let &(a, _) = rw.claimed_effects().first()?;
    let mut m = rw.clone();
    m.hints.claimed_lanes.insert(a, rw.hints.lanes);
    Some(m)
}

/// Flips the low bit of the first entry of the rewrite's first constant
/// table.
fn corrupt_table(rw: &Rewrite) -> Option<Rewrite> {
    let &first = rw.new_globals.first()?;
    let mut m = rw.clone();
    let mut tail = Vec::new();
    while m.module.num_globals() > first.index() {
        let g = GlobalId::from_index(m.module.num_globals() - 1);
        tail.push(m.module.global(g).clone());
        m.module.pop_global(g);
    }
    let table = tail.last_mut().expect("the table was popped");
    let GlobalInit::Ints { values, .. } = &mut table.init else {
        panic!("{}: rolag.cdata holds integers", rw.what);
    };
    values[0] ^= 1;
    for g in tail.into_iter().rev() {
        m.module.add_global(g);
    }
    Some(m)
}

/// Moves the latch's trip-count constant by `delta`.
fn shift_latch_bound(rw: &Rewrite, delta: i64) -> Rewrite {
    let mut m = rw.clone();
    let f = &mut m.rolled;
    let latch = *f.block(m.hints.loop_block).insts.last().expect("a latch");
    let ValueDef::Inst(cmp) = *f.value(f.inst(latch).operands[0]) else {
        panic!("{}: the latch tests a computed condition", rw.what);
    };
    let ValueDef::ConstInt { ty, value } = *f.value(f.inst(cmp).operands[1]) else {
        panic!("{}: the latch compares against a constant", rw.what);
    };
    let bound = f.const_int(ty, value + delta);
    f.inst_mut(cmp).operands[1] = bound;
    m
}

/// Sinks the loop body's first store below its second, where the two may
/// write the same memory.
fn swap_conflicting_stores(rw: &Rewrite) -> Option<Rewrite> {
    if !rw.stores_conflict {
        return None;
    }
    let mut m = rw.clone();
    let insts = &mut m.rolled.block_mut(m.hints.loop_block).insts;
    let mut stores = (0..insts.len()).filter(|&k| rw.rolled.inst(insts[k]).opcode == Opcode::Store);
    let (first, second) = (stores.next()?, stores.next()?);
    let store = insts.remove(first);
    insts.insert(second, store);
    Some(m)
}

/// A planted edit: its name, the edit (`None` where it does not apply),
/// and the error kinds that name the obligation it breaks.
type Mutation = (
    &'static str,
    fn(&Rewrite) -> Option<Rewrite>,
    &'static [&'static str],
);

#[test]
fn validator_refuses_planted_wrong_rewrites() {
    let mut corpus = Vec::new();
    for spec in &all_kernels() {
        let mut module = build_kernel_module(spec);
        unroll_module(&mut module, 8);
        cse_module(&mut module);
        cleanup_module(&mut module);
        corpus.extend(rewrites(&format!("tsvc.{}", spec.name), &module, false));
    }
    let aliasing = rewrites("aliasing", &parse_module(&aliasing_stores()).unwrap(), true);
    assert!(!aliasing.is_empty(), "the aliasing fixture must roll");
    corpus.extend(aliasing);

    let mutations: [Mutation; 6] = [
        ("swapped lanes", swap_effect_lanes, &["effect-mismatch"]),
        (
            "lane past the last",
            claim_past_last_lane,
            &["effect-mismatch"],
        ),
        (
            "corrupted table",
            corrupt_table,
            &["value-mismatch", "effect-mismatch"],
        ),
        (
            "bound + 1",
            |rw| Some(shift_latch_bound(rw, 1)),
            &["structure"],
        ),
        (
            "bound - 1",
            |rw| Some(shift_latch_bound(rw, -1)),
            &["structure"],
        ),
        ("swapped stores", swap_conflicting_stores, &["memory-order"]),
    ];
    // Refusals per mutation, so that no planted edit passes vacuously.
    let mut refused = [0usize; 6];
    for rw in &corpus {
        if let Err(e) = rw.validate() {
            panic!("{}: the unmutated rewrite must validate: {e}", rw.what);
        }
        for ((name, mutate, kinds), n) in mutations.iter().zip(&mut refused) {
            let Some(mutated) = mutate(rw) else {
                continue;
            };
            match mutated.validate() {
                Err(e) if kinds.contains(&e.kind()) => *n += 1,
                other => panic!(
                    "{}: {name}: expected one of {kinds:?}, got {other:?}",
                    rw.what
                ),
            }
        }
    }
    let reductions = corpus.iter().filter(|rw| rw.reduction).count();
    println!(
        "tv soundness: {} rewrites ({reductions} reductions), refusals per mutation {refused:?}",
        corpus.len()
    );
    assert!(reductions >= 1, "the sweep must include a reduction");
    assert!(
        refused.iter().all(|&n| n >= 1),
        "every mutation must be planted at least once: {refused:?}"
    );
}
