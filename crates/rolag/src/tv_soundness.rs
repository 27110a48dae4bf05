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
//!
//! The validator reads the candidate block's dependences from the
//! scheduler, the engine reuses one validator scratch per function, and
//! the engine's original is the speculation window's pre-window view. The
//! parity test here checks, on these rewrites and their planted edits (all
//! validated in one scratch) and on every validation the engine makes
//! under `beam:4` and `validated` on TSVC and on 128 AnghaBench-like
//! functions, that those dependences and that scratch give the verdict a
//! fresh `BlockDeps::compute` and a fresh scratch give; on the engine's
//! validations, against a clone of the function taken as the window
//! opened, which the view must read exactly. A pin test digests the
//! sweep's verdicts, `beam:4`'s on TSVC and `validated`'s on the
//! AnghaBench-like functions, in order.

use rolag_analysis::depgraph::BlockDeps;
use rolag_ir::parser::parse_module;
use rolag_ir::{Function, GlobalData, GlobalInit, InstId, Module, Opcode, ValueDef};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};
use rolag_tv::{validate_rewrite, RewriteHints, TvError, TvScratch};

use crate::align::build_candidate_graph;
use crate::codegen;
use crate::options::{RolagOptions, SearchConfig};
use crate::pass::roll_module;
use crate::schedule::ScheduleCache;
use crate::seeds::{collect_candidates, Candidate};
use crate::speculate::{rewrite_hints, tv_parity};

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
    module: Module,
    /// The constant tables the rewrite created, from id
    /// `hints.first_new_global` on.
    tables: Vec<GlobalData>,
    orig: Function,
    rolled: Function,
    hints: RewriteHints,
    /// The candidate block's dependences in `orig`, as the scheduler
    /// computed them.
    deps: BlockDeps,
    reduction: bool,
    /// Whether the loop body's first two stores may write the same memory.
    stores_conflict: bool,
}

impl Rewrite {
    fn validate(&self) -> Result<(), TvError> {
        self.validate_in(&mut TvScratch::default())
    }

    /// [`Rewrite::validate`] in `scratch`, which earlier validations may
    /// have used.
    fn validate_in(&self, scratch: &mut TvScratch) -> Result<(), TvError> {
        validate_rewrite(
            &self.module,
            &self.tables,
            self.orig.pre_window(),
            &self.rolled,
            &self.hints,
            &self.deps,
            scratch,
        )
    }

    /// [`Rewrite::validate`] with the block's dependences computed afresh.
    fn validate_fresh(&self) -> Result<(), TvError> {
        let deps = BlockDeps::compute(&self.module, &self.orig, self.hints.block);
        let scratch = &mut TvScratch::default();
        validate_rewrite(
            &self.module,
            &self.tables,
            self.orig.pre_window(),
            &self.rolled,
            &self.hints,
            &deps,
            scratch,
        )
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
            let mut cache = ScheduleCache::default();
            let Some(sched) = cache.analyze(&m, &rolled, block, &graph) else {
                continue;
            };
            let orig = rolled.clone();
            let deps = cache
                .block_deps(orig.revision(), block)
                .expect("the scheduler computed them")
                .clone();
            let first_new_global = m.num_globals();
            let (uses, positions) = cache.indexes(&orig);
            let Some(outcome) = codegen::generate(
                &mut m.types,
                first_new_global,
                &mut rolled,
                block,
                &graph,
                &sched,
                uses,
                positions,
            ) else {
                continue;
            };
            out.push(Rewrite {
                what: format!("{what} @{} candidate {k}", func.name),
                hints: rewrite_hints(&graph, block, &outcome, first_new_global, &opts),
                deps,
                tables: outcome.tables,
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
    rw.tables.first()?;
    let mut m = rw.clone();
    let GlobalInit::Ints { values, .. } = &mut m.tables[0].init else {
        panic!("{}: rolag.cdata holds integers", rw.what);
    };
    values[0] ^= 1;
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

/// The TSVC kernels, unrolled x8, CSE'd and cleaned up, as the `tsvc` and
/// `tsvc-beam4` benchmark workloads feed them.
fn unrolled_tsvc() -> impl Iterator<Item = (&'static str, Module)> {
    all_kernels().into_iter().map(|spec| {
        let mut module = build_kernel_module(&spec);
        unroll_module(&mut module, 8);
        cse_module(&mut module);
        cleanup_module(&mut module);
        (spec.name, module)
    })
}

/// Every rewrite of the TSVC kernels and of the aliasing fixture.
fn corpus() -> Vec<Rewrite> {
    let mut corpus = Vec::new();
    for (name, module) in unrolled_tsvc() {
        corpus.extend(rewrites(&format!("tsvc.{name}"), &module, false));
    }
    let aliasing = rewrites("aliasing", &parse_module(&aliasing_stores()).unwrap(), true);
    assert!(!aliasing.is_empty(), "the aliasing fixture must roll");
    corpus.extend(aliasing);
    corpus
}

fn mutations() -> [Mutation; 6] {
    [
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
    ]
}

#[test]
fn validator_refuses_planted_wrong_rewrites() {
    let corpus = corpus();
    let mutations = mutations();
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

fn beam4() -> RolagOptions {
    RolagOptions {
        search: SearchConfig::Beam {
            width: 4,
            depth: SearchConfig::DEFAULT_DEPTH,
        },
        ..RolagOptions::default()
    }
}

/// 128 AnghaBench-like functions, one module each.
fn angha128() -> impl Iterator<Item = Module> {
    let config = AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    };
    stream(&config).map(|(_, _, module)| module)
}

/// Every validation the engine makes rolling `modules` under `opts`, as
/// the [`tv_parity`] probe records it. The engine rescues a function whose
/// roll panics, so a probe assertion that fails counts a rescue.
fn engine_verdicts(
    modules: impl Iterator<Item = Module>,
    opts: &RolagOptions,
) -> Vec<tv_parity::Verdicts> {
    tv_parity::capture(|| {
        for mut module in modules {
            let stats = roll_module(&mut module, opts);
            assert_eq!(stats.rescued, 0, "a roll panicked");
        }
    })
}

/// The engine validations the pin digests: `beam:4` on the TSVC kernels
/// and the `validated` preset on 128 AnghaBench-like functions.
fn pinned_engine_verdicts() -> [(&'static str, Vec<tv_parity::Verdicts>); 2] {
    let tsvc = unrolled_tsvc().map(|(_, module)| module);
    [
        ("tsvc beam:4", engine_verdicts(tsvc, &beam4())),
        (
            "angha128 validated",
            engine_verdicts(angha128(), &RolagOptions::validated()),
        ),
    ]
}

/// The scheduler's dependences, in a reused scratch, give every validation
/// the verdict that dependences computed afresh give in a fresh scratch:
/// on the sweep's rewrites and each of their planted edits, and on every
/// speculation the engine validates under `beam:4` and under the
/// `validated` preset on the TSVC kernels and on 128 AnghaBench-like
/// functions. The engine's validations read the window's pre-window view;
/// the probe checks that view against a clone taken as the window opened
/// and repeats the validation against the clone, so windows after commits
/// and after beam installs are covered on both corpora.
#[test]
fn tv_soundness_shared_dependences_match_a_fresh_compute() {
    let mut checked = 0usize;
    let mut scratch = TvScratch::default();
    for rw in &corpus() {
        assert_eq!(
            rw.validate_in(&mut scratch),
            rw.validate_fresh(),
            "{}",
            rw.what
        );
        for (name, mutate, _) in mutations() {
            if let Some(mutated) = mutate(rw) {
                let what = format!("{}: {name}", rw.what);
                assert_eq!(
                    mutated.validate_in(&mut scratch),
                    mutated.validate_fresh(),
                    "{what}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "{checked} planted edits");

    let tsvc = unrolled_tsvc().map(|(_, module)| module);
    let unpinned = [
        (
            "tsvc validated",
            engine_verdicts(tsvc, &RolagOptions::validated()),
        ),
        ("angha128 beam:4", engine_verdicts(angha128(), &beam4())),
    ];
    // Fewer validations than each source makes, so none checks vacuously:
    // the greedy fixpoint validates 84 rewrites on TSVC.
    let floors = [600, 200, 80, 200];
    let sources = pinned_engine_verdicts().into_iter().chain(unpinned);
    for ((what, verdicts), floor) in sources.zip(floors) {
        let rejected = verdicts
            .iter()
            .filter(|(shared, _)| shared.is_err())
            .count();
        println!(
            "tv parity: {what}: {} validations, {rejected} rejected",
            verdicts.len()
        );
        assert!(
            verdicts.len() > floor,
            "{what}: {} validations",
            verdicts.len()
        );
        for (k, (shared, fresh)) in verdicts.iter().enumerate() {
            assert_eq!(shared, fresh, "{what}: validation {k}");
        }
    }
}

/// The pinned verdicts of one source of validations: how many it made and
/// refused, and an FNV-1a-64 digest of every verdict in order (`ok`, or
/// the error's kind and message).
#[derive(Debug, PartialEq)]
struct VerdictPin {
    source: &'static str,
    validations: usize,
    rejected: usize,
    digest: u64,
}

impl VerdictPin {
    fn new(source: &'static str) -> Self {
        VerdictPin {
            source,
            validations: 0,
            rejected: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn add(&mut self, verdict: &Result<(), TvError>) {
        let mut fnv1a = |bytes: &[u8]| {
            for &b in bytes {
                self.digest ^= u64::from(b);
                self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match verdict {
            Ok(()) => fnv1a(b"ok"),
            Err(e) => {
                fnv1a(e.kind().as_bytes());
                fnv1a(b":");
                fnv1a(e.to_string().as_bytes());
            }
        }
        fnv1a(b"\n");
        self.validations += 1;
        self.rejected += usize::from(verdict.is_err());
    }
}

/// Every verdict, in order, is what it was: on the sweep's rewrites and
/// each of their planted edits (so a refusal keeps naming the obligation
/// that failed, not only its kind), and on every validation the engine
/// makes under `beam:4` on the TSVC kernels and under `validated` on 128
/// AnghaBench-like functions.
#[test]
fn tv_soundness_verdicts_are_pinned() {
    let mut sweep = VerdictPin::new("sweep and planted edits");
    for rw in &corpus() {
        sweep.add(&rw.validate());
        for (_, mutate, _) in mutations() {
            if let Some(mutated) = mutate(rw) {
                sweep.add(&mutated.validate());
            }
        }
    }
    let mut actual = vec![sweep];
    for (source, verdicts) in pinned_engine_verdicts() {
        let mut pin = VerdictPin::new(source);
        for (shared, _) in &verdicts {
            pin.add(shared);
        }
        actual.push(pin);
    }
    println!("const PINNED_VERDICTS: &[VerdictPin] = &{actual:#?};");
    assert_eq!(actual.as_slice(), PINNED_VERDICTS, "a verdict moved");
}

const PINNED_VERDICTS: &[VerdictPin] = &[
    VerdictPin {
        source: "sweep and planted edits",
        validations: 632,
        rejected: 506,
        digest: 4811399588506786276,
    },
    VerdictPin {
        source: "tsvc beam:4",
        validations: 692,
        rejected: 2,
        digest: 5104399059391739785,
    },
    VerdictPin {
        source: "angha128 validated",
        validations: 213,
        rejected: 0,
        digest: 9250817974048232535,
    },
];
