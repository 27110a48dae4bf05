//! Parallel, memoizing module driver.
//!
//! [`roll_module_par`], the crate's one driver entry point, fans the
//! per-function engine out over [`Workers`] ([`rolag_par`]) and merges the
//! results deterministically, so that a parallel run produces a
//! **byte-identical printed module and identical [`RolagStats`]** to the
//! serial [`roll_module`](crate::roll_module) — regardless of worker count
//! or scheduling order.
//!
//! # How determinism is preserved
//!
//! The pass only reads the module for *shared context*: the type store,
//! globals, function signatures, and call effects. It never inspects the
//! body of any function other than the one being rolled. Each worker
//! therefore holds a body-less context of the module
//! ([`Module::without_bodies`]: types, globals, name maps and a signature
//! stub per function), seeds it with one copy of each body it rolls, and
//! captures each roll as a [`StoreEntry`] in the context's id spaces,
//! moving the rolled body out again; a panicking roll is restored from the
//! shared module. The engine moves the body too, rather than cloning it,
//! so a rolled definition is copied three times on its way to the output:
//! the seed copy, the speculator's shadow of the pre-candidate state
//! (taken once a candidate reaches codegen), and the replay copy. The
//! driver then replays an entry onto every definition serially, in
//! function-id order (`StoreEntry::replay`, the one splice path):
//!
//! * **Globals.** Constant arrays minted by codegen get worker-local names.
//!   Replay renames each one through [`Module::fresh_global_name`] against
//!   the *merged* module, which walks functions in the same order as the
//!   serial pass — reproducing the serial names exactly.
//! * **Types.** Replay absorbs each worker's type store once per run via
//!   [`TypeStore::absorb`](rolag_ir::TypeStore::absorb) and remaps bodies.
//!   Interned type *ids* may differ from a serial run, but ids are never
//!   printed — types render structurally — so the output is unaffected.
//! * **Stats.** Per-function statistics are summed in function-id order.
//!   Wall-clock [`StageTimings`](crate::stats::StageTimings) are excluded
//!   from `RolagStats` equality, so outcome comparison is exact.
//!
//! # Memoization
//!
//! Large modules (e.g. AnghaBench translation units) contain many
//! structurally identical functions. The driver keys every definition with
//! its closure key ([`crate::memo`]: canonical text plus everything else
//! the pass reads, the function's own effects included), rolls the first
//! definition of each key, and replays that roll onto the others — the
//! replay mints fresh constant arrays per definition and re-targets
//! self-calls, so even cache hits are byte-identical to the serial output.
//! A replayed definition counts the representative's stats, keeping
//! aggregate counters identical to a serial run.
//!
//! Local value names never block sharing: the printer renumbers temps
//! canonically (`%0`, `%1`, ...), so two functions that differ only in
//! source-level temp names produce identical keys. Beyond that the key is
//! deliberately byte-strict: any structural difference (an opcode, a
//! constant, a referenced global, an effects annotation) separates the
//! definitions. The TSVC kernels therefore never share — they are
//! structurally distinct, not spuriously split by naming.
//!
//! With a [`MemoStore`] attached ([`DriverOptions::store`]), the same keys
//! are looked up in it first:
//! a hit serves its whole group, and every fresh roll is inserted.
//!
//! # Per-module fixed costs
//!
//! A lone definition without a store has nothing to share a key with, so
//! it is not keyed at all. And when only one worker would run (one
//! definition to roll, or one [`Workers::Scoped`] worker), the fan-outs run
//! on the calling thread ([`rolag_par::par_map_with`]); a persistent
//! [`Workers::Pool`] always runs its tasks on its own threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rolag_ir::{FuncId, Module};
use rolag_par::{par_map_with, WorkerPool};
use rolag_transforms::effects_table;

use crate::memo::{key_hash, ClosureKeys, MemoStore, StoreEntry, TypeMaps};
use crate::options::RolagOptions;
use crate::pass::{rescue_panics, roll_function_with};
use crate::stats::RolagStats;

/// Where the driver's workers come from: exactly one source per run.
#[derive(Clone, Copy)]
pub enum Workers<'a> {
    /// A fresh scoped pool per fan-out with this many workers; `0` means
    /// one per available core. A fan-out that would start one worker runs
    /// on the calling thread instead.
    Scoped(usize),
    /// A persistent pool reused across runs (the `rolag-serve` daemon and
    /// the corpus driver keep one for their lifetime). Its tasks always
    /// run on its own threads.
    Pool(&'a WorkerPool),
}

impl Workers<'_> {
    /// Fans `job` out over `items` on these workers.
    fn map_with<T, R, S, I, F>(self, items: &[T], init: I, job: F) -> (Vec<R>, Vec<S>)
    where
        T: Sync,
        R: Send,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        match self {
            Workers::Scoped(jobs) => par_map_with(items, jobs, init, job),
            Workers::Pool(pool) => pool.map_with(items, init, job),
        }
    }
}

/// Configuration of the module driver.
#[derive(Clone, Copy)]
pub struct DriverOptions<'a> {
    /// Where the workers come from.
    pub workers: Workers<'a>,
    /// A cross-request store: each group's closure key is looked up first,
    /// a hit replays a previously rolled body, and every fresh roll is
    /// inserted.
    pub store: Option<&'a MemoStore>,
}

impl DriverOptions<'_> {
    /// `jobs` scoped workers (`0` = one per core) and no store.
    pub fn scoped(jobs: usize) -> Self {
        DriverOptions {
            workers: Workers::Scoped(jobs),
            store: None,
        }
    }
}

impl Default for DriverOptions<'_> {
    /// One scoped worker per available core and no store.
    fn default() -> Self {
        DriverOptions::scoped(0)
    }
}

/// What one [`roll_module_par`] run did, beyond the pass statistics.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Aggregate pass statistics (equal to the serial pass's).
    pub stats: RolagStats,
    /// Function definitions processed.
    pub functions: usize,
    /// Distinct closure keys among the definitions: groups rolled in this
    /// run plus groups served by the store.
    pub unique: usize,
    /// Definitions that took the roll of an earlier definition with the
    /// same key in this module.
    pub cache_hits: u64,
    /// Definitions whose body the pass rewrote — including duplicates
    /// that received a rewritten representative's body and store-replayed
    /// definitions. Functions the pass left verbatim are not counted.
    pub changed: usize,
    /// Definitions replayed from a cross-request [`MemoStore`] (always `0`
    /// without one).
    pub store_hits: u64,
    /// Definitions rolled because the cross-request store missed (always
    /// `0` without one).
    pub store_misses: u64,
    /// Workers the roll fan-out started: `0` when nothing needed rolling
    /// (no definitions, or the store served every group).
    pub jobs: usize,
    /// End-to-end wall-clock of the driver, in nanoseconds.
    pub wall_ns: u64,
}

impl DriverReport {
    /// Fraction of definitions served from the cache, in `0.0..=1.0`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.functions == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.functions as f64
    }

    /// Fraction of definitions replayed from the cross-request store, in
    /// `0.0..=1.0`.
    pub fn store_hit_rate(&self) -> f64 {
        if self.functions == 0 {
            return 0.0;
        }
        self.store_hits as f64 / self.functions as f64
    }
}

/// Rolls every function of the module on a worker pool, memoizing
/// structurally identical definitions, and merges the results so the
/// printed module and the statistics are identical to a serial
/// [`roll_module`](crate::roll_module) run.
///
/// With a store ([`DriverOptions::store`]), a hit replays a previously
/// rolled body into this module — byte-identical to rolling it cold,
/// because replay re-mints constant-array names through the same
/// serial-order [`Module::fresh_global_name`] walk — and only misses are
/// rolled.
pub fn roll_module_par(
    module: &mut Module,
    opts: &RolagOptions,
    driver: &DriverOptions,
) -> DriverReport {
    let start = Instant::now();
    let ids: Vec<FuncId> = module
        .func_ids()
        .filter(|&id| !module.func(id).is_declaration)
        .collect();
    let effects = effects_table(module);
    let shared: &Module = module;
    let (workers, store) = (driver.workers, driver.store);

    // One closure key per definition, with its store hash when a store is
    // attached; a lone definition without a store has nothing to share a
    // key with and is not keyed.
    let mut keys: Vec<String> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    if ids.len() > 1 || store.is_some() {
        let keyer = ClosureKeys::new(opts);
        (keys, hashes) = workers
            .map_with(
                &ids,
                || (),
                |(), _, &id| {
                    let key = keyer.key(shared, id);
                    let hash = if store.is_some() { key_hash(&key) } else { 0 };
                    (key, hash)
                },
            )
            .0
            .into_iter()
            .unzip();
    }
    // Group equal keys: definition `i` belongs to group `group[i]`, whose
    // representative — its lowest function id — is definition `reps[g]`.
    let mut group: Vec<usize> = Vec::with_capacity(ids.len());
    let mut reps: Vec<usize> = Vec::new();
    let mut by_key: HashMap<&str, usize> = HashMap::new();
    for i in 0..ids.len() {
        let g = match keys.get(i) {
            Some(key) => *by_key.entry(key).or_insert(reps.len()),
            None => reps.len(),
        };
        if g == reps.len() {
            reps.push(i);
        }
        group.push(g);
    }

    // Consult the store before rolling anything: a hit serves its group.
    let mut entries: Vec<Option<Arc<StoreEntry>>> = match store {
        Some(s) => reps
            .iter()
            .map(|&i| s.get_hashed(hashes[i], &keys[i]))
            .collect(),
        None => vec![None; reps.len()],
    };
    let from_store: Vec<bool> = entries.iter().map(Option::is_some).collect();
    let to_roll: Vec<usize> = (0..reps.len()).filter(|&g| !from_store[g]).collect();

    // Roll one representative per missed group. Each worker holds a
    // body-less context of the module and seeds it with one copy of the
    // body it rolls; capture moves the rolled body back out, so a worker
    // never holds a body it is not rolling. A panicking roll is restored
    // from the shared module. Dynamic scheduling decides *which* worker
    // rolls *what*, but every result is independent of that choice.
    let worker_tag = AtomicUsize::new(0);
    let (captures, contexts) = workers.map_with(
        &to_roll,
        || {
            (
                worker_tag.fetch_add(1, Ordering::Relaxed),
                shared.without_bodies(),
            )
        },
        |(worker, ctx), _, &g| {
            let fid = ids[reps[g]];
            let pristine = shared.func(fid);
            let first_new = ctx.num_globals();
            ctx.replace_func(fid, pristine.clone());
            let stats = rescue_panics(
                ctx,
                fid,
                || pristine.clone(),
                |m| roll_function_with(m, fid, opts, &effects),
            );
            (*worker, StoreEntry::capture(ctx, fid, first_new, stats))
        },
    );
    // A worker's type store is final after its last roll: every entry the
    // worker captured shares it.
    let jobs = contexts.len();
    let mut worker_types: Vec<_> = contexts
        .into_iter()
        .map(|(worker, ctx)| (worker, Arc::new(ctx.types)))
        .collect();
    worker_types.sort_unstable_by_key(|&(worker, _)| worker);
    for (&g, (worker, finish)) in to_roll.iter().zip(captures) {
        let entry = Arc::new(finish(&worker_types[worker].1));
        if let Some(s) = store {
            let i = reps[g];
            s.insert_hashed(hashes[i], std::mem::take(&mut keys[i]), Arc::clone(&entry));
        }
        entries[g] = Some(entry);
    }

    // Replay serially in function-id order — the order the serial pass
    // walks — so fresh global names come out identical, whether a body was
    // rolled in this run or served by the store.
    let mut report = DriverReport {
        functions: ids.len(),
        unique: reps.len(),
        jobs,
        ..Default::default()
    };
    let mut type_maps = TypeMaps::default();
    for (i, &fid) in ids.iter().enumerate() {
        let g = group[i];
        let entry = entries[g]
            .as_ref()
            .expect("every group was served or rolled");
        if reps[g] != i {
            report.cache_hits += 1;
        }
        if from_store[g] {
            report.store_hits += 1;
        } else if store.is_some() {
            report.store_misses += 1;
        }
        report.stats += entry.stats;
        if entry.replay(module, fid, &mut type_maps) {
            report.changed += 1;
        }
    }
    report.wall_ns = start.elapsed().as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::roll_module;
    use rolag_ir::printer::print_module;
    use rolag_ir::verify::verify_module;

    fn rollable_body(offset: usize) -> String {
        let mut body = String::new();
        for i in 0..8 {
            body.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            body.push_str(&format!("  store i32 {}, %g{i}\n", i * 7 + offset));
        }
        body
    }

    /// `n` copies of the same profitable function plus one distinct one.
    fn duplicated_module(n: usize) -> Module {
        let mut text = String::from("module \"dup\"\nglobal @a : [8 x i32] = zero\n");
        for f in 0..n {
            text.push_str(&format!("func @f{f}() -> void {{\nentry:\n"));
            text.push_str(&rollable_body(0));
            text.push_str("  ret\n}\n");
        }
        text.push_str("func @other() -> void {\nentry:\n");
        text.push_str(&rollable_body(3));
        text.push_str("  ret\n}\n");
        rolag_ir::parser::parse_module(&text).unwrap()
    }

    #[test]
    fn parallel_matches_serial_bytes_and_stats() {
        // Five duplicates plus a distinct function, and a lone definition
        // (never keyed without a store).
        for (dups, unique) in [(5, 2), (0, 1)] {
            let original = duplicated_module(dups);
            let functions = dups + 1;
            let opts = RolagOptions::default();

            let mut serial = original.clone();
            let serial_stats = roll_module(&mut serial, &opts);
            assert!(
                serial_stats.rolled > dups as u64,
                "fixture must actually roll"
            );

            for jobs in [1, 4] {
                let mut par = original.clone();
                let report = roll_module_par(&mut par, &opts, &DriverOptions::scoped(jobs));
                verify_module(&par).expect("merged module verifies");
                assert_eq!(
                    print_module(&serial),
                    print_module(&par),
                    "dups={dups} jobs={jobs} must be byte-identical"
                );
                assert_eq!(report.stats, serial_stats);
                assert_eq!(report.functions, functions);
                assert_eq!(report.changed, functions);
                assert_eq!(report.unique, unique);
                assert_eq!(report.cache_hits, (functions - unique) as u64);
            }
        }
    }

    /// Sixteen stores of irregular constants: rolling them needs a constant
    /// array, so codegen mints a global before the cost model sees them.
    fn irregular_body(last: i64) -> String {
        let mut body = String::new();
        let values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, last];
        for (i, v) in values.iter().enumerate() {
            body.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            body.push_str(&format!("  store i32 {v}, %g{i}\n"));
        }
        body
    }

    /// A roll that panics (injected for `@rolag_test_injected_panic` in
    /// test builds, once codegen has minted a constant array) is rescued
    /// by the driver exactly as by the serial pass: at 1 and 2 workers,
    /// with and without a store, the function comes back as it went in,
    /// `rescued == 1`, no speculative global is left behind, and the bytes
    /// and every counter match the serial run.
    #[test]
    fn panicking_roll_is_rescued_like_serial() {
        use crate::pass::INJECTED_PANIC;
        let mut text = String::from("module \"rescue\"\nglobal @a : [16 x i32] = zero\n");
        // `@twin` differs in one constant, so it shares no key with the
        // panicking function; its roll shows the array a roll mints.
        for (name, last) in [("f0", None), (INJECTED_PANIC, Some(3)), ("twin", Some(4))] {
            text.push_str(&format!("func @{name}() -> void {{\nentry:\n"));
            text.push_str(&match last {
                Some(last) => irregular_body(last),
                None => rollable_body(0),
            });
            text.push_str("  ret\n}\n");
        }
        text.push_str("func @f1() -> void {\nentry:\n");
        text.push_str(&rollable_body(0));
        text.push_str("  ret\n}\n");
        let original = rolag_ir::parser::parse_module(&text).unwrap();
        let panicking = original.func_by_name(INJECTED_PANIC).unwrap();
        let opts = RolagOptions::default();

        let mut serial = original.clone();
        let serial_stats = roll_module(&mut serial, &opts);
        assert_eq!(serial_stats.rescued, 1);
        assert_eq!(serial_stats.rolled, 3, "@f0, @twin and @f1 roll");
        let print_panicking = |m: &Module| rolag_ir::printer::print_function(m, m.func(panicking));
        assert_eq!(print_panicking(&serial), print_panicking(&original));
        assert_eq!(
            serial.num_globals(),
            original.num_globals() + 1,
            "only @twin's constant array is left"
        );
        let expected = print_module(&serial);

        let store = MemoStore::new(64);
        for jobs in [1, 2] {
            for store in [None, Some(&store)] {
                let mut par = original.clone();
                let driver = DriverOptions {
                    workers: Workers::Scoped(jobs),
                    store,
                };
                let report = roll_module_par(&mut par, &opts, &driver);
                let at = format!("jobs={jobs} store={}", store.is_some());
                assert_eq!(print_module(&par), expected, "{at}");
                assert_eq!(report.stats, serial_stats, "{at}");
                assert_eq!(report.stats.rescued, 1, "{at}");
                assert_eq!(
                    (report.functions, report.unique, report.cache_hits),
                    (4, 3, 1),
                    "{at}: @f1 replays @f0"
                );
                assert_eq!(report.changed, 3, "{at}");
                assert_eq!(print_panicking(&par), print_panicking(&original), "{at}");
                assert_eq!(par.num_globals(), serial.num_globals(), "{at}");
            }
        }
    }

    /// Regression for the tsvc24 memo cold-miss investigation: the driver
    /// key is NOT "too strict" about local value names — the printer
    /// renumbers temps canonically, so functions differing only in
    /// source-level temp names unify, and replaying one body onto the
    /// other stays byte-identical to serial. The TSVC kernels fail to
    /// share because they are structurally distinct, and the per-function
    /// fixpoint memo behaviour is pinned by
    /// `single_commit_fixpoints_report_zero_memo_hits` in `pass.rs`.
    #[test]
    fn value_renamed_twins_share_a_cache_slot() {
        let mut text = String::from("module \"twins\"\nglobal @a : [8 x i32] = zero\n");
        for (f, temp) in [(0, "g"), (1, "h")] {
            text.push_str(&format!("func @f{f}() -> void {{\nentry:\n"));
            for i in 0..8 {
                text.push_str(&format!("  %{temp}{i} = gep i32, @a, i64 {i}\n"));
                text.push_str(&format!("  store i32 {}, %{temp}{i}\n", i * 7));
            }
            text.push_str("  ret\n}\n");
        }
        let original = rolag_ir::parser::parse_module(&text).unwrap();
        let opts = RolagOptions::default();
        let key =
            |name| crate::memo::store_key(&original, original.func_by_name(name).unwrap(), &opts);
        assert_eq!(key("f0"), key("f1"), "canonical printing erases temp names");

        let mut serial = original.clone();
        roll_module(&mut serial, &opts);
        let mut par = original.clone();
        let report = roll_module_par(&mut par, &opts, &DriverOptions::default());
        assert_eq!(report.cache_hits, 1, "@f1 replays @f0's roll");
        assert_eq!(report.unique, 1);
        assert_eq!(
            print_module(&serial),
            print_module(&par),
            "replay across renamed twins stays byte-identical"
        );
    }

    /// Cross-request store: a second request with structurally identical
    /// functions must replay entirely from the store and still be
    /// byte-identical (and outcome-stats-identical) to a cold serial roll.
    /// A lone definition is keyed too when a store is attached.
    #[test]
    fn store_replay_is_byte_identical_to_cold_roll() {
        let opts = RolagOptions::default();
        for dups in [3, 0] {
            let functions = dups as u64 + 1;
            let store = crate::memo::MemoStore::new(64);

            let first = duplicated_module(dups);
            let mut warmup = first.clone();
            let with_store = DriverOptions {
                store: Some(&store),
                ..DriverOptions::default()
            };
            let warm_report = roll_module_par(&mut warmup, &opts, &with_store);
            assert_eq!(warm_report.store_hits, 0);
            assert_eq!(
                warm_report.store_misses, functions,
                "every definition missed"
            );
            assert!(!store.is_empty());

            // Same functions arriving from a "different client": new module
            // name, same bodies.
            let mut second_text =
                print_module(&duplicated_module(dups)).replace("\"dup\"", "\"client2\"");
            second_text.push('\n');
            let second = rolag_ir::parser::parse_module(&second_text).unwrap();

            let mut cold = second.clone();
            let cold_stats = roll_module(&mut cold, &opts);

            let mut warm = second.clone();
            let report = roll_module_par(&mut warm, &opts, &with_store);
            verify_module(&warm).expect("replayed module verifies");
            assert_eq!(
                report.store_hits, functions,
                "all definitions replay: {report:?}"
            );
            assert_eq!(report.store_misses, 0);
            assert_eq!(report.stats, cold_stats, "replayed stats diverged");
            assert_eq!(
                print_module(&cold),
                print_module(&warm),
                "store replay must be byte-identical to a cold roll"
            );
            assert!(store.stats().hit_rate() > 0.0);
        }
    }

    /// A request the store serves entirely starts no roll workers; `unique`
    /// still counts the groups the store served.
    #[test]
    fn all_hit_run_starts_no_workers() {
        let opts = RolagOptions::default();
        let pool = WorkerPool::new(2);
        for workers in [Workers::Scoped(2), Workers::Pool(&pool)] {
            let store = MemoStore::new(64);
            let driver = DriverOptions {
                workers,
                store: Some(&store),
            };
            let mut cold = duplicated_module(3);
            let report = roll_module_par(&mut cold, &opts, &driver);
            assert_eq!((report.jobs, report.unique), (2, 2), "two groups rolled");
            let mut warm = duplicated_module(3);
            let report = roll_module_par(&mut warm, &opts, &driver);
            assert_eq!(report.store_hits, 4);
            assert_eq!((report.jobs, report.unique), (0, 2), "nothing rolled");
            assert_eq!(print_module(&cold), print_module(&warm));
        }
        let mut empty = Module::new("empty");
        assert_eq!(
            roll_module_par(&mut empty, &opts, &DriverOptions::default()).jobs,
            0
        );
    }

    /// The persistent pool path produces the same bytes and stats as the
    /// scoped-pool path.
    #[test]
    fn persistent_pool_matches_scoped_pool() {
        let original = duplicated_module(4);
        let opts = RolagOptions::default();
        let mut scoped = original.clone();
        let scoped_report = roll_module_par(&mut scoped, &opts, &DriverOptions::default());

        let pool = WorkerPool::new(3);
        let mut pooled = original.clone();
        let report = roll_module_par(
            &mut pooled,
            &opts,
            &DriverOptions {
                workers: Workers::Pool(&pool),
                store: None,
            },
        );
        assert_eq!(print_module(&scoped), print_module(&pooled));
        assert_eq!(report.stats, scoped_report.stats);
        assert_eq!(report.jobs, 2, "3 pool workers clamped to 2 unique groups");
    }

    /// Self-recursive twins whose only difference is their own effects
    /// annotation, which the printer does not show: `@x` is `readnone`,
    /// so its unused self-call is dead; `@y` is `readwrite`, so its
    /// self-call must survive. Sharing one roll between them would drop
    /// `@y`'s call.
    #[test]
    fn effects_twins_do_not_share_a_roll() {
        let mut text = String::from("module \"twins\"\nglobal @a : [8 x i32] = zero\n");
        for name in ["x", "y"] {
            text.push_str(&format!("func @{name}(i32 %p0) -> i32 {{\nentry:\n"));
            text.push_str(&format!("  %r = call i32 @{name}(%p0)\n"));
            text.push_str(&rollable_body(0));
            text.push_str("  ret %p0\n}\n");
        }
        let mut original = rolag_ir::parser::parse_module(&text).unwrap();
        let x = original.func_by_name("x").unwrap();
        original.func_mut(x).effects = rolag_ir::Effects::ReadNone;
        let y = original.func_by_name("y").unwrap();
        original.func_mut(y).effects = rolag_ir::Effects::ReadWrite;

        let opts = RolagOptions::default();
        let mut serial = original.clone();
        let serial_stats = roll_module(&mut serial, &opts);
        let expected = print_module(&serial);
        assert!(
            expected.contains("call i32 @y(%p0)"),
            "@y keeps its self-call:\n{expected}"
        );
        let store = MemoStore::new(64);
        for store in [None, Some(&store)] {
            let mut par = original.clone();
            let driver = DriverOptions {
                store,
                ..DriverOptions::default()
            };
            let report = roll_module_par(&mut par, &opts, &driver);
            assert_eq!(print_module(&par), expected, "store={}", store.is_some());
            assert_eq!(report.stats, serial_stats);
            assert_eq!(report.cache_hits, 0, "the twins have different keys");
        }
    }

    #[test]
    fn recursive_duplicates_keep_their_own_identity() {
        let text = r#"
module "rec"
func @a(i32 %p0) -> i32 {
entry:
  %c = icmp sle %p0, i32 0
  condbr %c, done, more
more:
  %n = sub i32 %p0, i32 1
  %r = call i32 @a(%n)
  %s = add i32 %r, %p0
  ret %s
done:
  ret i32 0
}
func @b(i32 %p0) -> i32 {
entry:
  %c = icmp sle %p0, i32 0
  condbr %c, done, more
more:
  %n = sub i32 %p0, i32 1
  %r = call i32 @b(%n)
  %s = add i32 %r, %p0
  ret %s
done:
  ret i32 0
}
"#;
        let original = rolag_ir::parser::parse_module(text).unwrap();
        let opts = RolagOptions::default();
        let mut serial = original.clone();
        roll_module(&mut serial, &opts);
        let mut par = original.clone();
        let report = roll_module_par(&mut par, &opts, &DriverOptions::default());
        assert_eq!(report.cache_hits, 1, "@b is a cache hit of @a");
        assert_eq!(print_module(&serial), print_module(&par));
        // @b must still call itself, not @a.
        let b = par.func(par.func_by_name("b").unwrap());
        let self_calls = b
            .live_insts()
            .filter(|&i| {
                matches!(
                    b.inst(i).extra,
                    rolag_ir::InstExtra::Call { callee } if callee == par.func_by_name("b").unwrap()
                )
            })
            .count();
        assert_eq!(self_calls, 1);
    }
}
