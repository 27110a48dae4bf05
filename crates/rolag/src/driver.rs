//! Parallel, memoizing module driver.
//!
//! [`roll_module_par`] fans [`roll_function_rescued`] out over a scoped worker
//! pool ([`rolag_par`]) and merges the results deterministically, so that a
//! parallel run produces a **byte-identical printed module and identical
//! [`RolagStats`]** to the serial [`roll_module`](crate::roll_module) —
//! regardless of worker count or scheduling order.
//!
//! # How determinism is preserved
//!
//! The pass only reads the module for *shared context*: the type store,
//! globals, function signatures, and call effects. It never inspects the
//! body of any function other than the one being rolled. Each worker
//! therefore rolls its assigned functions inside a private module clone,
//! and the driver merges the pieces back serially in function-id order:
//!
//! * **Globals.** Constant arrays minted by codegen get worker-local names.
//!   At merge time each one is renamed through
//!   [`Module::fresh_global_name`] against the *merged* module, which walks
//!   functions in the same order as the serial pass — reproducing the
//!   serial names exactly. Rolled bodies are rewritten with
//!   [`Function::remap_globals`].
//! * **Types.** Worker stores are absorbed via [`TypeStore::absorb`] and
//!   bodies rewritten with [`Function::remap_types`]. Interned type *ids*
//!   may differ from a serial run, but ids are never printed — types
//!   render structurally — so the output is unaffected.
//! * **Stats.** Per-function statistics are summed in function-id order.
//!   Wall-clock [`StageTimings`](crate::stats::StageTimings) are excluded
//!   from `RolagStats` equality, so outcome comparison is exact.
//!
//! # Memoization
//!
//! Large modules (e.g. AnghaBench translation units) contain many
//! structurally identical functions. With [`DriverOptions::memoize`] the
//! driver groups definitions by a canonical key — the printed function with
//! its own symbol name normalized out — rolls one representative per
//! group, and replays the result onto every duplicate: fresh constant
//! arrays are minted per duplicate (matching what the serial pass would
//! have created) and self-references are remapped, so even cache hits are
//! byte-identical to the serial output.
//!
//! Replayed stats include the representative's
//! [`FixpointCacheStats`](crate::stats::FixpointCacheStats) — duplicates
//! report the same fixpoint cache counters their representative's actual
//! run produced, keeping aggregate counters identical to a serial run.
//!
//! Local value names never block sharing: the printer renumbers temps
//! canonically (`%0`, `%1`, ...), so two functions that differ only in
//! source-level temp names produce identical keys — and replaying one's
//! body onto the other is still byte-identical, for the same reason.
//! Beyond that the key is deliberately byte-strict: any structural
//! difference (an opcode, a constant, a referenced global) separates the
//! slots, because replay splices the representative's rolled body verbatim
//! and anything looser would diverge from what a serial run produces. The
//! TSVC kernels therefore never share — they are structurally distinct,
//! not spuriously split by naming.
//!
//! # Per-module fixed costs
//!
//! A module with fewer than two definitions has nothing to share a memo
//! slot with, so without a store its definition is not printed as a
//! canonical key at all; the grouping it would get is the trivial one.
//! With a [`MemoStore`] attached every representative is still keyed,
//! because the store's closure key starts from the canonical text — the
//! corpus and serve paths key exactly as before. And when only one worker
//! would run (one definition to roll, or `jobs == 1`), the scoped fan-outs
//! run on the calling thread ([`rolag_par::par_map_with`]); a persistent
//! [`WorkerPool`] always runs its tasks on its own threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rolag_ir::printer::print_function;
use rolag_ir::{FuncId, Function, GlobalData, GlobalId, Module};
use rolag_par::{effective_jobs, par_map_with, WorkerPool};
use rolag_transforms::effects_table;

use crate::memo::{store_key, store_key_from, MemoStore, StoreEntry};
use crate::options::RolagOptions;
use crate::pass::roll_function_rescued;
use crate::stats::RolagStats;

/// Configuration of the parallel driver.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Worker count; `0` means one per available core.
    pub jobs: usize,
    /// Roll one representative per structurally identical group of
    /// functions and replay the result onto the duplicates.
    pub memoize: bool,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            jobs: 0,
            memoize: true,
        }
    }
}

/// What one [`roll_module_par`] run did, beyond the pass statistics.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Aggregate pass statistics (equal to the serial pass's).
    pub stats: RolagStats,
    /// Function definitions processed.
    pub functions: usize,
    /// Structurally distinct definitions actually rolled.
    pub unique: usize,
    /// Definitions served from the memoization cache.
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
    /// Worker count actually used.
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

/// Canonical cache key of a definition: its printed form with the
/// function's own `@name` tokens normalized, so structurally identical
/// functions under different symbols compare equal (including
/// self-recursive ones).
///
/// If a *global* shares the function's name, `@name` tokens in the body are
/// ambiguous and normalization is skipped — the function simply won't
/// share a cache slot, which is always safe.
pub(crate) fn canonical_key(module: &Module, id: FuncId) -> String {
    let func = module.func(id);
    let printed = print_function(module, func);
    if module.global_by_name(&func.name).is_some() {
        return printed;
    }
    normalize_own_name(&printed, &func.name)
}

fn is_symbol_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '$')
}

/// Replaces exact `@name` tokens with a placeholder that no parsed symbol
/// can collide with. Token-boundary checked, so `@f` inside `@f2` is left
/// alone.
fn normalize_own_name(printed: &str, name: &str) -> String {
    let needle = format!("@{name}");
    let mut out = String::with_capacity(printed.len());
    let mut rest = printed;
    while let Some(pos) = rest.find(&needle) {
        let tail = &rest[pos + needle.len()..];
        let at_boundary = tail.chars().next().is_none_or(|c| !is_symbol_char(c));
        out.push_str(&rest[..pos]);
        out.push_str(if at_boundary { "@\u{1}self" } else { &needle });
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// `prefix` such that `fresh_global_name(prefix)` can reproduce `name`:
/// the name with a trailing `.<digits>` counter stripped.
pub(crate) fn name_prefix(name: &str) -> &str {
    match name.rfind('.') {
        Some(pos)
            if pos > 0
                && !name[pos + 1..].is_empty()
                && name[pos + 1..].chars().all(|c| c.is_ascii_digit()) =>
        {
            &name[..pos]
        }
        _ => name,
    }
}

/// Outcome of rolling one representative inside a worker's module clone.
struct RepRoll {
    /// Rolled body, in the worker's id spaces — `None` when the pass
    /// committed nothing, so the function (and any structural duplicate of
    /// it) is byte-identical to the input and needs no merge work.
    func: Option<Function>,
    stats: RolagStats,
    /// Constant-array globals the roll committed, in creation order.
    new_globals: Vec<GlobalData>,
    /// Worker-module index of the first entry of `new_globals`.
    first_new_global: usize,
    /// Which worker produced this (indexes the returned states).
    worker: usize,
}

struct WorkerState {
    module: Module,
    id: usize,
}

/// Fans `job` out over `items`: on the persistent `pool` when one is given
/// (the `rolag-serve` daemon reuses its threads across requests), else on a
/// fresh scoped pool of `jobs` workers.
fn fan_out<T, R, S, I, F>(
    pool: Option<&WorkerPool>,
    items: &[T],
    jobs: usize,
    init: I,
    job: F,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    match pool {
        Some(p) => p.map_with(items, init, job),
        None => par_map_with(items, jobs, init, job),
    }
}

/// Rolls every function of the module on a worker pool, memoizing
/// structurally identical definitions, and merges the results so the
/// printed module and the statistics are identical to a serial
/// [`roll_module`](crate::roll_module) run.
pub fn roll_module_par(
    module: &mut Module,
    opts: &RolagOptions,
    driver: &DriverOptions,
) -> DriverReport {
    roll_module_par_with(module, opts, driver, None, None)
}

/// [`roll_module_par`] with service hooks: an optional persistent
/// [`WorkerPool`] (reused across calls instead of spawning a scoped pool
/// per module) and an optional cross-request [`MemoStore`].
///
/// With a store, each group representative's closure key
/// ([`store_key`]) is consulted first: hits replay a previously rolled body
/// into this module — byte-identical to rolling it cold, because replay
/// re-mints constant-array names through the same serial-order
/// [`Module::fresh_global_name`] walk — and only misses are rolled. Freshly
/// rolled representatives are captured back into the store after the merge.
pub fn roll_module_par_with(
    module: &mut Module,
    opts: &RolagOptions,
    driver: &DriverOptions,
    pool: Option<&WorkerPool>,
    store: Option<&MemoStore>,
) -> DriverReport {
    let start = Instant::now();
    let ids: Vec<FuncId> = module
        .func_ids()
        .filter(|&id| !module.func(id).is_declaration)
        .collect();
    let base_globals = module.num_globals();
    let base_types = module.types.num_types();
    let effects = effects_table(module);

    // Group definitions by canonical key (everything is its own group when
    // memoization is off). Representatives keep the lowest function id so
    // the merge below walks them in serial order. The printed keys are kept
    // alive past grouping: the store-key pass below reuses each
    // representative's canonical text instead of printing it a second time.
    // A lone definition has nothing to share a memo slot with, so it is
    // only keyed when a store needs its canonical text for the closure key.
    let shared: &Module = module;
    let keyed = driver.memoize && (ids.len() > 1 || store.is_some());
    let mut groups: Vec<(FuncId, Vec<FuncId>)> = Vec::new();
    let mut canon_keys: Vec<String> = Vec::new();
    let mut rep_canon: Vec<usize> = Vec::new();
    if keyed {
        canon_keys = fan_out(
            pool,
            &ids,
            driver.jobs,
            || (),
            |(), _, &id| canonical_key(shared, id),
        )
        .0;
        let mut by_key: HashMap<&str, usize> = HashMap::new();
        for (i, &id) in ids.iter().enumerate() {
            match by_key.entry(canon_keys[i].as_str()) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    groups[*slot.get()].1.push(id);
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(groups.len());
                    rep_canon.push(i);
                    groups.push((id, Vec::new()));
                }
            }
        }
    } else {
        groups = ids.iter().map(|&id| (id, Vec::new())).collect();
    }
    let group_of: HashMap<FuncId, usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(gi, (rep, dups))| {
            std::iter::once((*rep, gi)).chain(dups.iter().map(move |&d| (d, gi)))
        })
        .collect();
    let reps: Vec<FuncId> = groups.iter().map(|&(rep, _)| rep).collect();

    // Cross-request store: closure-key every representative and consult the
    // store before rolling anything. A hit retires the whole group. With
    // memoization on, the grouping pass already printed each representative
    // canonically — only the context sections remain to be rendered.
    let store_keys: Vec<String> = match store {
        Some(_) if keyed => {
            let canon: Vec<&str> = rep_canon.iter().map(|&i| canon_keys[i].as_str()).collect();
            fan_out(
                pool,
                &canon,
                driver.jobs,
                || (),
                |(), gi, &text| store_key_from(text, shared, reps[gi], opts),
            )
            .0
        }
        Some(_) => {
            fan_out(
                pool,
                &reps,
                driver.jobs,
                || (),
                |(), _, &fid| store_key(shared, fid, opts),
            )
            .0
        }
        None => Vec::new(),
    };
    let store_entries: Vec<Option<Arc<StoreEntry>>> = match store {
        Some(s) => store_keys.iter().map(|k| s.get(k)).collect(),
        None => vec![None; reps.len()],
    };
    let to_roll: Vec<FuncId> = reps
        .iter()
        .enumerate()
        .filter(|&(gi, _)| store_entries[gi].is_none())
        .map(|(_, &fid)| fid)
        .collect();
    let mut roll_of: Vec<Option<usize>> = vec![None; reps.len()];
    {
        let mut next = 0;
        for (gi, entry) in store_entries.iter().enumerate() {
            if entry.is_none() {
                roll_of[gi] = Some(next);
                next += 1;
            }
        }
    }

    // Roll one representative per store-missed group, each worker inside
    // its own module clone. Dynamic scheduling decides *which* worker rolls
    // *what*, but every result is independent of that choice.
    let jobs = match pool {
        Some(p) => p.worker_count().clamp(1, reps.len().max(1)),
        None => effective_jobs(driver.jobs, reps.len()),
    };
    let worker_tag = AtomicUsize::new(0);
    let (rolls, states) = fan_out(
        pool,
        &to_roll,
        driver.jobs,
        || WorkerState {
            module: shared.clone(),
            id: worker_tag.fetch_add(1, Ordering::Relaxed),
        },
        |state, _idx, &fid| {
            let before = state.module.num_globals();
            let stats = roll_function_rescued(&mut state.module, fid, opts, &effects);
            let changed = stats.rolled > 0 || state.module.num_globals() != before;
            let new_globals = (before..state.module.num_globals())
                .map(|g| state.module.global(GlobalId::from_index(g)).clone())
                .collect();
            RepRoll {
                func: changed.then(|| state.module.func(fid).clone()),
                stats,
                new_globals,
                first_new_global: before,
                worker: state.id,
            }
        },
    );

    // Absorb every worker's type store into the merged module, recording
    // the per-worker id translation.
    let mut type_maps: Vec<Vec<rolag_ir::TypeId>> = vec![Vec::new(); states.len()];
    for state in &states {
        type_maps[state.id] = module.types.absorb(&state.module.types, base_types);
    }
    let identity_map: Vec<bool> = type_maps
        .iter()
        .map(|m| m.iter().enumerate().all(|(i, t)| t.index() == i))
        .collect();

    // Merge serially in function-id order — the order the serial pass
    // walks — so fresh global names come out identical, whether a body is
    // spliced from this request's rolls or replayed from the store.
    let mut report = DriverReport {
        functions: ids.len(),
        unique: reps.len(),
        jobs,
        ..Default::default()
    };
    let mut minted_for_rep: Vec<Vec<GlobalId>> = vec![Vec::new(); reps.len()];
    for &fid in &ids {
        let gi = group_of[&fid];
        let rep = reps[gi];
        if fid != rep {
            report.cache_hits += 1;
        }
        if let Some(entry) = &store_entries[gi] {
            report.stats += entry.stats;
            report.store_hits += 1;
            if entry.replay(module, fid) {
                report.changed += 1;
            }
            continue;
        }
        if store.is_some() {
            report.store_misses += 1;
        }
        let roll = &rolls[roll_of[gi].expect("missed groups were rolled")];
        report.stats += roll.stats;
        // Nothing committed: the input body (and any duplicate of it) is
        // already what the serial pass would produce.
        let Some(rolled) = &roll.func else {
            continue;
        };
        report.changed += 1;
        let type_map = &type_maps[roll.worker];
        let mut func = rolled.clone();

        // Mint this function's constant arrays with serial-order names and
        // point the body at them.
        let mut global_map: HashMap<GlobalId, GlobalId> = HashMap::new();
        let mut minted: Vec<GlobalId> = Vec::with_capacity(roll.new_globals.len());
        for (offset, data) in roll.new_globals.iter().enumerate() {
            let name = module.fresh_global_name(name_prefix(&data.name));
            let mut data = data.clone();
            data.ty = type_map[data.ty.index()];
            data.name = name;
            let merged_id = module.add_global(data);
            minted.push(merged_id);
            global_map.insert(
                GlobalId::from_index(roll.first_new_global + offset),
                merged_id,
            );
        }
        func.remap_globals(|g| {
            if g.index() < base_globals {
                g
            } else {
                *global_map
                    .get(&g)
                    .expect("rolled function references a global outside its own roll")
            }
        });
        if !identity_map[roll.worker] {
            func.remap_types(|t| type_map[t.index()]);
        }

        // Cache hit: retarget the representative's body onto the duplicate.
        if fid != rep {
            let target = module.func(fid);
            func.name = target.name.clone();
            // The annotation is caller-facing metadata the printer may not
            // show; keep the duplicate's own.
            func.effects = target.effects;
            func.remap_funcs(|f| if f == rep { fid } else { f });
        } else {
            minted_for_rep[gi] = minted;
        }
        module.replace_func(fid, func);
    }

    // Capture freshly rolled representatives into the store, in their
    // final merged form (so replay needs no per-request translation state
    // beyond the entry itself).
    if let Some(s) = store {
        let types = Arc::new(module.types.clone());
        for (gi, &rep) in reps.iter().enumerate() {
            if store_entries[gi].is_some() {
                continue;
            }
            let roll = &rolls[roll_of[gi].expect("missed groups were rolled")];
            let entry = StoreEntry::capture(
                module,
                rep,
                &minted_for_rep[gi],
                roll.func.is_some(),
                roll.stats,
                &types,
            );
            s.insert(store_keys[gi].clone(), Arc::new(entry));
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
        // (never keyed without a store, rolled inline).
        for (dups, unique_memo) in [(5, 2), (0, 1)] {
            let original = duplicated_module(dups);
            let functions = dups + 1;
            let opts = RolagOptions::default();

            let mut serial = original.clone();
            let serial_stats = roll_module(&mut serial, &opts);
            assert!(
                serial_stats.rolled > dups as u64,
                "fixture must actually roll"
            );

            for memoize in [false, true] {
                for jobs in [1, 4] {
                    let mut par = original.clone();
                    let report = roll_module_par(&mut par, &opts, &DriverOptions { jobs, memoize });
                    verify_module(&par).expect("merged module verifies");
                    assert_eq!(
                        print_module(&serial),
                        print_module(&par),
                        "dups={dups} jobs={jobs} memoize={memoize} must be byte-identical"
                    );
                    assert_eq!(report.stats, serial_stats);
                    assert_eq!(report.functions, functions);
                    assert_eq!(report.changed, functions);
                    if memoize {
                        assert_eq!(report.unique, unique_memo);
                        assert_eq!(report.cache_hits, (functions - unique_memo) as u64);
                    } else {
                        assert_eq!(report.unique, functions);
                        assert_eq!(report.cache_hits, 0);
                    }
                }
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
        let key0 = canonical_key(&original, original.func_by_name("f0").unwrap());
        let key1 = canonical_key(&original, original.func_by_name("f1").unwrap());
        assert_eq!(key0, key1, "canonical printing erases temp names");

        let opts = RolagOptions::default();
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
            let warm_report = roll_module_par_with(
                &mut warmup,
                &opts,
                &DriverOptions::default(),
                None,
                Some(&store),
            );
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
            let report = roll_module_par_with(
                &mut warm,
                &opts,
                &DriverOptions::default(),
                None,
                Some(&store),
            );
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

    /// The persistent pool path produces the same bytes and stats as the
    /// scoped-pool path.
    #[test]
    fn persistent_pool_matches_scoped_pool() {
        let original = duplicated_module(4);
        let opts = RolagOptions::default();
        let mut scoped = original.clone();
        let scoped_report = roll_module_par(&mut scoped, &opts, &DriverOptions::default());

        let pool = rolag_par::WorkerPool::new(3);
        let mut pooled = original.clone();
        let report = roll_module_par_with(
            &mut pooled,
            &opts,
            &DriverOptions::default(),
            Some(&pool),
            None,
        );
        assert_eq!(print_module(&scoped), print_module(&pooled));
        assert_eq!(report.stats, scoped_report.stats);
        assert_eq!(report.jobs, 2, "3 pool workers clamped to 2 unique groups");
    }

    #[test]
    fn own_name_normalization_is_token_exact() {
        let s = "func @f(i32 %p0) -> void {\n  call @f2(%p0)\n  call @f(%p0)\n";
        let n = normalize_own_name(s, "f");
        assert!(n.contains("@f2"), "prefix symbol must survive");
        assert!(n.contains("@\u{1}self"), "own tokens replaced");
        assert!(!n.contains("call @f("), "own call site normalized");
    }

    #[test]
    fn name_prefix_strips_counters() {
        assert_eq!(name_prefix("rolag.cdata.17"), "rolag.cdata");
        assert_eq!(name_prefix("rolag.cdata"), "rolag.cdata");
        assert_eq!(name_prefix("plain"), "plain");
        assert_eq!(name_prefix("dotted.name"), "dotted.name");
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
