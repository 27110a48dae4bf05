//! Content-addressed rolling: the one key and the one replay path.
//!
//! [`roll_module_par`](crate::driver::roll_module_par) keys every
//! definition with its **closure key**, rolls one definition per key, and
//! replays that roll onto every definition with the key through
//! `StoreEntry::replay` — the only code that writes a rolled body into a
//! module. A [`MemoStore`] keeps the entries across calls: a sharded,
//! capacity-bounded (clock / second-chance eviction) map from closure key
//! to rolled body and [`RolagStats`] — and, via those stats, the
//! translation-validation verdict — so a long-lived service (`rolag-serve`)
//! or a corpus stream rolls identical code once.
//!
//! # Soundness: the closure key
//!
//! Replay splices a rolled body verbatim, so two definitions may share a
//! roll only if the pass reads the same things rolling either. The pass
//! reads the function's own body plus shared context, never another
//! function's body ([`crate::driver`] invariant), so the key is the
//! function's canonical text — printed with temps renumbered and its own
//! `@name` normalized — followed by everything else the pass may read:
//!
//! * the printed definition of every global the function references,
//! * the name, signature, and effects annotation of every callee,
//! * the function's own effects annotation (self-calls read it),
//! * a fingerprint of the [`RolagOptions`] in force.
//!
//! Canonical text alone is not enough even inside one module: the printer
//! does not show a definition's own effects, so self-recursive twins that
//! differ only there print identically. Across modules, two clients can
//! both define `@tab` with different initializers.
//!
//! A hit therefore guarantees the requesting module defines every
//! referenced symbol identically, which makes replay sound — and
//! byte-identical to a cold roll, because replay re-mints constant-array
//! names with the same [`fresh_global_name`](Module::fresh_global_name)
//! walk a cold run would perform (enforced by `tests/driver_par.rs` and
//! `tests/serve_determinism.rs`).
//!
//! A key is hashed once per store operation, and that 64-bit hash picks
//! both the shard and the slot. The hash is SipHash under fixed keys, so a
//! key lands in the same shard in every process and the store's counters
//! repeat exactly run to run; the slot table re-hashes the 64-bit value
//! under a per-process random key, so no input can aim its keys at one
//! bucket. A slot serves a lookup only when its full key matches, so a
//! hash collision degrades into a miss rather than a wrong replay.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::printer::{print_function, print_global};
use rolag_ir::{
    FuncId, Function, GlobalData, GlobalId, InstExtra, Module, TypeId, TypeStore, ValueDef, ValueId,
};

use crate::options::RolagOptions;
use crate::pass::rescued;
use crate::speculate::Rolled;
use crate::stats::RolagStats;

/// Globals and functions a function's value/instruction arenas reference.
/// Walks the full value arena (dead entries included — replay splices the
/// arena verbatim, so every id it holds must be remappable) and the live
/// instruction stream for call sites.
fn referenced_symbols(func: &Function) -> (FxHashSet<GlobalId>, FxHashSet<FuncId>) {
    let mut globals = FxHashSet::default();
    let mut funcs = FxHashSet::default();
    for i in 0..func.num_values() {
        match func.value(ValueId::from_index(i)) {
            ValueDef::GlobalAddr(g) => {
                globals.insert(*g);
            }
            ValueDef::FuncAddr(f) => {
                funcs.insert(*f);
            }
            _ => {}
        }
    }
    for b in func.block_ids() {
        for &i in &func.block(b).insts {
            if let InstExtra::Call { callee } = func.inst(i).extra {
                funcs.insert(callee);
            }
        }
    }
    (globals, funcs)
}

/// One callee's caller-visible surface, rendered for the key.
fn callee_line(module: &Module, f: FuncId) -> String {
    let callee = module.func(f);
    let params: Vec<String> = callee
        .param_tys()
        .iter()
        .map(|&t| module.types.display(t))
        .collect();
    format!(
        "callee @{}({}) -> {} {}",
        callee.name,
        params.join(", "),
        module.types.display(callee.ret_ty),
        callee.effects.mnemonic()
    )
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

/// Builds closure keys under one [`RolagOptions`], whose fingerprint is
/// formatted once rather than once per key.
pub(crate) struct ClosureKeys {
    options: String,
}

impl ClosureKeys {
    pub(crate) fn new(opts: &RolagOptions) -> Self {
        ClosureKeys {
            options: format!("{opts:?}"),
        }
    }

    /// The closure key of function `id`: canonical function text plus the
    /// referenced-context and options sections described in the module
    /// docs. Deterministic for structurally identical functions regardless
    /// of arena layout (context sections are name-sorted).
    pub(crate) fn key(&self, module: &Module, id: FuncId) -> String {
        let func = module.func(id);
        // Temps print canonically (`%0`, `%1`, ...), so only the function's
        // own name needs normalizing. If a global shares that name, `@name`
        // tokens are ambiguous and the text is kept as printed: the
        // function then shares a key with nothing, which is always safe.
        let printed = print_function(module, func);
        let mut key = if module.global_by_name(&func.name).is_some() {
            printed
        } else {
            normalize_own_name(&printed, &func.name)
        };
        key.push_str("\n--context--\nself ");
        key.push_str(func.effects.mnemonic());
        key.push('\n');
        let (globals, funcs) = referenced_symbols(func);
        let global_lines: BTreeMap<&str, GlobalId> = globals
            .iter()
            .map(|&g| (module.global(g).name.as_str(), g))
            .collect();
        for (_, g) in global_lines {
            key.push_str(&print_global(module, g));
            key.push('\n');
        }
        let callee_lines: BTreeMap<&str, FuncId> = funcs
            .iter()
            .filter(|&&f| f != id)
            .map(|&f| (module.func(f).name.as_str(), f))
            .collect();
        for (_, f) in callee_lines {
            key.push_str(&callee_line(module, f));
            key.push('\n');
        }
        key.push_str("--options--\n");
        key.push_str(&self.options);
        key
    }
}

/// The closure key of function `id` under `opts`, as the driver and the
/// [`MemoStore`] use it.
pub fn store_key(module: &Module, id: FuncId, opts: &RolagOptions) -> String {
    ClosureKeys::new(opts).key(module, id)
}

/// A rolled function body in its donor module's id spaces, plus the name
/// maps replay needs to re-target it into any module whose definition
/// matched the same closure key.
#[derive(Debug, Clone)]
pub struct RolledBody {
    /// The rolled function (donor value/type/global/function id spaces).
    func: Function,
    /// The donor's type store: a driver worker's whole store, shared by
    /// every entry that worker captured.
    types: Arc<TypeStore>,
    /// Pre-existing globals the body references: donor id → name. The key
    /// guarantees a hit's module defines each name identically.
    module_globals: Vec<(GlobalId, String)>,
    /// The donor id of `tables[0]`.
    first_table: usize,
    /// The constant tables the roll minted, in minting order (name
    /// reproduction depends on the order), named with their bare prefix.
    tables: Vec<GlobalData>,
    /// Referenced functions other than itself: donor id → name.
    callees: Vec<(FuncId, String)>,
    /// The donor id of the function itself (self-calls re-target to the
    /// replay destination).
    self_id: FuncId,
}

/// One store entry: the replayable outcome of rolling a function.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// `None` when the roll committed nothing — the input body is already
    /// the output, and replay only has to account the stats.
    pub(crate) body: Option<RolledBody>,
    /// The donor roll's statistics. Outcome fields are what a cold roll of
    /// the same closure would report (wall-clock timings excluded from
    /// [`RolagStats`] equality as always).
    pub stats: RolagStats,
}

/// The type-id translations of the donor stores replayed into one module.
/// Each donor store is absorbed once, however many bodies it donates; the
/// map holds the donor's `Arc`, so its pointer key stays unique while
/// cached.
#[derive(Default)]
pub(crate) struct TypeMaps(FxHashMap<*const TypeStore, (Arc<TypeStore>, Option<Vec<TypeId>>)>);

impl TypeMaps {
    /// `donor`'s id translation into `into`, absorbing `donor` on first
    /// sight; `None` when the translation is the identity.
    fn absorb(&mut self, into: &mut TypeStore, donor: &Arc<TypeStore>) -> Option<&[TypeId]> {
        let (_, map) = self.0.entry(Arc::as_ptr(donor)).or_insert_with(|| {
            let map = into.absorb(donor, 0);
            let identity = map.iter().enumerate().all(|(i, t)| t.index() == i);
            (Arc::clone(donor), (!identity).then_some(map))
        });
        map.as_deref()
    }
}

impl StoreEntry {
    /// Captures `roll`, the roll a driver worker just ran on `id` against
    /// its body-less context `module` (`None` for a roll that panicked and
    /// was rescued), trimming the body's arenas, so an entry holds no
    /// more than a fresh copy would. The body keeps the worker's type ids,
    /// and the worker's type store grows until its last roll, so the
    /// returned closure finishes the entry once it is given that store.
    pub(crate) fn capture(
        module: &Module,
        id: FuncId,
        roll: Option<Rolled>,
    ) -> impl FnOnce(&Arc<TypeStore>) -> StoreEntry + Send {
        let stats = roll.as_ref().map_or_else(rescued, |rolled| rolled.stats);
        let changed = roll.filter(|r| r.stats.rolled > 0 || !r.tables.is_empty());
        let parts = changed.map(|mut rolled| {
            rolled.func.shrink_to_fit();
            let (globals, funcs) = referenced_symbols(&rolled.func);
            let module_globals: Vec<_> = globals
                .into_iter()
                .filter(|g| g.index() < rolled.first_table)
                .map(|g| (g, module.global(g).name.clone()))
                .collect();
            let callees: Vec<_> = funcs
                .into_iter()
                .filter(|&f| f != id)
                .map(|f| (f, module.func(f).name.clone()))
                .collect();
            (rolled, module_globals, callees)
        });
        move |types| StoreEntry {
            body: parts.map(|(rolled, module_globals, callees)| RolledBody {
                func: rolled.func,
                types: Arc::clone(types),
                module_globals,
                first_table: rolled.first_table,
                tables: rolled.tables,
                callees,
                self_id: id,
            }),
            stats,
        }
    }

    /// Replays this entry onto function `id` of `module`, which must have
    /// matched the entry's closure key, and splices it as the serial pass
    /// does: fresh constant-table names are minted against `module` in
    /// donor order, so replaying in function-id order is byte-identical to
    /// a cold roll of the module. `type_maps` carries the donor stores
    /// already absorbed into `module`. Returns `true` when a body was
    /// spliced (`false` = no-change entry).
    pub(crate) fn replay(&self, module: &mut Module, id: FuncId, type_maps: &mut TypeMaps) -> bool {
        let Some(body) = &self.body else {
            return false;
        };
        let type_map = type_maps.absorb(&mut module.types, &body.types);
        let mut func = body.func.clone();

        let mut global_map: FxHashMap<GlobalId, GlobalId> = FxHashMap::default();
        for (donor, name) in &body.module_globals {
            let target = module
                .global_by_name(name)
                .expect("closure key guarantees every referenced global");
            global_map.insert(*donor, target);
        }
        let first_table = module.num_globals();
        let mut tables = body.tables.clone();
        for (k, table) in tables.iter_mut().enumerate() {
            if let Some(map) = type_map {
                table.ty = map[table.ty.index()];
            }
            let (donor, target) = (body.first_table + k, first_table + k);
            global_map.insert(GlobalId::from_index(donor), GlobalId::from_index(target));
        }
        let mut func_map: FxHashMap<FuncId, FuncId> = FxHashMap::default();
        func_map.insert(body.self_id, id);
        for (donor, name) in &body.callees {
            let target = module
                .func_by_name(name)
                .expect("closure key guarantees every callee");
            func_map.insert(*donor, target);
        }
        // Dead arena entries can reference call sites outside the live
        // instruction stream; they never print, so identity is safe.
        func.remap(
            type_map,
            |g| {
                *global_map
                    .get(&g)
                    .expect("replayed body references an unmapped global")
            },
            |f| func_map.get(&f).copied().unwrap_or(f),
        );

        let target = module.func(id);
        func.name = target.name.clone();
        func.effects = target.effects;
        Rolled {
            func,
            first_table,
            tables,
            stats: self.stats,
        }
        .splice(module, id);
        true
    }
}

/// Cumulative counters of a [`MemoStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStoreStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted (including replacements).
    pub inserts: u64,
    /// Entries evicted by the clock hand.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries the store holds before it evicts.
    pub capacity: usize,
}

impl MemoStoreStats {
    /// Fraction of lookups served from the store, in `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

struct Slot<V> {
    /// The full key, one allocation shared with the clock ring.
    key: Arc<String>,
    entry: Arc<V>,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// passes over the slot.
    referenced: bool,
}

struct Shard<V> {
    /// Resident slots by key hash, itself hashed with std's `RandomState`
    /// (DESIGN.md, *Hashing*). Two keys with one 64-bit hash share a slot,
    /// the later insert replacing the earlier key.
    slots: HashMap<u64, Slot<V>>,
    /// Clock ring over resident keys, with their hashes.
    ring: VecDeque<(u64, Arc<String>)>,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            slots: HashMap::new(),
            ring: VecDeque::new(),
        }
    }
}

impl<V> Shard<V> {
    /// The slot holding exactly `key`.
    fn slot_mut(&mut self, hash: u64, key: &str) -> Option<&mut Slot<V>> {
        self.slots
            .get_mut(&hash)
            .filter(|slot| slot.key.as_str() == key)
    }

    /// Sweeps the clock ring once around at most: demotes referenced
    /// slots and evicts the first unreferenced one. `false` when the shard
    /// holds no entry.
    fn evict_one(&mut self) -> bool {
        while let Some((hash, victim)) = self.ring.pop_front() {
            let resident = self.slots.get_mut(&hash);
            let Some(slot) = resident.filter(|slot| Arc::ptr_eq(&slot.key, &victim)) else {
                // The ring entry outlived its slot: a colliding key replaced
                // it, or a panic between the ring push and the slot insert
                // of a previous call (recovered by `MemoStore::lock`) left
                // it behind. Drop it and keep sweeping; panicking here
                // instead would poison the shard all over again.
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                self.ring.push_back((hash, victim));
            } else {
                self.slots.remove(&hash);
                return true;
            }
        }
        false
    }
}

/// The hash [`MemoStore::get_hashed`] and [`MemoStore::insert_hashed`]
/// take for `key`: SipHash under fixed keys, the same in every process.
pub(crate) fn key_hash(key: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Sharded, capacity-bounded cross-request cache from string keys to
/// shared values: rolled functions by default ([`StoreEntry`]), or any
/// other value a caller keys by content (`rolag-serve` keeps its replies
/// in one).
///
/// Lookup and insert lock one shard; the shard is chosen by key hash, so
/// concurrent connections rarely contend. The capacity is the store's: an
/// insert evicts only when `capacity` entries are resident, however the
/// keys spread over the shards. Eviction is clock (second chance) within a
/// shard: a hit sets the slot's referenced bit, and an eviction sweeps the
/// shard's ring, demoting referenced slots and evicting the first
/// unreferenced one. Successive evictions visit the shards round-robin.
pub struct MemoStore<V = StoreEntry> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity: usize,
    /// Entries resident across all shards.
    resident: AtomicUsize,
    /// The shard the next eviction looks at first.
    hand: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl<V> MemoStore<V> {
    /// A store holding up to `capacity` entries (at least one) across 16
    /// shards.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 16)
    }

    /// [`MemoStore::new`] with an explicit shard count (tests use 1 to make
    /// eviction order deterministic).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        MemoStore {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: capacity.max(1),
            resident: AtomicUsize::new(0),
            hand: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, hash: u64) -> &Mutex<Shard<V>> {
        &self.shards[hash as usize % self.shards.len()]
    }

    /// Locks `shard`, recovering from poisoning. A request thread that
    /// panics while holding a shard (after running out of memory, say)
    /// poisons it; treating that as fatal would fail every later request
    /// hashing into the shard. Recovery is sound because the critical
    /// sections keep `slots` coherent at every step — the one structure
    /// a panic can leave stale is the clock `ring`, and the eviction
    /// sweep skips ring entries with no resident slot.
    fn lock(shard: &Mutex<Shard<V>>) -> std::sync::MutexGuard<'_, Shard<V>> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks `key` up, marking the entry recently used on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.get_hashed(key_hash(key), key)
    }

    /// [`MemoStore::get`] of a key whose [`key_hash`] is known.
    pub(crate) fn get_hashed(&self, hash: u64, key: &str) -> Option<Arc<V>> {
        let mut shard = Self::lock(self.shard_of(hash));
        match shard.slot_mut(hash, key) {
            Some(slot) => {
                slot.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, first evicting with second chance if
    /// the store is full.
    pub fn insert(&self, key: String, entry: Arc<V>) {
        self.insert_hashed(key_hash(&key), key, entry);
    }

    /// [`MemoStore::insert`] of a key whose [`key_hash`] is known.
    pub(crate) fn insert_hashed(&self, hash: u64, key: String, entry: Arc<V>) {
        let shard = self.shard_of(hash);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if !Self::lock(shard).slots.contains_key(&hash) {
            // Room is made before the insert, so a new key is never its
            // own victim. Eviction locks one shard at a time and never
            // while this insert holds its own, so inserts cannot deadlock.
            while self.resident.load(Ordering::Relaxed) >= self.capacity && self.evict_one() {}
        }
        let mut shard = Self::lock(shard);
        if let Some(slot) = shard.slot_mut(hash, &key) {
            slot.entry = entry;
            slot.referenced = true;
            return;
        }
        let key = Arc::new(key);
        shard.ring.push_back((hash, Arc::clone(&key)));
        let slot = Slot {
            key,
            entry,
            referenced: false,
        };
        if shard.slots.insert(hash, slot).is_none() {
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evicts one entry from the first non-empty shard at or after the
    /// hand. `false` when every shard is empty.
    fn evict_one(&self) -> bool {
        let n = self.shards.len();
        let start = self.hand.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            if Self::lock(&self.shards[(start + k) % n]).evict_one() {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).slots.len()).sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> MemoStoreStats {
        MemoStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn entry(n: u64) -> Arc<StoreEntry> {
        Arc::new(StoreEntry {
            body: None,
            stats: RolagStats {
                attempted: n,
                ..Default::default()
            },
        })
    }

    #[test]
    fn second_chance_evicts_cold_entries_first() {
        let store = MemoStore::with_shards(2, 1);
        store.insert("a".into(), entry(1));
        store.insert("b".into(), entry(2));
        assert!(store.get("a").is_some(), "a is now referenced");
        store.insert("c".into(), entry(3));
        // b was unreferenced: the clock demotes a and evicts b.
        assert!(store.get("b").is_none());
        assert!(store.get("a").is_some());
        assert!(store.get("c").is_some());
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.inserts, 3);
    }

    /// The capacity bounds the store, not each shard: `C` distinct keys
    /// fit before the first eviction whichever shards they hash to, and
    /// one more key evicts exactly one.
    #[test]
    fn store_fills_to_capacity_before_evicting() {
        for capacity in [1, 5, 16, 128] {
            let store = MemoStore::new(capacity);
            for i in 0..capacity {
                store.insert(format!("key-{i}"), entry(i as u64));
            }
            let stats = store.stats();
            assert_eq!((stats.evictions, stats.entries), (0, capacity), "{stats:?}");
            store.insert("one-more".into(), entry(0));
            let stats = store.stats();
            assert_eq!((stats.evictions, stats.entries), (1, capacity), "{stats:?}");
            assert!(store.get("one-more").is_some());
        }
    }

    #[test]
    fn replacement_does_not_grow_the_ring() {
        let store = MemoStore::with_shards(2, 1);
        store.insert("a".into(), entry(1));
        store.insert("a".into(), entry(2));
        store.insert("b".into(), entry(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().stats.attempted, 2);
        assert_eq!(store.stats().evictions, 0);
    }

    /// Cycle a working set three times larger than the store through one
    /// shard: the counters must stay mutually consistent (every insert is
    /// resident or evicted, every lookup is a hit or a miss) and a key
    /// re-inserted after eviction must serve its *new* entry.
    #[test]
    fn counters_stay_consistent_under_eviction_pressure() {
        let capacity = 4;
        let store = MemoStore::with_shards(capacity, 1);
        let key = |i: usize| format!("k{i}");
        for round in 0..3u64 {
            for i in 0..3 * capacity {
                if store.get(&key(i)).is_none() {
                    store.insert(key(i), entry(round * 100 + i as u64));
                }
            }
        }
        let stats = store.stats();
        assert_eq!(stats.entries, capacity, "store stays at capacity");
        assert_eq!(
            stats.inserts - stats.evictions,
            stats.entries as u64,
            "inserted minus evicted is resident: {stats:?}"
        );
        assert_eq!(
            stats.hits + stats.misses,
            (3 * 3 * capacity) as u64,
            "every lookup is a hit or a miss: {stats:?}"
        );
        assert!(stats.evictions >= (2 * capacity) as u64, "{stats:?}");

        // Evict k0 for sure (sweep the whole ring with cold keys), then
        // re-insert it: the slot must hold the fresh entry, not a stale
        // resurrection.
        for i in 100..100 + 2 * capacity {
            store.insert(key(i), entry(0));
        }
        assert!(store.get(&key(0)).is_none(), "k0 was evicted");
        store.insert(key(0), entry(777));
        assert_eq!(store.get(&key(0)).unwrap().stats.attempted, 777);
    }

    /// A thread that panics while holding a shard must not take the store
    /// down with it: later lookups and inserts on the same shard succeed.
    #[test]
    fn store_survives_a_poisoned_shard() {
        let store = MemoStore::with_shards(4, 1);
        store.insert("before".into(), entry(1));
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = store.shards[0].lock().unwrap();
                panic!("injected panic under the shard lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(store.shards[0].lock().is_err(), "shard is poisoned");
        assert!(store.get("before").is_some());
        store.insert("after".into(), entry(2));
        assert_eq!(store.get("after").unwrap().stats.attempted, 2);
        assert_eq!(store.len(), 2);
    }

    /// Two keys forced onto one hash: the store compares keys in full, so
    /// neither serves the other, the later insert takes the slot, and the
    /// ring entry it orphaned is skipped by the clock.
    #[test]
    fn colliding_hashes_never_serve_the_wrong_key() {
        let store = MemoStore::with_shards(2, 1);
        store.insert_hashed(7, "a".into(), entry(1));
        assert!(store.get_hashed(7, "b").is_none(), "same hash, other key");
        store.insert_hashed(7, "b".into(), entry(2));
        assert!(
            store.get_hashed(7, "a").is_none(),
            "replaced by the collision"
        );
        assert_eq!(store.get_hashed(7, "b").unwrap().stats.attempted, 2);
        assert_eq!(store.len(), 1);
        store.insert("c".into(), entry(3));
        store.insert("d".into(), entry(4));
        let stats = store.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1), "{stats:?}");
        assert!(
            store.get("d").is_some(),
            "a new key is never its own victim"
        );
    }

    /// The same guarantee for any value type. Request-level replies keyed
    /// by preset and module text are forced onto one hash; the keys differ
    /// in the preset only, in one byte of the text, and in length only.
    /// Each slot serves exactly its own key's value.
    #[test]
    fn generic_values_never_serve_a_colliding_key() {
        let store: MemoStore<String> = MemoStore::with_shards(4, 1);
        let keys = [
            "default\nmodule \"m\"\n",
            "validated\nmodule \"m\"\n",
            "default\nmodule \"n\"\n",
            "default\nmodule \"m\"\n\n",
        ];
        for (i, key) in keys.iter().enumerate() {
            for other in &keys[i..] {
                assert!(store.get_hashed(7, other).is_none(), "{other:?}");
            }
            store.insert_hashed(7, key.to_string(), Arc::new(format!("reply {i}")));
            assert_eq!(*store.get_hashed(7, key).unwrap(), format!("reply {i}"));
            for earlier in &keys[..i] {
                assert!(store.get_hashed(7, earlier).is_none(), "{earlier:?}");
            }
        }
        let stats = store.stats();
        assert_eq!((stats.entries, stats.hits), (1, keys.len() as u64));
        assert_eq!(store.get(keys[3]), None, "the real hash finds no slot");
    }

    #[test]
    fn hit_rate_counts_lookups() {
        let store = MemoStore::new(8);
        store.insert("k".into(), entry(0));
        assert!(store.get("k").is_some());
        assert!(store.get("absent").is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn own_name_normalization_is_token_exact() {
        let s = "func @f(i32 %p0) -> void {\n  call @f2(%p0)\n  call @f(%p0)\n";
        let n = normalize_own_name(s, "f");
        assert!(n.contains("@f2"), "prefix symbol must survive");
        assert!(n.contains("@\u{1}self"), "own tokens replaced");
        assert!(!n.contains("call @f("), "own call site normalized");
    }

    /// Same canonical body, different context: the closure key must keep
    /// the slots apart when a referenced global's *definition* differs,
    /// when a callee's effects differ, and when the options differ.
    #[test]
    fn store_key_pins_referenced_context() {
        let base = r#"
module "a"
global @tab : [4 x i32] = ints i32 [1, 2, 3, 4]
declare @ext(i32 %p0) -> i32 readnone
func @f(i32 %p0) -> i32 {
entry:
  %g = gep i32, @tab, i64 0
  %v = load i32, %g
  %c = call i32 @ext(%v)
  ret %c
}
"#;
        let m1 = parse_module(base).unwrap();
        let m2 = parse_module(&base.replace("[1, 2, 3, 4]", "[9, 2, 3, 4]")).unwrap();
        let m3 = parse_module(&base.replace("readnone", "readwrite")).unwrap();
        let opts = RolagOptions::default();
        let key = |m: &Module| store_key(m, m.func_by_name("f").unwrap(), &opts);
        assert_ne!(key(&m1), key(&m2), "global initializer must split slots");
        assert_ne!(key(&m1), key(&m3), "callee effects must split slots");
        assert_ne!(
            key(&m1),
            store_key(
                &m1,
                m1.func_by_name("f").unwrap(),
                &RolagOptions::measured()
            ),
            "options fingerprint must split slots"
        );

        // Same closure under a different module/function name: identical.
        let renamed = base
            .replace("module \"a\"", "module \"b\"")
            .replace("@f(", "@h(");
        let m4 = parse_module(&renamed).unwrap();
        assert_eq!(
            key(&m1),
            store_key(&m4, m4.func_by_name("h").unwrap(), &opts),
            "own name must not split slots"
        );
    }
}
