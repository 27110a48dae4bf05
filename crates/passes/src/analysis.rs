//! The cached analysis manager and the preserved-analysis contract.
//!
//! Analyses are cached keyed by the **structural revision** of the owning
//! [`Function`](rolag_ir::Function) (see `Function::revision`): any arena
//! mutation takes a globally fresh revision, so a stale entry can never be
//! served for a new state. On top of that automatic safety net sits the
//! explicit contract: after every pass the manager is told which analyses
//! the pass *preserved* ([`PreservedAnalyses`]). Preserved per-function
//! entries are re-keyed to the post-pass revisions (the pass asserts "I
//! mutated the function but this analysis still describes it" — e.g. CSE
//! removes non-terminator instructions, leaving the CFG and therefore the
//! dominator tree and loop forest untouched); everything else is dropped.

use std::collections::HashMap;
use std::fmt;
use std::ops::AddAssign;
use std::rc::Rc;

use rolag_analysis::{find_loops, resolve_pointer, DomTree, Loop, PtrInfo};
use rolag_ir::{Effects, FuncId, Module, ValueId};
use rolag_transforms::effects_table;

/// The analyses the manager caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// CFG dominator tree ([`DomTree`]), per function.
    Dominators,
    /// Natural-loop forest ([`find_loops`]), per function.
    Loops,
    /// Base+offset pointer resolution ([`resolve_pointer`]), per
    /// (function, value).
    Alias,
    /// Module-wide call-effects table ([`effects_table`]), indexed by
    /// [`FuncId`].
    EffectsTable,
}

impl AnalysisKind {
    /// Every cached analysis kind.
    pub const ALL: [AnalysisKind; 4] = [
        AnalysisKind::Dominators,
        AnalysisKind::Loops,
        AnalysisKind::Alias,
        AnalysisKind::EffectsTable,
    ];

    fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Stable label, used in `--stats` output and CSV dumps.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Dominators => "dom",
            AnalysisKind::Loops => "loops",
            AnalysisKind::Alias => "alias",
            AnalysisKind::EffectsTable => "effects",
        }
    }
}

/// What a pass kept valid. Returned by every pass run; the manager uses it
/// to decide between re-keying and dropping cache entries.
///
/// The contract is about *content*, not about whether the pass happened to
/// change anything: a pass may only include an analysis when, for every
/// function it might have touched, recomputing the analysis now would
/// yield the same result the cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreservedAnalyses {
    mask: u8,
}

impl PreservedAnalyses {
    /// Nothing survives (the conservative default for transforms that
    /// restructure the CFG).
    pub fn none() -> Self {
        PreservedAnalyses { mask: 0 }
    }

    /// Everything survives (for analyses-only passes and no-op runs).
    pub fn all() -> Self {
        let mut mask = 0;
        for kind in AnalysisKind::ALL {
            mask |= kind.bit();
        }
        PreservedAnalyses { mask }
    }

    /// Adds `kind` to the preserved set.
    pub fn preserve(mut self, kind: AnalysisKind) -> Self {
        self.mask |= kind.bit();
        self
    }

    /// Whether `kind` is preserved.
    pub fn preserves(&self, kind: AnalysisKind) -> bool {
        self.mask & kind.bit() != 0
    }

    /// Set intersection: what survives both passes.
    pub fn intersect(self, other: Self) -> Self {
        PreservedAnalyses {
            mask: self.mask & other.mask,
        }
    }
}

/// Cache-effectiveness counters of the [`AnalysisManager`]. Observability
/// data: surfaced through `rolag-opt --stats` and the bench CSV dumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Dominator trees served from cache.
    pub dom_hits: u64,
    /// Dominator trees computed fresh.
    pub dom_misses: u64,
    /// Loop forests served from cache.
    pub loops_hits: u64,
    /// Loop forests computed fresh.
    pub loops_misses: u64,
    /// Pointer resolutions served from cache.
    pub alias_hits: u64,
    /// Pointer resolutions computed fresh.
    pub alias_misses: u64,
    /// Effects tables served from cache.
    pub effects_hits: u64,
    /// Effects tables computed fresh.
    pub effects_misses: u64,
}

impl AnalysisCacheStats {
    /// `(counter, value)` rows for CSV dumps, hits/misses interleaved per
    /// analysis kind.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("dom_hits", self.dom_hits),
            ("dom_misses", self.dom_misses),
            ("loops_hits", self.loops_hits),
            ("loops_misses", self.loops_misses),
            ("alias_hits", self.alias_hits),
            ("alias_misses", self.alias_misses),
            ("effects_hits", self.effects_hits),
            ("effects_misses", self.effects_misses),
        ]
    }

    /// `(kind, hits, misses)` triples in [`AnalysisKind::ALL`] order.
    pub fn per_kind(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            ("dom", self.dom_hits, self.dom_misses),
            ("loops", self.loops_hits, self.loops_misses),
            ("alias", self.alias_hits, self.alias_misses),
            ("effects", self.effects_hits, self.effects_misses),
        ]
    }

    /// Total queries served from cache.
    pub fn total_hits(&self) -> u64 {
        self.dom_hits + self.loops_hits + self.alias_hits + self.effects_hits
    }

    /// Total queries computed fresh.
    pub fn total_misses(&self) -> u64 {
        self.dom_misses + self.loops_misses + self.alias_misses + self.effects_misses
    }

    /// Fraction of all analysis queries served from cache, `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            return 0.0;
        }
        self.total_hits() as f64 / total as f64
    }
}

impl AddAssign for AnalysisCacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.dom_hits += rhs.dom_hits;
        self.dom_misses += rhs.dom_misses;
        self.loops_hits += rhs.loops_hits;
        self.loops_misses += rhs.loops_misses;
        self.alias_hits += rhs.alias_hits;
        self.alias_misses += rhs.alias_misses;
        self.effects_hits += rhs.effects_hits;
        self.effects_misses += rhs.effects_misses;
    }
}

impl fmt::Display for AnalysisCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}%)",
            self.total_hits(),
            self.total_misses(),
            100.0 * self.hit_rate()
        )
    }
}

/// Caches dominators, loops, pointer resolutions, and the call-effects
/// table across the passes of one pipeline run.
///
/// Per-function entries carry the revision they were computed at and are
/// only served while the function still has that revision; the
/// module-level effects table is invalidated purely through the
/// [`PreservedAnalyses`] contract (no pass in the registry changes
/// declarations, so in practice it is computed once per run).
#[derive(Default)]
pub struct AnalysisManager {
    dom: HashMap<FuncId, (u64, Rc<DomTree>)>,
    loops: HashMap<FuncId, (u64, Rc<Vec<Loop>>)>,
    alias: HashMap<(FuncId, ValueId), (u64, Rc<PtrInfo>)>,
    effects: Option<Rc<Vec<Effects>>>,
    /// Hit/miss counters, cumulative over the manager's lifetime.
    pub stats: AnalysisCacheStats,
}

impl AnalysisManager {
    /// An empty manager.
    pub fn new() -> Self {
        AnalysisManager::default()
    }

    /// The dominator tree of `id`, computed at most once per revision.
    pub fn dom(&mut self, module: &Module, id: FuncId) -> Rc<DomTree> {
        let rev = module.func(id).revision();
        if let Some((cached_rev, tree)) = self.dom.get(&id) {
            if *cached_rev == rev {
                self.stats.dom_hits += 1;
                debug_assert_eq!(
                    **tree,
                    DomTree::compute(module.func(id)),
                    "stale dominator tree served for `{}` — a pass over-claimed \
                     PreservedAnalyses::Dominators",
                    module.func(id).name
                );
                return Rc::clone(tree);
            }
        }
        self.stats.dom_misses += 1;
        let tree = Rc::new(DomTree::compute(module.func(id)));
        self.dom.insert(id, (rev, Rc::clone(&tree)));
        tree
    }

    /// The natural-loop forest of `id`. Computing it pulls the dominator
    /// tree through the cache as well.
    pub fn loops(&mut self, module: &Module, id: FuncId) -> Rc<Vec<Loop>> {
        let rev = module.func(id).revision();
        if let Some((cached_rev, loops)) = self.loops.get(&id) {
            if *cached_rev == rev {
                self.stats.loops_hits += 1;
                debug_assert_eq!(
                    **loops,
                    find_loops(module.func(id), &DomTree::compute(module.func(id))),
                    "stale loop forest served for `{}` — a pass over-claimed \
                     PreservedAnalyses::Loops",
                    module.func(id).name
                );
                return Rc::clone(loops);
            }
        }
        self.stats.loops_misses += 1;
        let dom = self.dom(module, id);
        let loops = Rc::new(find_loops(module.func(id), &dom));
        self.loops.insert(id, (rev, Rc::clone(&loops)));
        loops
    }

    /// The base+offset resolution of pointer value `v` in `id`.
    pub fn pointer(&mut self, module: &Module, id: FuncId, v: ValueId) -> Rc<PtrInfo> {
        let rev = module.func(id).revision();
        if let Some((cached_rev, info)) = self.alias.get(&(id, v)) {
            if *cached_rev == rev {
                self.stats.alias_hits += 1;
                debug_assert_eq!(
                    **info,
                    resolve_pointer(module, module.func(id), v),
                    "stale pointer resolution served for `{}` — a pass over-claimed \
                     PreservedAnalyses::Alias",
                    module.func(id).name
                );
                return Rc::clone(info);
            }
        }
        self.stats.alias_misses += 1;
        let info = Rc::new(resolve_pointer(module, module.func(id), v));
        self.alias.insert((id, v), (rev, Rc::clone(&info)));
        info
    }

    /// The module-wide call-effects table, computed once and shared until
    /// a pass declines to preserve [`AnalysisKind::EffectsTable`].
    pub fn effects(&mut self, module: &Module) -> Rc<Vec<Effects>> {
        if let Some(table) = &self.effects {
            self.stats.effects_hits += 1;
            debug_assert_eq!(
                **table,
                effects_table(module),
                "stale effects table served — a pass over-claimed \
                 PreservedAnalyses::EffectsTable"
            );
            return Rc::clone(table);
        }
        self.stats.effects_misses += 1;
        let table = Rc::new(effects_table(module));
        self.effects = Some(Rc::clone(&table));
        table
    }

    /// Verifies every cached entry that would currently be *served* (its
    /// revision matches the function's) against a fresh recomputation,
    /// returning the first divergence as an error message.
    ///
    /// This is the release-mode twin of the hit-path `debug_assert_eq!`
    /// checks: the preserved-contract test primes the cache, runs a pass,
    /// lets [`AnalysisManager::invalidate`] apply its contract, and then
    /// calls this to prove every surviving entry is bit-equal to a
    /// recomputation. Entries whose revision no longer matches are skipped
    /// — the revision guard means they can never be served.
    pub fn verify_cached(&self, module: &Module) -> Result<(), String> {
        let nfuncs = module.num_funcs();
        for (&id, (rev, tree)) in &self.dom {
            if id.index() >= nfuncs || module.func(id).revision() != *rev {
                continue;
            }
            if **tree != DomTree::compute(module.func(id)) {
                return Err(format!(
                    "dominator tree cached for `{}` diverges from recomputation",
                    module.func(id).name
                ));
            }
        }
        for (&id, (rev, loops)) in &self.loops {
            if id.index() >= nfuncs || module.func(id).revision() != *rev {
                continue;
            }
            let fresh = find_loops(module.func(id), &DomTree::compute(module.func(id)));
            if **loops != fresh {
                return Err(format!(
                    "loop forest cached for `{}` diverges from recomputation",
                    module.func(id).name
                ));
            }
        }
        for (&(id, v), (rev, info)) in &self.alias {
            if id.index() >= nfuncs
                || module.func(id).revision() != *rev
                || v.index() >= module.func(id).num_values()
            {
                continue;
            }
            if **info != resolve_pointer(module, module.func(id), v) {
                return Err(format!(
                    "pointer resolution cached for `{}` value {} diverges from recomputation",
                    module.func(id).name,
                    v.index()
                ));
            }
        }
        if let Some(table) = &self.effects {
            if **table != effects_table(module) {
                return Err("effects table cache diverges from recomputation".into());
            }
        }
        Ok(())
    }

    /// How many per-function/per-key entries are currently cached, per
    /// analysis kind (`dom`, `loops`, `alias`, `effects`). Test
    /// observability: the contract test uses it to prove a preserved
    /// analysis actually *survived* invalidation rather than being
    /// silently dropped.
    pub fn cached_counts(&self) -> [(&'static str, usize); 4] {
        [
            ("dom", self.dom.len()),
            ("loops", self.loops.len()),
            ("alias", self.alias.len()),
            ("effects", usize::from(self.effects.is_some())),
        ]
    }

    /// Applies a pass's [`PreservedAnalyses`] contract: preserved
    /// per-function entries are re-keyed to the function's current
    /// revision (so the next query hits); everything else is dropped.
    /// Entries for function ids no longer in the module are dropped
    /// unconditionally.
    pub fn invalidate(&mut self, module: &Module, preserved: &PreservedAnalyses) {
        let nfuncs = module.num_funcs();
        let valid = |id: FuncId| id.index() < nfuncs;
        if preserved.preserves(AnalysisKind::Dominators) {
            self.dom.retain(|&id, entry| {
                let keep = valid(id);
                if keep {
                    entry.0 = module.func(id).revision();
                }
                keep
            });
        } else {
            self.dom.clear();
        }
        if preserved.preserves(AnalysisKind::Loops) {
            self.loops.retain(|&id, entry| {
                let keep = valid(id);
                if keep {
                    entry.0 = module.func(id).revision();
                }
                keep
            });
        } else {
            self.loops.clear();
        }
        if preserved.preserves(AnalysisKind::Alias) {
            self.alias.retain(|&(id, v), entry| {
                let keep = valid(id) && v.index() < module.func(id).num_values();
                if keep {
                    entry.0 = module.func(id).revision();
                }
                keep
            });
        } else {
            self.alias.clear();
        }
        if !preserved.preserves(AnalysisKind::EffectsTable) {
            self.effects = None;
        }
    }

    /// Applies one function's [`PreservedAnalyses`] contract without
    /// touching any other function's entries — the per-function
    /// counterpart of [`AnalysisManager::invalidate`]. A
    /// [`FunctionPass`](crate::FunctionPass) only mutates the definition
    /// it was handed, so dropping just that function's entries keeps the
    /// neighbours' cached dominator trees and pointer resolutions serving
    /// hits instead of paying for one changed function with a module-wide
    /// flush.
    ///
    /// Preserved per-function entries keyed by `id` are re-keyed to its
    /// current revision; non-preserved ones are dropped for `id` only.
    /// The module-wide effects table has no per-function slice, so
    /// declining to preserve [`AnalysisKind::EffectsTable`] drops it
    /// outright.
    pub fn invalidate_function(
        &mut self,
        module: &Module,
        id: FuncId,
        preserved: &PreservedAnalyses,
    ) {
        let rev = module.func(id).revision();
        if preserved.preserves(AnalysisKind::Dominators) {
            if let Some(entry) = self.dom.get_mut(&id) {
                entry.0 = rev;
            }
        } else {
            self.dom.remove(&id);
        }
        if preserved.preserves(AnalysisKind::Loops) {
            if let Some(entry) = self.loops.get_mut(&id) {
                entry.0 = rev;
            }
        } else {
            self.loops.remove(&id);
        }
        if preserved.preserves(AnalysisKind::Alias) {
            let nvalues = module.func(id).num_values();
            self.alias.retain(|&(f, v), entry| {
                if f != id {
                    return true;
                }
                let keep = v.index() < nvalues;
                if keep {
                    entry.0 = rev;
                }
                keep
            });
        } else {
            self.alias.retain(|&(f, _), _| f != id);
        }
        if !preserved.preserves(AnalysisKind::EffectsTable) {
            self.effects = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn sample() -> Module {
        parse_module(
            "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %c = icmp slt %p0, i32 4\n  condbr %c, body, exit\nbody:\n  br exit\nexit:\n  %r = phi i32 [ i32 0, entry ], [ i32 1, body ]\n  ret %r\n}\n",
        )
        .unwrap()
    }

    #[test]
    fn preserved_set_algebra() {
        let none = PreservedAnalyses::none();
        let all = PreservedAnalyses::all();
        for kind in AnalysisKind::ALL {
            assert!(!none.preserves(kind));
            assert!(all.preserves(kind));
        }
        let cfg = PreservedAnalyses::none()
            .preserve(AnalysisKind::Dominators)
            .preserve(AnalysisKind::Loops);
        assert!(cfg.preserves(AnalysisKind::Loops));
        assert!(!cfg.preserves(AnalysisKind::Alias));
        let both = cfg.intersect(PreservedAnalyses::all().preserve(AnalysisKind::Dominators));
        assert!(both.preserves(AnalysisKind::Dominators));
        assert_eq!(all.intersect(none), none);
    }

    #[test]
    fn caches_hit_until_the_function_mutates() {
        let mut m = sample();
        let id = m.func_by_name("f").unwrap();
        let mut am = AnalysisManager::new();

        let d1 = am.dom(&m, id);
        let d2 = am.dom(&m, id);
        assert!(Rc::ptr_eq(&d1, &d2));
        assert_eq!((am.stats.dom_hits, am.stats.dom_misses), (1, 1));

        am.loops(&m, id);
        am.loops(&m, id);
        assert_eq!((am.stats.loops_hits, am.stats.loops_misses), (1, 1));

        // Any structural mutation invalidates automatically via revision.
        m.func_mut(id).add_block("late");
        am.dom(&m, id);
        assert_eq!(am.stats.dom_misses, 2);
    }

    #[test]
    fn invalidate_rekeys_preserved_and_drops_the_rest() {
        let mut m = sample();
        let id = m.func_by_name("f").unwrap();
        let mut am = AnalysisManager::new();
        am.dom(&m, id);
        am.effects(&m);

        // A pass mutates the function but claims the CFG survived.
        m.func_mut(id).replace_all_uses(
            rolag_ir::ValueId::from_index(0),
            rolag_ir::ValueId::from_index(0),
        );
        let preserved = PreservedAnalyses::none()
            .preserve(AnalysisKind::Dominators)
            .preserve(AnalysisKind::EffectsTable);
        am.invalidate(&m, &preserved);
        am.dom(&m, id);
        am.effects(&m);
        assert_eq!(am.stats.dom_hits, 1, "re-keyed entry must hit");
        assert_eq!(am.stats.effects_hits, 1);

        // Not preserved: dropped even without mutation.
        am.invalidate(&m, &PreservedAnalyses::none());
        am.dom(&m, id);
        assert_eq!(am.stats.dom_misses, 2);
    }

    #[test]
    fn alias_queries_cache_per_key() {
        let m = sample();
        let id = m.func_by_name("f").unwrap();
        let f = m.func(id);
        let mut am = AnalysisManager::new();
        let v = f.param(0);
        am.pointer(&m, id, v);
        am.pointer(&m, id, v);
        assert_eq!((am.stats.alias_hits, am.stats.alias_misses), (1, 1));
    }

    #[test]
    fn cache_stats_rows_and_rates() {
        let s = AnalysisCacheStats {
            dom_hits: 3,
            dom_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.rows().len(), 8);
        assert_eq!(s.per_kind().len(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        let mut t = s;
        t += s;
        assert_eq!(t.dom_hits, 6);
    }
}
