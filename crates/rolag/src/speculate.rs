//! The speculation core every engine policy runs its candidates through
//! (Fig. 5): build the alignment graph, schedule it, generate the rolled
//! loop, validate the rewrite (when `RolagOptions::validate` asks), and
//! clean it up — all in place on the working function under a
//! [`rolag_ir::Function::snapshot`] journal, never on a clone. The
//! validator reads the pre-candidate state through the same journal
//! ([`rolag_ir::Function::pre_window`]).
//!
//! A candidate that survives comes back as an open [`Window`]: its rewrite
//! is live in [`Speculator::work`] and its constant tables in
//! [`Speculator::tables`] until the policy prices it and either commits or
//! rolls it back. The greedy policy ([`crate::pass`]) and the beam policy
//! ([`crate::search`]) differ only in which candidates they try and what
//! they keep. Only interned types reach the module before a finished roll,
//! a [`Rolled`], is spliced, so nothing rewinds the module's globals.

use std::time::Instant;

use rolag_ir::{BlockId, Effects, FuncId, Function, GlobalData, Module, SnapshotToken, TypeStore};
use rolag_transforms::cleanup_in_place;
use rolag_tv::{RewriteHints, TvScratch};

use crate::align::{build_candidate_graph, AlignGraph, DotInfo};
use crate::codegen::{self, RollOutcome};
use crate::options::RolagOptions;
use crate::schedule::ScheduleCache;
use crate::search::{RejectedSpeculation, SearchAudit};
use crate::seeds::{collect_in_block, Candidate};
use crate::stats::{NodeKindCounts, RolagStats};

/// Runs `f`, adding its wall-clock to `slot`.
pub(crate) fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *slot += start.elapsed().as_nanos() as u64;
    result
}

/// The function's size under the options' cost regime, computed from
/// scratch.
pub(crate) fn fresh_function_size(module: &Module, work: &Function, opts: &RolagOptions) -> u64 {
    if opts.measured_cost {
        rolag_lower::measure_function(module, work) as u64
    } else {
        opts.target.function_estimate(module, work) as u64
    }
}

/// The `.rodata` bytes of `tables`.
pub(crate) fn table_bytes(types: &TypeStore, tables: &[GlobalData]) -> u64 {
    tables.iter().map(|t| t.size(types)).sum()
}

/// A function's roll as a value: the rolled body, the constant tables its
/// committed rewrites minted (in minting order, bare-named `rolag.cdata`),
/// and the roll's statistics.
pub(crate) struct Rolled {
    pub func: Function,
    /// The id the body gives `tables[0]`: the module's global count when
    /// the roll ran.
    pub first_table: usize,
    pub tables: Vec<GlobalData>,
    pub stats: RolagStats,
}

impl Rolled {
    /// Writes the roll into `module` as function `id`, returning its
    /// statistics: appends the tables in order, each named through
    /// [`Module::fresh_global_name`], then replaces the body.
    ///
    /// # Panics
    ///
    /// Panics unless table `k` gets id `first_table + k`, as the body uses.
    pub fn splice(self, module: &mut Module, id: FuncId) -> RolagStats {
        for (k, mut table) in self.tables.into_iter().enumerate() {
            table.name = module.fresh_global_name(&table.name);
            let gid = module.add_global(table);
            assert_eq!(gid.index(), self.first_table + k, "a table's id moved");
        }
        module.replace_func(id, self.func);
        self.stats
    }
}

/// What the validator is told about the rewrite codegen made of `block`
/// from `graph`; its tables start at id `first_new_global`.
pub(crate) fn rewrite_hints(
    graph: &AlignGraph,
    block: BlockId,
    outcome: &RollOutcome,
    first_new_global: usize,
    opts: &RolagOptions,
) -> RewriteHints {
    RewriteHints {
        lanes: graph.lanes,
        block,
        loop_block: outcome.loop_block,
        exit_block: outcome.exit_block,
        first_new_global,
        fast_math: opts.fast_math,
        claimed_lanes: graph
            .claimed
            .iter()
            .map(|(&i, &(_, lane))| (i, lane))
            .collect(),
    }
}

/// An open speculation window: the candidate's validated, cleaned-up
/// rewrite is live in the working function and its tables at the end of
/// the speculator's until the window is committed or rolled back.
#[must_use]
pub(crate) struct Window {
    token: SnapshotToken,
    /// How many tables the speculator held before the rewrite's own.
    tables: usize,
    /// Node-kind counts of the candidate's alignment graph.
    pub kinds: NodeKindCounts,
    /// Constant data the rewrite added to `.rodata`.
    pub rodata: u64,
}

/// How [`Speculator::speculate`] left a candidate. Rejects are already
/// counted (`rejected_schedule`, `tv_rejected`) and rolled back.
pub(crate) enum Verdict {
    /// The graph build, the scheduling analysis or the code generator
    /// refused the candidate. The build refuses at its root gate, or while
    /// building when the graph claims one of its own loop inputs (a graph
    /// the scheduler would refuse, so the block's dependences are never
    /// computed for it).
    Schedule,
    /// The translation validator refused to prove the rewrite.
    Validator,
    /// The rewrite is live; price it, then commit or roll it back.
    Open(Window),
}

/// One function's speculation state: the working function, the tables its
/// rewrites minted, the validator's scratch, and the scheduling cache of
/// its current revision. The validator reads the pre-candidate state
/// through the open window's journal, so no copy of it is kept.
pub(crate) struct Speculator {
    id: FuncId,
    /// The function being rolled; committed rewrites accumulate here.
    pub work: Function,
    /// The constant tables of the rewrites in `work`, the open window's
    /// last; table `k` has id `module.num_globals() + k`.
    pub tables: Vec<GlobalData>,
    /// Block dependences, the use map and the instruction positions of
    /// `work`'s current revision, shared by seed collection, the scheduling
    /// analysis and code generation.
    sched: ScheduleCache,
    /// The validator's tables and buffers, reused by every validation of
    /// this speculator (and lent to the beam's rollout speculators).
    pub tv: TvScratch,
}

impl Speculator {
    /// A speculator over `work`, the current body of function `id`.
    pub fn new(id: FuncId, work: Function) -> Self {
        Self::resume(id, work, Vec::new(), TvScratch::default())
    }

    /// A speculator over `work` and the `tables` its rewrites minted,
    /// validating in `tv`: a scratch another speculator used.
    pub fn resume(id: FuncId, work: Function, tables: Vec<GlobalData>, tv: TvScratch) -> Self {
        Speculator {
            id,
            work,
            tables,
            sched: ScheduleCache::default(),
            tv,
        }
    }

    /// The roll as it stands, with `stats`.
    pub fn finish(self, module: &Module, stats: RolagStats) -> Rolled {
        Rolled {
            func: self.work,
            first_table: module.num_globals(),
            tables: self.tables,
            stats,
        }
    }

    /// The rolling candidates of every block of `work`, in block order,
    /// collected over the use map and positions the scheduling cache holds
    /// for the current revision. That map may predate constants interned
    /// since (graph builds intern without bumping the revision); collection
    /// only asks about instruction results, which all existed when it was
    /// computed.
    pub fn candidates(&mut self, module: &Module, opts: &RolagOptions) -> Vec<Candidate> {
        let (uses, positions) = self.sched.indexes(&self.work);
        let mut out = Vec::new();
        for block in self.work.block_ids() {
            collect_in_block(module, &self.work, uses, positions, block, opts, &mut out);
        }
        out
    }

    /// Runs one candidate through graph → schedule → codegen → validate →
    /// cleanup on `work`'s journal. `audit` captures validator rejects.
    pub fn speculate(
        &mut self,
        module: &mut Module,
        cand: &Candidate,
        opts: &RolagOptions,
        effects: &[Effects],
        stats: &mut RolagStats,
        audit: Option<&mut SearchAudit>,
    ) -> Verdict {
        let block = cand.block();
        // Graph builds intern synthetic constants into `work` before the
        // window's snapshot, so they stay across rejected candidates. That
        // is harmless: the printer shows constants by content, interning
        // never bumps the revision, and the window's pre-window view, which
        // the validator reads, holds them.
        let graph = timed(&mut stats.timings.align_ns, || {
            build_candidate_graph(module, &mut self.work, cand, opts)
        });
        let Some(graph) = graph else {
            stats.rejected_schedule += 1;
            return Verdict::Schedule;
        };
        let sched = timed(&mut stats.timings.schedule_ns, || {
            self.sched.analyze(module, &self.work, block, &graph)
        });
        let Some(sched) = sched else {
            stats.rejected_schedule += 1;
            return Verdict::Schedule;
        };

        #[cfg(test)]
        let reference = tv_parity::reference(&self.work);
        let held = self.tables.len();
        let first_table = module.num_globals() + held;
        let token = self.work.snapshot();
        let (uses, positions) = self.sched.indexes(&self.work);
        let outcome = timed(&mut stats.timings.codegen_ns, || {
            codegen::generate(
                &mut module.types,
                first_table,
                &mut self.work,
                block,
                &graph,
                &sched,
                uses,
                positions,
            )
        });
        let Some(outcome) = outcome else {
            self.work.rollback(token);
            stats.rejected_schedule += 1;
            return Verdict::Schedule;
        };

        // Validation runs on the raw generated code, before cleanup, so the
        // validator sees exactly what codegen emitted.
        if opts.validate {
            let hints = rewrite_hints(&graph, block, &outcome, first_table, opts);
            let tables = &outcome.tables;
            let verdict = timed(&mut stats.timings.tv_ns, || {
                let orig = self.work.pre_window();
                // The view has the revision the block was scheduled at, so
                // the scheduler's dependences for it are still cached.
                let deps = self
                    .sched
                    .block_deps(orig.revision(), block)
                    .expect("the scheduler computed the block's dependences at this revision");
                let (tv, work) = (&mut self.tv, &self.work);
                rolag_tv::validate_rewrite(module, tables, orig, work, &hints, deps, tv)
            });
            #[cfg(test)]
            tv_parity::record(module, tables, &self.work, reference, &hints, &verdict);
            if let Err(why) = verdict {
                stats.tv_rejected += 1;
                if let Some(audit) = audit {
                    // Print the rewrite, then the function it replaced,
                    // with every table of the speculator spliced, so the
                    // rejected rewrite can be interpreted.
                    let info = DotInfo {
                        score: Some(fresh_function_size(module, &self.work, opts)),
                        verdict: Some(why.to_string()),
                    };
                    let mut shown = module.clone();
                    Rolled {
                        func: self.work.clone(),
                        first_table: module.num_globals(),
                        tables: self.tables.iter().chain(tables).cloned().collect(),
                        stats: RolagStats::default(),
                    }
                    .splice(&mut shown, self.id);
                    let after = rolag_ir::printer::print_module(&shown);
                    self.work.rollback(token);
                    shown.replace_func(self.id, self.work.clone());
                    audit.rejects.push(RejectedSpeculation {
                        func: self.work.name.clone(),
                        before: rolag_ir::printer::print_module(&shown),
                        after,
                        dot: graph.to_dot_with(&info),
                    });
                } else {
                    self.work.rollback(token);
                }
                return Verdict::Validator;
            }
            stats.tv_validated += 1;
        }

        timed(&mut stats.timings.cleanup_ns, || {
            cleanup_in_place(&mut self.work, &mut module.types, effects)
        });
        let rodata = table_bytes(&module.types, &outcome.tables);
        self.tables.extend(outcome.tables);
        Verdict::Open(Window {
            token,
            tables: held,
            kinds: graph.count_kinds(),
            rodata,
        })
    }

    /// Keeps the window's rewrite.
    pub fn commit(&mut self, window: Window) {
        self.work.commit(window.token);
    }

    /// Discards the window's rewrite: the function and the tables return
    /// to the pre-speculation state (up to inert interned constants).
    pub fn rollback(&mut self, window: Window) {
        self.work.rollback(window.token);
        self.tables.truncate(window.tables);
    }
}

/// A test probe for the validator's inputs: while [`tv_parity::capture`]
/// runs, the speculator clones `work` just before each window opens, and
/// each validation the speculation core makes is checked against that
/// clone. The window's pre-window view must read the clone on every
/// accessor, and the validation is repeated against the clone, with block
/// dependences computed afresh and in a fresh scratch. Both verdicts are
/// kept.
#[cfg(test)]
pub(crate) mod tv_parity {
    use std::cell::RefCell;

    use rolag_analysis::depgraph::BlockDeps;
    use rolag_ir::{Function, GlobalData, InstData, InstId, Module, PreWindow, ValueId};
    use rolag_tv::{RewriteHints, TvError, TvScratch};

    /// A validation's verdict against the window's view, with the
    /// scheduler's dependences and the speculator's scratch, then against
    /// the pre-window clone, with fresh ones.
    pub(crate) type Verdicts = (Result<(), TvError>, Result<(), TvError>);

    thread_local! {
        static LOG: RefCell<Option<Vec<Verdicts>>> = const { RefCell::new(None) };
    }

    /// Runs `f`, returning the verdict pairs of every validation it made
    /// on this thread.
    pub(crate) fn capture(f: impl FnOnce()) -> Vec<Verdicts> {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        f();
        LOG.with(|log| log.borrow_mut().take()).unwrap_or_default()
    }

    /// A clone of `work` as its window is about to open, while capturing.
    pub(super) fn reference(work: &Function) -> Option<Function> {
        LOG.with(|log| log.borrow().is_some()).then(|| work.clone())
    }

    /// Asserts that `view` reads `f` on every accessor the validator
    /// uses. Placement is compared through the block lists:
    /// [`PreWindow::inst`] does not promise the `block` field.
    fn assert_view_reads(view: &PreWindow, f: &Function) {
        assert_eq!(view.revision(), f.revision());
        assert_eq!(view.num_values(), f.num_values());
        assert_eq!(view.num_insts(), f.num_insts());
        assert!(view.block_ids().eq(f.block_ids()), "{}: blocks", f.name);
        for b in f.block_ids() {
            assert_eq!(view.block(b), f.block(b), "{}", f.name);
        }
        for v in (0..f.num_values()).map(ValueId::from_index) {
            assert_eq!(view.value(v), f.value(v), "{}", f.name);
        }
        for i in (0..f.num_insts()).map(InstId::from_index) {
            assert_eq!(view.inst_result(i), f.inst_result(i), "{}", f.name);
            let body = InstData {
                block: f.inst(i).block,
                ..view.inst(i).clone()
            };
            assert_eq!(&body, f.inst(i), "{}", f.name);
        }
    }

    pub(super) fn record(
        module: &Module,
        tables: &[GlobalData],
        rolled: &Function,
        reference: Option<Function>,
        hints: &RewriteHints,
        shared: &Result<(), TvError>,
    ) {
        let Some(orig) = reference else {
            return;
        };
        assert_view_reads(&rolled.pre_window(), &orig);
        let deps = BlockDeps::compute(module, &orig, hints.block);
        let fresh = rolag_tv::validate_rewrite(
            module,
            tables,
            orig.pre_window(),
            rolled,
            hints,
            &deps,
            &mut TvScratch::default(),
        );
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            log.as_mut()
                .expect("capturing")
                .push((shared.clone(), fresh));
        });
    }
}
