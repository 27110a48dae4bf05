//! The simulation-relation checker: symbolically unrolls a generated
//! rolled loop lane by lane and proves it equivalent to the original
//! straight-line region.
//!
//! The proof obligations, in order:
//!
//! 1. **Structure** — the rewrite only appended a loop block and an exit
//!    block, split the candidate block's surviving instructions between
//!    preheader and exit in their original relative order, and left every
//!    other block's instruction list untouched.
//! 2. **Trip count** — the loop's latch condition folds to a constant at
//!    every lane: taken for lanes `0..lanes-1`, not taken at the last, so
//!    the loop provably executes exactly `lanes` iterations.
//! 3. **Effects** — every effectful instruction the loop executes
//!    (load/store/call on original memory) matches a distinct rolled-away
//!    original instruction at the same lane with symbolically equal
//!    operands, and every rolled-away effect is re-executed exactly once.
//!    Scratch memory introduced by the rewrite (allocas, constant-data
//!    lookup tables) is simulated precisely instead.
//! 4. **Values** — every surviving instruction's rewritten operands
//!    evaluate to the same normalized expression as the originals.
//! 5. **Memory order** — the order in which the rolled code performs the
//!    original memory operations respects every conflict edge of the
//!    block's dependence graph.
//!
//! Anything the checker cannot resolve is an error — the validator can
//! reject a correct rewrite (a false reject, which the property tests pin
//! to zero on real corpora) but never accept a wrong one within the
//! declared abstractions.
//!
//! Effect matching costs O(effects of the lane) per generated effect: the
//! structure check buckets the region's effects by claimed lane, keeping
//! block order, so a match finds the same first original a scan of the
//! whole block would. The survivor scan borrows instruction data and
//! allocates nothing.
//!
//! All per-validation state lives in a [`TvScratch`]: the expression
//! arena, dense tables indexed by value or instruction id for the
//! bindings, the memo and the region and match marks, and the rolled
//! memory order by block position. An id-table entry is stamped with the
//! validation that wrote it, so starting a validation clears those tables
//! by moving to a new stamp, and a scratch reused across validations
//! allocates only when a function outgrows the tables or a block the
//! buffers.

use rolag_analysis::depgraph::BlockDeps;
use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::{
    Function, GlobalData, GlobalInit, InstData, InstExtra, InstId, Module, Opcode, PreWindow,
    TypeId, ValueDef, ValueId,
};

use crate::expr::{Expr, ExprArena, ExprId, ExtraKey};
use crate::{RewriteHints, TvError};

/// Which part of the rolled CFG an expression is being evaluated in.
/// Values defined in a later phase are not yet available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pre,
    Loop,
    Exit,
}

/// The rolled code's instruction layout discovered by the structure check:
/// the preheader is its survivors then its generated code, the exit block
/// its generated code then its survivors.
struct Layout<'a> {
    pre_surv: &'a [InstId],
    pre_new: &'a [InstId],
    loop_list: &'a [InstId],
    exit_new: &'a [InstId],
    exit_surv: &'a [InstId],
}

/// Whether `op` touches memory or the outside world, so that the rolled
/// code must re-execute it rather than recompute it.
fn is_effect(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Load | Opcode::Store | Opcode::Call | Opcode::Alloca
    )
}

/// A table indexed by a dense id whose entries belong to one validation:
/// each is stamped with the validation that wrote it, and reads as absent
/// under any other stamp.
struct Stamped<T> {
    slots: Vec<(u32, T)>,
    stamp: u32,
}

impl<T> Default for Stamped<T> {
    fn default() -> Self {
        Stamped {
            slots: Vec::new(),
            stamp: 0,
        }
    }
}

impl<T: Copy + Default> Stamped<T> {
    /// Empties the table and makes room for ids below `len`.
    fn start(&mut self, len: usize) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Four billion validations in, old stamps come round again.
            self.slots.iter_mut().for_each(|slot| slot.0 = 0);
            self.stamp = 1;
        }
        if self.slots.len() < len {
            self.slots.resize(len, (0, T::default()));
        }
    }

    fn get(&self, id: usize) -> Option<T> {
        match self.slots.get(id) {
            Some(&(stamp, value)) if stamp == self.stamp => Some(value),
            _ => None,
        }
    }

    fn insert(&mut self, id: usize, value: T) {
        self.slots[id] = (self.stamp, value);
    }
}

/// What the structure check and effect matching know of an original
/// instruction of the candidate block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Mark {
    #[default]
    Unmarked,
    /// Placed in the preheader or the exit block by the rewrite.
    Survivor,
    /// Rolled away (deleted) by the rewrite.
    Region,
    /// Rolled away and re-executed by a generated effect.
    Matched,
}

/// Reusable state for [`crate::validate_rewrite`]. One scratch serves any
/// number of validations, one at a time; each starts by emptying it, and
/// keeps its tables and buffers for the next. `TvScratch::default()` is a
/// scratch for a one-off validation.
#[derive(Default)]
pub struct TvScratch {
    arena: ExprArena,
    /// Per rolled value: its current symbolic value. Leaves (constants,
    /// addresses, parameters, values from outside the region) are bound
    /// the first time they are interned.
    bindings: Stamped<ExprId>,
    /// Per original value: its normalized expression.
    orig_memo: Stamped<ExprId>,
    /// Per original instruction of the candidate block: its [`Mark`].
    marks: Stamped<Mark>,
    /// Per position of the candidate block: the instruction's place in
    /// the rolled order, or `u32::MAX` when the rolled code lacks it.
    rolled_pos: Vec<u32>,
    /// The region's effectful instructions claimed for each lane below
    /// `hints.lanes`, in block order: the only originals a generated
    /// effect at that lane may match. Entries past `hints.lanes` are
    /// left over from earlier validations.
    lane_effects: Vec<Vec<InstId>>,
    /// Matched originals, in the order the rolled code performs them.
    match_order: Vec<InstId>,
    /// Scratch memory: `(allocation, constant index) -> stored value`.
    heap: FxHashMap<(ExprId, i64), ExprId>,
    /// Allocations created by the rewrite (addresses disjoint from all
    /// original memory).
    fresh: FxHashSet<ExprId>,
    /// Operand expressions of the instructions being evaluated, as a
    /// stack: each evaluation pushes its operands and pops them when done.
    args: Vec<ExprId>,
    /// The loop phis' next values while a lane rebinds them.
    phi_next: Vec<(ValueId, ExprId)>,
}

impl TvScratch {
    /// An empty scratch; allocates nothing until its first validation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the scratch for a validation of `rolled` against `orig`.
    fn start(&mut self, orig: &PreWindow, rolled: &Function, hints: &RewriteHints) {
        self.arena.reset(hints.fast_math);
        self.bindings.start(rolled.num_values());
        self.orig_memo.start(orig.num_values());
        self.marks.start(orig.num_insts());
        for queue in &mut self.lane_effects {
            queue.clear();
        }
        if self.lane_effects.len() < hints.lanes {
            self.lane_effects.resize_with(hints.lanes, Vec::new);
        }
        self.match_order.clear();
        self.heap.clear();
        self.fresh.clear();
        self.args.clear();
        self.phi_next.clear();
    }
}

pub(crate) struct Validator<'a> {
    module: &'a Module,
    /// The lookup tables the rewrite created, from `hints.first_new_global`.
    tables: &'a [GlobalData],
    orig: &'a PreWindow<'a>,
    rolled: &'a Function,
    hints: &'a RewriteHints,
    /// The candidate block's dependences in `orig`.
    deps: &'a BlockDeps,
    s: &'a mut TvScratch,
    orig_block_insts: &'a [InstId],
    /// How many of the rolled-away instructions are effects.
    region_effects: usize,
    /// The smallest and largest result value of a rolled-away instruction.
    region_results: (ValueId, ValueId),
    num_orig_insts: usize,
}

impl<'a> Validator<'a> {
    pub(crate) fn new(
        module: &'a Module,
        tables: &'a [GlobalData],
        orig: &'a PreWindow<'a>,
        rolled: &'a Function,
        hints: &'a RewriteHints,
        deps: &'a BlockDeps,
        scratch: &'a mut TvScratch,
    ) -> Self {
        scratch.start(orig, rolled, hints);
        Validator {
            module,
            tables,
            orig,
            rolled,
            hints,
            deps,
            s: scratch,
            orig_block_insts: &[],
            region_effects: 0,
            region_results: (
                ValueId::from_index(u32::MAX as usize),
                ValueId::from_index(0),
            ),
            num_orig_insts: orig.num_insts(),
        }
    }

    pub(crate) fn run(mut self) -> Result<(), TvError> {
        let layout = self.check_structure()?;
        self.run_preheader(layout.pre_new)?;
        self.run_loop(layout.loop_list)?;
        for &i in layout.exit_new {
            self.exec_inst(i, Phase::Exit, 0)?;
        }
        self.check_effect_coverage()?;
        self.check_survivors()?;
        self.check_memory_order(layout.pre_surv, layout.exit_surv)
    }

    /// Whether original instruction `i` was rolled away.
    fn in_region(&self, i: InstId) -> bool {
        matches!(
            self.s.marks.get(i.index()),
            Some(Mark::Region | Mark::Matched)
        )
    }

    // ------------------------------------------------------------ structure

    fn check_structure(&mut self) -> Result<Layout<'a>, TvError> {
        let (h, orig, rolled) = (self.hints, self.orig, self.rolled);
        let nb = orig.num_blocks();
        if h.lanes == 0 {
            return Err(TvError::Structure("zero-lane rewrite".into()));
        }
        if rolled.num_blocks() != nb + 2 {
            return Err(TvError::Structure(format!(
                "expected exactly two new blocks, found {} -> {}",
                nb,
                rolled.num_blocks()
            )));
        }
        if h.loop_block.index() != nb || h.exit_block.index() != nb + 1 || h.block.index() >= nb {
            return Err(TvError::Structure(
                "loop/exit are not the appended blocks".into(),
            ));
        }
        for b in orig.block_ids() {
            if b == h.block {
                continue;
            }
            if orig.block(b).insts != rolled.block(b).insts {
                return Err(TvError::Structure(format!(
                    "untouched block `{}` changed its instruction list",
                    orig.block(b).name
                )));
            }
        }

        let n = self.num_orig_insts;
        let pre = rolled.block(h.block).insts.as_slice();
        let split = pre.iter().position(|i| i.index() >= n).unwrap_or(pre.len());
        let (pre_surv, pre_new) = pre.split_at(split);
        if pre_new.iter().any(|i| i.index() < n) {
            return Err(TvError::Structure(
                "surviving instruction after generated code in the preheader".into(),
            ));
        }
        let loop_list = rolled.block(h.loop_block).insts.as_slice();
        if let Some(&i) = loop_list.iter().find(|i| i.index() < n) {
            return Err(TvError::Structure(format!(
                "original instruction {} moved into the loop body",
                i.index()
            )));
        }
        let exit = rolled.block(h.exit_block).insts.as_slice();
        let split = exit
            .iter()
            .position(|i| i.index() < n)
            .unwrap_or(exit.len());
        let (exit_new, exit_surv) = exit.split_at(split);
        if exit_surv.iter().any(|i| i.index() >= n) {
            return Err(TvError::Structure(
                "generated instruction after survivors in the exit block".into(),
            ));
        }

        // The dependences index the candidate block's positions in `orig`.
        let deps = self.deps;
        for &i in pre_surv.iter().chain(exit_surv) {
            if deps.position(i).is_none() {
                return Err(TvError::Structure(format!(
                    "survivor {} is not from the candidate block",
                    i.index()
                )));
            }
            if self.s.marks.get(i.index()).is_some() {
                return Err(TvError::Structure(format!(
                    "survivor {} placed twice",
                    i.index()
                )));
            }
            self.s.marks.insert(i.index(), Mark::Survivor);
        }
        for list in [pre_surv, exit_surv] {
            for w in list.windows(2) {
                if deps.position(w[0]) >= deps.position(w[1]) {
                    return Err(TvError::Structure(
                        "survivors reordered against the original block".into(),
                    ));
                }
            }
        }

        // Walk the block in order, so a rewrite that deleted several
        // instructions it cannot re-express reports the first of them.
        let orig_list = orig.block(h.block).insts.as_slice();
        for &i in orig_list {
            if self.s.marks.get(i.index()).is_some() {
                continue;
            }
            let op = orig.inst(i).opcode;
            if op == Opcode::Phi || op.is_terminator() {
                return Err(TvError::Unsupported(format!(
                    "rewrite deleted a {} it cannot re-express",
                    op.mnemonic()
                )));
            }
            if is_effect(op) {
                self.region_effects += 1;
                // No lane at or past `lanes` ever runs, so an effect
                // claimed for one stays unmatched and fails coverage.
                if let Some(&lane) = h.claimed_lanes.get(&i).filter(|&&lane| lane < h.lanes) {
                    self.s.lane_effects[lane].push(i);
                }
            }
            self.s.marks.insert(i.index(), Mark::Region);
            let result = orig.inst_result(i);
            self.region_results.0 = self.region_results.0.min(result);
            self.region_results.1 = self.region_results.1.max(result);
        }
        if pre_surv
            .iter()
            .any(|&i| orig.inst(i).opcode.is_terminator())
        {
            return Err(TvError::Structure(
                "original terminator left in the preheader".into(),
            ));
        }
        match exit_surv.last() {
            Some(&i) if orig.inst(i).opcode.is_terminator() => {}
            _ => {
                return Err(TvError::Structure(
                    "exit block does not end with the original terminator".into(),
                ))
            }
        }
        self.orig_block_insts = orig_list;
        Ok(Layout {
            pre_surv,
            pre_new,
            loop_list,
            exit_new,
            exit_surv,
        })
    }

    // ------------------------------------------------------------ execution

    fn run_preheader(&mut self, pre_new: &[InstId]) -> Result<(), TvError> {
        let Some((&last, rest)) = pre_new.split_last() else {
            return Err(TvError::Structure(
                "preheader generates no branch to the loop".into(),
            ));
        };
        for &i in rest {
            self.exec_inst(i, Phase::Pre, 0)?;
        }
        let d = self.rolled.inst(last);
        match (d.opcode, &d.extra) {
            (Opcode::Br, InstExtra::Br { dest }) if *dest == self.hints.loop_block => Ok(()),
            _ => Err(TvError::Structure(
                "preheader does not end with a branch to the loop".into(),
            )),
        }
    }

    fn run_loop(&mut self, loop_list: &'a [InstId]) -> Result<(), TvError> {
        let h = self.hints;
        let Some((&latch, body)) = loop_list.split_last() else {
            return Err(TvError::Structure("empty loop block".into()));
        };
        let latch_data = self.rolled.inst(latch);
        let cond = match (latch_data.opcode, &latch_data.extra) {
            (
                Opcode::CondBr,
                &InstExtra::CondBr {
                    then_dest,
                    else_dest,
                },
            ) if then_dest == h.loop_block && else_dest == h.exit_block => latch_data.operands[0],
            _ => {
                return Err(TvError::Structure(
                    "loop does not end with `condbr loop, exit`".into(),
                ))
            }
        };

        // Split header phis from the straight-line body.
        let mut num_phis = 0;
        for (k, &i) in body.iter().enumerate() {
            let d = self.rolled.inst(i);
            if d.opcode == Opcode::Phi {
                if k > num_phis {
                    return Err(TvError::Structure("phi after non-phi in the loop".into()));
                }
                let InstExtra::Phi { incoming } = &d.extra else {
                    return Err(TvError::Structure("phi without incoming blocks".into()));
                };
                if incoming.as_slice() != [h.block, h.loop_block]
                    && incoming.as_slice() != [h.loop_block, h.block]
                {
                    return Err(TvError::Structure(
                        "loop phi arms are not exactly preheader + latch".into(),
                    ));
                }
                num_phis += 1;
            } else if d.opcode.is_terminator() {
                return Err(TvError::Structure("terminator inside the loop body".into()));
            }
        }
        let (phis, body_insts) = body.split_at(num_phis);

        let mut next = std::mem::take(&mut self.s.phi_next);
        let result = self.run_lanes(phis, body_insts, cond, &mut next);
        self.s.phi_next = next;
        result
    }

    /// Runs the loop body once per lane, rebinding the header `phis` at the
    /// top of each, and checks the latch condition `cond` after each.
    fn run_lanes(
        &mut self,
        phis: &[InstId],
        body_insts: &[InstId],
        cond: ValueId,
        next: &mut Vec<(ValueId, ExprId)>,
    ) -> Result<(), TvError> {
        let h = self.hints;
        for lane in 0..h.lanes {
            // All phi next-values are computed against the previous lane's
            // bindings before any rebinding (parallel phi semantics).
            next.clear();
            for &phi in phis {
                let d = self.rolled.inst(phi);
                let InstExtra::Phi { incoming } = &d.extra else {
                    unreachable!("checked by run_loop");
                };
                let v = if lane == 0 {
                    let pre_arm = usize::from(incoming[0] != h.block);
                    self.rolled_expr(d.operands[pre_arm], Phase::Pre)?
                } else {
                    let loop_arm = usize::from(incoming[0] != h.loop_block);
                    self.rolled_expr(d.operands[loop_arm], Phase::Loop)?
                };
                next.push((self.rolled.inst_result(phi), v));
            }
            for &(res, v) in next.iter() {
                self.s.bindings.insert(res.index(), v);
            }
            for &i in body_insts {
                self.exec_inst(i, Phase::Loop, lane)?;
            }
            let c = self.rolled_expr(cond, Phase::Loop)?;
            let continues = lane + 1 < h.lanes;
            match self.s.arena.get(c) {
                Expr::Int { value, .. } => {
                    if (*value != 0) != continues {
                        return Err(TvError::Structure(format!(
                            "latch condition wrong at lane {lane}: loop would not run exactly {} times",
                            h.lanes
                        )));
                    }
                }
                _ => {
                    return Err(TvError::Structure(
                        "loop trip count is not statically decided".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    fn exec_inst(&mut self, i: InstId, phase: Phase, lane: usize) -> Result<(), TvError> {
        let rolled = self.rolled;
        let d = rolled.inst(i);
        match d.opcode {
            Opcode::Alloca => match phase {
                Phase::Pre => {
                    let e = self.s.arena.intern(Expr::Fresh(i));
                    self.s.fresh.insert(e);
                    self.s.bindings.insert(rolled.inst_result(i).index(), e);
                    Ok(())
                }
                Phase::Loop => self.match_effect(i, d, lane),
                Phase::Exit => Err(TvError::Structure(
                    "generated alloca in the exit block".into(),
                )),
            },
            Opcode::Load => {
                let addr = self.rolled_expr(d.operands[0], phase)?;
                if let Some(v) = self.synthetic_load(addr, d.ty)? {
                    self.s.bindings.insert(rolled.inst_result(i).index(), v);
                    Ok(())
                } else if phase == Phase::Loop {
                    self.match_effect(i, d, lane)
                } else {
                    Err(TvError::Structure(
                        "generated load of original memory outside the loop".into(),
                    ))
                }
            }
            Opcode::Store => {
                let value = self.rolled_expr(d.operands[0], phase)?;
                let addr = self.rolled_expr(d.operands[1], phase)?;
                if let Some(slot) = self.fresh_slot(addr)? {
                    if phase == Phase::Exit {
                        return Err(TvError::Structure(
                            "generated store in the exit block".into(),
                        ));
                    }
                    self.s.heap.insert(slot, value);
                    Ok(())
                } else if phase == Phase::Loop {
                    self.match_effect(i, d, lane)
                } else {
                    Err(TvError::Structure(
                        "generated store to original memory outside the loop".into(),
                    ))
                }
            }
            Opcode::Call => {
                if phase == Phase::Loop {
                    self.match_effect(i, d, lane)
                } else {
                    Err(TvError::Structure("generated call outside the loop".into()))
                }
            }
            Opcode::Phi => Err(TvError::Structure(
                "generated phi outside the loop header".into(),
            )),
            op if op.is_terminator() => Err(TvError::Structure(format!(
                "unexpected generated {} outside block tails",
                op.mnemonic()
            ))),
            _ => {
                let start = self.s.args.len();
                for &v in &d.operands {
                    let e = self.rolled_expr(v, phase)?;
                    self.s.args.push(e);
                }
                let e = self.pop_op(d, start)?;
                self.s.bindings.insert(rolled.inst_result(i).index(), e);
                Ok(())
            }
        }
    }

    /// Builds `d`'s operation over the operand expressions pushed on the
    /// argument stack since `start`, and pops them.
    fn pop_op(&mut self, d: &InstData, start: usize) -> Result<ExprId, TvError> {
        let extra = extra_key(&d.extra)?;
        let s = &mut *self.s;
        let e = s
            .arena
            .op(&self.module.types, d.opcode, d.ty, extra, &s.args[start..]);
        s.args.truncate(start);
        Ok(e)
    }

    // ----------------------------------------------------- scratch memory

    /// Resolves `addr` to a scratch-memory slot, if it points into memory
    /// the rewrite itself allocated.
    fn fresh_slot(&self, addr: ExprId) -> Result<Option<(ExprId, i64)>, TvError> {
        let (arena, fresh) = (&self.s.arena, &self.s.fresh);
        if fresh.is_empty() {
            return Ok(None);
        }
        if fresh.contains(&addr) {
            return Ok(Some((addr, 0)));
        }
        if let Expr::Op {
            opcode: Opcode::Gep,
            args,
            ..
        } = *arena.get(addr)
        {
            let args = arena.args(args);
            if !args.is_empty() && fresh.contains(&args[0]) {
                if args.len() == 2 {
                    if let Expr::Int { value, .. } = arena.get(args[1]) {
                        return Ok(Some((args[0], *value)));
                    }
                }
                return Err(TvError::Unsupported(
                    "scratch-array access with a non-constant index".into(),
                ));
            }
        }
        Ok(None)
    }

    /// Evaluates a load the rewrite can satisfy without touching original
    /// memory: a scratch slot, or a constant-data lookup table the rewrite
    /// created (`rolag.cdata`).
    fn synthetic_load(&mut self, addr: ExprId, ty: TypeId) -> Result<Option<ExprId>, TvError> {
        if let Some(slot) = self.fresh_slot(addr)? {
            return match self.s.heap.get(&slot) {
                Some(&v) => Ok(Some(v)),
                None => Err(TvError::Unsupported(
                    "load from an uninitialized scratch slot".into(),
                )),
            };
        }
        if self.tables.is_empty() {
            // The rewrite created no lookup table to read.
            return Ok(None);
        }
        let arena = &self.s.arena;
        let (base, idx) = match *arena.get(addr) {
            Expr::Global(g) => (g, 0i64),
            Expr::Op {
                opcode: Opcode::Gep,
                args,
                ..
            } if args.len() == 2 => {
                let args = arena.args(args);
                match (arena.get(args[0]), arena.get(args[1])) {
                    (Expr::Global(g), Expr::Int { value, .. }) => (*g, *value),
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        let Some(table) = base.index().checked_sub(self.hints.first_new_global) else {
            return Ok(None);
        };
        let data = self.tables.get(table).ok_or_else(|| {
            TvError::Structure("load from a generated global the rewrite did not create".into())
        })?;
        let GlobalInit::Ints { elem_ty, values } = &data.init else {
            return Err(TvError::Unsupported(
                "generated global without constant integer data".into(),
            ));
        };
        if *elem_ty != ty {
            return Err(TvError::ValueMismatch(
                "lookup-table load at the wrong element type".into(),
            ));
        }
        let Some(&v) = usize::try_from(idx).ok().and_then(|u| values.get(u)) else {
            return Err(TvError::Structure("lookup-table load out of bounds".into()));
        };
        Ok(Some(self.s.arena.int(&self.module.types, ty, v)))
    }

    // ------------------------------------------------------ effect matching

    /// Matches a generated effectful instruction at `lane` (below
    /// `hints.lanes`) against the first not-yet-matched rolled-away
    /// original claimed for the same lane, in block order.
    fn match_effect(&mut self, i: InstId, d: &InstData, lane: usize) -> Result<(), TvError> {
        let orig = self.orig;
        let rextra = extra_key(&d.extra)?;
        let start = self.s.args.len();
        for &v in &d.operands {
            let e = self.rolled_expr(v, Phase::Loop)?;
            self.s.args.push(e);
        }
        for k in 0..self.s.lane_effects[lane].len() {
            let c = self.s.lane_effects[lane][k];
            if self.s.marks.get(c.index()) == Some(Mark::Matched) {
                continue;
            }
            let od = orig.inst(c);
            if od.opcode != d.opcode
                || od.ty != d.ty
                || od.operands.len() != d.operands.len()
                || extra_key(&od.extra)? != rextra
            {
                continue;
            }
            let mut equal = true;
            for (j, &ov) in od.operands.iter().enumerate() {
                if self.orig_expr(ov)? != self.s.args[start + j] {
                    equal = false;
                    break;
                }
            }
            if !equal {
                continue;
            }
            self.s.args.truncate(start);
            self.s.marks.insert(c.index(), Mark::Matched);
            self.s.match_order.push(c);
            if d.opcode != Opcode::Store {
                // A rolled-away load, call or alloca is the opaque leaf of
                // its result, which the memo may already hold.
                let e = self.orig_expr(orig.inst_result(c))?;
                self.s
                    .bindings
                    .insert(self.rolled.inst_result(i).index(), e);
            }
            return Ok(());
        }
        Err(TvError::EffectMismatch(format!(
            "no rolled-away {} at lane {lane} matches the generated one",
            d.opcode.mnemonic()
        )))
    }

    fn check_effect_coverage(&self) -> Result<(), TvError> {
        // Matches are distinct region effects, so equal counts mean every
        // one was matched; otherwise the walk names the first that was not.
        if self.s.match_order.len() == self.region_effects {
            return Ok(());
        }
        for &i in self.orig_block_insts {
            if self.s.marks.get(i.index()) != Some(Mark::Region) {
                continue;
            }
            let op = self.orig.inst(i).opcode;
            if is_effect(op) {
                return Err(TvError::EffectMismatch(format!(
                    "rolled-away {} (instruction {}) is never re-executed",
                    op.mnemonic(),
                    i.index()
                )));
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- evaluation

    /// The normalized expression of an original-function value. Region
    /// *pure* instructions expand recursively; effectful region results
    /// and everything defined outside the region stay opaque leaves.
    fn orig_expr(&mut self, v: ValueId) -> Result<ExprId, TvError> {
        if let Some(e) = self.s.orig_memo.get(v.index()) {
            return Ok(e);
        }
        let orig = self.orig;
        let types = &self.module.types;
        let e = match *orig.value(v) {
            ValueDef::ConstInt { ty, value } => self.s.arena.int(types, ty, value),
            ValueDef::ConstFloat { ty, bits } => self.s.arena.intern(Expr::Float { ty, bits }),
            ValueDef::GlobalAddr(g) => self.s.arena.intern(Expr::Global(g)),
            ValueDef::FuncAddr(f) => self.s.arena.intern(Expr::Func(f)),
            ValueDef::Undef(ty) => self.s.arena.intern(Expr::Undef(ty)),
            ValueDef::Param { .. } => self.s.arena.intern(Expr::Orig(v)),
            ValueDef::Inst(i) if self.in_region(i) => {
                let d = orig.inst(i);
                match d.opcode {
                    Opcode::Load | Opcode::Call | Opcode::Alloca => {
                        self.s.arena.intern(Expr::Orig(v))
                    }
                    op if op == Opcode::Store || op == Opcode::Phi || op.is_terminator() => {
                        return Err(TvError::Unsupported(format!(
                            "{} result used as a value",
                            op.mnemonic()
                        )))
                    }
                    _ => {
                        let start = self.s.args.len();
                        for &op in &d.operands {
                            let e = self.orig_expr(op)?;
                            self.s.args.push(e);
                        }
                        self.pop_op(d, start)?
                    }
                }
            }
            ValueDef::Inst(_) => self.s.arena.intern(Expr::Orig(v)),
        };
        self.s.orig_memo.insert(v.index(), e);
        Ok(e)
    }

    /// The current symbolic value of a rolled-function SSA value.
    fn rolled_expr(&mut self, v: ValueId, phase: Phase) -> Result<ExprId, TvError> {
        if let Some(e) = self.s.bindings.get(v.index()) {
            return Ok(e);
        }
        let types = &self.module.types;
        let e = match *self.rolled.value(v) {
            ValueDef::ConstInt { ty, value } => self.s.arena.int(types, ty, value),
            ValueDef::ConstFloat { ty, bits } => self.s.arena.intern(Expr::Float { ty, bits }),
            ValueDef::GlobalAddr(g) => self.s.arena.intern(Expr::Global(g)),
            ValueDef::FuncAddr(f) => self.s.arena.intern(Expr::Func(f)),
            ValueDef::Undef(ty) => self.s.arena.intern(Expr::Undef(ty)),
            ValueDef::Param { .. } => self.s.arena.intern(Expr::Orig(v)),
            ValueDef::Inst(i) => {
                if i.index() >= self.num_orig_insts {
                    return Err(TvError::Structure(
                        "use of a generated value before it is computed".into(),
                    ));
                }
                if self.in_region(i) {
                    return Err(TvError::Structure(
                        "use of a value the rewrite deleted".into(),
                    ));
                }
                if phase != Phase::Exit && self.rolled.inst(i).block == self.hints.exit_block {
                    return Err(TvError::Structure(
                        "loop or preheader uses a value defined in the exit block".into(),
                    ));
                }
                self.s.arena.intern(Expr::Orig(v))
            }
        };
        // A leaf keeps its expression for the whole validation, so later
        // uses read it from the binding table. Caching one that passed the
        // exit-block check above is sound because phases only advance
        // (preheader, loop, exit): no later use is in an earlier phase.
        self.s.bindings.insert(v.index(), e);
        Ok(e)
    }

    // ------------------------------------------------------------ survivors

    fn check_survivors(&mut self) -> Result<(), TvError> {
        let (h, orig, rolled) = (self.hints, self.orig, self.rolled);
        for b in rolled.block_ids() {
            let in_pre = b == h.block;
            for &i in &rolled.block(b).insts {
                if i.index() >= self.num_orig_insts {
                    continue;
                }
                let (od, rd) = (orig.inst(i), rolled.inst(i));
                if od.opcode != rd.opcode
                    || od.ty != rd.ty
                    || od.operands.len() != rd.operands.len()
                {
                    return Err(TvError::Structure(format!(
                        "surviving instruction {} changed shape",
                        i.index()
                    )));
                }
                // Operand `j` of a phi rides the back-edge arm when its
                // incoming block was the candidate block itself (the block
                // was its own latch). That edge now departs from the exit
                // block, so the arm's value is evaluated there — it may be
                // rewritten and is checked by simulation below. `incoming`
                // holds a phi's original arm blocks, to tell which.
                let mut incoming: &[rolag_ir::BlockId] = &[];
                match (&od.extra, &rd.extra) {
                    (InstExtra::Phi { incoming: oi }, InstExtra::Phi { incoming: ri }) => {
                        if oi.len() != ri.len() {
                            return Err(TvError::Structure("phi arm count changed".into()));
                        }
                        for (ob, rb) in oi.iter().zip(ri) {
                            let want = if *ob == h.block { h.exit_block } else { *ob };
                            if *rb != want {
                                return Err(TvError::ValueMismatch(
                                    "phi incoming edge not redirected to the exit block".into(),
                                ));
                            }
                        }
                        incoming = oi;
                    }
                    (oe, re) => {
                        if oe != re {
                            return Err(TvError::Structure(format!(
                                "surviving instruction {} changed its payload",
                                i.index()
                            )));
                        }
                    }
                }
                for (j, (&ov, &rv)) in od.operands.iter().zip(&rd.operands).enumerate() {
                    if ov == rv {
                        // An instruction has exactly one result value, so
                        // only a value in the region's result range can be
                        // a deleted one.
                        let (lo, hi) = self.region_results;
                        if ov < lo || ov > hi {
                            continue;
                        }
                        if let ValueDef::Inst(di) = *orig.value(ov) {
                            if self.in_region(di) {
                                return Err(TvError::Structure(format!(
                                    "survivor {} still uses a deleted value",
                                    i.index()
                                )));
                            }
                        }
                        continue;
                    }
                    if in_pre && incoming.get(j) != Some(&h.block) {
                        // Loop/exit values cannot flow backwards into the
                        // preheader; outside a redirected back-edge phi
                        // arm, a rewritten operand there is a bug.
                        return Err(TvError::Structure(
                            "preheader survivor operand was rewritten".into(),
                        ));
                    }
                    let eo = self.orig_expr(ov)?;
                    let er = self.rolled_expr(rv, Phase::Exit)?;
                    if eo != er {
                        return Err(TvError::ValueMismatch(format!(
                            "operand {j} of surviving instruction {} does not simulate",
                            i.index()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- memory order

    /// Checks every conflicting pair `(a, b)`, `a` before `b` in the
    /// block, in the order of `a` then `b`, so the first violation reported
    /// is the first in block order.
    fn check_memory_order(
        &mut self,
        pre_surv: &[InstId],
        exit_surv: &[InstId],
    ) -> Result<(), TvError> {
        let deps = self.deps;
        let mut numbered = false;
        for a in 0..deps.len() {
            let Some(row) = deps.conflict_row(a) else {
                continue;
            };
            for b in row.iter_from(a + 1) {
                let s = &mut *self.s;
                if !numbered {
                    // Each original instruction's place in the rolled
                    // order, by its block position.
                    s.rolled_pos.clear();
                    s.rolled_pos.resize(deps.len(), u32::MAX);
                    let order = pre_surv.iter().chain(&s.match_order).chain(exit_surv);
                    for (k, &i) in order.enumerate() {
                        if let Some(p) = deps.position(i) {
                            s.rolled_pos[p] = k as u32;
                        }
                    }
                    numbered = true;
                }
                let (pa, pb) = (s.rolled_pos[a], s.rolled_pos[b]);
                if pa == u32::MAX || pb == u32::MAX {
                    return Err(TvError::MemoryOrder(format!(
                        "conflicting memory operations {}/{} missing from the rolled order",
                        deps.insts[a].index(),
                        deps.insts[b].index()
                    )));
                }
                if pa >= pb {
                    return Err(TvError::MemoryOrder(format!(
                        "memory operations {} and {} reordered against a dependence",
                        deps.insts[a].index(),
                        deps.insts[b].index()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Converts an instruction payload to its arena key; control-flow payloads
/// have no expression meaning.
fn extra_key(extra: &InstExtra) -> Result<ExtraKey, TvError> {
    Ok(match extra {
        InstExtra::None => ExtraKey::None,
        InstExtra::Icmp(p) => ExtraKey::Icmp(*p),
        InstExtra::Fcmp(p) => ExtraKey::Fcmp(*p),
        InstExtra::Gep { elem_ty } => ExtraKey::Gep(*elem_ty),
        InstExtra::Call { callee } => ExtraKey::Call(*callee),
        InstExtra::Alloca { elem_ty } => ExtraKey::Alloca(*elem_ty),
        InstExtra::Phi { .. } | InstExtra::Br { .. } | InstExtra::CondBr { .. } => {
            return Err(TvError::Unsupported(
                "control-flow payload in an expression context".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use rolag_analysis::depgraph::BlockDeps;
    use rolag_ir::fxhash::FxHashMap;
    use rolag_ir::parser::parse_module;

    use crate::{validate_rewrite, RewriteHints, TvError, TvScratch};

    const LOOP: &str = "module \"t\"\nglobal @x : [8 x i64] = zero\n\
        func @f() -> void {\nentry:\n  br loop\nloop:\n\
        \x20 %iv = phi i64 [ i64 0, entry ], [ %ivn, loop ]\n\
        \x20 %p = gep i64, @x, %iv\n  store %iv, %p\n\
        \x20 %ivn = add i64 %iv, i64 1\n  %c = icmp slt %ivn, i64 8\n\
        \x20 condbr %c, loop, exit\nexit:\n  ret\n}\n";

    /// A rewrite that deletes both a phi and the terminator of its block
    /// must name the phi, the first of the two in block order, on every
    /// run: the reason ends up in audit output that is compared by text.
    #[test]
    fn unsupported_deletions_report_the_first_offender_in_block_order() {
        let module = parse_module(LOOP).unwrap();
        let orig = module.func(module.func_by_name("f").unwrap());
        let block = orig.block_by_name("loop").unwrap();
        let mut rolled = orig.clone();
        for &i in &orig.block(block).insts {
            rolled.remove_inst(i);
        }
        let hints = RewriteHints {
            lanes: 2,
            block,
            loop_block: rolled.add_block("rolag.loop"),
            exit_block: rolled.add_block("rolag.exit"),
            first_new_global: module.num_globals(),
            fast_math: false,
            claimed_lanes: FxHashMap::default(),
        };
        let deps = BlockDeps::compute(&module, orig, block);
        let mut scratch = TvScratch::new();
        for _ in 0..16 {
            assert_eq!(
                validate_rewrite(
                    &module,
                    &[],
                    orig.pre_window(),
                    &rolled,
                    &hints,
                    &deps,
                    &mut scratch
                ),
                Err(TvError::Unsupported(
                    "rewrite deleted a phi it cannot re-express".into()
                ))
            );
        }
    }
}
