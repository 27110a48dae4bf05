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

use rolag_analysis::depgraph::BlockDeps;
use rolag_ir::fxhash::{FxHashMap, FxHashSet};
use rolag_ir::{
    BlockId, Function, GlobalInit, InlineList, InstData, InstExtra, InstId, Module, Opcode, TypeId,
    ValueDef, ValueId,
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

/// The rolled code's instruction layout discovered by the structure check.
struct Layout<'a> {
    pre_surv: Vec<InstId>,
    pre_new: Vec<InstId>,
    loop_list: &'a [InstId],
    exit_new: Vec<InstId>,
    exit_surv: Vec<InstId>,
}

/// Whether `op` touches memory or the outside world, so that the rolled
/// code must re-execute it rather than recompute it.
fn is_effect(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Load | Opcode::Store | Opcode::Call | Opcode::Alloca
    )
}

pub(crate) struct Validator<'a> {
    module: &'a Module,
    orig: &'a Function,
    rolled: &'a Function,
    hints: &'a RewriteHints,
    /// The candidate block's dependences in `orig`.
    deps: &'a BlockDeps,
    arena: ExprArena,
    /// Original-block instructions the rewrite deleted (rolled away).
    region: FxHashSet<InstId>,
    orig_block_insts: &'a [InstId],
    /// The region's effectful instructions claimed for each lane below
    /// `hints.lanes`, in block order: the only originals a generated
    /// effect at that lane may match.
    lane_effects: Vec<Vec<InstId>>,
    orig_memo: FxHashMap<ValueId, ExprId>,
    /// Current symbolic value of rolled-function SSA values.
    bindings: FxHashMap<ValueId, ExprId>,
    /// Scratch memory: `(allocation, constant index) -> stored value`.
    heap: FxHashMap<(ExprId, i64), ExprId>,
    /// Allocations created by the rewrite (addresses disjoint from all
    /// original memory).
    fresh: FxHashSet<ExprId>,
    matched: FxHashSet<InstId>,
    match_order: Vec<InstId>,
    num_orig_insts: usize,
}

impl<'a> Validator<'a> {
    pub(crate) fn new(
        module: &'a Module,
        orig: &'a Function,
        rolled: &'a Function,
        hints: &'a RewriteHints,
        deps: &'a BlockDeps,
    ) -> Self {
        Validator {
            module,
            orig,
            rolled,
            hints,
            deps,
            arena: ExprArena::new(hints.fast_math),
            region: FxHashSet::default(),
            orig_block_insts: &[],
            lane_effects: Vec::new(),
            orig_memo: FxHashMap::default(),
            bindings: FxHashMap::default(),
            heap: FxHashMap::default(),
            fresh: FxHashSet::default(),
            matched: FxHashSet::default(),
            match_order: Vec::new(),
            num_orig_insts: orig.num_insts(),
        }
    }

    pub(crate) fn run(mut self) -> Result<(), TvError> {
        let layout = self.check_structure()?;
        self.run_preheader(&layout.pre_new)?;
        self.run_loop(layout.loop_list)?;
        for &i in &layout.exit_new {
            self.exec_inst(i, Phase::Exit, 0)?;
        }
        self.check_effect_coverage()?;
        self.check_survivors()?;
        self.check_memory_order(&layout.pre_surv, &layout.exit_surv)
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
        let mut pre_surv = Vec::new();
        let mut pre_new = Vec::new();
        for &i in &rolled.block(h.block).insts {
            if i.index() < n {
                if !pre_new.is_empty() {
                    return Err(TvError::Structure(
                        "surviving instruction after generated code in the preheader".into(),
                    ));
                }
                pre_surv.push(i);
            } else {
                pre_new.push(i);
            }
        }
        let loop_list = rolled.block(h.loop_block).insts.as_slice();
        if let Some(&i) = loop_list.iter().find(|i| i.index() < n) {
            return Err(TvError::Structure(format!(
                "original instruction {} moved into the loop body",
                i.index()
            )));
        }
        let mut exit_new = Vec::new();
        let mut exit_surv = Vec::new();
        for &i in &rolled.block(h.exit_block).insts {
            if i.index() < n {
                exit_surv.push(i);
            } else {
                if !exit_surv.is_empty() {
                    return Err(TvError::Structure(
                        "generated instruction after survivors in the exit block".into(),
                    ));
                }
                exit_new.push(i);
            }
        }

        let orig_list = orig.block(h.block).insts.as_slice();
        let order: FxHashMap<InstId, usize> =
            orig_list.iter().enumerate().map(|(k, &i)| (i, k)).collect();
        let mut seen: FxHashSet<InstId> = FxHashSet::default();
        for &i in pre_surv.iter().chain(&exit_surv) {
            if !order.contains_key(&i) {
                return Err(TvError::Structure(format!(
                    "survivor {} is not from the candidate block",
                    i.index()
                )));
            }
            if !seen.insert(i) {
                return Err(TvError::Structure(format!(
                    "survivor {} placed twice",
                    i.index()
                )));
            }
        }
        for list in [&pre_surv, &exit_surv] {
            for w in list.windows(2) {
                if order[&w[0]] >= order[&w[1]] {
                    return Err(TvError::Structure(
                        "survivors reordered against the original block".into(),
                    ));
                }
            }
        }

        // Walk the block in order, so a rewrite that deleted several
        // instructions it cannot re-express reports the first of them.
        self.lane_effects = vec![Vec::new(); h.lanes];
        for &i in orig_list {
            if seen.contains(&i) {
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
                // No lane at or past `lanes` ever runs, so an effect
                // claimed for one stays unmatched and fails coverage.
                if let Some(queue) = h
                    .claimed_lanes
                    .get(&i)
                    .and_then(|&lane| self.lane_effects.get_mut(lane))
                {
                    queue.push(i);
                }
            }
            self.region.insert(i);
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

    fn run_loop(&mut self, loop_list: &[InstId]) -> Result<(), TvError> {
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
        let mut phis: Vec<(ValueId, ValueId, ValueId)> = Vec::new();
        let mut body_insts: Vec<InstId> = Vec::new();
        for &i in body {
            let d = self.rolled.inst(i);
            if d.opcode == Opcode::Phi {
                if !body_insts.is_empty() {
                    return Err(TvError::Structure("phi after non-phi in the loop".into()));
                }
                let InstExtra::Phi { incoming } = &d.extra else {
                    return Err(TvError::Structure("phi without incoming blocks".into()));
                };
                let (pre_arm, loop_arm) = if incoming.as_slice() == [h.block, h.loop_block] {
                    (d.operands[0], d.operands[1])
                } else if incoming.as_slice() == [h.loop_block, h.block] {
                    (d.operands[1], d.operands[0])
                } else {
                    return Err(TvError::Structure(
                        "loop phi arms are not exactly preheader + latch".into(),
                    ));
                };
                phis.push((self.rolled.inst_result(i), pre_arm, loop_arm));
            } else if d.opcode.is_terminator() {
                return Err(TvError::Structure("terminator inside the loop body".into()));
            } else {
                body_insts.push(i);
            }
        }

        for lane in 0..h.lanes {
            // All phi next-values are computed against the previous lane's
            // bindings before any rebinding (parallel phi semantics).
            let mut next = Vec::with_capacity(phis.len());
            for &(res, pre_arm, loop_arm) in &phis {
                let v = if lane == 0 {
                    self.rolled_expr(pre_arm, Phase::Pre)?
                } else {
                    self.rolled_expr(loop_arm, Phase::Loop)?
                };
                next.push((res, v));
            }
            for (res, v) in next {
                self.bindings.insert(res, v);
            }
            for &i in &body_insts {
                self.exec_inst(i, Phase::Loop, lane)?;
            }
            let c = self.rolled_expr(cond, Phase::Loop)?;
            let continues = lane + 1 < h.lanes;
            match self.arena.get(c) {
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
                    let e = self.arena.intern(Expr::Fresh(i));
                    self.fresh.insert(e);
                    self.bindings.insert(rolled.inst_result(i), e);
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
                    self.bindings.insert(rolled.inst_result(i), v);
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
                    self.heap.insert(slot, value);
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
                let mut args = InlineList::with_capacity(d.operands.len());
                for &v in &d.operands {
                    args.push(self.rolled_expr(v, phase)?);
                }
                let extra = extra_key(&d.extra)?;
                let e = self
                    .arena
                    .op(&self.module.types, d.opcode, d.ty, extra, args);
                self.bindings.insert(rolled.inst_result(i), e);
                Ok(())
            }
        }
    }

    // ----------------------------------------------------- scratch memory

    /// Resolves `addr` to a scratch-memory slot, if it points into memory
    /// the rewrite itself allocated.
    fn fresh_slot(&self, addr: ExprId) -> Result<Option<(ExprId, i64)>, TvError> {
        if self.fresh.contains(&addr) {
            return Ok(Some((addr, 0)));
        }
        if let Expr::Op {
            opcode: Opcode::Gep,
            args,
            ..
        } = self.arena.get(addr)
        {
            if !args.is_empty() && self.fresh.contains(&args[0]) {
                if args.len() == 2 {
                    if let Expr::Int { value, .. } = self.arena.get(args[1]) {
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
            return match self.heap.get(&slot) {
                Some(&v) => Ok(Some(v)),
                None => Err(TvError::Unsupported(
                    "load from an uninitialized scratch slot".into(),
                )),
            };
        }
        let (base, idx) = match self.arena.get(addr) {
            Expr::Global(g) => (*g, 0i64),
            Expr::Op {
                opcode: Opcode::Gep,
                args,
                ..
            } if args.len() == 2 => match (self.arena.get(args[0]), self.arena.get(args[1])) {
                (Expr::Global(g), Expr::Int { value, .. }) => (*g, *value),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        if base.index() < self.hints.first_new_global {
            return Ok(None);
        }
        let data = self.module.global(base);
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
        Ok(Some(self.arena.int(&self.module.types, ty, v)))
    }

    // ------------------------------------------------------ effect matching

    /// Matches a generated effectful instruction at `lane` (below
    /// `hints.lanes`) against the first not-yet-matched rolled-away
    /// original claimed for the same lane, in block order.
    fn match_effect(&mut self, i: InstId, d: &InstData, lane: usize) -> Result<(), TvError> {
        let orig = self.orig;
        let rextra = extra_key(&d.extra)?;
        let mut rargs = InlineList::with_capacity(d.operands.len());
        for &v in &d.operands {
            rargs.push(self.rolled_expr(v, Phase::Loop)?);
        }
        for k in 0..self.lane_effects[lane].len() {
            let c = self.lane_effects[lane][k];
            if self.matched.contains(&c) {
                continue;
            }
            let od = orig.inst(c);
            if od.opcode != d.opcode
                || od.ty != d.ty
                || od.operands.len() != rargs.len()
                || extra_key(&od.extra)? != rextra
            {
                continue;
            }
            let mut equal = true;
            for (j, &ov) in od.operands.iter().enumerate() {
                if self.orig_expr(ov)? != rargs[j] {
                    equal = false;
                    break;
                }
            }
            if !equal {
                continue;
            }
            self.matched.insert(c);
            self.match_order.push(c);
            if d.opcode != Opcode::Store {
                let orig_res = orig.inst_result(c);
                let e = self.arena.intern(Expr::Orig(orig_res));
                self.bindings.insert(self.rolled.inst_result(i), e);
            }
            return Ok(());
        }
        Err(TvError::EffectMismatch(format!(
            "no rolled-away {} at lane {lane} matches the generated one",
            d.opcode.mnemonic()
        )))
    }

    fn check_effect_coverage(&self) -> Result<(), TvError> {
        for &i in self.orig_block_insts {
            if !self.region.contains(&i) {
                continue;
            }
            let op = self.orig.inst(i).opcode;
            if is_effect(op) && !self.matched.contains(&i) {
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
        if let Some(&e) = self.orig_memo.get(&v) {
            return Ok(e);
        }
        let orig = self.orig;
        let e = match *orig.value(v) {
            ValueDef::ConstInt { ty, value } => self.arena.int(&self.module.types, ty, value),
            ValueDef::ConstFloat { ty, bits } => self.arena.intern(Expr::Float { ty, bits }),
            ValueDef::GlobalAddr(g) => self.arena.intern(Expr::Global(g)),
            ValueDef::FuncAddr(f) => self.arena.intern(Expr::Func(f)),
            ValueDef::Undef(ty) => self.arena.intern(Expr::Undef(ty)),
            ValueDef::Param { .. } => self.arena.intern(Expr::Orig(v)),
            ValueDef::Inst(i) if self.region.contains(&i) => {
                let d = orig.inst(i);
                match d.opcode {
                    Opcode::Load | Opcode::Call | Opcode::Alloca => {
                        self.arena.intern(Expr::Orig(v))
                    }
                    op if op == Opcode::Store || op == Opcode::Phi || op.is_terminator() => {
                        return Err(TvError::Unsupported(format!(
                            "{} result used as a value",
                            op.mnemonic()
                        )))
                    }
                    _ => {
                        let mut args = InlineList::with_capacity(d.operands.len());
                        for &op in &d.operands {
                            args.push(self.orig_expr(op)?);
                        }
                        let extra = extra_key(&d.extra)?;
                        self.arena
                            .op(&self.module.types, d.opcode, d.ty, extra, args)
                    }
                }
            }
            ValueDef::Inst(_) => self.arena.intern(Expr::Orig(v)),
        };
        self.orig_memo.insert(v, e);
        Ok(e)
    }

    /// The current symbolic value of a rolled-function SSA value.
    fn rolled_expr(&mut self, v: ValueId, phase: Phase) -> Result<ExprId, TvError> {
        if let Some(&e) = self.bindings.get(&v) {
            return Ok(e);
        }
        let e = match *self.rolled.value(v) {
            ValueDef::ConstInt { ty, value } => self.arena.int(&self.module.types, ty, value),
            ValueDef::ConstFloat { ty, bits } => self.arena.intern(Expr::Float { ty, bits }),
            ValueDef::GlobalAddr(g) => self.arena.intern(Expr::Global(g)),
            ValueDef::FuncAddr(f) => self.arena.intern(Expr::Func(f)),
            ValueDef::Undef(ty) => self.arena.intern(Expr::Undef(ty)),
            ValueDef::Param { .. } => self.arena.intern(Expr::Orig(v)),
            ValueDef::Inst(i) => {
                if i.index() >= self.num_orig_insts {
                    return Err(TvError::Structure(
                        "use of a generated value before it is computed".into(),
                    ));
                }
                if self.region.contains(&i) {
                    return Err(TvError::Structure(
                        "use of a value the rewrite deleted".into(),
                    ));
                }
                if phase != Phase::Exit && self.rolled.inst(i).block == self.hints.exit_block {
                    return Err(TvError::Structure(
                        "loop or preheader uses a value defined in the exit block".into(),
                    ));
                }
                self.arena.intern(Expr::Orig(v))
            }
        };
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
                let mut incoming: &[BlockId] = &[];
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
                        if let ValueDef::Inst(di) = orig.value(ov) {
                            if self.region.contains(di) {
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
    fn check_memory_order(&self, pre_surv: &[InstId], exit_surv: &[InstId]) -> Result<(), TvError> {
        let deps = self.deps;
        let mut rolled_order: Option<FxHashMap<InstId, usize>> = None;
        for a in 0..deps.len() {
            let Some(row) = deps.conflict_row(a) else {
                continue;
            };
            for b in row.iter().filter(|&b| b > a) {
                let pos = rolled_order.get_or_insert_with(|| {
                    pre_surv
                        .iter()
                        .chain(self.match_order.iter())
                        .chain(exit_surv.iter())
                        .enumerate()
                        .map(|(k, &i)| (i, k))
                        .collect()
                });
                let (ia, ib) = (deps.insts[a], deps.insts[b]);
                let (Some(&pa), Some(&pb)) = (pos.get(&ia), pos.get(&ib)) else {
                    return Err(TvError::MemoryOrder(format!(
                        "conflicting memory operations {}/{} missing from the rolled order",
                        ia.index(),
                        ib.index()
                    )));
                };
                if pa >= pb {
                    return Err(TvError::MemoryOrder(format!(
                        "memory operations {} and {} reordered against a dependence",
                        ia.index(),
                        ib.index()
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

    use crate::{validate_rewrite, RewriteHints, TvError};

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
        for _ in 0..16 {
            assert_eq!(
                validate_rewrite(&module, orig, &rolled, &hints, &deps),
                Err(TvError::Unsupported(
                    "rewrite deleted a phi it cannot re-express".into()
                ))
            );
        }
    }
}
