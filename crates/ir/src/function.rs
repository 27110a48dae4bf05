//! Functions: arenas of values, instructions, and blocks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide revision source. Revisions are cache keys, never printed,
/// so a global atomic keeps them unique across threads (the parallel
/// driver mutates function clones concurrently) without any coordination.
static REVISION_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_revision() -> u64 {
    REVISION_COUNTER.fetch_add(1, Ordering::Relaxed)
}

use crate::block::{BlockData, BlockId};
use crate::inst::{InstData, InstExtra, InstId, Opcode};
use crate::types::{TypeId, TypeStore};
use crate::value::{ConstKey, FuncId, GlobalId, ValueDef, ValueId};

/// Memory-effect annotation, used for call reordering decisions.
///
/// Definitions default to [`Effects::ReadWrite`]; declarations carry the
/// annotation explicitly, like LLVM's `readnone`/`readonly` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effects {
    /// Neither reads nor writes memory; a pure function of its arguments.
    ReadNone,
    /// May read but not write memory.
    ReadOnly,
    /// May read and write memory (the conservative default).
    #[default]
    ReadWrite,
}

impl Effects {
    /// Printer mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Effects::ReadNone => "readnone",
            Effects::ReadOnly => "readonly",
            Effects::ReadWrite => "readwrite",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(name: &str) -> Option<Self> {
        Some(match name {
            "readnone" => Effects::ReadNone,
            "readonly" => Effects::ReadOnly,
            "readwrite" => Effects::ReadWrite,
            _ => return None,
        })
    }
}

/// A function definition or declaration.
///
/// All values, instructions, and blocks of the function live in arenas owned
/// by the function and are referred to by ids, so cloning a function (for
/// speculative transformation) is a plain deep copy — but speculative
/// rewrites should not clone at all: [`Function::snapshot`] opens a
/// journaled speculation window whose [`Function::rollback`] restores the
/// pre-speculation state in O(touched).
#[derive(Debug)]
pub struct Function {
    /// Symbol name, unique within the module.
    pub name: String,
    param_tys: Vec<TypeId>,
    /// Return type.
    pub ret_ty: TypeId,
    /// True if this function has no body.
    pub is_declaration: bool,
    /// Memory-effect annotation (meaningful mostly for declarations).
    pub effects: Effects,
    values: Vec<ValueDef>,
    insts: Vec<InstData>,
    inst_results: Vec<ValueId>,
    live: Vec<bool>,
    blocks: Vec<BlockData>,
    params: Vec<ValueId>,
    const_map: HashMap<ConstKey, ValueId>,
    /// Structural revision, used by analysis caches as a validity key.
    /// Assigned from a process-wide counter on creation and re-assigned by
    /// every mutator that can change the arenas, so two functions carrying
    /// the same revision are clones with identical arenas. Cloning keeps
    /// the revision (a clone *is* the same structure), which lets an
    /// analysis computed on one clone serve the other — ids are arena
    /// indices and line up exactly.
    ///
    /// The plain metadata fields (`name`, `effects`, …) do not bump the
    /// revision; revision-keyed caches must only hold analyses derived
    /// from the arenas (CFG, instructions, values).
    revision: u64,
    /// Active speculation journal (see [`Function::snapshot`]), boxed so
    /// the common non-speculating function stays one pointer wider.
    journal: Option<Box<Journal>>,
}

/// Undo journal for one speculation window. Arenas are append-only, so the
/// window is fully described by the base arena lengths plus the *first
/// touched* state of every pre-existing instruction and block the window
/// mutated, and the constant keys it interned.
#[derive(Debug)]
struct Journal {
    /// Revision at `snapshot()`, restored by `rollback` (the restored
    /// arenas are bit-identical to that revision's, and the global counter
    /// guarantees retired speculation-era revisions never collide).
    base_revision: u64,
    base_values: usize,
    base_insts: usize,
    base_blocks: usize,
    /// Per-instruction first-touch state is split into two facets so the
    /// hot paths stay allocation-free. The bitmaps make the first-touch
    /// check a test-and-set instead of a hash probe — the journal sits on
    /// every mutator, and a speculative rewrite touches most of a block,
    /// so per-touch overhead decides whether speculating in place beats
    /// the clone it replaced.
    ///
    /// *Placement* facet: block membership + liveness, the only state the
    /// detach/attach mutators change. Saving it is a 12-byte push, which
    /// matters because codegen tears down and rebuilds whole blocks.
    placement_bits: Vec<u64>,
    /// `(index, pre-window block, pre-window live)`, in touch order
    /// (`index < base_insts` only; new instructions are covered by arena
    /// truncation).
    saved_placements: Vec<(u32, BlockId, bool)>,
    /// *Payload* facet: the full pre-mutation [`InstData`] for
    /// instructions whose body may change (operand rewrites, phi
    /// patching via `inst_mut`).
    payload_bits: Vec<u64>,
    /// `(index, pre-window data)`, in touch order (`index < base_insts`).
    saved_payloads: Vec<(u32, InstData)>,
    /// One bit per pre-existing block, set once saved.
    block_saved_bits: Vec<u64>,
    /// First-touch copies of mutated pre-existing blocks
    /// (`index < base_blocks`), in touch order.
    saved_blocks: Vec<(u32, BlockData)>,
    /// Constant keys interned during the window, removed on rollback.
    interned: Vec<ConstKey>,
}

/// Proof that a speculation window is open; returned by
/// [`Function::snapshot`] and consumed by [`Function::rollback`] or
/// [`Function::commit`].
#[derive(Debug)]
#[must_use = "a snapshot must be resolved by rollback() or commit()"]
pub struct SnapshotToken {
    revision: u64,
}

/// What a committed speculation window changed, in arena terms. Lets a
/// clone that still holds the pre-window state catch up in O(touched) via
/// [`Function::apply_log`], instead of re-cloning the whole function.
#[derive(Debug, Clone)]
pub struct SpeculationLog {
    base_values: usize,
    base_insts: usize,
    base_blocks: usize,
    /// Pre-existing instructions the window touched (sorted).
    touched_insts: Vec<u32>,
    /// Pre-existing blocks the window touched (sorted).
    touched_blocks: Vec<u32>,
}

impl Clone for Function {
    /// A deep copy of the current arena state. Any active speculation
    /// journal stays with the original: the clone is a copy of the state,
    /// not of the speculation window, so it starts with no snapshot open.
    fn clone(&self) -> Self {
        Function {
            name: self.name.clone(),
            param_tys: self.param_tys.clone(),
            ret_ty: self.ret_ty,
            is_declaration: self.is_declaration,
            effects: self.effects,
            values: self.values.clone(),
            insts: self.insts.clone(),
            inst_results: self.inst_results.clone(),
            live: self.live.clone(),
            blocks: self.blocks.clone(),
            params: self.params.clone(),
            const_map: self.const_map.clone(),
            revision: self.revision,
            journal: None,
        }
    }
}

impl Function {
    /// Creates an empty function *definition* with the given signature.
    /// Parameters are materialized as values immediately.
    pub fn new(name: impl Into<String>, param_tys: Vec<TypeId>, ret_ty: TypeId) -> Self {
        let mut f = Function {
            name: name.into(),
            param_tys: param_tys.clone(),
            ret_ty,
            is_declaration: false,
            effects: Effects::ReadWrite,
            values: Vec::new(),
            insts: Vec::new(),
            inst_results: Vec::new(),
            live: Vec::new(),
            blocks: Vec::new(),
            params: Vec::new(),
            const_map: HashMap::new(),
            revision: next_revision(),
            journal: None,
        };
        for (i, &ty) in param_tys.iter().enumerate() {
            let v = f.push_value(ValueDef::Param {
                index: i as u32,
                ty,
            });
            f.params.push(v);
        }
        f
    }

    /// Creates a function *declaration* (no body) with the given effects.
    pub fn declare(
        name: impl Into<String>,
        param_tys: Vec<TypeId>,
        ret_ty: TypeId,
        effects: Effects,
    ) -> Self {
        let mut f = Function::new(name, param_tys, ret_ty);
        f.is_declaration = true;
        f.effects = effects;
        f
    }

    /// A body-less copy: the name, signature, effects and `is_declaration`
    /// of this function, with its parameters materialized and no blocks or
    /// instructions. It is what callers and the rest of a module read of a
    /// function they do not transform.
    pub fn stub(&self) -> Self {
        let mut f = Function::new(self.name.clone(), self.param_tys.clone(), self.ret_ty);
        f.is_declaration = self.is_declaration;
        f.effects = self.effects;
        f
    }

    /// Releases the arenas' spare capacity, so a function kept long after
    /// its last mutation holds no more memory than a fresh clone of it.
    ///
    /// # Panics
    ///
    /// Panics if a speculation window is open.
    pub fn shrink_to_fit(&mut self) {
        assert!(self.journal.is_none(), "shrink_to_fit inside a speculation");
        self.values.shrink_to_fit();
        for inst in &mut self.insts {
            inst.operands.shrink_to_fit();
            if let InstExtra::Phi { incoming } = &mut inst.extra {
                incoming.shrink_to_fit();
            }
        }
        self.insts.shrink_to_fit();
        self.inst_results.shrink_to_fit();
        self.live.shrink_to_fit();
        for block in &mut self.blocks {
            block.insts.shrink_to_fit();
        }
        self.blocks.shrink_to_fit();
        self.params.shrink_to_fit();
        self.const_map.shrink_to_fit();
    }

    /// Current structural revision. Two functions with equal revisions are
    /// clones of the same state: analyses computed against one are valid
    /// for the other. Any arena mutation assigns a globally fresh value,
    /// so a stale cache entry can never collide with a new state.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Marks the arenas as changed by taking a fresh global revision.
    fn bump_revision(&mut self) {
        self.revision = next_revision();
    }

    // ---- generational snapshots -------------------------------------------

    /// Opens a speculation window: subsequent mutations are journaled so
    /// [`Function::rollback`] can restore the exact pre-snapshot state in
    /// O(touched), without the caller ever cloning the body. The window is
    /// closed by `rollback` (discard) or [`Function::commit`] (keep).
    ///
    /// # Panics
    ///
    /// Panics if a window is already open; windows do not nest.
    pub fn snapshot(&mut self) -> SnapshotToken {
        assert!(
            self.journal.is_none(),
            "speculation snapshots do not nest ({})",
            self.name
        );
        self.journal = Some(Box::new(Journal {
            base_revision: self.revision,
            base_values: self.values.len(),
            base_insts: self.insts.len(),
            base_blocks: self.blocks.len(),
            placement_bits: vec![0; self.insts.len().div_ceil(64)],
            saved_placements: Vec::new(),
            payload_bits: vec![0; self.insts.len().div_ceil(64)],
            saved_payloads: Vec::new(),
            block_saved_bits: vec![0; self.blocks.len().div_ceil(64)],
            saved_blocks: Vec::new(),
            interned: Vec::new(),
        }));
        SnapshotToken {
            revision: self.revision,
        }
    }

    /// True while a speculation window is open.
    pub fn in_speculation(&self) -> bool {
        self.journal.is_some()
    }

    /// Discards the speculation window: every journaled mutation is undone,
    /// the arenas are truncated back to their snapshot lengths, interned
    /// constants are un-interned, and the revision returns to the token's.
    /// The restored state is bit-identical to the snapshot state, so
    /// reusing its revision is sound — analyses cached against it stay
    /// valid, and the speculation-era revisions are globally retired.
    ///
    /// Cost is O(touched): proportional to what the window mutated, not to
    /// the function size.
    ///
    /// # Panics
    ///
    /// Panics if no window is open or `token` is not the window's token.
    pub fn rollback(&mut self, token: SnapshotToken) {
        let j = self
            .journal
            .take()
            .expect("rollback without an open snapshot");
        assert_eq!(token.revision, j.base_revision, "stale snapshot token");
        // Entries are first-touch copies, each index saved at most once per
        // facet. Payload restores first: a payload snapshot taken after a
        // placement move carries that moved `block` field, so the placement
        // restore (which holds the true pre-window placement) must win.
        // Moving the saved data back avoids a second clone.
        for (idx, data) in j.saved_payloads {
            self.insts[idx as usize] = data;
        }
        for (idx, block, live) in j.saved_placements {
            self.insts[idx as usize].block = block;
            self.live[idx as usize] = live;
        }
        for (idx, data) in j.saved_blocks {
            self.blocks[idx as usize] = data;
        }
        self.values.truncate(j.base_values);
        self.insts.truncate(j.base_insts);
        self.inst_results.truncate(j.base_insts);
        self.live.truncate(j.base_insts);
        self.blocks.truncate(j.base_blocks);
        for key in &j.interned {
            self.const_map.remove(key);
        }
        self.revision = j.base_revision;
    }

    /// Keeps the speculation window's mutations and closes it, returning a
    /// [`SpeculationLog`] describing the touched arena entries (for
    /// [`Function::apply_log`] on a pre-window clone).
    ///
    /// The revision is left bumped exactly when observable state changed:
    /// if every journaled entry still equals its saved copy and no
    /// instructions or blocks were added, the base revision is restored, so
    /// revision-keyed caches are not invalidated by a no-op window. (Pure
    /// constant interning grows the value arena without counting as a
    /// structural change, matching the non-speculative interning contract.)
    ///
    /// # Panics
    ///
    /// Panics if no window is open or `token` is not the window's token.
    pub fn commit(&mut self, token: SnapshotToken) -> SpeculationLog {
        let j = self
            .journal
            .take()
            .expect("commit without an open snapshot");
        assert_eq!(token.revision, j.base_revision, "stale snapshot token");
        let grew = self.insts.len() > j.base_insts || self.blocks.len() > j.base_blocks;
        let changed = grew
            || j.saved_payloads
                .iter()
                .any(|(idx, data)| self.insts[*idx as usize] != *data)
            || j.saved_placements.iter().any(|(idx, block, live)| {
                self.insts[*idx as usize].block != *block || self.live[*idx as usize] != *live
            })
            || j.saved_blocks
                .iter()
                .any(|(idx, data)| self.blocks[*idx as usize] != *data);
        if !changed {
            self.revision = j.base_revision;
        }
        let mut touched_insts: Vec<u32> = j
            .saved_placements
            .iter()
            .map(|(idx, ..)| *idx)
            .chain(j.saved_payloads.iter().map(|(idx, _)| *idx))
            .collect();
        touched_insts.sort_unstable();
        touched_insts.dedup();
        let mut touched_blocks: Vec<u32> = j.saved_blocks.iter().map(|(idx, _)| *idx).collect();
        touched_blocks.sort_unstable();
        SpeculationLog {
            base_values: j.base_values,
            base_insts: j.base_insts,
            base_blocks: j.base_blocks,
            touched_insts,
            touched_blocks,
        }
    }

    /// Brings a clone holding the pre-window state up to the committed
    /// state in O(touched): copies the touched pre-existing entries from
    /// `src`, appends the new arena tail, re-interns the new constants, and
    /// adopts `src`'s revision. After this, `self` and `src` are clones.
    ///
    /// # Panics
    ///
    /// Panics if `self` has an open window or its arena lengths do not
    /// match the log's snapshot lengths (i.e. it is not a pre-window clone).
    pub fn apply_log(&mut self, src: &Function, log: &SpeculationLog) {
        assert!(self.journal.is_none(), "apply_log during open snapshot");
        assert_eq!(self.values.len(), log.base_values, "not a pre-window clone");
        assert_eq!(self.insts.len(), log.base_insts, "not a pre-window clone");
        assert_eq!(self.blocks.len(), log.base_blocks, "not a pre-window clone");
        for &idx in &log.touched_insts {
            self.insts[idx as usize] = src.insts[idx as usize].clone();
            self.live[idx as usize] = src.live[idx as usize];
        }
        for &idx in &log.touched_blocks {
            self.blocks[idx as usize] = src.blocks[idx as usize].clone();
        }
        self.values
            .extend(src.values[log.base_values..].iter().cloned());
        self.insts
            .extend(src.insts[log.base_insts..].iter().cloned());
        self.inst_results
            .extend_from_slice(&src.inst_results[log.base_insts..]);
        self.live.extend_from_slice(&src.live[log.base_insts..]);
        self.blocks
            .extend(src.blocks[log.base_blocks..].iter().cloned());
        for idx in log.base_values..self.values.len() {
            if let Some(key) = self.values[idx].const_key() {
                self.const_map.insert(key, ValueId(idx as u32));
            }
        }
        self.revision = src.revision;
    }

    /// Catches a clone up with constants `src` interned since the clone was
    /// taken. Outside of interning the two must still be clones (same
    /// revision, same instruction arena); afterwards they are clones again.
    /// Interning never counts as a structural change, so no revision moves.
    pub fn absorb_interned_values(&mut self, src: &Function) {
        debug_assert_eq!(self.revision, src.revision, "not clones");
        assert_eq!(self.insts.len(), src.insts.len(), "not clones");
        assert!(self.values.len() <= src.values.len());
        for idx in self.values.len()..src.values.len() {
            let def = src.values[idx].clone();
            let key = def
                .const_key()
                .expect("absorb_interned_values: appended value is not an interned constant");
            self.const_map.insert(key, ValueId(idx as u32));
            self.values.push(def);
        }
    }

    // ---- raw arena access for the binary serializer -----------------------

    /// The value arena, in slot order.
    pub(crate) fn raw_values(&self) -> &[ValueDef] {
        &self.values
    }

    /// The instruction arena, in slot order (including detached slots).
    pub(crate) fn raw_insts(&self) -> &[InstData] {
        &self.insts
    }

    /// The per-instruction liveness flags.
    pub(crate) fn raw_live(&self) -> &[bool] {
        &self.live
    }

    /// The block arena, in layout order.
    pub(crate) fn raw_blocks(&self) -> &[BlockData] {
        &self.blocks
    }

    /// Reassembles a function from arenas the text parser or the binary
    /// decoder built. `const_map` is the constant-interning map of
    /// `values`, which both callers fill while they lay the values out:
    /// every constant's key maps to its slot, the later slot winning when
    /// two share a key. The per-instruction result values are derived
    /// (every instruction slot must have exactly one `ValueDef::Inst`
    /// result in `values`); the revision is freshly minted — a decoded
    /// function is a new structure.
    ///
    /// Returns `None` when an instruction slot has no result value, a
    /// second result value, or `live`'s length disagrees with the arena.
    #[allow(clippy::too_many_arguments)] // one slot per serialized section
    pub(crate) fn from_raw_parts(
        name: String,
        param_tys: Vec<TypeId>,
        ret_ty: TypeId,
        is_declaration: bool,
        effects: Effects,
        values: Vec<ValueDef>,
        const_map: HashMap<ConstKey, ValueId>,
        insts: Vec<InstData>,
        live: Vec<bool>,
        blocks: Vec<BlockData>,
        params: Vec<ValueId>,
    ) -> Option<Self> {
        debug_assert!(
            const_map == const_map_of(&values),
            "const_map is not the interning map of values"
        );
        if live.len() != insts.len() {
            return None;
        }
        let mut inst_results = vec![ValueId(u32::MAX); insts.len()];
        for (idx, def) in values.iter().enumerate() {
            if let ValueDef::Inst(i) = def {
                let slot = inst_results.get_mut(i.index())?;
                if *slot != ValueId(u32::MAX) {
                    return None;
                }
                *slot = ValueId(idx as u32);
            }
        }
        if inst_results.contains(&ValueId(u32::MAX)) {
            return None;
        }
        Some(Function {
            name,
            param_tys,
            ret_ty,
            is_declaration,
            effects,
            values,
            insts,
            inst_results,
            live,
            blocks,
            params,
            const_map,
            revision: next_revision(),
            journal: None,
        })
    }

    /// Journals the pre-mutation placement (block membership + liveness)
    /// of instruction `idx` (first touch only; new instructions are
    /// covered by arena truncation). Allocation-free — this is the hot
    /// save on the codegen teardown/rebuild path.
    fn journal_save_placement(&mut self, idx: usize) {
        if let Some(j) = self.journal.as_deref_mut() {
            if idx < j.base_insts {
                let bit = 1u64 << (idx % 64);
                let word = &mut j.placement_bits[idx / 64];
                if *word & bit == 0 {
                    *word |= bit;
                    j.saved_placements
                        .push((idx as u32, self.insts[idx].block, self.live[idx]));
                }
            }
        }
    }

    /// Journals the full pre-mutation [`InstData`] of instruction `idx`
    /// (first touch only), for mutators that hand out or rewrite the
    /// instruction body.
    fn journal_save_payload(&mut self, idx: usize) {
        if let Some(j) = self.journal.as_deref_mut() {
            if idx < j.base_insts {
                let bit = 1u64 << (idx % 64);
                let word = &mut j.payload_bits[idx / 64];
                if *word & bit == 0 {
                    *word |= bit;
                    j.saved_payloads.push((idx as u32, self.insts[idx].clone()));
                }
            }
        }
    }

    /// Journals the pre-mutation state of block `idx` (first touch only;
    /// new blocks are covered by arena truncation).
    fn journal_save_block(&mut self, idx: usize) {
        if let Some(j) = self.journal.as_deref_mut() {
            if idx < j.base_blocks {
                let bit = 1u64 << (idx % 64);
                let word = &mut j.block_saved_bits[idx / 64];
                if *word & bit == 0 {
                    *word |= bit;
                    j.saved_blocks.push((idx as u32, self.blocks[idx].clone()));
                }
            }
        }
    }

    /// Records a constant key newly interned during the window.
    fn journal_note_interned(&mut self, key: ConstKey) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.interned.push(key);
        }
    }

    /// Parameter types.
    pub fn param_tys(&self) -> &[TypeId] {
        &self.param_tys
    }

    /// Parameter values, in order.
    pub fn params(&self) -> &[ValueId] {
        &self.params
    }

    /// The `index`-th parameter value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn param(&self, index: usize) -> ValueId {
        self.params[index]
    }

    fn push_value(&mut self, def: ValueDef) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(def);
        id
    }

    /// Definition of value `v`.
    pub fn value(&self, v: ValueId) -> &ValueDef {
        &self.values[v.index()]
    }

    /// Number of value slots (including interned constants).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of instruction slots (including dead ones).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Data of instruction `i`.
    pub fn inst(&self, i: InstId) -> &InstData {
        &self.insts[i.index()]
    }

    /// Mutable data of instruction `i`. Conservatively counts as a
    /// structural mutation (the caller may rewrite operands or the
    /// terminator), so it bumps the revision.
    pub fn inst_mut(&mut self, i: InstId) -> &mut InstData {
        // Both facets: the returned reference can rewrite the body *and*
        // the `block` field, and a pristine placement snapshot must exist
        // before any such move (rollback restores placement last).
        self.journal_save_payload(i.index());
        self.journal_save_placement(i.index());
        self.bump_revision();
        &mut self.insts[i.index()]
    }

    /// The SSA value produced by instruction `i`.
    pub fn inst_result(&self, i: InstId) -> ValueId {
        self.inst_results[i.index()]
    }

    /// Whether instruction `i` is still attached to a block.
    pub fn is_live(&self, i: InstId) -> bool {
        self.live[i.index()]
    }

    /// Interns an integer constant.
    pub fn const_int(&mut self, ty: TypeId, value: i64) -> ValueId {
        let key = ConstKey::Int(ty, value);
        if let Some(&v) = self.const_map.get(&key) {
            return v;
        }
        let v = self.push_value(ValueDef::ConstInt { ty, value });
        self.const_map.insert(key.clone(), v);
        self.journal_note_interned(key);
        v
    }

    /// Interns a floating-point constant (stored as `f64` bits).
    pub fn const_float(&mut self, ty: TypeId, value: f64) -> ValueId {
        self.const_float_bits(ty, value.to_bits())
    }

    /// Interns a floating-point constant from its exact `f64` bit pattern.
    /// Needed to round-trip NaN payloads, which `f64` arithmetic would not
    /// preserve.
    pub fn const_float_bits(&mut self, ty: TypeId, bits: u64) -> ValueId {
        let key = ConstKey::Float(ty, bits);
        if let Some(&v) = self.const_map.get(&key) {
            return v;
        }
        let v = self.push_value(ValueDef::ConstFloat { ty, bits });
        self.const_map.insert(key.clone(), v);
        self.journal_note_interned(key);
        v
    }

    /// Interns the address of a module global.
    pub fn global_addr(&mut self, g: GlobalId) -> ValueId {
        let key = ConstKey::Global(g);
        if let Some(&v) = self.const_map.get(&key) {
            return v;
        }
        let v = self.push_value(ValueDef::GlobalAddr(g));
        self.const_map.insert(key.clone(), v);
        self.journal_note_interned(key);
        v
    }

    /// Interns the address of a module function.
    pub fn func_addr(&mut self, f: FuncId) -> ValueId {
        let key = ConstKey::Func(f);
        if let Some(&v) = self.const_map.get(&key) {
            return v;
        }
        let v = self.push_value(ValueDef::FuncAddr(f));
        self.const_map.insert(key.clone(), v);
        self.journal_note_interned(key);
        v
    }

    /// Interns an `undef` of the given type.
    pub fn undef(&mut self, ty: TypeId) -> ValueId {
        let key = ConstKey::Undef(ty);
        if let Some(&v) = self.const_map.get(&key) {
            return v;
        }
        let v = self.push_value(ValueDef::Undef(ty));
        self.const_map.insert(key.clone(), v);
        self.journal_note_interned(key);
        v
    }

    /// The type of a value.
    pub fn value_ty(&self, v: ValueId, types: &TypeStore) -> TypeId {
        match self.value(v) {
            ValueDef::Inst(i) => self.inst(*i).ty,
            ValueDef::Param { ty, .. } => *ty,
            ValueDef::ConstInt { ty, .. } => *ty,
            ValueDef::ConstFloat { ty, .. } => *ty,
            ValueDef::GlobalAddr(_) | ValueDef::FuncAddr(_) => types.ptr(),
            ValueDef::Undef(ty) => *ty,
        }
    }

    /// Appends a new empty block.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.bump_revision();
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData::new(name));
        id
    }

    /// Block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Data of block `b`.
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Mutable data of block `b`. Conservatively counts as a structural
    /// mutation (the caller may edit the instruction list), so it bumps
    /// the revision.
    pub fn block_mut(&mut self, b: BlockId) -> &mut BlockData {
        self.journal_save_block(b.index());
        self.bump_revision();
        &mut self.blocks[b.index()]
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks (e.g. a declaration).
    pub fn entry_block(&self) -> BlockId {
        assert!(!self.blocks.is_empty(), "function has no blocks");
        BlockId(0)
    }

    /// Finds a block by label.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.name == name)
            .map(|i| BlockId(i as u32))
    }

    /// Creates a detached instruction and its result value. The caller must
    /// attach it to a block with [`Function::append_inst`] or
    /// [`Function::insert_inst`].
    pub fn create_inst(&mut self, data: InstData) -> (InstId, ValueId) {
        self.bump_revision();
        let id = InstId(self.insts.len() as u32);
        self.insts.push(data);
        self.live.push(false);
        let v = self.push_value(ValueDef::Inst(id));
        self.inst_results.push(v);
        (id, v)
    }

    /// Appends an instruction to the end of `block`.
    pub fn append_inst(&mut self, block: BlockId, inst: InstId) {
        self.journal_save_placement(inst.index());
        self.journal_save_block(block.index());
        self.bump_revision();
        self.insts[inst.index()].block = block;
        self.live[inst.index()] = true;
        self.blocks[block.index()].insts.push(inst);
    }

    /// Inserts an instruction at position `pos` inside `block`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the end of the block.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, inst: InstId) {
        self.journal_save_placement(inst.index());
        self.journal_save_block(block.index());
        self.bump_revision();
        self.insts[inst.index()].block = block;
        self.live[inst.index()] = true;
        self.blocks[block.index()].insts.insert(pos, inst);
    }

    /// Detaches an instruction from its block. Its value slot remains but
    /// must no longer be referenced by live instructions.
    pub fn remove_inst(&mut self, inst: InstId) {
        if !self.live[inst.index()] {
            return;
        }
        let block = self.insts[inst.index()].block;
        self.journal_save_placement(inst.index());
        self.journal_save_block(block.index());
        self.bump_revision();
        let list = &mut self.blocks[block.index()].insts;
        if let Some(pos) = list.iter().position(|&i| i == inst) {
            list.remove(pos);
        }
        self.live[inst.index()] = false;
    }

    /// Detaches every instruction of `block`, leaving it empty: the state
    /// [`Function::remove_inst`] on each of them would leave, in one pass
    /// over the block instead of one list search per instruction. The
    /// block is journaled once and the revision bumped once.
    pub fn detach_block(&mut self, block: BlockId) {
        if self.blocks[block.index()].insts.is_empty() {
            return;
        }
        self.journal_save_block(block.index());
        self.bump_revision();
        let mut insts = std::mem::take(&mut self.blocks[block.index()].insts);
        for &inst in &insts {
            self.journal_save_placement(inst.index());
            self.live[inst.index()] = false;
        }
        insts.clear();
        self.blocks[block.index()].insts = insts;
    }

    /// Position of `inst` within its block, or `None` if detached.
    pub fn position_in_block(&self, inst: InstId) -> Option<usize> {
        if !self.live[inst.index()] {
            return None;
        }
        let block = self.insts[inst.index()].block;
        self.blocks[block.index()]
            .insts
            .iter()
            .position(|&i| i == inst)
    }

    /// Replaces every use of `old` with `new` across all live instructions.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        self.bump_revision();
        for idx in 0..self.insts.len() {
            if !self.live[idx] {
                continue;
            }
            if !self.insts[idx].operands.contains(&old) {
                continue;
            }
            self.journal_save_payload(idx);
            for op in self.insts[idx].operands.iter_mut() {
                if *op == old {
                    *op = new;
                }
            }
        }
    }

    /// Replaces `old` with `new` at `sites`, the `(user, operand index)`
    /// pairs a [`UseMap`] lists for `old`, skipping users detached since
    /// the map was computed. The same rewrite as
    /// [`Function::replace_all_uses`] when no live instruction created
    /// after the map uses `old`, in O(sites) instead of a scan of every
    /// instruction.
    pub fn replace_uses(&mut self, sites: &[(InstId, usize)], old: ValueId, new: ValueId) {
        self.bump_revision();
        for &(user, k) in sites {
            let idx = user.index();
            if !self.live[idx] {
                continue;
            }
            debug_assert_eq!(self.insts[idx].operands[k], old, "stale use site");
            if self.insts[idx].operands[k] == old {
                self.journal_save_payload(idx);
                self.insts[idx].operands[k] = new;
            }
        }
    }

    /// Computes the def-use map: for every value, the list of
    /// `(user instruction, operand index)` pairs among live instructions,
    /// in layout order.
    ///
    /// The map is two flat arrays (compressed sparse rows): one pass counts
    /// each value's uses, a prefix sum turns the counts into offsets, and a
    /// second pass fills the users in, so a call allocates twice however
    /// many values have uses.
    pub fn compute_uses(&self) -> UseMap {
        let n = self.values.len();
        // Count: `offsets[v + 1]` is the number of uses of value `v`.
        let mut offsets = vec![0u32; n + 1];
        for i in self.live_insts() {
            for &op in &self.inst(i).operands {
                offsets[op.index() + 1] += 1;
            }
        }
        // Prefix sum: `offsets[v]` is where the users of `v` start.
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        // Fill, advancing `offsets[v]` as the write cursor of `v`: it ends
        // at the start of `v + 1`, so one shift restores the starts.
        let mut users = vec![(InstId(0), 0); offsets[n] as usize];
        for i in self.live_insts() {
            for (op_idx, &op) in self.inst(i).operands.iter().enumerate() {
                let slot = &mut offsets[op.index()];
                users[*slot as usize] = (i, op_idx);
                *slot += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        UseMap { offsets, users }
    }

    /// Iterates over all live instructions in layout order.
    pub fn live_insts(&self) -> impl Iterator<Item = InstId> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().copied())
    }

    /// The terminator of `block`, if the block is non-empty and ends with one.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = self.block(block).last_inst()?;
        if self.inst(last).opcode.is_terminator() {
            Some(last)
        } else {
            None
        }
    }

    /// CFG successors of `block`.
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block) {
            Some(t) => self.inst(t).successors(),
            None => Vec::new(),
        }
    }

    /// CFG predecessor map for all blocks.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.successors(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Total number of live instructions.
    pub fn num_live_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// True if `v` is a phi instruction result.
    pub fn is_phi(&self, v: ValueId) -> bool {
        match self.value(v) {
            ValueDef::Inst(i) => self.inst(*i).opcode == Opcode::Phi,
            _ => false,
        }
    }

    /// Rewrites the ids this function holds into another module's id
    /// spaces, for a function transplanted between modules.
    ///
    /// `types` maps old type indices to new type ids (`None` when both
    /// modules share one type store); it covers the signature, value
    /// definitions, instruction result types and the `gep`/`alloca`
    /// element-type payloads. `globals` rewrites global-address constants,
    /// and `funcs` rewrites function-address constants and direct call
    /// callees. One revision bump and one rebuild of the
    /// constant-interning map (whose keys embed all three kinds of id)
    /// cover the whole remap.
    pub fn remap(
        &mut self,
        types: Option<&[TypeId]>,
        globals: impl Fn(GlobalId) -> GlobalId,
        funcs: impl Fn(FuncId) -> FuncId,
    ) {
        assert!(self.journal.is_none(), "remap during open snapshot");
        self.bump_revision();
        let ty = |t: &mut TypeId| {
            if let Some(map) = types {
                *t = map[t.index()];
            }
        };
        for t in self.param_tys.iter_mut() {
            ty(t);
        }
        ty(&mut self.ret_ty);
        for def in self.values.iter_mut() {
            match def {
                ValueDef::Param { ty: t, .. }
                | ValueDef::ConstInt { ty: t, .. }
                | ValueDef::ConstFloat { ty: t, .. }
                | ValueDef::Undef(t) => ty(t),
                ValueDef::GlobalAddr(g) => *g = globals(*g),
                ValueDef::FuncAddr(f) => *f = funcs(*f),
                ValueDef::Inst(_) => {}
            }
        }
        for inst in self.insts.iter_mut() {
            ty(&mut inst.ty);
            match &mut inst.extra {
                crate::inst::InstExtra::Gep { elem_ty }
                | crate::inst::InstExtra::Alloca { elem_ty } => ty(elem_ty),
                crate::inst::InstExtra::Call { callee } => *callee = funcs(*callee),
                _ => {}
            }
        }
        self.rebuild_const_map();
    }

    /// Recomputes the constant-interning map from the value table. Needed
    /// after a remap rewrites ids that appear inside [`ConstKey`]s.
    ///
    /// If a remap made two previously distinct constants identical, the
    /// later value slot wins future interning lookups; existing operands
    /// keep referring to their original slots, which stay valid.
    fn rebuild_const_map(&mut self) {
        self.const_map = const_map_of(&self.values);
    }
}

/// The constant-interning map of a value table: each constant's key maps
/// to its slot, the later slot winning when two constants share a key.
fn const_map_of(values: &[ValueDef]) -> HashMap<ConstKey, ValueId> {
    let mut map = HashMap::new();
    for (idx, def) in values.iter().enumerate() {
        if let Some(key) = def.const_key() {
            map.insert(key, ValueId(idx as u32));
        }
    }
    map
}

/// Def-use information computed by [`Function::compute_uses`].
///
/// The map covers the values that existed when it was computed; asking
/// about a value appended later (a constant interned since) panics.
#[derive(Debug, Clone)]
pub struct UseMap {
    /// `users[offsets[v]..offsets[v + 1]]` are the uses of value `v`.
    offsets: Vec<u32>,
    users: Vec<(InstId, usize)>,
}

impl UseMap {
    /// Users of value `v` as `(instruction, operand index)` pairs.
    pub fn of(&self, v: ValueId) -> &[(InstId, usize)] {
        let k = v.index();
        &self.users[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Number of uses of `v`.
    pub fn count(&self, v: ValueId) -> usize {
        let k = v.index();
        (self.offsets[k + 1] - self.offsets[k]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeStore;

    fn sample() -> (TypeStore, Function) {
        let types = TypeStore::new();
        let f = Function::new("f", vec![types.i32(), types.i32()], types.i32());
        (types, f)
    }

    #[test]
    fn params_are_materialized() {
        let (types, f) = sample();
        assert_eq!(f.params().len(), 2);
        assert_eq!(f.value_ty(f.param(0), &types), types.i32());
    }

    #[test]
    fn constant_interning() {
        let (types, mut f) = sample();
        let a = f.const_int(types.i32(), 7);
        let b = f.const_int(types.i32(), 7);
        let c = f.const_int(types.i64(), 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let x = f.const_float(types.double(), 1.5);
        let y = f.const_float(types.double(), 1.5);
        assert_eq!(x, y);
    }

    #[test]
    fn inst_lifecycle() {
        let (types, mut f) = sample();
        let bb = f.add_block("entry");
        let a = f.param(0);
        let b = f.param(1);
        let (i, v) = f.create_inst(InstData {
            opcode: Opcode::Add,
            ty: types.i32(),
            operands: vec![a, b],
            block: bb,
            extra: crate::inst::InstExtra::None,
        });
        assert!(!f.is_live(i));
        f.append_inst(bb, i);
        assert!(f.is_live(i));
        assert_eq!(f.position_in_block(i), Some(0));
        assert_eq!(f.inst_result(i), v);
        assert_eq!(f.value_ty(v, &types), types.i32());

        f.remove_inst(i);
        assert!(!f.is_live(i));
        assert_eq!(f.block(bb).insts.len(), 0);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let (types, mut f) = sample();
        let bb = f.add_block("entry");
        let a = f.param(0);
        let b = f.param(1);
        let (i, v1) = f.create_inst(InstData {
            opcode: Opcode::Add,
            ty: types.i32(),
            operands: vec![a, b],
            block: bb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(bb, i);
        let c = f.const_int(types.i32(), 3);
        f.replace_all_uses(a, c);
        assert_eq!(f.inst(i).operands[0], c);
        assert_eq!(f.inst(i).operands[1], b);
        let _ = v1;
    }

    #[test]
    fn remaps_rewrite_ids_and_rebuild_interning() {
        let (types, mut f) = sample();
        let bb = f.add_block("entry");
        let g = GlobalId::from_index(2);
        let callee = FuncId::from_index(1);
        let c = f.const_int(types.i32(), 5);
        let ga = f.global_addr(g);
        let (i, _) = f.create_inst(InstData {
            opcode: Opcode::Call,
            ty: types.i32(),
            operands: vec![c, ga],
            block: bb,
            extra: crate::inst::InstExtra::Call { callee },
        });
        f.append_inst(bb, i);

        let before = f.revision();
        f.remap(
            None,
            |old| GlobalId::from_index(old.index() + 10),
            |old| FuncId::from_index(old.index() + 10),
        );
        assert_ne!(f.revision(), before);
        assert_eq!(f.inst(i).ty, types.i32(), "no type map, no type change");
        let shifted = GlobalId::from_index(12);
        assert_eq!(f.value(ga), &ValueDef::GlobalAddr(shifted));
        match &f.inst(i).extra {
            crate::inst::InstExtra::Call { callee } => {
                assert_eq!(*callee, FuncId::from_index(11));
            }
            other => panic!("unexpected extra {other:?}"),
        }
        // The rebuilt interning map resolves the *new* ids to the same slots.
        assert_eq!(f.global_addr(shifted), ga);
        assert_eq!(f.const_int(types.i32(), 5), c);

        // A type map rewrites result types, signature, and const keys.
        let bump: Vec<TypeId> = (0..types.num_types() as u32)
            .map(|t| TypeId(t + 1))
            .collect();
        let bumped = |t: TypeId| bump[t.index()];
        let old_ret = f.ret_ty;
        f.remap(Some(&bump), |g| g, |callee| callee);
        assert_eq!(f.ret_ty, bumped(old_ret));
        assert_eq!(f.param_tys()[0], bumped(types.i32()));
        assert_eq!(f.inst(i).ty, bumped(types.i32()));
        assert_eq!(f.const_int(bumped(types.i32()), 5), c);
        assert_eq!(f.global_addr(shifted), ga, "identity maps keep the ids");
    }

    #[test]
    fn revisions_track_structural_mutation() {
        let (types, mut f) = sample();
        let r0 = f.revision();

        // A clone is the same structure: identical revision.
        let clone = f.clone();
        assert_eq!(clone.revision(), r0);

        // Reading never bumps.
        let _ = f.params();
        let _ = f.num_values();
        assert_eq!(f.revision(), r0);

        // Every structural mutation takes a globally fresh revision.
        let bb = f.add_block("entry");
        let r1 = f.revision();
        assert_ne!(r1, r0);
        let (i, v) = f.create_inst(InstData {
            opcode: Opcode::Add,
            ty: types.i32(),
            operands: vec![f.param(0), f.param(1)],
            block: bb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(bb, i);
        let r2 = f.revision();
        assert_ne!(r2, r1);
        f.replace_all_uses(v, f.param(0));
        assert_ne!(f.revision(), r2);
        let r3 = f.revision();
        f.remove_inst(i);
        assert_ne!(f.revision(), r3);

        // Removing an already-detached instruction is a no-op.
        let r4 = f.revision();
        f.remove_inst(i);
        assert_eq!(f.revision(), r4);

        // The untouched clone still carries the original revision, and a
        // mutation on it diverges to a value the original never had.
        let mut clone = clone;
        assert_eq!(clone.revision(), r0);
        clone.add_block("entry");
        assert_ne!(clone.revision(), f.revision());
    }

    /// Builds a one-block function `entry: %v = add %a, %b; ret` for the
    /// speculation tests.
    fn speculation_sample() -> (TypeStore, Function, InstId, ValueId) {
        let (types, mut f) = sample();
        let bb = f.add_block("entry");
        let (i, v) = f.create_inst(InstData {
            opcode: Opcode::Add,
            ty: types.i32(),
            operands: vec![f.param(0), f.param(1)],
            block: bb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(bb, i);
        (types, f, i, v)
    }

    /// Captures every observable facet of a function for equality checks.
    fn fingerprint(f: &Function) -> (u64, usize, usize, usize, Vec<String>, Vec<Vec<InstId>>) {
        (
            f.revision(),
            f.num_values(),
            f.num_insts(),
            f.num_blocks(),
            f.block_ids().map(|b| f.block(b).name.clone()).collect(),
            f.block_ids().map(|b| f.block(b).insts.clone()).collect(),
        )
    }

    #[test]
    fn rollback_restores_the_exact_presnapshot_state() {
        let (types, mut f, i, v) = speculation_sample();
        let before_const = f.const_int(types.i32(), 1); // pre-existing intern
        let before = fingerprint(&f);

        let token = f.snapshot();
        assert!(f.in_speculation());
        // Mutate everything a speculative rewrite would: detach, rewrite
        // operands, add blocks/instructions, intern constants.
        let bb = f.entry_block();
        f.remove_inst(i);
        let nb = f.add_block("spec");
        let c = f.const_int(types.i32(), 42);
        assert_ne!(c, before_const);
        let (ni, nv) = f.create_inst(InstData {
            opcode: Opcode::Mul,
            ty: types.i32(),
            operands: vec![f.param(0), c],
            block: nb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(nb, ni);
        f.replace_all_uses(v, nv);
        f.inst_mut(ni).operands[0] = f.param(1);
        f.block_mut(bb).name = "renamed".into();
        assert_ne!(f.revision(), before.0);

        f.rollback(token);
        assert!(!f.in_speculation());
        assert_eq!(fingerprint(&f), before);
        assert!(f.is_live(i));
        // The speculative intern was removed; re-interning 42 takes a fresh
        // slot while the pre-existing constant still hits its old slot.
        assert_eq!(f.const_int(types.i32(), 1), before_const);
        assert_eq!(f.const_int(types.i32(), 42).index(), f.num_values() - 1);
    }

    #[test]
    fn detach_block_and_replace_uses_match_the_per_instruction_forms() {
        let (types, mut f, i, v) = speculation_sample();
        let entry = f.entry_block();
        let (w, _) = f.create_inst(InstData {
            opcode: Opcode::Mul,
            ty: types.i32(),
            operands: vec![v, v],
            block: entry,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(entry, w);
        let other = f.add_block("other");
        let (x, _) = f.create_inst(InstData {
            opcode: Opcode::Sub,
            ty: types.i32(),
            operands: vec![v, f.param(0)],
            block: other,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(other, x);
        let c = f.const_int(types.i32(), 9);
        let uses = f.compute_uses();
        let before = fingerprint(&f);

        let mut reference = f.clone();
        for inst in reference.block(entry).insts.clone() {
            reference.remove_inst(inst);
        }
        reference.replace_all_uses(v, c);

        let token = f.snapshot();
        f.detach_block(entry);
        f.replace_uses(uses.of(v), v, c);
        assert!(f.block(entry).insts.is_empty());
        assert!(!f.is_live(i) && !f.is_live(w));
        assert_eq!(f.inst(w).operands, vec![v, v], "detached users keep theirs");
        assert_eq!(f.inst(x).operands[0], c);
        assert_eq!(f.inst(w).operands, reference.inst(w).operands);
        assert_eq!(f.inst(x).operands, reference.inst(x).operands);
        let (state, reference_state) = (fingerprint(&f), fingerprint(&reference));
        assert_eq!(state.5, reference_state.5, "same block lists");
        f.rollback(token);
        assert_eq!(fingerprint(&f), before);
        assert!(f.is_live(i) && f.is_live(w));
        assert_eq!(f.inst(x).operands[0], v);
    }

    #[test]
    fn commit_keeps_changes_and_apply_log_syncs_a_clone() {
        let (types, mut f, i, _v) = speculation_sample();
        let mut shadow = f.clone();
        let r0 = f.revision();

        let token = f.snapshot();
        let bb = f.entry_block();
        f.remove_inst(i);
        let nb = f.add_block("spec");
        let c = f.const_int(types.i32(), 7);
        let (ni, _nv) = f.create_inst(InstData {
            opcode: Opcode::Sub,
            ty: types.i32(),
            operands: vec![f.param(0), c],
            block: nb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(nb, ni);
        let _ = bb;
        let log = f.commit(token);
        assert_ne!(f.revision(), r0, "observable change must keep the bump");

        shadow.apply_log(&f, &log);
        assert_eq!(fingerprint(&shadow), fingerprint(&f));
        // The clone's interning map learned the committed constant.
        assert_eq!(shadow.const_int(types.i32(), 7), c);
    }

    #[test]
    fn commit_of_a_noop_window_restores_the_base_revision() {
        let (types, mut f, i, _v) = speculation_sample();
        let r0 = f.revision();

        // Detach and re-attach at the same position: revision bumps happen
        // inside the window, but the net state is unchanged.
        let token = f.snapshot();
        let bb = f.inst(i).block;
        let pos = f.position_in_block(i).unwrap();
        f.remove_inst(i);
        f.insert_inst(bb, pos, i);
        // Interning alone is also not an observable structural change.
        let _ = f.const_int(types.i32(), 99);
        let log = f.commit(token);
        assert_eq!(f.revision(), r0, "no-op window must restore the revision");
        assert!(log.touched_insts.contains(&(i.index() as u32)));

        // A window that does change state keeps its bumped revision.
        let token = f.snapshot();
        f.remove_inst(i);
        let _ = f.commit(token);
        assert_ne!(f.revision(), r0);
    }

    #[test]
    fn absorb_interned_values_catches_a_clone_up() {
        let (types, mut f, _i, _v) = speculation_sample();
        let mut shadow = f.clone();
        let a = f.const_int(types.i64(), 5);
        let b = f.undef(types.i32());
        shadow.absorb_interned_values(&f);
        assert_eq!(shadow.num_values(), f.num_values());
        assert_eq!(shadow.const_int(types.i64(), 5), a);
        assert_eq!(shadow.undef(types.i32()), b);
    }

    #[test]
    fn clone_does_not_carry_an_open_snapshot() {
        let (_types, mut f, i, _v) = speculation_sample();
        let token = f.snapshot();
        f.remove_inst(i);
        let clone = f.clone();
        assert!(!clone.in_speculation());
        f.rollback(token);
        // The clone keeps the speculative state it was copied from.
        assert!(!clone.is_live(i));
        assert!(f.is_live(i));
    }

    #[test]
    fn use_map_counts() {
        let (types, mut f) = sample();
        let bb = f.add_block("entry");
        let a = f.param(0);
        let (i1, v1) = f.create_inst(InstData {
            opcode: Opcode::Add,
            ty: types.i32(),
            operands: vec![a, a],
            block: bb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(bb, i1);
        let (i2, _) = f.create_inst(InstData {
            opcode: Opcode::Mul,
            ty: types.i32(),
            operands: vec![v1, a],
            block: bb,
            extra: crate::inst::InstExtra::None,
        });
        f.append_inst(bb, i2);
        let uses = f.compute_uses();
        assert_eq!(uses.count(a), 3);
        assert_eq!(uses.count(v1), 1);
        assert_eq!(uses.of(v1)[0].0, i2);
    }
}
