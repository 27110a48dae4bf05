//! Builds each definition into its arenas while the parser reads it, then
//! links the module.
//!
//! The parser hands every instruction to a [`Builder`] as soon as its line
//! is read, and the builder writes it straight into the definition's
//! instruction arena, resolving what it can at once: a local or a label
//! already defined, a constant already interned. What it cannot resolve
//! yet it records as a fixup and patches when the parser reads the body's
//! closing brace:
//! - a local used before its definition (a phi naming a latch value);
//! - a label of a block further down;
//! - a constant or an `@name` operand, whose value id follows every
//!   instruction result, so it is known only once the instructions are
//!   counted.
//!
//! A callee or an `@name` operand may name a function or global defined
//! further down, so those wait for [`link`], which runs once the whole
//! module is read. An `@name` operand still takes its value slot at first
//! use, keyed by the name: a name stands for one global or one function,
//! so this gives the slots that keying by id would. `link` registers every
//! function name, then resolves each body's pending names and fills in
//! their slots and callees.
//!
//! Errors keep the order a function-at-a-time build meets them in, whatever
//! order one pass finds them in: a body keeps only its first error by its
//! place in that order ([`Order`]), and `link` reports it unless an
//! unresolved name comes first.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use super::{Error, Name, Result};
use crate::block::{BlockData, BlockId};
use crate::function::{Effects, Function};
use crate::inst::{InstData, InstExtra, InstId};
use crate::module::Module;
use crate::types::TypeId;
use crate::value::{ConstKey, FuncId, ValueDef, ValueId};

/// Where in a body's build an error falls: duplicate labels first
/// (`(0, 0, 0)`), then per instruction its labels and callee
/// (`(1, instruction, 0)`) and its result bound twice
/// (`(1, instruction, 1)`), then per instruction its operands
/// (`(2, instruction, operand)`).
type Order = (u8, u32, u32);

/// A local's or a label's name. The printer's own spellings, `%N` and
/// `%pN` with `N` in decimal without leading zeros (nine digits at most),
/// are read as numbers once, by the lexer; so are labels spelled `"N"`.
/// `%01` stays a [`Key::Name`], distinct from `%1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) enum Key<'a> {
    Num(u32),
    Param(u32),
    Name(Name<'a>),
}

impl fmt::Display for Key<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Num(n) => write!(f, "{n}"),
            Key::Param(n) => write!(f, "p{n}"),
            Key::Name(s) => f.write_str(s),
        }
    }
}

/// `n` when `s` spells it in decimal without leading zeros (and is short
/// enough not to overflow).
pub(super) fn decimal(s: &str) -> Option<u32> {
    let b = s.as_bytes();
    let canonical = !b.is_empty() && b.len() <= 9 && (b[0] != b'0' || b.len() == 1);
    if !canonical || !b.iter().all(u8::is_ascii_digit) {
        return None;
    }
    Some(b.iter().fold(0, |n, &d| n * 10 + u32::from(d - b'0')))
}

/// A label's key: `"N"` as a number, any other spelling as a name.
pub(super) fn label_key<'a>(name: &Name<'a>) -> Key<'a> {
    match name.as_bytes().first() {
        Some(b'0'..=b'9') => decimal(name).map_or_else(|| Key::Name(name.clone()), Key::Num),
        _ => Key::Name(name.clone()),
    }
}

/// An unbound dense slot.
const UNBOUND: (u32, u32) = (0, u32::MAX);

/// The bytes of a dense slot, and the bytes of text left per slot a
/// function's dense tables may take.
const SLOT_BYTES: usize = std::mem::size_of::<(u32, u32)>();

/// The names of one function's locals or blocks. A numbered key below the
/// table's limit indexes a dense table; any other key goes through a hash
/// map. The limit is fixed per function, so a key always finds its own
/// binding, and it is an eighth of the text left where the function
/// starts ([`SLOT_BYTES`]): every number the printer writes counts a
/// parameter, a result line or an imported block, none printed in fewer
/// than eight bytes, so a printed function's numbers stay below it, and a
/// hostile number cannot size a dense table past the bytes of the text
/// that holds it. A dense slot holds the function's stamp beside its id,
/// so starting a function clears nothing.
#[derive(Default)]
struct NameTable<'a> {
    stamp: u32,
    limit: usize,
    /// `Key::Num(n)` at `n`, as `(stamp, id)`.
    num: Vec<(u32, u32)>,
    /// `Key::Param(n)` at `n`.
    param: Vec<(u32, u32)>,
    other: HashMap<Key<'a>, u32>,
}

impl<'a> NameTable<'a> {
    fn reset(&mut self, limit: usize) {
        self.stamp = match self.stamp.checked_add(1) {
            Some(stamp) => stamp,
            None => {
                self.num.clear();
                self.param.clear();
                1
            }
        };
        self.limit = limit;
        self.other.clear();
    }

    /// The dense table and slot of `key`, if it has one.
    fn dense(&mut self, key: &Key<'_>) -> Option<(&mut Vec<(u32, u32)>, usize)> {
        let (table, n) = match *key {
            Key::Num(n) => (&mut self.num, n as usize),
            Key::Param(n) => (&mut self.param, n as usize),
            Key::Name(_) => return None,
        };
        (n < self.limit).then_some((table, n))
    }

    fn get(&mut self, key: &Key<'_>) -> Option<u32> {
        let stamp = self.stamp;
        match self.dense(key) {
            Some((table, n)) => match table.get(n) {
                Some(&(s, id)) if s == stamp => Some(id),
                _ => None,
            },
            None => self.other.get(key).copied(),
        }
    }

    /// Binds `key` to `id`; false when it was already bound.
    fn bind(&mut self, key: Key<'a>, id: u32) -> bool {
        let (stamp, limit) = (self.stamp, self.limit);
        let Some((table, n)) = self.dense(&key) else {
            return self.other.insert(key, id).is_none();
        };
        if n >= table.len() {
            // Grow by doubling from 64 slots, never past the limit.
            let len = (n + 1).max(2 * table.len()).max(64).min(limit);
            table.resize(len, UNBOUND);
        }
        let fresh = table[n].0 != stamp;
        table[n] = (stamp, id);
        fresh
    }
}

/// A name a body could not resolve on its own.
pub(super) struct Pending<'a> {
    /// The value slot (an `@name` operand) or instruction (a callee) the
    /// name fills in.
    index: u32,
    name: Name<'a>,
    offset: usize,
    order: Order,
}

/// A local used before its definition: operand `slot` of instruction
/// `inst`.
struct LocalFixup<'a> {
    inst: u32,
    slot: u32,
    key: Key<'a>,
    offset: usize,
}

/// A label of a block not yet read: incoming block `slot` of a phi, or
/// target `slot` (then, else) of a branch.
struct LabelFixup<'a> {
    inst: u32,
    slot: u32,
    key: Key<'a>,
    offset: usize,
}

/// One definition's arenas, with callees and `@name` operands not yet
/// resolved.
pub(super) struct Body {
    values: Vec<ValueDef>,
    consts: HashMap<ConstKey, ValueId>,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    /// The first use of each `@name` operand, in operand order: a range of
    /// the builder's `refs`.
    refs: Range<usize>,
    /// Every call, in instruction order: a range of the builder's
    /// `callees`.
    callees: Range<usize>,
    /// The first error of the build in [`Order`].
    error: Option<(Order, Error)>,
}

/// Stands in for an `@name` operand's value until [`link`] resolves it.
const UNRESOLVED: ValueDef = ValueDef::Undef(TypeId(u32::MAX));

/// Stands in for an operand or label a fixup patches.
const PLACEHOLDER: u32 = u32::MAX;

/// Body-building state. The scratch arenas and tables are reused from one
/// definition to the next; the pending names of every body accumulate for
/// [`link`].
pub(super) struct Builder<'a> {
    locals: NameTable<'a>,
    blocks: NameTable<'a>,
    /// The byte offset of the definition's header.
    offset: usize,
    params: usize,
    insts: Vec<InstData>,
    block_list: Vec<BlockData>,
    /// The instruction that starts the block being read.
    block_start: usize,
    /// Constants and `@name` slots in first-use order; their ids follow
    /// the instruction results.
    late: Vec<ValueDef>,
    /// The index into `late` of each constant of the body being read.
    consts: HashMap<ConstKey, ValueId>,
    /// The index into `late` of each `@name` operand.
    ref_slots: HashMap<Name<'a>, u32>,
    /// Operands that hold an index into `late`, as `(inst, slot)`.
    late_uses: Vec<(u32, u32)>,
    local_fixups: Vec<LocalFixup<'a>>,
    label_fixups: Vec<LabelFixup<'a>>,
    error: Option<(Order, Error)>,
    refs: Vec<Pending<'a>>,
    callees: Vec<Pending<'a>>,
    refs_start: usize,
    callees_start: usize,
}

impl<'a> Builder<'a> {
    /// A builder for a text of `len` bytes. The scratch holds one
    /// function at a time and is reserved from the text's length so that
    /// it rarely grows. On the unrolled TSVC kernels, 1,000 angha functions
    /// and Table I at scale 0.1, a module's largest function has at least
    /// 30 bytes of the module's text per instruction, at most 0.95
    /// constants and `@name` slots and 1.6 operands naming them per
    /// instruction, and at most five blocks. The cap keeps a large module
    /// from reserving more than a large function needs.
    pub(super) fn new(len: usize) -> Self {
        let insts = (len / 30).clamp(16, 4096);
        Builder {
            locals: NameTable::default(),
            blocks: NameTable::default(),
            offset: 0,
            params: 0,
            insts: Vec::with_capacity(insts),
            block_list: Vec::with_capacity(8),
            block_start: 0,
            late: Vec::with_capacity(insts),
            consts: HashMap::new(),
            ref_slots: HashMap::new(),
            late_uses: Vec::with_capacity(2 * insts),
            local_fixups: Vec::new(),
            label_fixups: Vec::new(),
            error: None,
            refs: Vec::new(),
            callees: Vec::new(),
            refs_start: 0,
            callees_start: 0,
        }
    }

    /// Starts a function whose header begins at byte `offset` with `rest`
    /// bytes of text left from there.
    pub(super) fn begin_func(&mut self, offset: usize, rest: usize) {
        self.offset = offset;
        self.params = 0;
        self.locals.reset(rest / SLOT_BYTES);
    }

    /// Binds parameter `key`; false when the name is taken.
    pub(super) fn bind_param(&mut self, key: Key<'a>) -> bool {
        let index = self.params as u32;
        self.params += 1;
        self.locals.bind(key, index)
    }

    /// Starts the body of the function just begun.
    pub(super) fn begin_body(&mut self) {
        self.blocks.reset(self.locals.limit);
        self.insts.clear();
        self.block_list.clear();
        self.block_start = 0;
        self.late.clear();
        self.consts.clear();
        self.ref_slots.clear();
        self.late_uses.clear();
        self.local_fixups.clear();
        self.label_fixups.clear();
        self.error = None;
        self.refs_start = self.refs.len();
        self.callees_start = self.callees.len();
    }

    /// Keeps `error` if it comes before the first one so far.
    fn fail(&mut self, order: Order, error: Error) {
        if self.error.as_ref().is_none_or(|(at, _)| order < *at) {
            self.error = Some((order, error));
        }
    }

    /// The index the next instruction gets.
    pub(super) fn next_inst(&self) -> u32 {
        self.insts.len() as u32
    }

    /// The block the next instruction goes into.
    pub(super) fn current_block(&self) -> BlockId {
        BlockId::from_index(self.block_list.len().saturating_sub(1))
    }

    /// Closes the block being read, if any.
    fn end_block(&mut self) {
        if let Some(block) = self.block_list.last_mut() {
            block.insts = (self.block_start..self.insts.len())
                .map(InstId::from_index)
                .collect();
            self.block_start = self.insts.len();
        }
    }

    /// Starts a block labelled `name`.
    pub(super) fn begin_block(&mut self, name: Name<'a>) {
        self.end_block();
        let index = self.block_list.len() as u32;
        if !self.blocks.bind(label_key(&name), index) {
            let error = Error::at(self.offset, format!("duplicate block label {name}"));
            self.fail((0, 0, 0), error);
        }
        self.block_list.push(BlockData::new(name.as_ref()));
    }

    /// Binds the result of instruction `k`, read at `offset`.
    pub(super) fn bind_result(&mut self, key: Key<'a>, k: u32, offset: usize) {
        let id = self.params as u32 + k;
        if !self.locals.bind(key.clone(), id) {
            self.fail(
                (1, k, 1),
                Error::at(offset, format!("value %{key} defined twice")),
            );
        }
    }

    /// Operand `slot` of instruction `k`: the local `key`.
    pub(super) fn local(&mut self, key: Key<'a>, k: u32, slot: u32, offset: usize) -> ValueId {
        if let Some(v) = self.locals.get(&key) {
            return ValueId(v);
        }
        self.local_fixups.push(LocalFixup {
            inst: k,
            slot,
            key,
            offset,
        });
        ValueId(PLACEHOLDER)
    }

    /// Operand `slot` of instruction `k`: the constant `def`.
    pub(super) fn constant(&mut self, key: ConstKey, def: ValueDef, k: u32, slot: u32) -> ValueId {
        self.late_uses.push((k, slot));
        let next = ValueId(self.late.len() as u32);
        let v = *self.consts.entry(key).or_insert(next);
        if v == next {
            self.late.push(def);
        }
        v
    }

    /// Operand `slot` of instruction `k`: the address of `@name`.
    pub(super) fn global(&mut self, name: Name<'a>, k: u32, slot: u32, offset: usize) -> ValueId {
        self.late_uses.push((k, slot));
        let next = self.late.len() as u32;
        let v = *self.ref_slots.entry(name.clone()).or_insert(next);
        if v == next {
            self.late.push(UNRESOLVED);
            self.refs.push(Pending {
                index: v,
                name,
                offset,
                order: (2, k, slot),
            });
        }
        ValueId(v)
    }

    /// Label `slot` of instruction `k`: the block labelled `name`.
    pub(super) fn label(&mut self, name: Name<'a>, k: u32, slot: u32, offset: usize) -> BlockId {
        let key = label_key(&name);
        if let Some(b) = self.blocks.get(&key) {
            return BlockId(b);
        }
        self.label_fixups.push(LabelFixup {
            inst: k,
            slot,
            key,
            offset,
        });
        BlockId(PLACEHOLDER)
    }

    /// The callee `@name` of instruction `k`, left to [`link`].
    pub(super) fn callee(&mut self, name: Name<'a>, k: u32, offset: usize) -> InstExtra {
        self.callees.push(Pending {
            index: k,
            name,
            offset,
            order: (1, k, 0),
        });
        InstExtra::Call {
            callee: FuncId(u32::MAX),
        }
    }

    pub(super) fn push_inst(&mut self, inst: InstData) {
        self.insts.push(inst);
    }

    /// Patches the fixups of the body just read and hands out its arenas,
    /// laid out as `Function::new` plus `create_inst` / `append_inst` /
    /// `const_*` calls in the same order would lay them out: parameters,
    /// then one result slot per instruction in block order, then constants
    /// and `@name` slots in first-use order.
    pub(super) fn finish_body(&mut self, param_tys: &[TypeId]) -> Body {
        self.end_block();
        let params = param_tys.len();
        let count = self.insts.len();
        let base = (params + count) as u32;
        for &(k, slot) in &self.late_uses {
            self.insts[k as usize].operands[slot as usize].0 += base;
        }
        for r in &mut self.refs[self.refs_start..] {
            r.index += base;
        }
        for fix in std::mem::take(&mut self.local_fixups) {
            match self.locals.get(&fix.key) {
                Some(v) => self.insts[fix.inst as usize].operands[fix.slot as usize] = ValueId(v),
                None => {
                    let error = Error::at(fix.offset, format!("unknown value %{}", fix.key));
                    self.fail((2, fix.inst, fix.slot), error);
                }
            }
        }
        for fix in std::mem::take(&mut self.label_fixups) {
            let Some(b) = self.blocks.get(&fix.key) else {
                let error = Error::at(fix.offset, format!("unknown block label {}", fix.key));
                self.fail((1, fix.inst, 0), error);
                continue;
            };
            let b = BlockId(b);
            match &mut self.insts[fix.inst as usize].extra {
                InstExtra::Phi { incoming } => incoming[fix.slot as usize] = b,
                InstExtra::Br { dest } => *dest = b,
                InstExtra::CondBr {
                    then_dest,
                    else_dest,
                } => *(if fix.slot == 0 { then_dest } else { else_dest }) = b,
                other => unreachable!("no label in {other:?}"),
            }
        }
        let mut values = Vec::with_capacity(params + count + self.late.len());
        values.extend(
            param_tys
                .iter()
                .enumerate()
                .map(|(i, &ty)| ValueDef::Param {
                    index: i as u32,
                    ty,
                }),
        );
        values.extend((0..count).map(|k| ValueDef::Inst(InstId::from_index(k))));
        // The function's constant map, sized once: the scratch map of
        // the body keeps its capacity for the next one.
        let mut consts = HashMap::with_capacity(self.late.len());
        for (i, def) in self.late.iter().enumerate() {
            if *def != UNRESOLVED {
                let key = def.const_key().expect("a constant");
                consts.insert(key, ValueId(base + i as u32));
            }
        }
        values.append(&mut self.late);
        Body {
            values,
            consts,
            insts: self.insts.drain(..).collect(),
            blocks: self.block_list.drain(..).collect(),
            refs: self.refs_start..self.refs.len(),
            callees: self.callees_start..self.callees.len(),
            error: self.error.take(),
        }
    }
}

/// A function as the parser read it: its header, and its body when it is
/// a definition.
pub(super) struct FuncDef<'a> {
    pub(super) offset: usize,
    pub(super) name: Name<'a>,
    pub(super) param_tys: Vec<TypeId>,
    pub(super) ret_ty: TypeId,
    pub(super) effects: Effects,
    pub(super) body: Option<Body>,
}

/// Registers the name of every function of `funcs` in `module` (so calls
/// and `@f` operands may point forwards), then resolves each body's
/// pending names and adds the functions in order.
pub(super) fn link(
    mut module: Module,
    funcs: Vec<FuncDef<'_>>,
    builder: &Builder<'_>,
) -> Result<Module> {
    for def in &funcs {
        if module.func_by_name(&def.name).is_some() {
            return Err(Error::at(
                def.offset,
                format!("function @{} defined twice", def.name),
            ));
        }
        if module.global_by_name(&def.name).is_some() {
            return Err(Error::at(
                def.offset,
                format!("@{} defined as both a global and a function", def.name),
            ));
        }
        module.register_func_name(def.name.to_string());
    }
    for def in funcs {
        let name = def.name.into_owned();
        let func = match def.body {
            None => Function::declare(name, def.param_tys, def.ret_ty, def.effects),
            Some(body) => body.finish(&module, builder, name, def.param_tys, def.ret_ty)?,
        };
        module.push_registered_func(func);
    }
    Ok(module)
}

impl Body {
    /// Resolves the pending names against `module` and assembles the
    /// function, or returns the first error in build order.
    fn finish(
        mut self,
        module: &Module,
        builder: &Builder<'_>,
        name: String,
        param_tys: Vec<TypeId>,
        ret_ty: TypeId,
    ) -> Result<Function> {
        let mut first = self.error.take();
        let before = |order: Order, first: &Option<(Order, Error)>| {
            first.as_ref().is_none_or(|(at, _)| order < *at)
        };
        for call in &builder.callees[self.callees.clone()] {
            if !before(call.order, &first) {
                break;
            }
            let Some(callee) = module.func_by_name(&call.name) else {
                let error = Error::at(call.offset, format!("unknown callee @{}", call.name));
                first = Some((call.order, error));
                break;
            };
            self.insts[call.index as usize].extra = InstExtra::Call { callee };
        }
        for r in &builder.refs[self.refs.clone()] {
            if !before(r.order, &first) {
                break;
            }
            let (key, def) = if let Some(g) = module.global_by_name(&r.name) {
                (ConstKey::Global(g), ValueDef::GlobalAddr(g))
            } else if let Some(f) = module.func_by_name(&r.name) {
                (ConstKey::Func(f), ValueDef::FuncAddr(f))
            } else {
                let error = Error::at(r.offset, format!("unknown reference @{}", r.name));
                first = Some((r.order, error));
                break;
            };
            self.values[r.index as usize] = def;
            self.consts.insert(key, ValueId(r.index));
        }
        if let Some((_, error)) = first {
            return Err(error);
        }
        let count = self.insts.len();
        let params = param_tys.len();
        let func = Function::from_raw_parts(
            name,
            param_tys,
            ret_ty,
            false,
            Effects::ReadWrite,
            self.values,
            self.consts,
            self.insts,
            vec![true; count],
            self.blocks,
            (0..params).map(ValueId::from_index).collect(),
        )
        .expect("every instruction has exactly one result slot");
        Ok(func)
    }
}
