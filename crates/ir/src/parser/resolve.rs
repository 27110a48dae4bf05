//! Phase 2: turns each definition's borrowed AST into arenas, then links
//! the module.
//!
//! Phase 1 hands a definition to [`Resolver::body`] as soon as it has read
//! the closing brace, while the AST is still in cache, and then reuses the
//! AST buffers for the next definition. A body is built in two sweeps: the
//! first creates every instruction (operands still empty) in block order,
//! binding result names, so that a use may precede its definition (phis);
//! the second resolves operands in instruction order, interning constants
//! as it meets them into the map the function keeps.
//!
//! A callee or an `@name` operand may name a function or global defined
//! further down, so those wait for [`link`], which runs once phase 1 has
//! read the whole module. An `@name` operand still takes its value slot at
//! first use, keyed by the name: a name stands for one global or one
//! function, so this gives the slots that keying by id would. `link`
//! registers every function name, then resolves each body's pending names
//! and fills in their slots and callees.
//!
//! Errors keep the order a function-at-a-time build met them in: a body
//! records only its first error together with its place in that order
//! ([`Order`]), and `link` reports it unless an unresolved name comes
//! first.

use std::collections::HashMap;

use super::{BodyAst, Error, ExtraAst, InstAst, Name, OperandAst, Result};
use crate::block::{BlockData, BlockId};
use crate::function::{Effects, Function};
use crate::inst::{InstData, InstExtra, InstId, Opcode, Operands};
use crate::module::Module;
use crate::types::TypeId;
use crate::value::{ConstKey, FuncId, ValueDef, ValueId};

/// Where in a body's build an error falls: duplicate labels first
/// (`(0, 0, 0)`), then the first sweep (`(1, instruction, 0)` for a label
/// or callee, `(1, instruction, 1)` for a result bound twice), then the
/// second (`(2, instruction, operand)`).
type Order = (u8, u32, u32);

/// A name a body could not resolve on its own.
struct Pending<'a> {
    /// The value slot (an `@name` operand) or instruction (a callee) the
    /// name fills in.
    index: u32,
    name: Name<'a>,
    offset: usize,
    order: Order,
}

/// One definition's arenas, with callees and `@name` operands not yet
/// resolved.
pub(super) struct Body<'a> {
    values: Vec<ValueDef>,
    consts: HashMap<ConstKey, ValueId>,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    /// The first use of each `@name` operand, in the second sweep's order.
    refs: Vec<Pending<'a>>,
    /// Every call, in the first sweep's order.
    callees: Vec<Pending<'a>>,
    /// The first error the build met, which stopped it.
    error: Option<(Order, Error)>,
}

/// An empty [`NameTable`] slot.
const UNBOUND: u32 = u32::MAX;

/// `n` when `s` spells it in decimal without leading zeros (and is short
/// enough not to overflow).
fn decimal(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let canonical = !b.is_empty() && b.len() <= 9 && (b[0] != b'0' || b.len() == 1);
    if !canonical || !b.iter().all(u8::is_ascii_digit) {
        return None;
    }
    Some(b.iter().fold(0, |n, &d| n * 10 + usize::from(d - b'0')))
}

/// Where a name lives in a [`NameTable`].
enum Slot {
    Dense(usize),
    Prefixed(usize),
    Other,
}

/// The names of one function's locals or blocks. The printer's own
/// spellings index dense tables directly — `N` (decimal, no leading
/// zero) into `dense`, `pN` into `prefixed` — as long as `N` is below the
/// table's size; every other spelling goes through `other`. A name's
/// slot depends only on its spelling and the table sizes, so `%01` and
/// `%1` stay distinct names, and a name always finds its own binding.
#[derive(Default)]
struct NameTable<'a> {
    dense: Vec<u32>,
    prefixed: Vec<u32>,
    other: HashMap<Name<'a>, u32>,
}

impl<'a> NameTable<'a> {
    fn reset(&mut self, dense: usize, prefixed: usize) {
        self.dense.clear();
        self.dense.resize(dense, UNBOUND);
        self.prefixed.clear();
        self.prefixed.resize(prefixed, UNBOUND);
        self.other.clear();
    }

    fn slot(&self, name: &str) -> Slot {
        if let Some(n) = decimal(name) {
            if n < self.dense.len() {
                return Slot::Dense(n);
            }
        } else if let Some(n) = name.strip_prefix('p').and_then(decimal) {
            if n < self.prefixed.len() {
                return Slot::Prefixed(n);
            }
        }
        Slot::Other
    }

    fn get(&self, name: &str) -> Option<u32> {
        let id = match self.slot(name) {
            Slot::Dense(n) => self.dense[n],
            Slot::Prefixed(n) => self.prefixed[n],
            Slot::Other => return self.other.get(name).copied(),
        };
        (id != UNBOUND).then_some(id)
    }

    /// Binds `name` to `id`; false when it was already bound.
    fn bind(&mut self, name: &Name<'a>, id: u32) -> bool {
        let cell = match self.slot(name) {
            Slot::Dense(n) => &mut self.dense[n],
            Slot::Prefixed(n) => &mut self.prefixed[n],
            Slot::Other => return self.other.insert(name.clone(), id).is_none(),
        };
        let fresh = *cell == UNBOUND;
        *cell = id;
        fresh
    }
}

/// Body-building state, reused from one definition to the next.
#[derive(Default)]
pub(super) struct Resolver<'a> {
    locals: NameTable<'a>,
    blocks: NameTable<'a>,
    /// The value slot of each `@name` operand of the current body.
    refs: HashMap<Name<'a>, ValueId>,
}

/// Stands in for an `@name` operand's value until [`link`] resolves it.
const UNRESOLVED: ValueDef = ValueDef::Undef(TypeId(u32::MAX));

impl<'a> Resolver<'a> {
    /// Builds the definition in `ast` (whose header starts at byte
    /// `offset`) straight into value, instruction and block arenas, laid
    /// out as `Function::new` plus `create_inst` / `append_inst` /
    /// `const_*` calls in the same order would lay them out: parameters,
    /// then one result slot per instruction in block order, then constants
    /// in first-use order.
    pub(super) fn body(
        &mut self,
        ast: &BodyAst<'a>,
        param_tys: &[TypeId],
        offset: usize,
    ) -> Body<'a> {
        let mut body = Body {
            values: Vec::new(),
            consts: HashMap::new(),
            insts: Vec::with_capacity(ast.insts.len()),
            blocks: Vec::with_capacity(ast.blocks.len()),
            refs: Vec::new(),
            callees: Vec::new(),
            error: None,
        };
        if let Err(error) = self.build(ast, param_tys, offset, &mut body) {
            body.error = Some(error);
        }
        body
    }

    fn build(
        &mut self,
        ast: &BodyAst<'a>,
        param_tys: &[TypeId],
        offset: usize,
        body: &mut Body<'a>,
    ) -> std::result::Result<(), (Order, Error)> {
        let params = param_tys.len();
        let count = ast.insts.len();
        // Printed results are numbered after the parameters, so
        // `params + count` covers every printer-canonical `%N`.
        self.locals.reset(params + count, params);
        for (i, name) in ast.param_names.iter().enumerate() {
            self.locals.bind(name, i as u32);
        }
        // Imported LLVM labels count arguments, values and blocks alike.
        self.blocks.reset(ast.blocks.len() + count + params, 0);
        for (label, _) in &ast.blocks {
            if !self.blocks.bind(label, body.blocks.len() as u32) {
                let error = Error::at(offset, format!("duplicate block label {label}"));
                return Err(((0, 0, 0), error));
            }
            body.blocks.push(BlockData::new(label.as_ref()));
        }

        // First sweep: every instruction's payload and result name, so
        // that forward value references (e.g. phis) resolve. Instruction
        // `k` defines value `params + k`.
        let mut start = 0;
        for (b, &(_, end)) in ast.blocks.iter().enumerate() {
            let end = end as usize;
            body.blocks[b].insts = (start..end).map(InstId::from_index).collect();
            for inst in &ast.insts[start..end] {
                let k = body.insts.len() as u32;
                let extra = self
                    .extra(ast, inst, k, &mut body.callees)
                    .map_err(|e| ((1, k, 0), e))?;
                if let Some(name) = &inst.result {
                    if !self.locals.bind(name, params as u32 + k) {
                        let error = Error::at(inst.offset, format!("value %{name} defined twice"));
                        return Err(((1, k, 1), error));
                    }
                }
                body.insts.push(InstData {
                    opcode: inst.opcode,
                    ty: inst.ty,
                    operands: Operands::new(),
                    block: BlockId::from_index(b),
                    extra,
                });
            }
            start = end;
        }

        // Second sweep: resolve operands in instruction order, interning
        // constants as they first appear.
        let values = &mut body.values;
        // Each operand that is not a local may intern one more value.
        let interned = ast
            .operands
            .iter()
            .filter(|op| !matches!(op, OperandAst::Local(_)))
            .count();
        values.reserve_exact(params + count + interned);
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
        self.refs.clear();
        for (k, (inst, data)) in ast.insts.iter().zip(&mut body.insts).enumerate() {
            let (lo, hi) = inst.operands;
            let operands = &mut data.operands;
            for (j, op) in ast.operands[lo as usize..hi as usize].iter().enumerate() {
                let next = ValueId::from_index(values.len());
                let (key, def) = match *op {
                    OperandAst::Local(ref name) => {
                        let Some(v) = self.locals.get(name) else {
                            let error = Error::at(inst.offset, format!("unknown value %{name}"));
                            return Err(((2, k as u32, j as u32), error));
                        };
                        operands.push(ValueId::from_index(v as usize));
                        continue;
                    }
                    OperandAst::Ref(ref name) => {
                        let v = *self.refs.entry(name.clone()).or_insert(next);
                        if v == next {
                            values.push(UNRESOLVED);
                            body.refs.push(Pending {
                                index: v.0,
                                name: name.clone(),
                                offset: inst.offset,
                                order: (2, k as u32, j as u32),
                            });
                        }
                        operands.push(v);
                        continue;
                    }
                    OperandAst::CInt(ty, value) => {
                        (ConstKey::Int(ty, value), ValueDef::ConstInt { ty, value })
                    }
                    OperandAst::CFloat(ty, v) => {
                        let bits = v.to_bits();
                        (ConstKey::Float(ty, bits), ValueDef::ConstFloat { ty, bits })
                    }
                    OperandAst::CFloatBits(ty, bits) => {
                        (ConstKey::Float(ty, bits), ValueDef::ConstFloat { ty, bits })
                    }
                    OperandAst::Undef(ty) => (ConstKey::Undef(ty), ValueDef::Undef(ty)),
                };
                let v = *body.consts.entry(key).or_insert(next);
                if v == next {
                    values.push(def);
                }
                operands.push(v);
            }
        }
        Ok(())
    }

    /// The opcode payload of `inst`, the `k`th instruction, resolving its
    /// labels; a callee is left to [`link`] through `callees`.
    fn extra(
        &self,
        ast: &BodyAst<'a>,
        inst: &InstAst<'a>,
        k: u32,
        callees: &mut Vec<Pending<'a>>,
    ) -> Result<InstExtra> {
        let label = |i: u32| -> Result<BlockId> {
            let name = &ast.labels[i as usize];
            match self.blocks.get(name) {
                Some(b) => Ok(BlockId::from_index(b as usize)),
                None => Err(Error::at(
                    inst.offset,
                    format!("unknown block label {name}"),
                )),
            }
        };
        let (lo, hi) = inst.labels;
        Ok(match (&inst.extra, inst.opcode) {
            (ExtraAst::Icmp(p), _) => InstExtra::Icmp(*p),
            (ExtraAst::Fcmp(p), _) => InstExtra::Fcmp(*p),
            (ExtraAst::ElemTy(elem_ty), Opcode::Gep) => InstExtra::Gep { elem_ty: *elem_ty },
            (ExtraAst::ElemTy(elem_ty), _) => InstExtra::Alloca { elem_ty: *elem_ty },
            (ExtraAst::Callee(name), _) => {
                callees.push(Pending {
                    index: k,
                    name: name.clone(),
                    offset: inst.offset,
                    order: (1, k, 0),
                });
                InstExtra::Call {
                    callee: FuncId(u32::MAX),
                }
            }
            (ExtraAst::None, Opcode::Phi) => InstExtra::Phi {
                incoming: (lo..hi).map(label).collect::<Result<_>>()?,
            },
            (ExtraAst::None, Opcode::Br) => InstExtra::Br { dest: label(lo)? },
            (ExtraAst::None, Opcode::CondBr) => InstExtra::CondBr {
                then_dest: label(lo)?,
                else_dest: label(lo + 1)?,
            },
            (ExtraAst::None, _) => InstExtra::None,
        })
    }
}

/// A function as phase 1 read it: its header, and its body when it is a
/// definition.
pub(super) struct FuncDef<'a> {
    pub(super) offset: usize,
    pub(super) name: Name<'a>,
    pub(super) param_tys: Vec<TypeId>,
    pub(super) ret_ty: TypeId,
    pub(super) effects: Effects,
    pub(super) body: Option<Body<'a>>,
}

/// Registers every function of `funcs` in `module` (so calls and `@f`
/// operands may point forwards), then resolves each body's pending names
/// and puts the definitions in place.
pub(super) fn link(mut module: Module, funcs: Vec<FuncDef<'_>>) -> Result<Module> {
    let mut ids = Vec::with_capacity(funcs.len());
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
        // A definition's stub only holds its name until `finish` replaces
        // it, so it needs no parameters.
        let param_tys = match def.body {
            None => def.param_tys.clone(),
            Some(_) => Vec::new(),
        };
        let decl = Function::declare(def.name.as_ref(), param_tys, def.ret_ty, def.effects);
        ids.push(module.add_func(decl));
    }
    for (def, id) in funcs.into_iter().zip(ids) {
        if let Some(body) = def.body {
            let func = body.finish(&module, def.name.into_owned(), def.param_tys, def.ret_ty)?;
            module.replace_func(id, func);
        }
    }
    Ok(module)
}

impl Body<'_> {
    /// Resolves the pending names against `module` and assembles the
    /// function, or returns the first error in build order.
    fn finish(
        mut self,
        module: &Module,
        name: String,
        param_tys: Vec<TypeId>,
        ret_ty: TypeId,
    ) -> Result<Function> {
        let mut first = self.error.take();
        let before = |order: Order, first: &Option<(Order, Error)>| {
            first.as_ref().is_none_or(|(at, _)| order < *at)
        };
        for call in &self.callees {
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
        for r in &self.refs {
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
