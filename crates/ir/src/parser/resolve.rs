//! Phase 2: turns the borrowed phase-1 AST into functions.
//!
//! Function names are registered first, so calls and `@f` operands may
//! refer forwards. Each definition is then built in two sweeps: the
//! first creates every instruction (operands still empty) in block
//! order, binding result names, so that a use may precede its definition
//! (phis); the second resolves operands in instruction order, interning
//! constants and addresses as it meets them.

use std::collections::HashMap;

use super::{Error, ExtraAst, FuncAst, InstAst, Name, OperandAst, Result};
use crate::block::{BlockData, BlockId};
use crate::function::{Effects, Function};
use crate::inst::{InstData, InstExtra, InstId, Opcode};
use crate::module::Module;
use crate::value::{ConstKey, ValueDef, ValueId};

/// Builds every function of `funcs` into `module`.
pub(super) fn build(
    mut module: Module,
    funcs: &[FuncAst<'_>],
    operands: &[OperandAst<'_>],
    labels: &[Name<'_>],
) -> Result<Module> {
    let mut ids = Vec::with_capacity(funcs.len());
    for ast in funcs {
        if module.func_by_name(&ast.name).is_some() {
            return Err(Error::at(
                ast.offset,
                format!("function @{} defined twice", ast.name),
            ));
        }
        if module.global_by_name(&ast.name).is_some() {
            return Err(Error::at(
                ast.offset,
                format!("@{} defined as both a global and a function", ast.name),
            ));
        }
        let decl = Function::declare(
            ast.name.as_ref(),
            ast.param_tys.clone(),
            ast.ret_ty,
            ast.effects,
        );
        ids.push(module.add_func(decl));
    }
    let mut builder = Builder {
        operands,
        labels,
        locals: NameTable::default(),
        blocks: NameTable::default(),
        consts: HashMap::new(),
    };
    for (ast, id) in funcs.iter().zip(ids) {
        if !ast.is_decl {
            let func = builder.function(&module, ast)?;
            module.replace_func(id, func);
        }
    }
    Ok(module)
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
struct NameTable<'s> {
    dense: Vec<u32>,
    prefixed: Vec<u32>,
    other: HashMap<&'s str, u32>,
}

impl<'s> NameTable<'s> {
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
    fn bind(&mut self, name: &'s str, id: u32) -> bool {
        let cell = match self.slot(name) {
            Slot::Dense(n) => &mut self.dense[n],
            Slot::Prefixed(n) => &mut self.prefixed[n],
            Slot::Other => return self.other.insert(name, id).is_none(),
        };
        let fresh = *cell == UNBOUND;
        *cell = id;
        fresh
    }
}

/// Phase-2 state, reused from one function to the next.
struct Builder<'s, 'a> {
    operands: &'s [OperandAst<'a>],
    labels: &'s [Name<'a>],
    locals: NameTable<'s>,
    blocks: NameTable<'s>,
    /// The function's interned constants and addresses so far.
    consts: HashMap<ConstKey, ValueId>,
}

impl<'s, 'a> Builder<'s, 'a> {
    /// Builds one definition straight into value, instruction and block
    /// arenas, laid out as `Function::new` plus `create_inst` /
    /// `append_inst` / `const_*` calls in the same order would lay them
    /// out: parameters, then one result slot per instruction in block
    /// order, then constants in first-use order.
    fn function(&mut self, module: &Module, ast: &'s FuncAst<'a>) -> Result<Function> {
        let params = ast.param_tys.len();
        let count = ast.insts.len();
        // Printed results are numbered after the parameters, so
        // `params + count` covers every printer-canonical `%N`.
        self.locals.reset(params + count, params);
        for (i, name) in ast.param_names.iter().enumerate() {
            self.locals.bind(name, i as u32);
        }
        // Imported LLVM labels count arguments, values and blocks alike.
        self.blocks.reset(ast.blocks.len() + count + params, 0);
        let mut blocks = Vec::with_capacity(ast.blocks.len());
        for (label, _) in &ast.blocks {
            if !self.blocks.bind(label, blocks.len() as u32) {
                return Err(Error::at(
                    ast.offset,
                    format!("duplicate block label {label}"),
                ));
            }
            blocks.push(BlockData::new(label.as_ref()));
        }

        // First sweep: every instruction's payload and result name, so
        // that forward value references (e.g. phis) resolve. Instruction
        // `k` defines value `params + k`.
        let mut insts = Vec::with_capacity(count);
        let mut start = 0;
        for (b, &(_, end)) in ast.blocks.iter().enumerate() {
            let end = end as usize;
            blocks[b].insts = (start..end).map(InstId::from_index).collect();
            for inst in &ast.insts[start..end] {
                let extra = self.extra(module, inst)?;
                if let Some(name) = &inst.result {
                    if !self.locals.bind(name, (params + insts.len()) as u32) {
                        return Err(Error::at(
                            inst.offset,
                            format!("value %{name} defined twice"),
                        ));
                    }
                }
                insts.push(InstData {
                    opcode: inst.opcode,
                    ty: inst.ty,
                    operands: Vec::new(),
                    block: BlockId::from_index(b),
                    extra,
                });
            }
            start = end;
        }

        // Second sweep: resolve operands in instruction order, interning
        // constants and addresses as they first appear.
        let mut values = Vec::with_capacity(params + count);
        values.extend(
            ast.param_tys
                .iter()
                .enumerate()
                .map(|(i, &ty)| ValueDef::Param {
                    index: i as u32,
                    ty,
                }),
        );
        values.extend((0..count).map(|k| ValueDef::Inst(InstId::from_index(k))));
        self.consts.clear();
        for (inst, data) in ast.insts.iter().zip(&mut insts) {
            let (lo, hi) = inst.operands;
            let mut operands = Vec::with_capacity((hi - lo) as usize);
            for op in &self.operands[lo as usize..hi as usize] {
                let (key, def) = match *op {
                    OperandAst::Local(ref name) => {
                        let Some(v) = self.locals.get(name) else {
                            return Err(Error::at(inst.offset, format!("unknown value %{name}")));
                        };
                        operands.push(ValueId::from_index(v as usize));
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
                    OperandAst::Ref(ref name) => {
                        if let Some(g) = module.global_by_name(name) {
                            (ConstKey::Global(g), ValueDef::GlobalAddr(g))
                        } else if let Some(f) = module.func_by_name(name) {
                            (ConstKey::Func(f), ValueDef::FuncAddr(f))
                        } else {
                            return Err(Error::at(
                                inst.offset,
                                format!("unknown reference @{name}"),
                            ));
                        }
                    }
                    OperandAst::Undef(ty) => (ConstKey::Undef(ty), ValueDef::Undef(ty)),
                };
                let next = ValueId::from_index(values.len());
                let v = *self.consts.entry(key).or_insert(next);
                if v == next {
                    values.push(def);
                }
                operands.push(v);
            }
            data.operands = operands;
        }

        let func = Function::from_raw_parts(
            ast.name.to_string(),
            ast.param_tys.clone(),
            ast.ret_ty,
            false,
            Effects::ReadWrite,
            values,
            insts,
            vec![true; count],
            blocks,
            (0..params).map(ValueId::from_index).collect(),
        )
        .expect("every instruction has exactly one result slot");
        Ok(func)
    }

    /// The opcode payload of `inst`, resolving its callee and labels.
    fn extra(&self, module: &Module, inst: &InstAst<'a>) -> Result<InstExtra> {
        let label = |i: u32| -> Result<BlockId> {
            let name = &self.labels[i as usize];
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
            (ExtraAst::Callee(name), _) => match module.func_by_name(name) {
                Some(callee) => InstExtra::Call { callee },
                None => return Err(Error::at(inst.offset, format!("unknown callee @{name}"))),
            },
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
