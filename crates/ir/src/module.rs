//! Modules: collections of functions and global variables plus the type
//! store.

use std::collections::HashMap;

use crate::function::{Effects, Function};
use crate::types::{TypeId, TypeStore};
use crate::value::{FuncId, GlobalId};

/// Initializer of a global variable.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum GlobalInit {
    /// Zero-initialized.
    Zero,
    /// An array of integer constants of the given element type. Used by the
    /// loop-rolling code generator for constant mismatch arrays.
    Ints { elem_ty: TypeId, values: Vec<i64> },
    /// Raw bytes.
    Bytes(Vec<u8>),
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalData {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Value type of the global's contents (determines its size).
    pub ty: TypeId,
    /// Initializer.
    pub init: GlobalInit,
    /// True for read-only data (lives in `.rodata` when lowered).
    pub is_const: bool,
}

impl GlobalData {
    /// Byte size of the global's initialized contents, its type read in
    /// `types`.
    pub fn size(&self, types: &TypeStore) -> u64 {
        match &self.init {
            GlobalInit::Bytes(b) => b.len() as u64,
            _ => types.size_of(self.ty),
        }
    }
}

/// A module: type store, globals, and functions.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (used in printouts only).
    pub name: String,
    /// The module's interned types.
    pub types: TypeStore,
    funcs: Vec<Function>,
    globals: Vec<GlobalData>,
    func_map: HashMap<String, FuncId>,
    global_map: HashMap<String, GlobalId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            types: TypeStore::new(),
            funcs: Vec::new(),
            globals: Vec::new(),
            func_map: HashMap::new(),
            global_map: HashMap::new(),
        }
    }

    /// Adds a function (definition or declaration) to the module.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        assert!(
            !self.func_map.contains_key(&func.name),
            "duplicate function {}",
            func.name
        );
        let id = FuncId((self.funcs.len()) as u32);
        self.func_map.insert(func.name.clone(), id);
        self.funcs.push(func);
        id
    }

    /// Convenience: adds an external declaration.
    pub fn declare_func(
        &mut self,
        name: impl Into<String>,
        param_tys: Vec<TypeId>,
        ret_ty: TypeId,
        effects: Effects,
    ) -> FuncId {
        self.add_func(Function::declare(name, param_tys, ret_ty, effects))
    }

    /// Adds a global variable.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name already exists.
    pub fn add_global(&mut self, global: GlobalData) -> GlobalId {
        assert!(
            !self.global_map.contains_key(&global.name),
            "duplicate global {}",
            global.name
        );
        let id = GlobalId(self.globals.len() as u32);
        self.global_map.insert(global.name.clone(), id);
        self.globals.push(global);
        id
    }

    /// Adds a zero-initialized mutable global of the given type.
    pub fn add_zero_global(&mut self, name: impl Into<String>, ty: TypeId) -> GlobalId {
        self.add_global(GlobalData {
            name: name.into(),
            ty,
            init: GlobalInit::Zero,
            is_const: false,
        })
    }

    /// Returns a fresh global name with the given prefix.
    pub fn fresh_global_name(&self, prefix: &str) -> String {
        let mut i = self.globals.len();
        loop {
            let name = format!("{prefix}.{i}");
            if !self.global_map.contains_key(&name) {
                return name;
            }
            i += 1;
        }
    }

    /// The function with id `id`.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to the function with id `id`.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Replaces the body of an existing function slot (used by the parser,
    /// which pre-registers all function names to allow forward calls).
    ///
    /// # Panics
    ///
    /// Panics if the replacement has a different name.
    pub fn replace_func(&mut self, id: FuncId, func: Function) {
        assert_eq!(
            self.funcs[id.index()].name,
            func.name,
            "replace_func must keep the name"
        );
        self.funcs[id.index()] = func;
    }

    /// Moves the body of function `id` out, leaving its [`Function::stub`]
    /// in the slot, so the signature stays readable while the caller
    /// transforms the body. Put it back with [`Module::replace_func`].
    pub fn take_func(&mut self, id: FuncId) -> Function {
        let stub = self.funcs[id.index()].stub();
        std::mem::replace(&mut self.funcs[id.index()], stub)
    }

    /// A copy of the module without function bodies: the types, globals
    /// and name maps, and a [`Function::stub`] in every function slot. It
    /// is the context an intraprocedural pass reads while it transforms
    /// one body held outside the module.
    pub fn without_bodies(&self) -> Module {
        Module {
            name: self.name.clone(),
            types: self.types.clone(),
            funcs: self.funcs.iter().map(Function::stub).collect(),
            globals: self.globals.clone(),
            func_map: self.func_map.clone(),
            global_map: self.global_map.clone(),
        }
    }

    /// Splits the borrow so a function body and the type store can be
    /// mutated together (as transformation passes need).
    pub fn func_and_types_mut(&mut self, id: FuncId) -> (&mut Function, &mut TypeStore) {
        (&mut self.funcs[id.index()], &mut self.types)
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_map.get(name).copied()
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len() as u32).map(FuncId::from_index_u32)
    }

    /// Consumes the module, returning its functions in id order.
    pub fn into_funcs(self) -> Vec<Function> {
        self.funcs
    }

    /// Number of functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// The global with id `id`.
    pub fn global(&self, id: GlobalId) -> &GlobalData {
        &self.globals[id.index()]
    }

    /// Looks a global up by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_map.get(name).copied()
    }

    /// All global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> + '_ {
        (0..self.globals.len() as u32).map(|i| GlobalId::from_index(i as usize))
    }

    /// Number of globals.
    pub fn num_globals(&self) -> usize {
        self.globals.len()
    }

    /// Byte size of a global's initialized contents.
    pub fn global_size(&self, id: GlobalId) -> u64 {
        self.global(id).size(&self.types)
    }
}

impl FuncId {
    fn from_index_u32(i: u32) -> Self {
        FuncId::from_index(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_funcs() {
        let mut m = Module::new("test");
        let void = m.types.void();
        let id = m.declare_func("ext", vec![], void, Effects::ReadWrite);
        assert_eq!(m.func_by_name("ext"), Some(id));
        assert_eq!(m.func_by_name("missing"), None);
        assert!(m.func(id).is_declaration);
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new("test");
        let void = m.types.void();
        m.declare_func("f", vec![], void, Effects::ReadWrite);
        m.declare_func("f", vec![], void, Effects::ReadWrite);
    }

    /// The body-less context keeps everything a pass reads of the rest of
    /// the module and no instruction.
    #[test]
    fn without_bodies_keeps_the_context_and_no_instruction() {
        let text = r#"
module "ctx"
global @tab : [4 x i32] = ints i32 [1, 2, 3, 4]
global @buf : [8 x i8] = zero
declare @ext(i32 %p0, ptr %p1) -> i64 readonly
func @f(i32 %p0) -> i32 {
entry:
  %g = gep i32, @tab, i64 1
  %v = load i32, %g
  %s = add i32 %v, %p0
  ret %s
}
func @g() -> void {
entry:
  %r = call i32 @f(i32 3)
  ret
}
"#;
        let mut m = crate::parser::parse_module(text).unwrap();
        let f = m.func_by_name("f").unwrap();
        m.func_mut(f).effects = Effects::ReadNone;
        let ctx = m.without_bodies();
        assert_eq!(ctx.name, m.name);
        assert_eq!(ctx.num_funcs(), m.num_funcs());
        for id in m.func_ids() {
            let (full, stub) = (m.func(id), ctx.func(id));
            assert_eq!(stub.name, full.name);
            assert_eq!(ctx.func_by_name(&full.name), Some(id));
            assert_eq!(stub.param_tys(), full.param_tys());
            assert_eq!(stub.params().len(), full.params().len());
            assert_eq!(stub.ret_ty, full.ret_ty);
            assert_eq!(stub.effects, full.effects);
            assert_eq!(stub.is_declaration, full.is_declaration);
            assert_eq!((stub.num_blocks(), stub.num_insts()), (0, 0));
        }
        assert_eq!(ctx.num_globals(), m.num_globals());
        for g in m.global_ids() {
            assert_eq!(ctx.global(g), m.global(g));
            assert_eq!(ctx.global_by_name(&m.global(g).name), Some(g));
        }
        assert_eq!(ctx.types.num_types(), m.types.num_types());
        for i in 0..m.types.num_types() {
            let t = TypeId(i as u32);
            assert_eq!(ctx.types.kind(t), m.types.kind(t));
        }

        // Taking a body out leaves the same stub behind.
        let body = m.take_func(f);
        assert_eq!(body.num_insts(), 4);
        assert_eq!(
            (m.func(f).num_insts(), m.func(f).effects),
            (0, Effects::ReadNone)
        );
        m.replace_func(f, body);
        assert_eq!(m.func(f).num_insts(), 4);
    }

    #[test]
    fn globals() {
        let mut m = Module::new("test");
        let arr = m.types.array(m.types.i32(), 8);
        let g = m.add_zero_global("buf", arr);
        assert_eq!(m.global_by_name("buf"), Some(g));
        assert_eq!(m.global_size(g), 32);
        let name = m.fresh_global_name("buf");
        assert_ne!(name, "buf");
    }
}
