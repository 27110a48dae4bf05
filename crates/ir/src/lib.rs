//! # rolag-ir
//!
//! SSA intermediate representation for the RoLAG loop-rolling reproduction
//! (CGO 2022, "Loop Rolling for Code Size Reduction").
//!
//! This crate is the project's stand-in for LLVM IR: a typed SSA IR with
//! basic blocks, phis, `gep`-style address arithmetic, direct calls with
//! memory-effect annotations, and opaque pointers. It ships with:
//!
//! * arena-based [`Module`]/[`Function`] data structures ([`module`],
//!   [`function`]);
//! * an ergonomic [`builder`];
//! * a textual [`printer`] and round-tripping [`parser`];
//! * a structural/type/dominance [`verify`]er over the dominator tree in
//!   [`dom`];
//! * constant folding ([`fold`]) and dead-code elimination ([`dce`]);
//! * the Fx hasher for maps keyed by arena ids ([`fxhash`]);
//! * a reference [`interp`]reter used as the behavioural oracle by the
//!   transformation crates;
//! * a miniature [`filecheck`] matcher for golden tests over printed IR.
//!
//! ## Example
//!
//! ```
//! use rolag_ir::builder::FuncBuilder;
//! use rolag_ir::interp::{Interpreter, IValue};
//! use rolag_ir::module::Module;
//!
//! let mut module = Module::new("demo");
//! let i32t = module.types.i32();
//! let mut fb = FuncBuilder::new(&mut module, "double_plus_one", vec![i32t], i32t);
//! let x = fb.param(0);
//! fb.block("entry");
//! fb.ins(|b| {
//!     let two = b.i32_const(2);
//!     let one = b.i32_const(1);
//!     let d = b.mul(x, two);
//!     let r = b.add(d, one);
//!     b.ret(Some(r));
//! });
//! fb.finish();
//!
//! let mut interp = Interpreter::new(&module);
//! let out = interp.run("double_plus_one", &[IValue::Int(20)]).unwrap();
//! assert_eq!(out.ret, IValue::Int(41));
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod dce;
pub mod dom;
pub mod filecheck;
pub mod fold;
pub mod function;
pub mod fxhash;
pub mod inline_list;
pub mod inst;
pub mod interp;
pub mod module;
pub mod parser;
pub mod printer;
pub mod serialization;
pub mod types;
pub mod value;
pub mod verify;

pub use block::{BlockData, BlockId};
pub use builder::{Builder, FuncBuilder};
pub use function::{Effects, Function, PreWindow, SnapshotToken, UseMap};
pub use inline_list::InlineList;
pub use inst::{
    FloatPredicate, InstData, InstExtra, InstId, IntPredicate, NeutralElement, Opcode, Operands,
};
pub use module::{GlobalData, GlobalInit, Module};
pub use serialization::{decode_module, encode_module, DecodeError};
pub use types::{TypeId, TypeKind, TypeStore};
pub use value::{FuncId, GlobalId, ValueDef, ValueId};
