//! # rolag-lower
//!
//! A binary lowering *simulator* for x86-64: instruction selection with
//! addressing-mode folding ([`isel`]), linear-scan register allocation with
//! spill sizing ([`regalloc`]), and object-section measurement
//! ([`measure`]).
//!
//! This crate is the project's substitute for the real backend + `size(1)`
//! used in the paper's evaluation: every table and figure reports byte
//! sizes produced here. It intentionally disagrees *in detail* with the
//! cheap TTI-style estimate in `rolag-analysis` — that gap reproduces the
//! profitability false positives discussed in §V-A of the paper.
//!
//! ```
//! use rolag_ir::parser::parse_module;
//! use rolag_lower::measure_module;
//!
//! let m = parse_module(
//!     "module \"t\"\nfunc @f() -> void {\nentry:\n  ret\n}\n",
//! ).unwrap();
//! let sizes = measure_module(&m);
//! assert!(sizes.text > 0);
//! ```

#![warn(missing_docs)]

pub mod isel;
pub mod measure;
pub mod regalloc;

pub use isel::{select_function, MachineFunction, RegClass};
pub use measure::{measure_function, measure_function_id, measure_module, ObjectSizes};
pub use regalloc::{allocate, AllocResult};
