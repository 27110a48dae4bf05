//! # rolag-analysis
//!
//! Program analyses for the RoLAG loop-rolling reproduction: CFG dominators,
//! natural-loop and induction-variable detection, base+offset alias
//! analysis, block-level dependence graphs, and the TTI-style code-size
//! cost model used by the profitability analysis (§IV-F of the paper).
//!
//! ```
//! use rolag_analysis::cost::{function_size_estimate, X86SizeModel};
//! use rolag_ir::parser::parse_module;
//!
//! let m = parse_module(
//!     "module \"t\"\nfunc @f() -> void {\nentry:\n  ret\n}\n",
//! ).unwrap();
//! let f = m.func(m.func_by_name("f").unwrap());
//! assert!(function_size_estimate(&X86SizeModel, &m, f) > 0);
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod cost;
pub mod depgraph;
pub mod dom;
pub mod loops;

pub use alias::{may_alias, resolve_pointer, BaseObject, PtrInfo};
pub use cost::{
    function_size_estimate, module_text_estimate, SizeModel, TargetKind, Thumb2SizeModel,
    X86SizeModel,
};
pub use depgraph::{conflicts, mem_access, BlockDeps, InstPositions, MemAccess, PosSet};
pub use dom::DomTree;
pub use loops::{find_induction_vars, find_loops, trip_count, IndVar, Loop, TripCount};
