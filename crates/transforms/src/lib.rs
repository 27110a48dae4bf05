//! # rolag-transforms
//!
//! Loop transformations used to prepare and clean up benchmark inputs for
//! the RoLAG reproduction:
//!
//! * [`unroll`] — partial unrolling of single-block counted loops (the
//!   paper forces TSVC inner loops to unroll ×8 before evaluating
//!   rerolling, §V-C);
//! * [`cse`] — block-local common-subexpression and redundant-load
//!   elimination (the `-Os` interaction that defeats the baseline
//!   rerolling, §V-C);
//! * [`pipeline`] — constant folding + DCE cleanup standing in for the
//!   surrounding `-Os` pipeline.
//!
//! ```
//! use rolag_ir::parser::parse_module;
//! use rolag_transforms::unroll::{unroll_module, UnrollOutcome};
//!
//! let text = r#"
//! module "t"
//! global @a : [8 x i32] = zero
//! func @f() -> void {
//! entry:
//!   br loop
//! loop:
//!   %1 = phi i32 [ i32 0, entry ], [ %2, loop ]
//!   %p = gep i32, @a, %1
//!   store %1, %p
//!   %2 = add i32 %1, i32 1
//!   %3 = icmp slt %2, i32 8
//!   condbr %3, loop, exit
//! exit:
//!   ret
//! }
//! "#;
//! let mut m = parse_module(text).unwrap();
//! assert_eq!(unroll_module(&mut m, 4), vec![UnrollOutcome::Unrolled { factor: 4 }]);
//! ```

#![warn(missing_docs)]

pub mod cse;
pub mod flatten;
pub mod pipeline;
pub mod unroll;

pub use cse::cse_module;
pub use flatten::flatten_module;
pub use pipeline::{cleanup_in_place, cleanup_module, effects_table};
pub use unroll::{unroll_loops_in_function, unroll_module, UnrollOutcome};
