//! # rolag-difftest
//!
//! Differential semantic oracle for the RoLAG reproduction.
//!
//! Three pieces, composed by the `rolag-verify` binary and the workspace
//! smoke test:
//!
//! * [`gen`] — a deterministic generator emitting verifier-clean textual
//!   IR modules that exercise the paper's pattern space (store lanes over
//!   monotonic GEPs, external-call sequences, reductions, recurrences,
//!   counted loops, mixed widths, commutative orders, division edges);
//! * [`oracle`] — applies every pipeline under test (parse/print
//!   round-trip, unroll, CSE, flatten, cleanup, reroll, and the rolling
//!   engine serial, parallel, validated and searched) and interprets original vs. transformed modules over
//!   deterministic argument sets, comparing return values, effectful call
//!   traces, final global memory, and trap classes;
//! * [`shrink`](mod@shrink) — a greedy structural shrinker that reduces any failure
//!   to a minimal `.rir` reproducer suitable for `tests/repros/`.
//!
//! ```
//! use rolag_difftest::gen::generate_module;
//! use rolag_difftest::oracle::{check_module, Pipeline};
//!
//! let module = generate_module(0, 1);
//! check_module(&module, &Pipeline::ALL, 2).expect("toolchain preserves behaviour");
//! ```

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::{args_for, generate, generate_module};
pub use oracle::{
    apply_pipeline, apply_pipeline_checked, check_module, check_module_opts, compare_behaviour,
    Failure, FailureKind, Pipeline,
};
pub use shrink::{shrink, shrink_failure};
