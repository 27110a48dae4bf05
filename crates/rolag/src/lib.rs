//! # rolag
//!
//! RoLAG — **Ro**lling with **L**oop **A**lignment **G**raphs — a
//! from-scratch reproduction of *"Loop Rolling for Code Size Reduction"*
//! (Rocha, Petoumenos, Franke, Bhatotia, O'Boyle — CGO 2022).
//!
//! RoLAG turns straight-line repetitive code into loops. It aligns SSA
//! graphs bottom-up from seed instructions into an *alignment graph*
//! ([`align`]), abstracts special code patterns (integer sequences, neutral
//! pointer operations, algebraic identities, chained dependences, reduction
//! trees, joint alternating groups), validates the rearrangement with a
//! scheduling analysis ([`schedule`]), generates the rolled loop
//! ([`codegen`]), and keeps whichever version a code-size cost model says
//! is smaller ([`pass`]).
//!
//! # Entry points
//!
//! There is one way to ask for a roll per purpose:
//!
//! * [`roll_module_par`] is the module driver: workers and an optional
//!   cross-request store come from [`DriverOptions`], and structurally
//!   identical definitions share one roll. Every production path
//!   (`rolag-opt --jobs`, `rolag-serve`, the corpus driver) runs it.
//! * [`roll_module`] is the serial reference the driver must match byte for
//!   byte, stats included.
//! * [`roll_module_full_rescan`] is the non-incremental reference the
//!   incremental engine must match.
//! * [`search_function_audited`] runs the beam search on one function and
//!   captures every validator reject for dynamic cross-checking.
//!
//! What to roll with is one [`RolagOptions`] value. Its named presets
//! ([`RolagOptions::preset`]) are the vocabulary shared by the pass
//! registry's `rolag<preset>`, `rolag-serve` requests and
//! `rolag-opt --serve-options`.
//!
//! ```
//! use rolag::{roll_module, RolagOptions};
//! use rolag_ir::parser::parse_module;
//!
//! let text = r#"
//! module "demo"
//! global @a : [8 x i32] = zero
//! func @fill() -> void {
//! entry:
//!   %g0 = gep i32, @a, i64 0
//!   store i32 0, %g0
//!   %g1 = gep i32, @a, i64 1
//!   store i32 5, %g1
//!   %g2 = gep i32, @a, i64 2
//!   store i32 10, %g2
//!   %g3 = gep i32, @a, i64 3
//!   store i32 15, %g3
//!   %g4 = gep i32, @a, i64 4
//!   store i32 20, %g4
//!   %g5 = gep i32, @a, i64 5
//!   store i32 25, %g5
//!   ret
//! }
//! "#;
//! let mut module = parse_module(text).unwrap();
//! let stats = roll_module(&mut module, &RolagOptions::default());
//! assert_eq!(stats.rolled, 1);
//! assert!(stats.size_after < stats.size_before);
//! ```

#![warn(missing_docs)]

pub mod align;
pub mod codegen;
pub mod driver;
mod incremental;
pub mod memo;
pub mod options;
pub mod pass;
pub mod schedule;
pub mod search;
pub mod seeds;
mod speculate;
pub mod stats;
#[cfg(test)]
mod tv_soundness;

pub use align::{
    build_candidate_graph, AlignGraph, AlignNode, DotInfo, GraphBuilder, NodeId, NodeKind,
};
pub use driver::{roll_module_par, DriverOptions, DriverReport, Workers};
pub use memo::{store_key, MemoStore, MemoStoreStats, StoreEntry};
pub use options::{RolagOptions, SearchConfig};
pub use pass::{roll_module, roll_module_full_rescan};
pub use schedule::Schedule;
pub use search::{search_function_audited, RejectedSpeculation, SearchAudit};
pub use seeds::{candidate_variants, collect_block_candidates, collect_candidates, Candidate};
pub use stats::{FixpointCacheStats, NodeKindCounts, RolagStats, SearchStats, StageTimings};
