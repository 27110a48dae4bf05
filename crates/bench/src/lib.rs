//! # rolag-bench
//!
//! The evaluation harness: drivers that regenerate every table and figure
//! of "Loop Rolling for Code Size Reduction" (CGO 2022) over the project's
//! synthetic substrates, plus reporting helpers.
//!
//! Binaries (one per experiment):
//!
//! * `table1` — MiBench/SPEC full-program reductions (Table I);
//! * `fig15`/`fig16` — AnghaBench reduction curve and node breakdown;
//! * `fig17`/`fig18`/`fig19` — TSVC bars, oracle curve, node breakdown;
//! * `perf_overhead` — §V-D dynamic-instruction overhead;
//! * `pass_order` — RoLAG before vs after CSE+cleanup on TSVC (§V-A);
//! * `probe_irregular` — measured size delta of irregular-constant store
//!   runs by lane count (§V-A's profitability false positives);
//! * `rolag-corpus` — whole-corpus rolling dashboard over the streaming
//!   bounded-memory pipeline.

#![warn(missing_docs)]

pub mod angha_eval;
pub mod harness;
pub mod parallel;
pub mod pipelines;
pub mod report;
pub mod table1_eval;
pub mod tsvc_eval;
