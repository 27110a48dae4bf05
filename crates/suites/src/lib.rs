//! # rolag-suites
//!
//! Benchmark workloads for the RoLAG reproduction:
//!
//! * [`tsvc`] — the TSVC kernels (rolled oracle forms; the harness unrolls
//!   them ×8 per §V-C);
//! * [`angha`] — an AnghaBench-like generator of real-world-pattern
//!   functions (§V-A);
//! * [`programs`] — MiBench/SPEC-2017-like synthetic whole programs
//!   (Table I);
//! * [`planted`] — stress shapes planted to expose per-candidate work that
//!   grows with the block.

#![warn(missing_docs)]

pub mod angha;
pub mod planted;
pub mod programs;
pub mod tsvc;
