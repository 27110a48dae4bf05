//! Dominator tree (Cooper–Harvey–Kennedy algorithm).
//!
//! The tree lives in `rolag-ir`, whose verifier checks SSA dominance
//! against it; this module re-exports it for the analyses built on it.

pub use rolag_ir::dom::DomTree;
