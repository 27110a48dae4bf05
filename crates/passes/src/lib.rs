//! # rolag-passes
//!
//! The unified pass manager for the RoLAG reproduction: every driver in
//! the workspace — `rolag-opt`, the differential oracle, and the bench
//! harnesses — runs transforms through this crate instead of hand-rolled
//! dispatch.
//!
//! Three pieces:
//!
//! * **Pass traits + manager** ([`manager`]) — [`ModulePass`] /
//!   [`FunctionPass`] with LLVM-style [`PreservedAnalyses`] contracts, a
//!   [`PassManager`] that can verify between passes and track per-pass
//!   wall time and IR changes.
//! * **Cached analyses** ([`analysis`]) — an [`AnalysisManager`] caching
//!   dominators, loop forests, and the call-effects table, keyed by each
//!   function's structural
//!   revision counter so stale results can never be served.
//! * **Registry + textual pipelines** ([`registry`], [`spec`]) —
//!   `"unroll<4>,cleanup,rolag,flatten,cleanup"` parses into a pipeline
//!   with compiler-style diagnostics on bad specs; the registry also
//!   generates the `rolag-opt` help text so docs cannot drift.
//!
//! The ported passes ([`ports`]) wrap the legacy `*_module` entry points
//! (or replicate their iteration order exactly), so running a pipeline
//! here is byte-identical to the drivers it replaced.
//!
//! ```
//! use rolag_ir::parser::parse_module;
//! use rolag_passes::{AnalysisManager, PassContext, PassManager, PassRegistry, TargetKind};
//!
//! let mut module = parse_module(
//!     "module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n  %1 = add i32 %p0, i32 0\n  ret %1\n}\n",
//! )
//! .unwrap();
//! let mut pm = PassManager::new();
//! pm.add_all(PassRegistry::builtin().parse_pipeline("cleanup,cse").unwrap());
//! let mut am = AnalysisManager::new();
//! let mut cx = PassContext::new(TargetKind::X86_64);
//! let report = pm.run(&mut module, &mut am, &mut cx).unwrap();
//! assert_eq!(report.outcomes.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod manager;
pub mod ports;
pub mod registry;
pub mod spec;

pub use analysis::{AnalysisCacheStats, AnalysisKind, AnalysisManager, PreservedAnalyses};
pub use manager::{
    structural_hash, ForEach, FuncResult, FunctionPass, ModulePass, PassContext, PassError,
    PassManager, PassManagerOptions, PassOutcome, RunReport,
};
pub use ports::{CleanupPass, CsePass, FlattenPass, RerollPass, RolagPass, UnrollPass};
pub use registry::{PassInfo, PassRegistry};
pub use spec::{PipelineSpec, SpecElement, SpecError};

// Re-exported so driver binaries need not depend on rolag-analysis just to
// construct a PassContext.
pub use rolag_analysis::TargetKind;
