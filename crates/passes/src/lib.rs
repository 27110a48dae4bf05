//! # rolag-passes
//!
//! The unified pass manager for the RoLAG reproduction: every driver in
//! the workspace — `rolag-opt`, the differential oracle, and the bench
//! harnesses — runs transforms through this crate instead of hand-rolled
//! dispatch.
//!
//! Two pieces:
//!
//! * **Pass trait + manager** ([`manager`]) — every pass is a
//!   [`ModulePass`]; a [`PassManager`] runs them in order, can verify
//!   between passes, and tracks per-pass wall time and IR changes.
//!   Passes compute the analyses they use, so nothing is cached between
//!   passes. The [`AnalysisManager`] ([`analysis`]) holds nothing; it is
//!   kept so [`PassManager::run`]'s signature stays as drivers call it.
//! * **Registry + textual pipelines** ([`registry`], [`spec`]) —
//!   `"unroll<4>,cleanup,rolag,flatten,cleanup"` parses into a pipeline
//!   with compiler-style diagnostics on bad specs; the registry also
//!   generates the `rolag-opt` help text so docs cannot drift.
//!
//! The ported passes ([`ports`]) call the `*_module` entry points, so
//! running a pipeline here is byte-identical to calling them directly.
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
//! assert_eq!(report.outcomes[0].lines, ["cleanup: 1 instructions simplified/removed"]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod manager;
pub mod ports;
pub mod registry;
pub mod spec;

pub use analysis::AnalysisManager;
pub use manager::{
    ModulePass, PassContext, PassError, PassManager, PassManagerOptions, PassOutcome, RunReport,
};
pub use ports::{CleanupPass, CsePass, FlattenPass, RerollPass, RolagPass, UnrollPass};
pub use registry::{PassInfo, PassRegistry};
pub use spec::{PipelineSpec, SpecElement, SpecError};

// Re-exported so driver binaries need not depend on rolag-analysis just to
// construct a PassContext.
pub use rolag_analysis::TargetKind;
