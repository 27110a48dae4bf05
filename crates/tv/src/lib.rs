//! # rolag-tv
//!
//! Per-rewrite **translation validation** for RoLAG loop rolling, in the
//! spirit of translation-validation work on SSA peephole rewriting: instead
//! of trusting the scheduler and code generator, every candidate rewrite is
//! checked after the fact by symbolically unrolling the generated loop lane
//! by lane and proving a simulation relation against the original
//! straight-line region.
//!
//! The relation is checked *modulo the paper's abstractions* — the exact
//! algebraic liberties the alignment graph is allowed to take (see
//! [`ABSTRACTIONS`]). Everything else must match syntactically, and the
//! order of the original memory operations performed by the rolled code
//! must respect the dependence graph computed by `rolag-analysis`.
//!
//! The checker is deliberately one-sided: it may reject a correct rewrite
//! it cannot prove (a *false reject*, pinned to zero over the generator and
//! benchmark corpora by property tests), but within the declared
//! abstractions it never accepts an incorrect one. The `rolag` crate runs
//! it as a gating check before the cost model commits a candidate; the
//! difftest oracle cross-checks its verdicts against the dynamic
//! interpreter.

#![warn(missing_docs)]

pub mod expr;
mod sim;

pub use sim::TvScratch;

use std::fmt;

use rolag_analysis::depgraph::BlockDeps;
use rolag_ir::fxhash::FxHashMap;
use rolag_ir::{BlockId, Function, GlobalData, InstId, Module, PreWindow};

/// The abstractions the simulation relation is allowed to match modulo —
/// one entry per special alignment-node family the paper introduces.
/// DESIGN.md documents each; a drift-guard test keeps the two in sync.
pub const ABSTRACTIONS: &[&str] = &[
    "commutativity",
    "algebraic-identities",
    "neutral-pointer-ops",
    "monotonic-sequences",
    "recurrences",
    "reduction-reassociation",
];

/// What the rewriter did, as told to the validator. All of this is
/// untrusted: the validator re-derives everything it can and fails if the
/// hints are inconsistent with the functions.
#[derive(Debug, Clone)]
pub struct RewriteHints {
    /// Number of lanes the region was rolled into (the loop's trip count).
    pub lanes: usize,
    /// The candidate block the rewrite targeted (now the loop preheader).
    pub block: BlockId,
    /// The generated loop block.
    pub loop_block: BlockId,
    /// The generated exit block.
    pub exit_block: BlockId,
    /// The id of the first lookup table the rewrite created: table `k` of
    /// the slice [`validate_rewrite`] is handed has id `first_new_global + k`.
    pub first_new_global: usize,
    /// Whether float reassociation (fast-math) was licensed.
    pub fast_math: bool,
    /// For every original instruction the alignment graph claimed, the
    /// lane it was assigned to.
    pub claimed_lanes: FxHashMap<InstId, usize>,
}

/// Why a rewrite failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvError {
    /// The rolled CFG does not have the shape a rolling rewrite produces.
    Structure(String),
    /// The rewrite uses a construct the validator does not model.
    Unsupported(String),
    /// An effectful operation has no matching original, or an original
    /// effect is never re-executed.
    EffectMismatch(String),
    /// A surviving use evaluates to a different expression than the
    /// original.
    ValueMismatch(String),
    /// The rolled code reorders conflicting memory operations.
    MemoryOrder(String),
}

impl TvError {
    /// Short machine-readable category name.
    pub fn kind(&self) -> &'static str {
        match self {
            TvError::Structure(_) => "structure",
            TvError::Unsupported(_) => "unsupported",
            TvError::EffectMismatch(_) => "effect-mismatch",
            TvError::ValueMismatch(_) => "value-mismatch",
            TvError::MemoryOrder(_) => "memory-order",
        }
    }
}

impl fmt::Display for TvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, msg) = match self {
            TvError::Structure(m)
            | TvError::Unsupported(m)
            | TvError::EffectMismatch(m)
            | TvError::ValueMismatch(m)
            | TvError::MemoryOrder(m) => (self.kind(), m),
        };
        write!(f, "{kind}: {msg}")
    }
}

impl std::error::Error for TvError {}

/// Statically validates one rolling rewrite.
///
/// `orig` is the function as it was before the rewrite, read through a
/// [`Function::pre_window`]; `rolled` is the same function with one
/// candidate block rolled (before any cleanup pass), sharing ids with
/// `orig` for everything that survived. `module` is the module the rolled
/// function lives in — its types, globals, and function effect annotations
/// are consulted — and `tables` the lookup tables the rewrite created,
/// which the module does not hold: a load past them is refused.
///
/// `deps` are the dependences of the candidate block in `orig`, which the
/// memory-order obligation checks the rolled order against: what
/// `BlockDeps::compute(module, orig, hints.block)` returns. The rolling
/// engine passes the ones its scheduler computed for the same state, so a
/// validation computes none; a caller without them computes them. Debug
/// builds assert that they equal a fresh compute.
///
/// `scratch` holds the validation's working state. A caller that validates
/// many rewrites keeps one and passes it to each, so a validation reuses
/// the tables and buffers of the ones before it; a one-off validation
/// passes `&mut TvScratch::default()`. The verdict does not depend on what
/// the scratch held before.
///
/// Returns `Ok(())` when the rolled code provably simulates the original
/// region modulo [`ABSTRACTIONS`], and a [`TvError`] describing the first
/// failed obligation otherwise.
pub fn validate_rewrite(
    module: &Module,
    tables: &[GlobalData],
    orig: PreWindow<'_>,
    rolled: &Function,
    hints: &RewriteHints,
    deps: &BlockDeps,
    scratch: &mut TvScratch,
) -> Result<(), TvError> {
    debug_assert!(
        hints.block.index() >= orig.num_blocks()
            || *deps == BlockDeps::compute(module, &orig.to_function(), hints.block),
        "supplied block dependences differ from a fresh compute"
    );
    sim::Validator::new(module, tables, &orig, rolled, hints, deps, scratch).run()
}
