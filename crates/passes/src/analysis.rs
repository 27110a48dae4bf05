//! The analysis manager, which holds nothing.
//!
//! Passes compute the analyses they use: cleanup builds its effects table
//! once per run, unroll and flatten compute dominators and loop forests
//! for the function in hand. No pass reads an analysis another pass
//! computed, so there is nothing to cache and no preservation contract
//! to keep.

/// A field-less stand-in for an analysis cache.
///
/// It holds nothing and no pass reads it. It is kept so the
/// [`PassManager::run`](crate::PassManager::run) signature, and the
/// drivers that build one with [`AnalysisManager::new`], stay as they
/// are.
#[derive(Debug, Default)]
pub struct AnalysisManager;

impl AnalysisManager {
    /// An empty manager.
    pub fn new() -> Self {
        AnalysisManager
    }
}
