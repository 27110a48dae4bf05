//! Alignment graphs: data structures and the bottom-up builder (§IV-B/C).

mod build;
mod graph;

pub use build::{build_candidate_graph, GraphBuilder};
pub use graph::{AlignGraph, AlignNode, ClaimedLoopInput, DotInfo, NodeId, NodeKind};
