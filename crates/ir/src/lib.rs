//! # fast-ir — operator-graph IR for the FAST reproduction
//!
//! An XLA-HLO-like intermediate representation for inference workloads.
//! Models are expressed as directed acyclic graphs of [`Node`]s, where each
//! node produces exactly one output tensor and carries its weights as op
//! attributes (weights are compile-time constants for inference, so they are
//! not graph edges).
//!
//! The IR provides everything the rest of the stack consumes:
//!
//! * per-op FLOP and byte accounting ([`OpKind::flops`], working sets),
//! * canonical 7-D loop nests for matrix ops ([`LoopNest`]) used by the
//!   Timeloop-style mapper in `fast-sim`,
//! * an XLA-style fusion-region pass ([`fusion_regions::build_regions`])
//!   producing the "partially fused" graph that FAST fusion (Figure 8 of the
//!   paper) operates on,
//! * operational-intensity analytics under several fusion strategies
//!   ([`intensity`]), reproducing Figure 3 / Table 1 of the paper,
//! * the Stage-B plan ([`plan::SimPlan`]): the datapath-independent half of
//!   simulating a graph, lowered once per graph and cached on it.
//!
//! ## Example
//!
//! ```
//! use fast_ir::{Graph, Conv2dGeom, DType};
//!
//! # fn main() -> Result<(), fast_ir::IrError> {
//! let mut g = Graph::new("tiny", DType::Bf16);
//! let x = g.input("x", [1, 56, 56, 64]);
//! let c = g.conv2d("conv", x, Conv2dGeom::same(56, 56, 64, 128, 3, 1))?;
//! let r = g.relu("relu", c)?;
//! g.mark_output(r);
//! assert!(g.validate().is_ok());
//! assert!(g.total_flops() > 0);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod dtype;
pub mod fusion_regions;
pub mod graph;
pub mod intensity;
pub mod loop_nest;
pub mod ops;
mod persist;
pub mod plan;
pub mod shape;
pub mod stats;

pub use builder::{GraphBuilder, Tensor};
pub use dtype::DType;
pub use fusion_regions::{build_regions, Region, RegionGraph, RegionId};
pub use graph::{Graph, Node, NodeId};
pub use intensity::{
    dram_traffic, op_class_profile, operational_intensity, FusionStrategy, IntensityReport,
    OpClassProfile, OpClassStats,
};
pub use loop_nest::{LoopDim, LoopNest};
pub use ops::{
    BatchMatMulGeom, Conv2dGeom, EwKind, MatMulGeom, NormKind, OpKind, PoolGeom, PoolKind,
    SoftmaxGeom,
};
pub use plan::{PlanNode, PlanOp, PlanRegion, SimPlan};
pub use shape::Shape;
pub use stats::GraphStats;

use std::fmt;

/// Errors produced while constructing or validating IR graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An op was given an input whose shape does not match the op geometry.
    ShapeMismatch {
        /// Name of the op being constructed.
        op: String,
        /// Human-readable description of the expectation that failed.
        expected: String,
        /// The offending shape, rendered.
        got: String,
    },
    /// A node id did not refer to a node in the graph.
    UnknownNode(usize),
    /// The graph contains a cycle (should be impossible via builders).
    Cyclic,
    /// An op requires a different number of inputs than were supplied.
    ArityMismatch {
        /// Name of the op being constructed.
        op: String,
        /// Number of inputs the op requires.
        expected: usize,
        /// Number of inputs supplied.
        got: usize,
    },
    /// A geometry parameter was zero or otherwise degenerate.
    InvalidGeometry {
        /// Name of the op being constructed.
        op: String,
        /// Description of the invalid parameter.
        reason: String,
    },
    /// A node's value is neither consumed by another op nor marked as a
    /// graph output (reported by [`builder::GraphBuilder::finish`]).
    DanglingNode {
        /// Name of the dangling node.
        op: String,
    },
    /// The graph has no outputs marked.
    NoOutputs,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::ShapeMismatch { op, expected, got } => {
                write!(f, "shape mismatch in op `{op}`: expected {expected}, got {got}")
            }
            IrError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            IrError::Cyclic => write!(f, "graph contains a cycle"),
            IrError::ArityMismatch { op, expected, got } => {
                write!(f, "op `{op}` requires {expected} inputs, got {got}")
            }
            IrError::InvalidGeometry { op, reason } => {
                write!(f, "invalid geometry for op `{op}`: {reason}")
            }
            IrError::DanglingNode { op } => {
                write!(f, "node `{op}` is neither consumed nor marked as an output")
            }
            IrError::NoOutputs => write!(f, "graph has no outputs marked"),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = IrError::UnknownNode(3);
        assert!(!e.to_string().is_empty());
        let e = IrError::ShapeMismatch {
            op: "conv".into(),
            expected: "[1,2]".into(),
            got: "[3]".into(),
        };
        assert!(e.to_string().contains("conv"));
    }
}
