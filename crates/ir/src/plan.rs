//! The Stage-B plan: everything about simulating a graph that does not
//! depend on the datapath.
//!
//! Simulating a workload on a candidate design (Stage B of the staged
//! evaluation pipeline) prices every op on that design and sums the prices
//! per fusion region. Most of that work is a function of the graph alone:
//! the matrix ops' loop nests, each vector op's element and byte counts,
//! the XLA-style region partition with its boundary bytes and producer
//! linkage, and the workload totals. [`SimPlan`] holds exactly that, lowered
//! once per graph ([`Graph::sim_plan`]), so simulating one more design is a
//! flat pass that prices ops and does per-region arithmetic. Matrix ops of
//! equal shape share one loop-nest slot, so a design prices each distinct
//! nest once.

use crate::fusion_regions::{build_regions, RegionId};
use crate::graph::{Graph, NodeId};
use crate::loop_nest::LoopNest;
use crate::ops::OpKind;
use std::collections::HashMap;
use std::sync::Arc;

/// The datapath-independent lowering of one [`Graph`] that the simulator
/// prices per design.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Every node, in node (topological) order.
    pub nodes: Vec<PlanNode>,
    /// The distinct loop nests of the matrix ops, in order of first use
    /// (node order). Each matrix op names its slot ([`PlanOp::Matrix`]).
    pub nests: Vec<LoopNest>,
    /// Matrix ops whose nest an earlier op already has: the lookups a
    /// per-op walk makes beyond one per distinct nest.
    pub repeated_nests: u64,
    /// Compute regions (graph-input placeholders excluded) in execution
    /// order.
    pub regions: Vec<PlanRegion>,
    /// Batch size: the leading dimension of the first graph input (1 if
    /// there is none).
    pub batch: u64,
    /// Total FLOPs of the graph.
    pub total_flops: u64,
    /// FLOPs of the matrix ops.
    pub matrix_flops: u64,
}

/// One node of a [`SimPlan`].
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Node id in the source graph.
    pub id: NodeId,
    /// Node name, shared with every simulation of the graph.
    pub name: Arc<str>,
    /// Operator class ([`OpKind::class_name`]).
    pub class: &'static str,
    /// Group tag, if any.
    pub group: Option<u32>,
    /// FLOPs.
    pub flops: u64,
    /// Activation input, output and accessed weight bytes: the node's own
    /// DRAM round trip before any spill.
    pub dram_bytes: u64,
    /// How the node is priced.
    pub op: PlanOp,
}

/// How the simulator prices one node.
#[derive(Debug, Clone, Copy)]
pub enum PlanOp {
    /// A matrix op, mapped from its slot of [`SimPlan::nests`].
    Matrix {
        /// Index into [`SimPlan::nests`].
        nest: usize,
    },
    /// A vector op, costed on the VPU.
    Vector {
        /// The operator.
        kind: OpKind,
        /// Elements read over all activation inputs.
        in_elements: u64,
        /// Elements written.
        out_elements: u64,
        /// Input plus output activation bytes.
        working_set: u64,
    },
}

/// One compute region of a [`SimPlan`], with its members split by how they
/// are priced.
#[derive(Debug, Clone)]
pub struct PlanRegion {
    /// Region id in the region graph.
    pub id: RegionId,
    /// Display name, shared with every simulation of the graph.
    pub name: Arc<str>,
    /// Group tag, if any.
    pub group: Option<u32>,
    /// Member matrix ops, in member order.
    pub matrix: Vec<NodeId>,
    /// Member vector ops, in member order.
    pub vector: Vec<NodeId>,
    /// FLOPs of the members.
    pub flops: u64,
    /// External input activation bytes, all producers.
    pub in_bytes: u64,
    /// Bytes of the largest input edge, capped at `in_bytes`.
    pub primary_in_bytes: u64,
    /// Output activation bytes.
    pub out_bytes: u64,
    /// Weight bytes accessed per inference.
    pub weight_bytes: u64,
    /// Weight bytes needed to pin the region's parameters.
    pub weight_store_bytes: u64,
    /// Execution-order index of the region producing the primary input, if
    /// it is a compute region.
    pub primary_input: Option<usize>,
    /// Whether every member processes its tensors row by row.
    pub row_streamable: bool,
}

impl SimPlan {
    /// Lowers `graph`.
    #[must_use]
    pub(crate) fn lower(graph: &Graph) -> SimPlan {
        let mut nodes = Vec::with_capacity(graph.len());
        let mut nests = Vec::new();
        let mut slot_of: HashMap<LoopNest, usize> = HashMap::new();
        let mut repeated_nests = 0;
        let mut total_flops = 0;
        let mut matrix_flops = 0;
        for node in graph.nodes() {
            let id = node.id();
            let name: Arc<str> = Arc::from(node.name());
            let flops = graph.node_flops(id);
            total_flops += flops;
            let op = match graph.loop_nest(id) {
                Some(nest) => {
                    let first_use = nests.len();
                    let slot = *slot_of.entry(nest).or_insert(first_use);
                    if slot == first_use {
                        nests.push(nest);
                    } else {
                        repeated_nests += 1;
                    }
                    matrix_flops += flops;
                    PlanOp::Matrix { nest: slot }
                }
                None => PlanOp::Vector {
                    kind: *node.kind(),
                    in_elements: node
                        .inputs()
                        .iter()
                        .map(|&i| graph.node(i).shape().elements())
                        .sum(),
                    out_elements: node.shape().elements(),
                    working_set: graph.node_working_set(id),
                },
            };
            nodes.push(PlanNode {
                id,
                name,
                class: node.kind().class_name(),
                group: node.group(),
                flops,
                dram_bytes: graph.node_input_bytes(id)
                    + graph.node_output_bytes(id)
                    + graph.node_accessed_weight_bytes(id),
                op,
            });
        }

        let region_graph = build_regions(graph);
        // Execution-order index per region id (compute regions only).
        let mut order_of = vec![None; region_graph.len()];
        for (k, r) in region_graph.compute_regions().enumerate() {
            order_of[r.id().index()] = Some(k);
        }
        let primary_edges = region_graph.primary_edges();
        let regions = region_graph
            .compute_regions()
            .map(|r| {
                let primary = primary_edges[r.id().index()];
                let (matrix, vector) = r
                    .nodes
                    .iter()
                    .partition(|&&n| matches!(nodes[n.index()].op, PlanOp::Matrix { .. }));
                PlanRegion {
                    id: r.id(),
                    name: Arc::from(r.name.as_str()),
                    group: r.group,
                    matrix,
                    vector,
                    flops: r.flops,
                    in_bytes: r.external_in_bytes,
                    primary_in_bytes: primary.map_or(0, |e| e.bytes).min(r.external_in_bytes),
                    out_bytes: r.output_bytes,
                    weight_bytes: r.weight_bytes,
                    weight_store_bytes: r.weight_store_bytes,
                    primary_input: primary.and_then(|e| order_of[e.from.index()]),
                    row_streamable: r.nodes.iter().all(|&n| {
                        matches!(
                            graph.node(n).kind(),
                            OpKind::BatchMatMul(_)
                                | OpKind::Softmax(_)
                                | OpKind::Norm(_)
                                | OpKind::Elementwise(_)
                                | OpKind::DataMovement
                        )
                    }),
                }
            })
            .collect();

        let batch = graph
            .nodes()
            .find(|n| matches!(n.kind(), OpKind::Input))
            .map(|n| *n.shape().dims().first().unwrap_or(&1))
            .unwrap_or(1);
        SimPlan { nodes, nests, repeated_nests, regions, batch, total_flops, matrix_flops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2dGeom, DType, MatMulGeom};

    /// Two same-shaped convs of the input joined by an add, which merges
    /// into the second conv's region: that region has two equal fan-in
    /// edges (the input and the first conv), so the tie-break decides its
    /// primary input. Then a relu merge, a reshape and a matmul head.
    fn graph() -> Graph {
        let mut g = Graph::new("plan", DType::Bf16);
        let x = g.input("x", [2, 8, 8, 16]);
        let c0 = g.conv2d("c0", x, Conv2dGeom::same(8, 8, 16, 16, 1, 1)).unwrap();
        let c1 = g.conv2d("c1", x, Conv2dGeom::same(8, 8, 16, 16, 3, 1)).unwrap();
        let add = g.residual_add("add", c0, c1).unwrap();
        let r1 = g.relu("r1", add).unwrap();
        let c2 = g.conv2d("c2", r1, Conv2dGeom::same(8, 8, 16, 32, 1, 1)).unwrap();
        let flat = g.reshape("flat", c2, [2, 8 * 8 * 32]).unwrap();
        let head = g.matmul("head", flat, MatMulGeom { k: 8 * 8 * 32, n: 10 }).unwrap();
        g.mark_output(head);
        g
    }

    #[test]
    fn plan_matches_the_graph_and_region_accounting() {
        let g = graph();
        let plan = g.sim_plan();
        assert_eq!(plan.nodes.len(), g.len());
        let nests: Vec<LoopNest> = g.nodes().filter_map(|n| g.loop_nest(n.id())).collect();
        assert_eq!(plan.nests, nests, "four matrix ops, four shapes");
        assert_eq!(plan.repeated_nests, 0);
        assert_nest_slots(&g);
        assert_eq!(plan.total_flops, g.total_flops());
        assert_eq!(plan.batch, 2);

        let rg = build_regions(&g);
        let computes: Vec<_> = rg.compute_regions().collect();
        assert_eq!(plan.regions.len(), computes.len());
        for (p, r) in plan.regions.iter().zip(&computes) {
            assert_eq!(p.id, r.id());
            assert_eq!(&*p.name, r.name.as_str());
            let mut members: Vec<NodeId> = p.matrix.iter().chain(&p.vector).copied().collect();
            members.sort_unstable();
            assert_eq!(members, r.nodes);
            // The per-region scan the plan replaced: the largest fan-in
            // edge, the last of equals.
            let largest = rg.fan_in(r.id()).into_iter().max_by_key(|e| e.bytes);
            let bytes = largest.map_or(0, |e| e.bytes);
            assert_eq!(p.primary_in_bytes, bytes.min(r.external_in_bytes));
            let linked = largest.and_then(|e| computes.iter().position(|c| c.id() == e.from));
            assert_eq!(p.primary_input, linked);
        }
        let c1 = plan.regions.iter().find(|r| &*r.name == "c1").unwrap();
        assert_eq!(c1.vector.len(), 2, "the add and the relu joined c1's region");
        assert_eq!(c1.primary_input, Some(0), "the tie goes to c0's region, not the input");
    }

    /// Every matrix op's slot holds its nest, and the slots are the
    /// distinct nests in order of first use.
    fn assert_nest_slots(g: &Graph) {
        let plan = g.sim_plan();
        let mut first_uses: Vec<LoopNest> = Vec::new();
        let mut ops = 0;
        for node in &plan.nodes {
            let nest = g.loop_nest(node.id);
            match node.op {
                PlanOp::Matrix { nest: slot } => {
                    let nest = nest.expect("a matrix op has a loop nest");
                    assert_eq!(plan.nests[slot], nest, "{}", node.name);
                    if !first_uses.contains(&nest) {
                        first_uses.push(nest);
                    }
                    ops += 1;
                }
                PlanOp::Vector { .. } => assert_eq!(nest, None, "{}", node.name),
            }
        }
        assert_eq!(plan.nests, first_uses);
        assert_eq!(plan.repeated_nests, ops - first_uses.len() as u64);
    }

    #[test]
    fn equal_shapes_share_one_nest_slot() {
        let mut g = Graph::new("twins", DType::Bf16);
        let x = g.input("x", [4, 64]);
        let a = g.matmul("a", x, MatMulGeom { k: 64, n: 64 }).unwrap();
        let r = g.relu("r", a).unwrap();
        let b = g.matmul("b", r, MatMulGeom { k: 64, n: 64 }).unwrap();
        let c = g.matmul("c", b, MatMulGeom { k: 64, n: 32 }).unwrap();
        let d = g.matmul("d", c, MatMulGeom { k: 32, n: 64 }).unwrap();
        let e = g.matmul("e", d, MatMulGeom { k: 64, n: 64 }).unwrap();
        g.mark_output(e);
        let plan = g.sim_plan();
        assert_eq!(plan.nests.len(), 3, "a, b and e share one shape");
        assert_eq!(plan.repeated_nests, 2);
        let slots: Vec<usize> = plan
            .nodes
            .iter()
            .filter_map(|n| match n.op {
                PlanOp::Matrix { nest } => Some(nest),
                PlanOp::Vector { .. } => None,
            })
            .collect();
        assert_eq!(slots, [0, 0, 1, 2, 0]);
        assert_nest_slots(&g);
    }
}
