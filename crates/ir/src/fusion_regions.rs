//! XLA-style fusion-region formation.
//!
//! TensorFlow XLA merges element-wise chains into fusion "kernels" such that
//! each generated HLO fusion region contains **at most one matrix operation**
//! (§2 "Operation fusion" in the paper). FAST fusion is then a *secondary*
//! pass over this partially-fused graph (footnote 1), deciding which region
//! boundary tensors live in Global Memory instead of DRAM.
//!
//! This module reproduces the first pass with a greedy producer-consumer
//! merge: a non-matrix op joins its producer's region when it is the sole
//! consumer of that producer; matrix ops and multi-pass reduction ops
//! (softmax, layernorm) always open a region.

use crate::graph::{Graph, NodeId};
use crate::ops::OpKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a region within a [`RegionGraph`]. Region ids are assigned
/// in topological order and double as the execution order `o(i)` used by the
/// FAST-fusion ILP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(u32);

impl RegionId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One fused kernel: a set of IR nodes executed as a unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    id: RegionId,
    /// Member nodes in topological order.
    pub nodes: Vec<NodeId>,
    /// The region's matrix op, if any (at most one by construction).
    pub matrix_op: Option<NodeId>,
    /// Display name (the matrix op's name, else the first node's).
    pub name: String,
    /// Group tag inherited from the first tagged member (MBConv block id).
    pub group: Option<u32>,
    /// True when the region is a graph-input placeholder (no compute).
    pub is_source: bool,
    /// Bytes of activation read from outside the region.
    pub external_in_bytes: u64,
    /// Bytes of activation produced for consumers outside the region (or
    /// graph outputs).
    pub output_bytes: u64,
    /// Weight bytes accessed per inference by member ops.
    pub weight_bytes: u64,
    /// Weight bytes that must be *stored* to pin this region's parameters
    /// on chip (differs from `weight_bytes` for embedding gathers, which
    /// access a few rows but must store the whole table).
    pub weight_store_bytes: u64,
    /// FLOPs executed by member ops.
    pub flops: u64,
}

impl Region {
    /// The region id (doubles as execution order).
    #[must_use]
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Total DRAM traffic of the region when nothing is kept on chip.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.external_in_bytes + self.output_bytes + self.weight_bytes
    }
}

/// An activation dependency between regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionEdge {
    /// Producing region.
    pub from: RegionId,
    /// Consuming region.
    pub to: RegionId,
    /// Bytes crossing this edge per inference.
    pub bytes: u64,
}

/// The coarsened, partially-fused graph consumed by FAST fusion.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionGraph {
    regions: Vec<Region>,
    edges: Vec<RegionEdge>,
}

impl RegionGraph {
    /// All regions in execution order.
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// All inter-region activation edges.
    #[must_use]
    pub fn edges(&self) -> &[RegionEdge] {
        &self.edges
    }

    /// Looks up a region.
    ///
    /// # Panics
    /// Panics if `id` is not a region of this graph.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Number of regions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the region graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Compute regions only (sources excluded), in execution order.
    pub fn compute_regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter(|r| !r.is_source)
    }

    /// Fan-in edges of `id`.
    #[must_use]
    pub fn fan_in(&self, id: RegionId) -> Vec<&RegionEdge> {
        self.edges.iter().filter(|e| e.to == id).collect()
    }

    /// Fan-out edges of `id`.
    #[must_use]
    pub fn fan_out(&self, id: RegionId) -> Vec<&RegionEdge> {
        self.edges.iter().filter(|e| e.from == id).collect()
    }

    /// The predecessor supplying the largest boundary tensor — the "input"
    /// `F_in(v)` in the paper's ILP, which assumes fan-in ≤ 1 (multi-fan-in
    /// regions stream their secondary inputs from DRAM).
    #[must_use]
    pub fn primary_input(&self, id: RegionId) -> Option<RegionId> {
        self.primary_edges()[id.index()].map(|e| e.from)
    }

    /// The largest fan-in edge of every region, indexed by region id, in
    /// one pass over the edges. On a tie the edge latest in edge order
    /// wins.
    #[must_use]
    pub fn primary_edges(&self) -> Vec<Option<&RegionEdge>> {
        let mut largest: Vec<Option<&RegionEdge>> = vec![None; self.regions.len()];
        for e in &self.edges {
            let slot = &mut largest[e.to.index()];
            if slot.is_none_or(|best| e.bytes >= best.bytes) {
                *slot = Some(e);
            }
        }
        largest
    }

    /// Merges regions according to `key`: regions mapping to the same
    /// `Some(k)` are coalesced (used for the DSConv / MBConv fusion templates
    /// of Figure 3). Regions mapping to `None` stay separate.
    #[must_use]
    pub fn coalesce_by<F>(&self, graph: &Graph, key: F) -> RegionGraph
    where
        F: Fn(&Region) -> Option<u64>,
    {
        // Assign each old region to a cluster index.
        let mut cluster_of = vec![usize::MAX; self.regions.len()];
        let mut clusters: Vec<Vec<RegionId>> = Vec::new();
        let mut key_to_cluster: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for r in &self.regions {
            let c = match key(r) {
                Some(k) => *key_to_cluster.entry(k).or_insert_with(|| {
                    clusters.push(Vec::new());
                    clusters.len() - 1
                }),
                None => {
                    clusters.push(Vec::new());
                    clusters.len() - 1
                }
            };
            cluster_of[r.id.index()] = c;
            clusters[c].push(r.id);
        }
        let node_sets: Vec<Vec<NodeId>> = clusters
            .iter()
            .map(|members| {
                let mut nodes: Vec<NodeId> =
                    members.iter().flat_map(|m| self.region(*m).nodes.clone()).collect();
                nodes.sort_unstable();
                nodes
            })
            .collect();
        build_from_partition(graph, &node_sets)
    }
}

/// Builds the XLA-style fusion-region graph for `graph`.
#[must_use]
pub fn build_regions(graph: &Graph) -> RegionGraph {
    let consumers = graph.consumers();
    // region index per node.
    let mut region_of: Vec<usize> = vec![usize::MAX; graph.len()];
    let mut partition: Vec<Vec<NodeId>> = Vec::new();

    for node in graph.nodes() {
        let id = node.id();
        let open_new = |partition: &mut Vec<Vec<NodeId>>| {
            partition.push(vec![id]);
            partition.len() - 1
        };
        let kind = node.kind();
        let ridx = match kind {
            OpKind::Input => open_new(&mut partition),
            _ if kind.is_matrix_op() => open_new(&mut partition),
            OpKind::Softmax(_) | OpKind::Norm(_) => open_new(&mut partition),
            _ => {
                // Try to merge into the most recent producer region where this
                // node is the producer's sole consumer and the producer is not
                // a graph input.
                let mut target: Option<usize> = None;
                for &p in node.inputs().iter().rev() {
                    let p_node = graph.node(p);
                    if matches!(p_node.kind(), OpKind::Input) {
                        continue;
                    }
                    if consumers[p.index()].len() == 1 {
                        let r = region_of[p.index()];
                        target = Some(match target {
                            Some(t) => t.max(r),
                            None => r,
                        });
                    }
                }
                match target {
                    Some(t) => {
                        partition[t].push(id);
                        t
                    }
                    None => open_new(&mut partition),
                }
            }
        };
        region_of[id.index()] = ridx;
    }
    build_from_partition(graph, &partition)
}

/// Builds a [`RegionGraph`] from an explicit node partition (each inner vec is
/// one region's members, which must be internally topologically ordered).
fn build_from_partition(graph: &Graph, partition: &[Vec<NodeId>]) -> RegionGraph {
    let mut region_of = vec![usize::MAX; graph.len()];
    for (ridx, members) in partition.iter().enumerate() {
        for &n in members {
            region_of[n.index()] = ridx;
        }
    }
    let consumers = graph.consumers();

    // Order regions by the topological position of their first member.
    let mut order: Vec<usize> =
        (0..partition.len()).filter(|&i| !partition[i].is_empty()).collect();
    order.sort_by_key(|&i| partition[i].first().map(|n| n.index()).unwrap_or(usize::MAX));
    let mut new_index = vec![usize::MAX; partition.len()];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new;
    }

    let mut regions: Vec<Region> = Vec::with_capacity(order.len());
    let mut edge_map: std::collections::BTreeMap<(u32, u32), u64> =
        std::collections::BTreeMap::new();

    for (new, &old) in order.iter().enumerate() {
        let members = &partition[old];
        let mut matrix_op = None;
        let mut group = None;
        let mut weight_bytes = 0;
        let mut weight_store_bytes = 0;
        let mut flops = 0;
        let mut is_source = true;
        for &n in members {
            let node = graph.node(n);
            if node.kind().is_matrix_op() && matrix_op.is_none() {
                matrix_op = Some(n);
            }
            if group.is_none() {
                group = node.group();
            }
            if !matches!(node.kind(), OpKind::Input) {
                is_source = false;
            }
            weight_bytes += graph.node_accessed_weight_bytes(n);
            weight_store_bytes += graph.node_weight_bytes(n);
            flops += graph.node_flops(n);
        }
        // External inputs: producer nodes outside the region, counted once.
        let mut ext_producers: Vec<NodeId> = members
            .iter()
            .flat_map(|&n| graph.node(n).inputs().iter().copied())
            .filter(|p| region_of[p.index()] != old)
            .collect();
        ext_producers.sort_unstable();
        ext_producers.dedup();
        let external_in_bytes: u64 =
            ext_producers.iter().map(|&p| graph.node_output_bytes(p)).sum();
        for &p in &ext_producers {
            let from = new_index[region_of[p.index()]] as u32;
            *edge_map.entry((from, new as u32)).or_insert(0) += graph.node_output_bytes(p);
        }
        // Outputs: member nodes consumed outside the region, marked outputs,
        // or dead-end writes (nodes with no consumers still store results).
        let output_bytes: u64 = members
            .iter()
            .filter(|&&n| {
                let cons = &consumers[n.index()];
                cons.iter().any(|c| region_of[c.index()] != old)
                    || (cons.is_empty() && !matches!(graph.node(n).kind(), OpKind::Input))
                    || graph.outputs().contains(&n)
            })
            .map(|&n| graph.node_output_bytes(n))
            .sum();

        let name = matrix_op
            .map(|m| graph.node(m).name().to_string())
            .or_else(|| members.first().map(|&n| graph.node(n).name().to_string()))
            .unwrap_or_default();
        regions.push(Region {
            id: RegionId(new as u32),
            nodes: members.clone(),
            matrix_op,
            name,
            group,
            is_source,
            external_in_bytes,
            output_bytes,
            weight_bytes,
            weight_store_bytes,
            flops,
        });
    }

    let edges = edge_map
        .into_iter()
        .map(|((from, to), bytes)| RegionEdge { from: RegionId(from), to: RegionId(to), bytes })
        .collect();
    RegionGraph { regions, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2dGeom, DType, MatMulGeom};

    /// conv -> relu -> conv -> relu, relu merges into conv regions.
    #[test]
    fn elementwise_merges_into_producer() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 8, 8, 16]);
        let c1 = g.conv2d("c1", x, Conv2dGeom::same(8, 8, 16, 16, 3, 1)).unwrap();
        let r1 = g.relu("r1", c1).unwrap();
        let c2 = g.conv2d("c2", r1, Conv2dGeom::same(8, 8, 16, 16, 3, 1)).unwrap();
        let r2 = g.relu("r2", c2).unwrap();
        g.mark_output(r2);
        let rg = build_regions(&g);
        // input + two conv regions.
        assert_eq!(rg.len(), 3);
        let computes: Vec<_> = rg.compute_regions().collect();
        assert_eq!(computes.len(), 2);
        assert!(computes.iter().all(|r| r.matrix_op.is_some()));
        assert_eq!(computes[0].nodes.len(), 2); // conv + relu
    }

    /// A residual add whose skip input has two consumers must not merge the
    /// skip producer, but merges into the branch producer.
    #[test]
    fn residual_add_merges_into_branch() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 8, 8, 16]);
        let c1 = g.conv2d("c1", x, Conv2dGeom::same(8, 8, 16, 16, 3, 1)).unwrap();
        let c2 = g.conv2d("c2", c1, Conv2dGeom::same(8, 8, 16, 16, 3, 1)).unwrap();
        let add = g.residual_add("add", c2, c1).unwrap();
        g.mark_output(add);
        let rg = build_regions(&g);
        let c2_region = rg.compute_regions().find(|r| r.name == "c2").expect("c2 region");
        assert!(c2_region.nodes.contains(&add));
    }

    #[test]
    fn at_most_one_matrix_op_per_region() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 128]);
        let mut cur = x;
        for i in 0..6 {
            cur = g.matmul(format!("m{i}"), cur, MatMulGeom { k: 128, n: 128 }).unwrap();
        }
        g.mark_output(cur);
        let rg = build_regions(&g);
        for r in rg.compute_regions() {
            let n_matrix = r.nodes.iter().filter(|&&n| g.node(n).kind().is_matrix_op()).count();
            assert!(n_matrix <= 1);
        }
        assert_eq!(rg.compute_regions().count(), 6);
    }

    #[test]
    fn edges_carry_boundary_bytes() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 8, 8, 16]);
        let c1 = g.conv2d("c1", x, Conv2dGeom::same(8, 8, 16, 32, 3, 1)).unwrap();
        let c2 = g.conv2d("c2", c1, Conv2dGeom::same(8, 8, 32, 16, 3, 1)).unwrap();
        g.mark_output(c2);
        let rg = build_regions(&g);
        let c1r = rg.compute_regions().find(|r| r.name == "c1").unwrap().id();
        let c2r = rg.compute_regions().find(|r| r.name == "c2").unwrap().id();
        let e = rg.edges().iter().find(|e| e.from == c1r && e.to == c2r).expect("edge");
        assert_eq!(e.bytes, 8 * 8 * 32 * 2);
        assert_eq!(rg.primary_input(c2r), Some(c1r));
    }

    #[test]
    fn coalesce_by_group_merges_blocks() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 8, 8, 16]);
        g.begin_group("block0");
        let c1 = g.conv2d("c1", x, Conv2dGeom::same(8, 8, 16, 16, 1, 1)).unwrap();
        let c2 = g.conv2d("c2", c1, Conv2dGeom::same(8, 8, 16, 16, 1, 1)).unwrap();
        g.end_group();
        g.mark_output(c2);
        let rg = build_regions(&g);
        assert_eq!(rg.compute_regions().count(), 2);
        let merged = rg.coalesce_by(&g, |r| r.group.map(u64::from));
        assert_eq!(merged.compute_regions().count(), 1);
        let big = merged.compute_regions().next().unwrap();
        // Internal tensor between c1 and c2 no longer crosses a boundary.
        assert_eq!(big.external_in_bytes, 8 * 8 * 16 * 2);
    }
}
