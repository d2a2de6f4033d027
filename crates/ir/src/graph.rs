//! Operator graphs and their builder API.

use crate::loop_nest::LoopNest;
use crate::ops::DepthwiseConv2dGeom;
use crate::ops::{self, infer_shape, OpKind};
use crate::plan::SimPlan;
use crate::shape::Shape;
use crate::{
    BatchMatMulGeom, Conv2dGeom, DType, EwKind, IrError, MatMulGeom, NormKind, PoolGeom, PoolKind,
    SoftmaxGeom,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node within one [`Graph`].
///
/// Ids are dense indices assigned in insertion order; because builders only
/// accept already-existing nodes as inputs, id order is a topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index (crate-internal: ids minted outside
    /// [`Graph::add`] bypass existence checks).
    pub(crate) fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One operation in a [`Graph`], producing exactly one output tensor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    name: String,
    kind: OpKind,
    inputs: Vec<NodeId>,
    shape: Shape,
    group: Option<u32>,
}

impl Node {
    /// The node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name (unique names are the builder's responsibility).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator kind.
    #[must_use]
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }

    /// Activation inputs (producers).
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Output tensor shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Group tag (e.g. MBConv block index) if assigned at build time.
    #[must_use]
    pub fn group(&self) -> Option<u32> {
        self.group
    }
}

/// A directed acyclic graph of operators — the IR unit the whole FAST stack
/// operates on (one inference workload at a fixed batch size).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    dtype: DType,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    groups: Vec<String>,
    current_group: Option<u32>,
    /// The Stage-B plan, lowered on first use ([`Graph::sim_plan`]) and
    /// cleared by every `&mut self` method.
    plan: OnceLock<SimPlan>,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        Graph {
            name: name.into(),
            dtype,
            nodes: Vec::new(),
            outputs: Vec::new(),
            groups: Vec::new(),
            current_group: None,
            plan: OnceLock::new(),
        }
    }

    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type used for all activations and weights.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates nodes in topological (insertion) order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Looks up a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Nodes marked as graph outputs.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Registered group names, indexed by group id.
    #[must_use]
    pub fn group_names(&self) -> &[String] {
        &self.groups
    }

    /// Begins a named group; subsequent nodes are tagged with it until the
    /// next [`Graph::begin_group`] / [`Graph::end_group`]. Returns the group id.
    pub fn begin_group(&mut self, name: impl Into<String>) -> u32 {
        self.plan.take();
        let id = self.groups.len() as u32;
        self.groups.push(name.into());
        self.current_group = Some(id);
        id
    }

    /// Ends the current group; subsequent nodes are untagged.
    pub fn end_group(&mut self) {
        self.plan.take();
        self.current_group = None;
    }

    /// Marks a node as a graph output.
    pub fn mark_output(&mut self, id: NodeId) {
        self.plan.take();
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// Adds a graph input placeholder.
    pub fn input(&mut self, name: impl Into<String>, shape: impl Into<Shape>) -> NodeId {
        self.plan.take();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.into(),
            kind: OpKind::Input,
            inputs: Vec::new(),
            shape: shape.into(),
            group: self.current_group,
        });
        id
    }

    /// Adds a node with explicit kind and inputs, inferring the output shape.
    ///
    /// # Errors
    /// Returns an error when inputs are unknown, arity mismatches, geometry is
    /// degenerate, or shapes disagree with the op geometry.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: &[NodeId],
    ) -> Result<NodeId, IrError> {
        self.plan.take();
        let name = name.into();
        ops::validate(&name, &kind)?;
        for &i in inputs {
            if i.index() >= self.nodes.len() {
                return Err(IrError::UnknownNode(i.index()));
            }
        }
        let in_shapes: Vec<&Shape> = inputs.iter().map(|&i| self.node(i).shape()).collect();
        let shape = infer_shape(&name, &kind, &in_shapes)?;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name,
            kind,
            inputs: inputs.to_vec(),
            shape,
            group: self.current_group,
        });
        Ok(id)
    }

    /// Adds a standard convolution.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn conv2d(
        &mut self,
        name: impl Into<String>,
        x: NodeId,
        geom: Conv2dGeom,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Conv2d(geom), &[x])
    }

    /// Adds a depthwise convolution.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn depthwise_conv2d(
        &mut self,
        name: impl Into<String>,
        x: NodeId,
        geom: DepthwiseConv2dGeom,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::DepthwiseConv2d(geom), &[x])
    }

    /// Adds an activation × weight matmul.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn matmul(
        &mut self,
        name: impl Into<String>,
        x: NodeId,
        geom: MatMulGeom,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::MatMul(geom), &[x])
    }

    /// Adds an activation × activation batched matmul.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn batch_matmul(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
        geom: BatchMatMulGeom,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::BatchMatMul(geom), &[a, b])
    }

    /// Adds a row-wise softmax over the last axis of `x`.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn softmax(&mut self, name: impl Into<String>, x: NodeId) -> Result<NodeId, IrError> {
        let s = self.node(x).shape();
        let cols = *s.dims().last().unwrap_or(&1);
        let rows = s.elements() / cols.max(1);
        self.add(name, OpKind::Softmax(SoftmaxGeom { rows, cols }), &[x])
    }

    /// Adds a layer normalization.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn layer_norm(&mut self, name: impl Into<String>, x: NodeId) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Norm(NormKind::LayerNorm), &[x])
    }

    /// Adds a unary element-wise op.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn unary(
        &mut self,
        name: impl Into<String>,
        kind: EwKind,
        x: NodeId,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Elementwise(kind), &[x])
    }

    /// Adds a ReLU.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn relu(&mut self, name: impl Into<String>, x: NodeId) -> Result<NodeId, IrError> {
        self.unary(name, EwKind::Relu, x)
    }

    /// Adds a swish (SiLU) activation.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn swish(&mut self, name: impl Into<String>, x: NodeId) -> Result<NodeId, IrError> {
        self.unary(name, EwKind::Swish, x)
    }

    /// Adds a GELU activation.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn gelu(&mut self, name: impl Into<String>, x: NodeId) -> Result<NodeId, IrError> {
        self.unary(name, EwKind::Gelu, x)
    }

    /// Adds a binary element-wise op.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn binary(
        &mut self,
        name: impl Into<String>,
        kind: EwKind,
        a: NodeId,
        b: NodeId,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Elementwise(kind), &[a, b])
    }

    /// Adds a residual addition.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn residual_add(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
    ) -> Result<NodeId, IrError> {
        self.binary(name, EwKind::Add, a, b)
    }

    /// Adds a pooling op.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn pool(
        &mut self,
        name: impl Into<String>,
        x: NodeId,
        geom: PoolGeom,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Pool(geom), &[x])
    }

    /// Adds a global average pool over NHWC input `x`.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn global_avg_pool(
        &mut self,
        name: impl Into<String>,
        x: NodeId,
    ) -> Result<NodeId, IrError> {
        let d = self.node(x).shape().dims().to_vec();
        if d.len() != 4 {
            return Err(IrError::ShapeMismatch {
                op: "global_avg_pool".to_string(),
                expected: "[B,H,W,C]".to_string(),
                got: Shape::from(d).to_string(),
            });
        }
        self.pool(
            name,
            x,
            PoolGeom {
                kind: PoolKind::GlobalAvg,
                in_h: d[1],
                in_w: d[2],
                channels: d[3],
                k: 0,
                stride: 0,
            },
        )
    }

    /// Adds an embedding gather.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn embedding(
        &mut self,
        name: impl Into<String>,
        ids: NodeId,
        vocab: u64,
        dim: u64,
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Embedding { vocab, dim }, &[ids])
    }

    /// Adds a reshape (pure data movement). The element count must match.
    ///
    /// # Errors
    /// Returns [`IrError::ShapeMismatch`] if element counts differ.
    pub fn reshape(
        &mut self,
        name: impl Into<String>,
        x: NodeId,
        new_shape: impl Into<Shape>,
    ) -> Result<NodeId, IrError> {
        let name = name.into();
        let new_shape = new_shape.into();
        let old = self.node(x).shape();
        if old.elements() != new_shape.elements() {
            return Err(IrError::ShapeMismatch {
                op: name,
                expected: format!("{} elements", old.elements()),
                got: new_shape.to_string(),
            });
        }
        let id = self.add(name, OpKind::DataMovement, &[x])?;
        self.nodes[id.index()].shape = new_shape;
        Ok(id)
    }

    /// Adds a concatenation along the last axis.
    ///
    /// # Errors
    /// See [`Graph::add`].
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        inputs: &[NodeId],
    ) -> Result<NodeId, IrError> {
        self.add(name, OpKind::Concat, inputs)
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// FLOPs performed by one node.
    #[must_use]
    pub fn node_flops(&self, id: NodeId) -> u64 {
        let n = self.node(id);
        let batch = n
            .inputs
            .first()
            .map(|&i| *self.node(i).shape().dims().first().unwrap_or(&1))
            .unwrap_or(1);
        let in_elements: u64 = n.inputs.iter().map(|&i| self.node(i).shape().elements()).sum();
        n.kind.flops(batch, n.shape.elements(), in_elements)
    }

    /// Bytes of activation input read by one node.
    #[must_use]
    pub fn node_input_bytes(&self, id: NodeId) -> u64 {
        let n = self.node(id);
        n.inputs.iter().map(|&i| self.node(i).shape().bytes(self.dtype)).sum()
    }

    /// Bytes of output written by one node.
    #[must_use]
    pub fn node_output_bytes(&self, id: NodeId) -> u64 {
        self.node(id).shape().bytes(self.dtype)
    }

    /// Bytes of weights stored by one node.
    #[must_use]
    pub fn node_weight_bytes(&self, id: NodeId) -> u64 {
        self.node(id).kind.weight_bytes(self.dtype)
    }

    /// Bytes of weights accessed per inference by one node.
    #[must_use]
    pub fn node_accessed_weight_bytes(&self, id: NodeId) -> u64 {
        let n = self.node(id);
        n.kind.accessed_weight_bytes(self.dtype, n.shape.elements())
    }

    /// Working-set bytes of one node: input activations + outputs (paper §4.1).
    #[must_use]
    pub fn node_working_set(&self, id: NodeId) -> u64 {
        self.node_input_bytes(id) + self.node_output_bytes(id)
    }

    /// Total graph FLOPs.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| self.node_flops(n.id)).sum()
    }

    /// Total parameter bytes.
    #[must_use]
    pub fn total_weight_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| self.node_weight_bytes(n.id)).sum()
    }

    /// The Stage-B plan of this graph: lowered on the first call, then
    /// shared by every later call until a mutation clears it.
    #[must_use]
    pub fn sim_plan(&self) -> &SimPlan {
        self.plan.get_or_init(|| SimPlan::lower(self))
    }

    /// Canonical 7-D loop nest for matrix ops; `None` for vector ops.
    #[must_use]
    pub fn loop_nest(&self, id: NodeId) -> Option<LoopNest> {
        let n = self.node(id);
        match &n.kind {
            OpKind::Conv2d(g) => {
                let b = n
                    .inputs
                    .first()
                    .map(|&i| *self.node(i).shape().dims().first().unwrap_or(&1))
                    .unwrap_or(1);
                Some(LoopNest {
                    b,
                    oh: g.out_h(),
                    ow: g.out_w(),
                    if_: g.in_ch,
                    of: g.out_ch,
                    kh: g.kh,
                    kw: g.kw,
                    weight_latches: 1,
                    stationary_is_activation: false,
                    input_reuse: ((g.kh * g.kw) / (g.stride * g.stride)).max(1),
                })
            }
            OpKind::DepthwiseConv2d(g) => {
                let b = n
                    .inputs
                    .first()
                    .map(|&i| *self.node(i).shape().dims().first().unwrap_or(&1))
                    .unwrap_or(1);
                // Each channel contracts only over its own KH×KW window: the
                // reduction extent presented to the array rows is KH·KW.
                Some(LoopNest {
                    b,
                    oh: g.out_h(),
                    ow: g.out_w(),
                    if_: g.kh * g.kw,
                    of: g.channels,
                    kh: 1,
                    kw: 1,
                    weight_latches: 1,
                    stationary_is_activation: false,
                    input_reuse: ((g.kh * g.kw) / (g.stride * g.stride)).max(1),
                })
            }
            OpKind::MatMul(g) => {
                let in_elems =
                    n.inputs.first().map(|&i| self.node(i).shape().elements()).unwrap_or(g.k);
                Some(LoopNest {
                    b: in_elems / g.k,
                    oh: 1,
                    ow: 1,
                    if_: g.k,
                    of: g.n,
                    kh: 1,
                    kw: 1,
                    weight_latches: 1,
                    stationary_is_activation: false,
                    input_reuse: 1,
                })
            }
            OpKind::BatchMatMul(g) => Some(LoopNest {
                b: g.m,
                oh: 1,
                ow: 1,
                if_: g.k,
                of: g.n,
                kh: 1,
                kw: 1,
                weight_latches: g.batch,
                stationary_is_activation: true,
                input_reuse: 1,
            }),
            _ => None,
        }
    }

    /// A stable structural fingerprint: an FNV-1a hash over every node's
    /// name, operator kind, output shape, input ids and group tag, plus the
    /// output list and group names. Equal fingerprints mean the graphs are
    /// op-for-op identical (same ops in the same order with the same
    /// geometry), which is what keeps evaluation-cache snapshots warm across
    /// refactors of the construction code — the model-zoo golden tests pin
    /// these values.
    #[must_use]
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.name.as_bytes());
        h.write(format!("{:?}", self.dtype).as_bytes());
        for n in &self.nodes {
            h.write(n.name.as_bytes());
            h.write(format!("{:?}", n.kind).as_bytes());
            for &d in n.shape.dims() {
                h.write(&d.to_le_bytes());
            }
            for &i in &n.inputs {
                h.write(&(i.index() as u64).to_le_bytes());
            }
            h.write(&[n.group.map_or(0, |g| g + 1) as u8]);
        }
        for &o in &self.outputs {
            h.write(&(o.index() as u64).to_le_bytes());
        }
        for g in &self.groups {
            h.write(g.as_bytes());
        }
        h.finish()
    }

    /// Fingerprint of the canonical [`LoopNest`] sequence (matrix ops only,
    /// in topological order). Two graphs with equal loop-nest fingerprints
    /// present the identical op stream to the mapper, so every `OpKey` the
    /// evaluation cache derives from them matches.
    #[must_use]
    pub fn loop_nest_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for n in &self.nodes {
            if let Some(nest) = self.loop_nest(n.id) {
                h.write(format!("{nest:?}").as_bytes());
            }
        }
        h.finish()
    }

    /// Map from node → consumers, computed on demand.
    #[must_use]
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                out[i.index()].push(n.id);
            }
        }
        out
    }

    /// Checks structural invariants: every input id precedes its consumer (so
    /// insertion order is topological) and all referenced ids exist.
    ///
    /// # Errors
    /// Returns [`IrError::Cyclic`] or [`IrError::UnknownNode`] on violation.
    pub fn validate(&self) -> Result<(), IrError> {
        for n in &self.nodes {
            for &i in &n.inputs {
                if i.index() >= self.nodes.len() {
                    return Err(IrError::UnknownNode(i.index()));
                }
                if i.index() >= n.id.index() {
                    return Err(IrError::Cyclic);
                }
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.nodes.len() {
                return Err(IrError::UnknownNode(o.index()));
            }
        }
        Ok(())
    }
}

/// Minimal FNV-1a 64-bit hasher: dependency-free and stable across
/// platforms and releases (unlike `DefaultHasher`), which fingerprints
/// require to stay comparable between runs.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator so ("ab","c") and ("a","bc") hash differently.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_graph() -> Graph {
        let mut g = Graph::new("mini", DType::Bf16);
        let x = g.input("x", [1, 8, 8, 16]);
        let c = g.conv2d("c", x, Conv2dGeom::same(8, 8, 16, 32, 3, 1)).unwrap();
        let r = g.relu("r", c).unwrap();
        let s = g.residual_add("skip", r, r).unwrap();
        g.mark_output(s);
        g
    }

    #[test]
    fn builders_infer_shapes() {
        let g = mini_graph();
        assert_eq!(g.len(), 4);
        let last = g.nodes().last().unwrap();
        assert_eq!(last.shape().dims(), &[1, 8, 8, 32]);
        g.validate().unwrap();
    }

    #[test]
    fn flops_accounting() {
        let g = mini_graph();
        let conv = g.nodes().find(|n| n.name() == "c").unwrap().id();
        assert_eq!(g.node_flops(conv), 2 * 8 * 8 * 32 * 16 * 9);
        assert!(g.total_flops() > g.node_flops(conv));
    }

    #[test]
    fn consumers_map() {
        let g = mini_graph();
        let cons = g.consumers();
        let relu = g.nodes().find(|n| n.name() == "r").unwrap().id();
        // relu feeds the residual add twice -> two consumer entries.
        assert_eq!(cons[relu.index()].len(), 2);
    }

    #[test]
    fn reshape_checks_elements() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [2, 8]);
        assert!(g.reshape("ok", x, [16]).is_ok());
        assert!(g.reshape("bad", x, [17]).is_err());
    }

    #[test]
    fn groups_tag_nodes() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 8, 8, 16]);
        g.begin_group("block0");
        let c = g.conv2d("c", x, Conv2dGeom::same(8, 8, 16, 16, 1, 1)).unwrap();
        g.end_group();
        let r = g.relu("r", c).unwrap();
        assert_eq!(g.node(c).group(), Some(0));
        assert_eq!(g.node(r).group(), None);
        assert_eq!(g.group_names(), &["block0".to_string()]);
    }

    #[test]
    fn unknown_input_rejected() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [4, 4]);
        let mut other = Graph::new("o", DType::Bf16);
        let y = other.input("y", [4, 4]);
        let _ = x;
        // y's id (0) exists in g too, so fabricate an out-of-range id by
        // adding nodes to `other` only.
        let far = other.relu("r", y).unwrap();
        assert!(g.add("m", OpKind::Elementwise(EwKind::Relu), &[far]).is_err());
    }

    #[test]
    fn loop_nest_for_depthwise_uses_kernel_as_reduction() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [1, 56, 56, 64]);
        let d = g.depthwise_conv2d("dw", x, DepthwiseConv2dGeom::same(56, 56, 64, 3, 1)).unwrap();
        let nest = g.loop_nest(d).unwrap();
        assert_eq!(nest.if_, 9);
        assert_eq!(nest.of, 64);
        assert_eq!(nest.macs(), 2 * 56 * 56 * 64 * 9 / 2);
    }

    #[test]
    fn loop_nest_for_bmm_latches_per_product() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.input("a", [12, 128, 64]);
        let b = g.input("b", [12, 64, 128]);
        let m = g
            .batch_matmul("qk", a, b, BatchMatMulGeom { batch: 12, m: 128, k: 64, n: 128 })
            .unwrap();
        let nest = g.loop_nest(m).unwrap();
        assert_eq!(nest.weight_latches, 12);
        assert!(nest.stationary_is_activation);
    }

    #[test]
    fn matmul_nest_m_from_input() {
        let mut g = Graph::new("t", DType::Bf16);
        let x = g.input("x", [8, 128, 768]);
        let m = g.matmul("proj", x, MatMulGeom { k: 768, n: 768 }).unwrap();
        let nest = g.loop_nest(m).unwrap();
        assert_eq!(nest.b, 8 * 128);
        assert_eq!(nest.if_, 768);
        assert_eq!(nest.of, 768);
    }
}
