//! The workload simulator: walks an IR graph, schedules every op, and
//! produces the per-region performance statistics the FAST-fusion ILP
//! consumes (T_min, T_max, per-tensor DRAM times t^k, buffer residency B,
//! pinnable weight sizes W — Figure 8 of the paper).
//!
//! Modeling conventions (§6.1):
//! * one core is simulated; cores run disjoint batches, so chip throughput is
//!   `cores ×` the per-core rate and DRAM bandwidth is split between cores;
//! * DMA overlaps with compute — a region's time is
//!   `max(compute, DRAM transfers)`;
//! * matrix ops go through the Timeloop-style mapper ([`crate::mapper`]);
//!   everything else is costed on the VPU ([`crate::vector`]).

use crate::cache::MapperCache;
use crate::error::{MapFailure, SimError};
use crate::mapper::{DataflowSet, Mapping, PaddingMode};
use crate::vector::{cost_vector_op, SoftmaxMode};
use fast_arch::DatapathConfig;
use fast_ir::{Graph, NodeId, PlanOp, PlanRegion, RegionId, SimPlan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Quality of the schedule-generation stack.
///
/// The production XLA compiler reaches a fraction of the analytically ideal
/// mapping throughput (static heuristics, ragged tiling, imperfect
/// overlap); FAST's per-op Timeloop search approaches the ideal. This factor
/// is what makes "FAST scheduling on the unchanged TPU-v3 datapath" worth a
/// large chunk of its 1.7× (Figure 9, first bar) beyond the extra dataflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ScheduleQuality {
    /// FAST's searched schedules: the mapper's analytical cost is achieved.
    #[default]
    Searched,
    /// Stock XLA pipeline: achieves [`XLA_SCHEDULE_EFFICIENCY`] of ideal.
    XlaDefault,
}

/// Fraction of the mapper's ideal throughput the stock XLA stack achieves.
pub const XLA_SCHEDULE_EFFICIENCY: f64 = 0.70;

impl ScheduleQuality {
    /// Achieved fraction of the mapper's analytical throughput.
    #[must_use]
    pub fn efficiency(self) -> f64 {
        match self {
            ScheduleQuality::Searched => 1.0,
            ScheduleQuality::XlaDefault => XLA_SCHEDULE_EFFICIENCY,
        }
    }
}

/// Scheduling options searched by FAST beyond the datapath itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct SimOptions {
    /// Tensor-padding pre-pass mode.
    pub padding: PaddingMode,
    /// Softmax algorithm choice (§5.6).
    pub softmax: SoftmaxMode,
    /// Dataflows the schedule search may use. The TPU-v3 baseline is
    /// restricted to weight-stationary execution (its MXU capability); the
    /// "FAST scheduling" bars of Figures 9/15 lift exactly this restriction.
    pub dataflows: DataflowSet,
    /// Schedule-stack quality (XLA baseline vs FAST searched).
    pub schedule_quality: ScheduleQuality,
}

impl SimOptions {
    /// Options modeling the stock TPU-v3 execution stack: weight-stationary
    /// MXU schedules and three-pass softmax.
    #[must_use]
    pub fn tpu_baseline() -> Self {
        SimOptions {
            padding: PaddingMode::Pad,
            softmax: SoftmaxMode::ThreePass,
            dataflows: DataflowSet::WeightStationaryOnly,
            schedule_quality: ScheduleQuality::XlaDefault,
        }
    }
}

/// Per-node performance detail (feeds Table 2 / Figures 4–5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodePerf {
    /// Node id in the source graph.
    pub node: NodeId,
    /// Node name, shared with the graph's plan.
    pub name: Arc<str>,
    /// Operator class (`Conv2D`, `DepthwiseConv2dNative`, …).
    pub class: &'static str,
    /// Group tag (MBConv block / encoder layer) if any.
    pub group: Option<u32>,
    /// Compute seconds on one core.
    pub compute_seconds: f64,
    /// Unfused execution seconds: `max(compute, own DRAM round-trip)` — what
    /// a per-kernel profile (paper Table 2) would attribute to this op.
    pub unfused_seconds: f64,
    /// FLOPs.
    pub flops: u64,
    /// Systolic-array utilization while computing (matrix ops only).
    pub sa_utilization: Option<f64>,
}

/// Per-region performance: exactly the quantities the Figure-8 ILP needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionPerf {
    /// Region id (doubles as execution order `o(i)`).
    pub region: RegionId,
    /// Display name, shared with the graph's plan.
    pub name: Arc<str>,
    /// Group tag if any.
    pub group: Option<u32>,
    /// Compute seconds (the T_min floor).
    pub compute_seconds: f64,
    /// FLOPs.
    pub flops: u64,
    /// External input activation bytes, all producers (DRAM unless fused).
    pub in_bytes: u64,
    /// Bytes of the *primary* input edge — the only tensor the fusion ILP may
    /// place in Global Memory (secondary inputs always stream from DRAM;
    /// "at most one op in the fanout cone will benefit", §5.5).
    pub primary_in_bytes: u64,
    /// Output activation bytes.
    pub out_bytes: u64,
    /// Weight bytes accessed per inference.
    pub weight_bytes: u64,
    /// Weight bytes needed to pin this region's parameters (W_i).
    pub weight_store_bytes: u64,
    /// Unavoidable extra DRAM traffic (softmax spills), bytes.
    pub spill_bytes: u64,
    /// T_min: execution time with inputs/outputs/weights all in Global Memory.
    pub t_min: f64,
    /// T_max: execution time with everything streamed from DRAM.
    pub t_max: f64,
    /// DRAM transfer time of the primary input tensor (t^I).
    pub t_in: f64,
    /// Fixed DRAM time: softmax spills plus secondary inputs — traffic the
    /// fusion pass can never remove.
    pub t_fixed: f64,
    /// DRAM transfer time of the output tensor (t^O).
    pub t_out: f64,
    /// DRAM transfer time of the weight tensor (t^W).
    pub t_weight: f64,
    /// Nominal Global-Memory residency while this region runs (B_i).
    pub resident_buffer_bytes: u64,
    /// Execution-order index (into [`WorkloadPerf::regions`]) of the region
    /// producing this region's primary input, if it is a compute region.
    /// The fusion ILP's `F_in(v)`.
    pub primary_input: Option<usize>,
    /// Whether this region processes its tensors row-by-row with no
    /// cross-row reuse (attention einsums, softmax, element-wise chains).
    /// Adjacent row-streamable regions can be inter-op blocked: the boundary
    /// tensor streams through Global Memory tile-wise instead of requiring
    /// whole-tensor residency (§5.5's "schedulers can use inter-op blocking
    /// to reduce tensor working set sizes").
    pub row_streamable: bool,
}

impl RegionPerf {
    /// The record of plan region `r` on a design whose per-core DRAM
    /// bandwidth is `bw` bytes/s ([`DatapathConfig::dram_bytes_per_sec_per_core`])
    /// and whose Global Memory holds `gm` bytes
    /// ([`DatapathConfig::global_memory_bytes`]), given the two values the
    /// plan and those do not determine: the region's compute seconds and its
    /// spill bytes. Stage B builds every record through this function, so a
    /// record rebuilt later from the same two values equals the priced one
    /// bit for bit.
    #[must_use]
    pub fn priced(
        r: &PlanRegion,
        bw: f64,
        gm: u64,
        compute_seconds: f64,
        spill_bytes: u64,
    ) -> RegionPerf {
        let t_in = r.primary_in_bytes as f64 / bw;
        let t_fixed = (spill_bytes + (r.in_bytes - r.primary_in_bytes)) as f64 / bw;
        let t_out = r.out_bytes as f64 / bw;
        let t_weight = r.weight_bytes as f64 / bw;
        RegionPerf {
            region: r.id,
            name: Arc::clone(&r.name),
            group: r.group,
            compute_seconds,
            flops: r.flops,
            in_bytes: r.in_bytes,
            primary_in_bytes: r.primary_in_bytes,
            out_bytes: r.out_bytes,
            weight_bytes: r.weight_bytes,
            weight_store_bytes: r.weight_store_bytes,
            spill_bytes,
            t_min: compute_seconds.max(t_fixed),
            t_max: compute_seconds.max(t_fixed + t_in + t_out + t_weight),
            t_in,
            t_fixed,
            t_out,
            t_weight,
            resident_buffer_bytes: if gm == 0 { 0 } else { (r.in_bytes + r.out_bytes).min(gm / 8) },
            primary_input: r.primary_input,
            row_streamable: r.row_streamable,
        }
    }

    /// Execution time given which tensors sit in Global Memory
    /// (the ILP's `T_i` as a function of `p^k_i`).
    #[must_use]
    pub fn time_with_placements(&self, in_gm: bool, out_gm: bool, weight_gm: bool) -> f64 {
        let mut dram = self.t_fixed;
        if !in_gm {
            dram += self.t_in;
        }
        if !out_gm {
            dram += self.t_out;
        }
        if !weight_gm {
            dram += self.t_weight;
        }
        self.compute_seconds.max(dram)
    }

    /// DRAM bytes this region moves under the given placements.
    #[must_use]
    pub fn dram_bytes_with_placements(&self, in_gm: bool, out_gm: bool, weight_gm: bool) -> u64 {
        let mut bytes = self.spill_bytes + (self.in_bytes - self.primary_in_bytes);
        if !in_gm {
            bytes += self.primary_in_bytes;
        }
        if !out_gm {
            bytes += self.out_bytes;
        }
        if !weight_gm {
            bytes += self.weight_bytes;
        }
        bytes
    }
}

/// Complete simulation result for one workload on one datapath.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadPerf {
    /// Workload name.
    pub workload: String,
    /// Batch size per core the graph was built at.
    pub batch_per_core: u64,
    /// Number of cores (chip throughput multiplier).
    pub cores: u64,
    /// Per-node detail.
    pub nodes: Vec<NodePerf>,
    /// Per-region detail in execution order.
    pub regions: Vec<RegionPerf>,
    /// Σ region compute seconds.
    pub compute_seconds: f64,
    /// Σ region DRAM transfer seconds with every boundary tensor in DRAM.
    pub dram_seconds: f64,
    /// Pre-fusion step time. DMA is queued ahead and overlaps with compute
    /// across region boundaries (TPU-style asynchronous DMA), so the step is
    /// `max(Σ compute, Σ DRAM)`.
    pub prefusion_seconds: f64,
    /// Total FLOPs per step (one core's batch).
    pub total_flops: u64,
    /// FLOPs executed on the systolic arrays (matrix ops only).
    pub matrix_flops: u64,
    /// Peak FLOPS of one core.
    pub peak_flops_per_core: f64,
    /// DRAM bytes per step before fusion.
    pub prefusion_dram_bytes: u64,
}

impl WorkloadPerf {
    /// Chip queries/second before fusion (each batch element is one query).
    #[must_use]
    pub fn prefusion_qps(&self) -> f64 {
        (self.batch_per_core * self.cores) as f64 / self.prefusion_seconds
    }

    /// Compute utilization = matrix FLOPS achieved / peak systolic FLOPS at
    /// a given step time (vector-op FLOPs run on the VPU and are excluded).
    #[must_use]
    pub fn utilization_at(&self, step_seconds: f64) -> f64 {
        self.matrix_flops as f64 / (step_seconds * self.peak_flops_per_core)
    }

    /// Fraction of the pre-fusion step spent stalled on DRAM.
    #[must_use]
    pub fn prefusion_memory_stall_fraction(&self) -> f64 {
        (1.0 - self.compute_seconds / self.prefusion_seconds).max(0.0)
    }

    /// Operational intensity before fusion (FLOPs per DRAM byte).
    #[must_use]
    pub fn prefusion_op_intensity(&self) -> f64 {
        self.total_flops as f64 / self.prefusion_dram_bytes as f64
    }

    /// Aggregates unfused node times by a classifier, returning
    /// `(label, seconds, flops)` rows sorted by seconds descending.
    #[must_use]
    pub fn time_by<F>(&self, classify: F) -> Vec<(String, f64, u64)>
    where
        F: Fn(&NodePerf) -> String,
    {
        let mut map: HashMap<String, (f64, u64)> = HashMap::new();
        for n in &self.nodes {
            let e = map.entry(classify(n)).or_insert((0.0, 0));
            e.0 += n.unfused_seconds;
            e.1 += n.flops;
        }
        let mut rows: Vec<(String, f64, u64)> =
            map.into_iter().map(|(k, (s, f))| (k, s, f)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

/// Stage B's product without per-node detail: the region records fusion
/// reads and the workload totals scoring reads. [`WorkloadPerf`] is this
/// plus the workload name and the per-node records.
#[derive(Debug, Clone)]
pub struct RegionsPerf {
    /// Batch size per core the graph was built at.
    pub batch_per_core: u64,
    /// Number of cores (chip throughput multiplier).
    pub cores: u64,
    /// Per-region detail in execution order.
    pub regions: Vec<RegionPerf>,
    /// Σ region compute seconds.
    pub compute_seconds: f64,
    /// Σ region DRAM transfer seconds with every boundary tensor in DRAM.
    pub dram_seconds: f64,
    /// Pre-fusion step time, `max(Σ compute, Σ DRAM)`.
    pub prefusion_seconds: f64,
    /// Total FLOPs per step (one core's batch).
    pub total_flops: u64,
    /// FLOPs executed on the systolic arrays (matrix ops only).
    pub matrix_flops: u64,
    /// Peak FLOPS of one core.
    pub peak_flops_per_core: f64,
    /// DRAM bytes per step before fusion.
    pub prefusion_dram_bytes: u64,
}

/// Simulates `graph` on one core of `cfg`.
///
/// Op scheduling is memoized per call (identical nests map once); use
/// [`simulate_staged`] with a long-lived [`MapperCache`] to reuse mapper
/// results *across* calls — across workloads, batch sizes and neighboring
/// search points.
///
/// # Errors
/// Returns the first [`SimError`] (constraint Eq. 5); callers treat the
/// whole design point as invalid.
pub fn simulate(
    graph: &Graph,
    cfg: &DatapathConfig,
    opts: &SimOptions,
) -> Result<WorkloadPerf, SimError> {
    simulate_staged(graph, cfg, opts, &MapperCache::new())
}

/// [`simulate`] with op scheduling answered from (and recorded into) a
/// shared per-op [`MapperCache`] — Stage A+B of the staged evaluation
/// pipeline. Bit-identical to [`simulate`]: the cache stores pure mapper
/// results keyed by everything the mapper reads.
///
/// Everything that does not depend on the datapath — loop nests, vector-op
/// counts, the fusion-region table — comes from the graph's cached
/// [`fast_ir::SimPlan`], lowered on the first simulation of the graph. Each
/// call prices the plan's ops on `cfg` and sums them per region; the
/// per-node records are built from those prices. [`simulate_regions`] is
/// the same simulation without them.
///
/// # Errors
/// Returns the first [`SimError`] (constraint Eq. 5).
pub fn simulate_staged(
    graph: &Graph,
    cfg: &DatapathConfig,
    opts: &SimOptions,
    mapper: &MapperCache,
) -> Result<WorkloadPerf, SimError> {
    let plan = graph.sim_plan();
    let prices = NodePrices::of(plan, cfg, opts, mapper)?;
    let bw = cfg.dram_bytes_per_sec_per_core();
    let nodes = plan
        .nodes
        .iter()
        .zip(prices.compute_seconds.iter().zip(&prices.spill_bytes))
        .map(|(n, (&compute_seconds, &spill))| NodePerf {
            node: n.id,
            name: Arc::clone(&n.name),
            class: n.class,
            group: n.group,
            compute_seconds,
            unfused_seconds: compute_seconds.max((n.dram_bytes + spill) as f64 / bw),
            flops: n.flops,
            sa_utilization: match n.op {
                PlanOp::Matrix { nest } => prices.mapped[nest].as_ref().ok().map(|m| m.utilization),
                PlanOp::Vector { .. } => None,
            },
        })
        .collect();
    let RegionsPerf {
        batch_per_core,
        cores,
        regions,
        compute_seconds,
        dram_seconds,
        prefusion_seconds,
        total_flops,
        matrix_flops,
        peak_flops_per_core,
        prefusion_dram_bytes,
    } = prices.assemble(plan, cfg);
    Ok(WorkloadPerf {
        workload: graph.name().to_string(),
        batch_per_core,
        cores,
        nodes,
        regions,
        compute_seconds,
        dram_seconds,
        prefusion_seconds,
        total_flops,
        matrix_flops,
        peak_flops_per_core,
        prefusion_dram_bytes,
    })
}

/// [`simulate_staged`] without the per-node records: the same pricing and
/// the same region records and totals, bit for bit, which is everything
/// Stage C and scoring read.
///
/// # Errors
/// Returns the first [`SimError`] (constraint Eq. 5), naming the same op as
/// [`simulate_staged`].
pub fn simulate_regions(
    graph: &Graph,
    cfg: &DatapathConfig,
    opts: &SimOptions,
    mapper: &MapperCache,
) -> Result<RegionsPerf, SimError> {
    let plan = graph.sim_plan();
    Ok(NodePrices::of(plan, cfg, opts, mapper)?.assemble(plan, cfg))
}

/// Every node of a plan priced on one design, in flat arrays in node order.
struct NodePrices {
    /// Mapper results of the plan's distinct nests.
    mapped: Vec<Result<Mapping, MapFailure>>,
    /// Compute seconds on one core, per node.
    compute_seconds: Vec<f64>,
    /// Unavoidable spill bytes (softmax spills), per node.
    spill_bytes: Vec<u64>,
}

impl NodePrices {
    /// Stage B's one pricing loop.
    fn of(
        plan: &SimPlan,
        cfg: &DatapathConfig,
        opts: &SimOptions,
        mapper: &MapperCache,
    ) -> Result<NodePrices, SimError> {
        let clock_hz = cfg.clock_ghz * 1e9 * opts.schedule_quality.efficiency();
        let on_chip_bytes = cfg.global_memory_bytes()
            + cfg.pes_per_core() * cfg.l1_bytes_per_pe()
            + cfg.pes_per_core() * cfg.l2_bytes_per_pe();

        // Price the graph's distinct nests through the cache in one batch —
        // misses share one L1 check and a contiguous costing pass — and each
        // matrix op from its nest's slot; the plan's repeated nests count as
        // hits. Walking the nodes in order, the first failing op names the
        // error, exactly as a per-node walk would.
        let mapped = mapper.map_batch(&plan.nests, plan.repeated_nests, cfg, opts);
        let mut compute_seconds = Vec::with_capacity(plan.nodes.len());
        let mut spill_bytes = Vec::with_capacity(plan.nodes.len());
        for n in &plan.nodes {
            let (cycles, spill) = match n.op {
                PlanOp::Matrix { nest } => match &mapped[nest] {
                    Ok(mapping) => (mapping.compute_cycles, 0),
                    Err(cause) => return Err(cause.clone().for_op(&n.name)),
                },
                PlanOp::Vector { kind, in_elements, out_elements, working_set } => {
                    let cost = cost_vector_op(
                        &kind,
                        cfg,
                        out_elements,
                        in_elements,
                        opts.softmax,
                        working_set <= on_chip_bytes,
                    );
                    (cost.compute_cycles, cost.spill_bytes)
                }
            };
            compute_seconds.push(cycles as f64 / clock_hz);
            spill_bytes.push(spill);
        }
        Ok(NodePrices { mapped, compute_seconds, spill_bytes })
    }

    /// Sums the prices per region into region records and workload totals.
    fn assemble(&self, plan: &SimPlan, cfg: &DatapathConfig) -> RegionsPerf {
        let bw = cfg.dram_bytes_per_sec_per_core();
        let gm = cfg.global_memory_bytes();
        let mut regions = Vec::with_capacity(plan.regions.len());
        let mut compute_total = 0.0;
        let mut dram_seconds_total = 0.0;
        let mut dram_total = 0u64;
        for r in &plan.regions {
            // Within a fused region the VPU runs concurrently with the
            // systolic array (element-wise epilogues stream through as
            // matrix results drain), so region compute is the max of the two
            // pipelines.
            let matrix_seconds: f64 =
                r.matrix.iter().map(|n| self.compute_seconds[n.index()]).sum();
            let vector_seconds: f64 =
                r.vector.iter().map(|n| self.compute_seconds[n.index()]).sum();
            let spill_bytes: u64 = r.vector.iter().map(|n| self.spill_bytes[n.index()]).sum();
            let region =
                RegionPerf::priced(r, bw, gm, matrix_seconds.max(vector_seconds), spill_bytes);
            compute_total += region.compute_seconds;
            dram_seconds_total += region.t_fixed + region.t_in + region.t_out + region.t_weight;
            dram_total += r.in_bytes + r.out_bytes + r.weight_bytes + spill_bytes;
            regions.push(region);
        }
        RegionsPerf {
            batch_per_core: plan.batch,
            cores: cfg.cores,
            regions,
            compute_seconds: compute_total,
            dram_seconds: dram_seconds_total,
            prefusion_seconds: compute_total.max(dram_seconds_total),
            total_flops: plan.total_flops,
            matrix_flops: plan.matrix_flops,
            peak_flops_per_core: cfg.peak_flops() / cfg.cores as f64,
            prefusion_dram_bytes: dram_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_arch::presets;
    use fast_models::{EfficientNet, Workload};

    fn sim(w: Workload, batch: u64, cfg: &DatapathConfig, opts: &SimOptions) -> WorkloadPerf {
        let g = w.build(batch).unwrap();
        simulate(&g, cfg, opts).unwrap()
    }

    fn sim_tpu(w: Workload, batch: u64) -> WorkloadPerf {
        sim(w, batch, &presets::tpu_v3(), &SimOptions::tpu_baseline())
    }

    fn sim_fast(w: Workload, batch: u64, cfg: &DatapathConfig) -> WorkloadPerf {
        sim(w, batch, cfg, &SimOptions::default())
    }

    #[test]
    fn resnet_runs_efficiently_on_tpu() {
        let p = sim_tpu(Workload::ResNet50, 64);
        let util = p.utilization_at(p.prefusion_seconds);
        assert!(util > 0.2, "resnet util {util}");
        assert!(p.prefusion_qps() > 100.0, "qps {}", p.prefusion_qps());
    }

    #[test]
    fn efficientnet_b7_is_slow_on_tpu() {
        let p = sim_tpu(Workload::EfficientNet(EfficientNet::B7), 64);
        let util = p.utilization_at(p.prefusion_seconds);
        // Paper: 14.8% overall utilization (§4.2). Allow a loose band.
        assert!(util < 0.35, "b7 util {util}");
        // Depthwise convs dominate runtime despite few FLOPs (Table 2).
        let rows = p.time_by(|n| n.class.to_string());
        let total: f64 = rows.iter().map(|r| r.1).sum();
        let dw = rows.iter().find(|r| r.0 == "DepthwiseConv2dNative").expect("dw row");
        let dw_time_frac = dw.1 / total;
        let dw_flop_frac = dw.2 as f64 / p.total_flops as f64;
        assert!(dw_time_frac > 0.3, "dw time fraction {dw_time_frac}");
        assert!(dw_flop_frac < 0.12, "dw flop fraction {dw_flop_frac}");
    }

    #[test]
    fn b7_prefusion_comparison_is_sane() {
        let tpu = sim_tpu(Workload::EfficientNet(EfficientNet::B7), 64);
        let fast = sim_fast(Workload::EfficientNet(EfficientNet::B7), 8, &presets::fast_large());
        // Before fusion FAST-Large is heavily DRAM-bound (448 GB/s, batch 8):
        // it should be in the same ballpark as TPU-v3, with the decisive win
        // coming from fusion (Figure 15's message).
        let tpu_qps = tpu.prefusion_qps();
        let fast_qps = fast.prefusion_qps();
        assert!(fast_qps > tpu_qps * 0.4, "fast-large prefusion qps {fast_qps} vs tpu {tpu_qps}");
        // And its compute-only time must be far better than TPU's.
        let tpu_compute_qps = (tpu.batch_per_core * tpu.cores) as f64 / tpu.compute_seconds;
        let fast_compute_qps = (fast.batch_per_core * fast.cores) as f64 / fast.compute_seconds;
        assert!(
            fast_compute_qps > 2.0 * tpu_compute_qps,
            "fast compute qps {fast_compute_qps} vs tpu {tpu_compute_qps}"
        );
    }

    #[test]
    fn memory_stall_fraction_in_range() {
        let p = sim_fast(Workload::EfficientNet(EfficientNet::B7), 8, &presets::fast_large());
        let f = p.prefusion_memory_stall_fraction();
        assert!((0.0..1.0).contains(&f), "stall {f}");
        // B7 pre-fusion on FAST-Large is heavily memory-bound (Table 5: 63%).
        assert!(f > 0.3, "stall {f}");
    }

    #[test]
    fn schedule_failure_propagates() {
        let g = Workload::ResNet50.build(1).unwrap();
        let mut cfg = presets::tpu_v3();
        cfg.l1_input_kib = 1;
        cfg.l1_weight_kib = 1;
        cfg.l1_output_kib = 1;
        assert!(simulate(&g, &cfg, &SimOptions::default()).is_err());
    }

    #[test]
    fn bert_softmax_share_grows_with_sequence_length() {
        let share = |seq: u64| {
            let p = sim_tpu(Workload::Bert { seq_len: seq }, 8);
            let rows =
                p.time_by(|n| format!("{:?}", fast_models::BertComponent::of_node_name(&n.name)));
            let total: f64 = rows.iter().map(|r| r.1).sum();
            let softmax = rows.iter().find(|r| r.0.contains("Softmax")).map(|r| r.1).unwrap_or(0.0);
            softmax / total
        };
        let s128 = share(128);
        let s1024 = share(1024);
        assert!(s1024 > s128, "softmax share should grow: {s128} -> {s1024}");
    }

    #[test]
    fn prefusion_dram_includes_weights() {
        let p = sim_tpu(Workload::ResNet50, 1);
        let g = Workload::ResNet50.build(1).unwrap();
        assert!(p.prefusion_dram_bytes > g.total_weight_bytes());
    }
}
