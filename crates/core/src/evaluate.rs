//! Trial evaluation: the three-phase pipeline of Figure 1, staged and
//! memoized per stage.
//!
//! For a candidate design the evaluator (1) validates the datapath and its
//! area/TDP against the budget (Eq. 4), (2) schedules every op of every
//! workload through the Timeloop-style mapper (rejecting on schedule
//! failures, Eq. 5), (3) runs the FAST-fusion ILP, and finally scores the
//! objective. The paper's own decomposition — map each op, assemble
//! workload perf, solve the Figure-8 fusion ILP — is mirrored by three
//! caches:
//!
//! * **Stage A (op tier)** — the shared [`fast_sim::MapperCache`], keyed by
//!   [`fast_sim::OpKey`] (canonical loop nest + exactly the config/option
//!   fields the mapper reads). Identical shapes across workloads, batches
//!   and neighboring search points map once; GM/clock/DRAM/L2/fusion sweeps
//!   re-map nothing.
//! * **Stage B (sim tier)** — per-workload perf assembly, memoized in
//!   memory per `(workload, datapath, schedule)` as summary scalars, the
//!   Stage-C fingerprint and per region its compute seconds and spill
//!   bytes — no region records and no per-node detail. Schedule failures
//!   live here too.
//! * **Stage C (fuse tier)** — the three numbers scoring reads
//!   ([`FusionTotals`]), keyed by a [`fast_fusion::StatsFingerprint`] of
//!   the region records + the Global-Memory capacity + the
//!   [`FusionOptions`]. A miss solves the records its sim miss priced, or
//!   records rebuilt from the graph's plan. Sweeping fusion options or
//!   objectives re-solves at most the ILP, never the mapper.
//!
//! The op and fuse tiers persist to disk ([`Evaluator::save_eval_cache`]);
//! the sim tier is cheap to rebuild from a warm op tier and stays in
//! memory. Workload graphs are cached by `(workload, batch)` since the
//! model zoo is immutable across trials.

use crate::search_space::FastSpace;
use fast_arch::{cost, Budget, DatapathConfig};
use fast_fusion::{
    fuse_workload, FusionOptions, FusionResult, FusionTotals, Placement, StatsFingerprint,
    StructureKey, WarmStartTier,
};
use fast_ir::{Graph, SimPlan};
use fast_models::Workload;
use fast_sim::{
    simulate_regions, simulate_staged, MapFailure, MapperCache, Mapping, OpKey, RegionPerf,
    RegionsPerf, SimError, SimOptions, Tier, WorkloadPerf,
};
use serde::bin::{self, Decode, Encode, Reader, Writer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The optimization objective `f` (§5.2). Higher is better in all cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Inference throughput (queries/second), geomean across workloads.
    Qps,
    /// Throughput per watt of TDP — the paper's headline Perf/TDP metric
    /// (the Perf/TCO proxy).
    #[default]
    PerfPerTdp,
}

/// Why a trial was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The datapath violates a Table-3 range.
    InvalidConfig(String),
    /// Area or TDP exceeds the budget (Eq. 4).
    OverBudget {
        /// Normalized area (1.0 = at budget).
        area: f64,
        /// Normalized TDP (1.0 = at budget).
        tdp: f64,
    },
    /// A workload could not be scheduled (Eq. 5). Carries the structured
    /// [`SimError`] — callers can match on [`SimError::cause`] to react to
    /// the failure kind; `Display` remains the historical
    /// `schedule failure: …` line.
    ScheduleFailure(SimError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidConfig(e) => write!(f, "invalid config: {e}"),
            EvalError::OverBudget { area, tdp } => {
                write!(f, "over budget: area {area:.2}, tdp {tdp:.2}")
            }
            EvalError::ScheduleFailure(e) => write!(f, "schedule failure: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Per-workload outcome of one design evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadEval {
    /// The workload.
    pub workload: Workload,
    /// Post-fusion step time (seconds) for one core's batch.
    pub step_seconds: f64,
    /// Chip throughput in queries/second.
    pub qps: f64,
    /// Compute utilization at the post-fusion step time.
    pub utilization: f64,
    /// Pre-fusion memory-stall fraction.
    pub prefusion_stall: f64,
    /// Post-fusion memory-stall fraction.
    pub postfusion_stall: f64,
    /// Pre-fusion operational intensity (FLOPs/DRAM byte).
    pub op_intensity_pre: f64,
    /// Post-fusion operational intensity.
    pub op_intensity_post: f64,
    /// Bytes of weights pinned by FAST fusion.
    pub pinned_weight_bytes: u64,
}

/// Complete evaluation of one design point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignEval {
    /// The evaluated datapath.
    pub config: DatapathConfig,
    /// Scheduling options used.
    pub sim: SimOptions,
    /// Per-workload results.
    pub workloads: Vec<WorkloadEval>,
    /// Power-virus TDP (watts).
    pub tdp_w: f64,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Geomean QPS across workloads.
    pub geomean_qps: f64,
    /// Objective value under the evaluator's objective.
    pub objective_value: f64,
}

/// The fully canonicalized, hashable form of a [`DatapathConfig`]: every
/// field, floats as `to_bits`.
type ConfigKey = (
    (u64, u64, u64, u64, u64),
    (fast_arch::BufferSharing, u64, u64, u64),
    (fast_arch::L2Config, u64, u64, u64),
    (u64, u64, fast_arch::MemoryTech, u64),
    (u64, u64),
);

/// Canonical identity of one Stage-B assembly: `(workload, datapath,
/// schedule)` — the inputs of [`fast_sim::simulate_staged`]. Fusion options
/// are deliberately absent (they belong to [`FuseKey`]); budgets and
/// objectives enter scoring only after the cached stages.
#[derive(Debug, Clone)]
struct SimTierKey {
    workload: Workload,
    config: DatapathConfig,
    sim: SimOptions,
}

impl SimTierKey {
    /// The single source of truth for Stage-B key identity: every
    /// [`DatapathConfig`] field, floats canonicalized through `to_bits`.
    /// The exhaustive destructuring (no `..`) makes adding a config field a
    /// compile error here, so the cache key can never silently ignore one;
    /// a new float field must be converted with `to_bits` to satisfy
    /// [`ConfigKey`]'s `Eq`/`Hash`. ([`DatapathConfig`] is float-bearing
    /// (`clock_ghz`), so it cannot derive `Eq`/`Hash`; configs only reach
    /// the cache after `validate()` accepts them, which excludes NaN
    /// clocks, so bitwise equality is exact equality here.)
    fn canonical(&self) -> (Workload, SimOptions, ConfigKey) {
        let DatapathConfig {
            pes_x,
            pes_y,
            sa_x,
            sa_y,
            vector_multiplier,
            l1_config,
            l1_input_kib,
            l1_weight_kib,
            l1_output_kib,
            l2_config,
            l2_input_mult,
            l2_weight_mult,
            l2_output_mult,
            global_memory_mib,
            dram_channels,
            memory,
            native_batch,
            clock_ghz,
            cores,
        } = self.config;
        (
            self.workload,
            self.sim,
            (
                (pes_x, pes_y, sa_x, sa_y, vector_multiplier),
                (l1_config, l1_input_kib, l1_weight_kib, l1_output_kib),
                (l2_config, l2_input_mult, l2_weight_mult, l2_output_mult),
                (global_memory_mib, dram_channels, memory, native_batch),
                (clock_ghz.to_bits(), cores),
            ),
        )
    }
}

impl PartialEq for SimTierKey {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for SimTierKey {}

impl Hash for SimTierKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical().hash(state);
    }
}

/// Stage C cache identity: fingerprinted fusion inputs + the Global-Memory
/// capacity + the fusion options. Everything else about the datapath is
/// invisible to the fusion pass, so datapaths with identical region stats
/// and GM share one ILP solve.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FuseKey {
    stats: StatsFingerprint,
    gm_bytes: u64,
    fusion: FusionOptions,
}

impl Encode for FuseKey {
    fn encode(&self, w: &mut Writer) {
        let FuseKey { stats, gm_bytes, fusion } = self;
        stats.encode(w);
        gm_bytes.encode(w);
        fusion.encode(w);
    }
}

impl Decode for FuseKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(FuseKey {
            stats: Decode::decode(r)?,
            gm_bytes: Decode::decode(r)?,
            fusion: Decode::decode(r)?,
        })
    }
}

/// The slim Stage-B product the sim tier keeps: the summary scalars the
/// final [`WorkloadEval`] assembly reads, the Stage-C fingerprint, and per
/// region the two values that the graph's plan and the config do not
/// determine — its compute seconds and its spill bytes. No region record
/// is kept (a fuse-tier miss rebuilds them, [`SimStats::regions`]) and no
/// per-node detail (use [`Evaluator::simulate_workload`] for that).
#[derive(Debug)]
struct SimStats {
    compute_seconds: f64,
    prefusion_seconds: f64,
    batch_per_core: u64,
    cores: u64,
    matrix_flops: u64,
    peak_flops_per_core: f64,
    total_flops: u64,
    prefusion_dram_bytes: u64,
    /// Stage-C fingerprint of the region records and `compute_seconds`.
    fingerprint: StatsFingerprint,
    /// Per region in execution order: compute seconds and spill bytes.
    residues: Box<[(f64, u64)]>,
}

impl SimStats {
    fn of(perf: &RegionsPerf) -> SimStats {
        SimStats {
            compute_seconds: perf.compute_seconds,
            prefusion_seconds: perf.prefusion_seconds,
            batch_per_core: perf.batch_per_core,
            cores: perf.cores,
            matrix_flops: perf.matrix_flops,
            peak_flops_per_core: perf.peak_flops_per_core,
            total_flops: perf.total_flops,
            prefusion_dram_bytes: perf.prefusion_dram_bytes,
            fingerprint: fast_fusion::stats_fingerprint(&perf.regions, perf.compute_seconds),
            residues: perf.regions.iter().map(|r| (r.compute_seconds, r.spill_bytes)).collect(),
        }
    }

    /// The region records these stats were priced from, rebuilt from the
    /// graph's `plan` on `cfg` through [`RegionPerf::priced`], the builder
    /// Stage B itself uses — so they equal the priced records bit for bit.
    /// `cfg` must be the config of the sim-tier key, which holds all of it.
    fn regions(&self, plan: &SimPlan, cfg: &DatapathConfig) -> Vec<RegionPerf> {
        let bw = cfg.dram_bytes_per_sec_per_core();
        let gm = cfg.global_memory_bytes();
        plan.regions
            .iter()
            .zip(&self.residues)
            .map(|(r, &(compute_seconds, spill_bytes))| {
                RegionPerf::priced(r, bw, gm, compute_seconds, spill_bytes)
            })
            .collect()
    }
}

/// The region records a sim-tier miss priced, with their graph, handed on
/// to the fuse tier so a miss there does not rebuild them.
type Priced = (Arc<Graph>, Vec<RegionPerf>);

pub use fast_fusion::SolverStats;
pub use fast_sim::CacheStats;

/// Per-stage hit/miss counters of the staged evaluation pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedCacheStats {
    /// Stage A: per-op mapper lookups (shared [`fast_sim::MapperCache`]).
    pub op: CacheStats,
    /// Stage B: per-workload perf assemblies (in-memory sim tier).
    pub sim: CacheStats,
    /// Stage C: fusion solves (fuse tier).
    pub fuse: CacheStats,
    /// Stage C detail: exact-solver work and cross-point warm-start reuse
    /// (all zero on the default heuristic-only fusion path, where the
    /// branch-and-bound never runs).
    pub solver: SolverStats,
}

impl StagedCacheStats {
    /// Per-stage delta `self - before` (both from one evaluator, `before`
    /// sampled earlier).
    #[must_use]
    pub fn since(&self, before: &StagedCacheStats) -> StagedCacheStats {
        let delta = |a: CacheStats, b: CacheStats| CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
        };
        StagedCacheStats {
            op: delta(self.op, before.op),
            sim: delta(self.sim, before.sim),
            fuse: delta(self.fuse, before.fuse),
            solver: self.solver.since(&before.solver),
        }
    }
}

impl Encode for StagedCacheStats {
    fn encode(&self, w: &mut Writer) {
        let StagedCacheStats { op, sim, fuse, solver } = *self;
        op.encode(w);
        sim.encode(w);
        fuse.encode(w);
        solver.encode(w);
    }
}

impl Decode for StagedCacheStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(StagedCacheStats {
            op: Decode::decode(r)?,
            sim: Decode::decode(r)?,
            fuse: Decode::decode(r)?,
            solver: Decode::decode(r)?,
        })
    }
}

// Worker threads score trials through a shared `&Evaluator`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Evaluator>();
    assert_send_sync::<DesignEval>();
    assert_send_sync::<EvalError>();
};

/// The immutable workload-graph cache, keyed by `(workload, batch)`.
type GraphCache = Mutex<HashMap<(Workload, u64), Arc<fast_ir::Graph>>>;

/// Evaluates design points for a fixed workload set, objective and budget.
///
/// Clone-cheap: the graph cache and all three pipeline tiers are shared
/// behind `Arc`s, so clones handed to worker threads by the parallel driver
/// all feed one set of memoization tables.
///
/// ```
/// use fast_core::{CacheStats, Evaluator, Objective};
/// use fast_arch::{presets, Budget};
/// use fast_fusion::FusionOptions;
/// use fast_models::Workload;
/// use fast_sim::SimOptions;
///
/// let e = Evaluator::new(vec![Workload::ResNet50], Objective::Qps, Budget::paper_default());
/// let first = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
///
/// // A repeat evaluation hits every stage: no mapping, no assembly, no
/// // fusion solve.
/// let again = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
/// assert_eq!(again.objective_value.to_bits(), first.objective_value.to_bits());
/// assert_eq!(e.staged_cache_stats().fuse, CacheStats { hits: 1, misses: 1 });
///
/// // Sweeping fusion options re-solves Stage C only — the op tier
/// // (mapper) is untouched, so the sweep never re-maps an op.
/// let op_before = e.staged_cache_stats().op;
/// let strict = e.clone().with_fusion(FusionOptions::strict_adjacency());
/// let _ = strict.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
/// assert_eq!(e.staged_cache_stats().op, op_before);
/// assert_eq!(e.staged_cache_stats().fuse.misses, 2);
/// ```
#[derive(Clone)]
pub struct Evaluator {
    workloads: Vec<Workload>,
    objective: Objective,
    budget: Budget,
    fusion: FusionOptions,
    graphs: Arc<GraphCache>,
    mapper: Arc<MapperCache>,
    sims: Arc<Tier<SimTierKey, Result<Arc<SimStats>, SimError>>>,
    fuses: Arc<Tier<FuseKey, FusionTotals>>,
    /// Cross-point warm-start incumbents for the exact fusion solver.
    /// Strictly a performance hint — fusion answers are bit-identical with
    /// or without it — shared across clones like the tiers above.
    warm: Arc<WarmStartTier>,
    /// `false` routes [`Evaluator::evaluate`] through the uncached
    /// monolithic simulate→fuse reference path.
    staged: bool,
}

impl Evaluator {
    /// Creates an evaluator.
    #[must_use]
    pub fn new(workloads: Vec<Workload>, objective: Objective, budget: Budget) -> Self {
        Evaluator {
            workloads,
            objective,
            budget,
            fusion: FusionOptions::heuristic_only(),
            graphs: Arc::new(Mutex::new(HashMap::new())),
            mapper: Arc::new(MapperCache::new()),
            sims: Arc::new(Tier::default()),
            fuses: Arc::new(Tier::default()),
            warm: Arc::new(WarmStartTier::new()),
            staged: true,
        }
    }

    /// Uses a custom fusion configuration (e.g. the exact ILP path for
    /// one-off reports). Safe to combine with a shared cache: fusion options
    /// are part of the fuse-tier key, and sweeping them re-solves at most
    /// the fusion stage — the op and sim tiers are shared untouched.
    ///
    /// **Determinism caveat:** the exact-ILP path (`exact_binary_limit > 0`)
    /// is bounded by a wall-clock `time_limit`, so its incumbent can depend
    /// on machine load. The default [`FusionOptions::heuristic_only`]
    /// pipeline is a pure function of its inputs; prefer it (or an
    /// effectively unlimited `time_limit` with a `max_nodes` bound, which is
    /// deterministic) whenever reproducibility across runs matters — e.g.
    /// under `Execution::Parallel`, whose sequential-equivalence guarantee
    /// assumes a deterministic evaluation pipeline. Within one run the
    /// cache is always self-consistent (first compute wins).
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionOptions) -> Self {
        self.fusion = fusion;
        self
    }

    /// Disables the staged pipeline: every evaluation runs the raw,
    /// uncached simulate→fuse path. This is the reference implementation
    /// the staged pipeline is property-tested against (bit-identical
    /// results), and is only useful for such equivalence checks and
    /// cache-free timing baselines.
    #[must_use]
    pub fn monolithic(mut self) -> Self {
        self.staged = false;
        self
    }

    /// A clone re-targeted at a different scenario — workload set, objective
    /// and budget — while *sharing* this evaluator's caches.
    ///
    /// This is the scenario-sweep engine's re-scoring path: budgets and
    /// objectives only enter scoring *after* the cached stages — so
    /// re-scoring a design under a second objective or a tighter budget is
    /// a fuse-tier hit, never a re-simulation, and a domain whose workloads
    /// were simulated under another domain reuses those simulations
    /// wholesale.
    #[must_use]
    pub fn for_scenario(
        &self,
        workloads: Vec<Workload>,
        objective: Objective,
        budget: Budget,
    ) -> Self {
        let mut e = self.clone();
        e.workloads = workloads;
        e.objective = objective;
        e.budget = budget;
        e
    }

    /// A clone sharing the (immutable) workload-graph cache but starting
    /// from empty pipeline tiers — for benchmarks and tests that must
    /// measure or observe uncached evaluation.
    #[must_use]
    pub fn fresh_eval_cache(&self) -> Self {
        let mut e = self.clone();
        e.mapper = Arc::new(MapperCache::new());
        e.sims = Arc::new(Tier::default());
        e.fuses = Arc::new(Tier::default());
        e.warm = Arc::new(WarmStartTier::new());
        e
    }

    /// Per-stage hit/miss totals since these tiers were created: op tier
    /// (Stage A), sim tier (Stage B), fuse tier (Stage C), plus the exact
    /// solver's counters. `fuse` counts one lookup per *successful*
    /// per-workload evaluation, so it is the evaluation-level reuse signal
    /// (schedule failures stop at the sim tier).
    #[must_use]
    pub fn staged_cache_stats(&self) -> StagedCacheStats {
        StagedCacheStats {
            op: self.mapper.stats(),
            sim: self.sims.stats(),
            fuse: self.fuses.stats(),
            solver: self.warm.stats(),
        }
    }

    /// The workload set.
    #[must_use]
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The budget in force.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The objective in force.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    fn graph(&self, w: Workload, batch: u64) -> Arc<fast_ir::Graph> {
        let mut cache = self.graphs.lock().expect("graph cache poisoned");
        cache
            .entry((w, batch))
            .or_insert_with(|| Arc::new(w.build(batch).expect("in-tree workloads always build")))
            .clone()
    }

    /// Simulates one workload on a config (pre-fusion detail), without budget
    /// checks — used by report/breakdown code as well as equivalence tests.
    /// Op scheduling is answered from the shared Stage-A mapper cache; the
    /// full per-node [`WorkloadPerf`] is recomputed per call (the sim tier
    /// stores only summary scalars and two values per region).
    ///
    /// # Errors
    /// Propagates schedule failures.
    pub fn simulate_workload(
        &self,
        w: Workload,
        cfg: &DatapathConfig,
        sim: &SimOptions,
    ) -> Result<WorkloadPerf, EvalError> {
        let graph = self.graph(w, cfg.native_batch);
        simulate_staged(&graph, cfg, sim, &self.mapper).map_err(EvalError::ScheduleFailure)
    }

    /// Runs fusion for a simulated workload (uncached).
    #[must_use]
    pub fn fuse(&self, perf: &WorkloadPerf, cfg: &DatapathConfig) -> FusionResult {
        fuse_workload(perf, cfg, &self.fusion)
    }

    /// The uncached, monolithic simulate→fuse→summarize pipeline for one
    /// workload — the reference the staged path must reproduce bit for bit.
    fn compute_workload_eval(
        &self,
        w: Workload,
        cfg: &DatapathConfig,
        sim: &SimOptions,
    ) -> Result<WorkloadEval, EvalError> {
        let graph = self.graph(w, cfg.native_batch);
        let perf = fast_sim::simulate(&graph, cfg, sim).map_err(EvalError::ScheduleFailure)?;
        let fused = self.fuse(&perf, cfg);
        let step = fused.total_seconds;
        let qps = (perf.batch_per_core * perf.cores) as f64 / step;
        Ok(WorkloadEval {
            workload: w,
            step_seconds: step,
            qps,
            utilization: perf.utilization_at(step),
            prefusion_stall: perf.prefusion_memory_stall_fraction(),
            postfusion_stall: (1.0 - perf.compute_seconds / step).max(0.0),
            op_intensity_pre: perf.prefusion_op_intensity(),
            op_intensity_post: fused.op_intensity(perf.total_flops),
            pinned_weight_bytes: fused.pinned_weight_bytes,
        })
    }

    /// Stage A+B: the memoized per-workload assembly. Answers from the sim
    /// tier when the exact `(workload, datapath, schedule)` combination has
    /// been assembled before — by any clone, on any thread — and otherwise
    /// simulates through the shared op-tier mapper cache and records the
    /// outcome (schedule failures included; they are deterministic too).
    /// A miss also returns the region records it priced, which the sim
    /// tier does not keep.
    fn sim_stats(
        &self,
        w: Workload,
        cfg: &DatapathConfig,
        sim: &SimOptions,
    ) -> Result<(Arc<SimStats>, Option<Priced>), SimError> {
        let key = SimTierKey { workload: w, config: *cfg, sim: *sim };
        let mut priced = None;
        let stats = self.sims.get_or_compute(key, || {
            let graph = self.graph(w, cfg.native_batch);
            let perf = simulate_regions(&graph, cfg, sim, &self.mapper)?;
            let stats = Arc::new(SimStats::of(&perf));
            priced = Some((graph, perf.regions));
            Ok(stats)
        })?;
        Ok((stats, priced))
    }

    /// Stage C: the memoized fusion solve for one assembled workload. A
    /// fuse miss solves the region records `priced` on the sim miss, or,
    /// after a sim hit (only a change of fusion options leads there),
    /// records rebuilt from the graph's plan without consulting the op
    /// tier. Misses solve through the cross-point warm-start tier, which
    /// seeds the exact solver with a neighboring point's incumbent —
    /// results stay bit-identical (see [`fast_fusion::fuse_regions_warm`]);
    /// only node counts shrink.
    fn fused_totals(
        &self,
        w: Workload,
        stats: &SimStats,
        priced: Option<Priced>,
        cfg: &DatapathConfig,
    ) -> FusionTotals {
        let gm_bytes = cfg.global_memory_bytes();
        let key = FuseKey { stats: stats.fingerprint, gm_bytes, fusion: self.fusion.clone() };
        self.fuses.get_or_compute(key, || {
            let (graph, regions) = priced.unwrap_or_else(|| {
                let graph = self.graph(w, cfg.native_batch);
                let regions = stats.regions(graph.sim_plan(), cfg);
                (graph, regions)
            });
            fast_fusion::fuse_regions_totals(
                &regions,
                stats.compute_seconds,
                gm_bytes,
                &self.fusion,
                graph.name(),
                Some(&self.warm),
            )
        })
    }

    /// The staged per-workload evaluation: Stage A+B then Stage C, then the
    /// summary assembly (pure arithmetic over the two cached products).
    fn workload_eval(
        &self,
        w: Workload,
        cfg: &DatapathConfig,
        sim: &SimOptions,
    ) -> Result<WorkloadEval, EvalError> {
        if !self.staged {
            return self.compute_workload_eval(w, cfg, sim);
        }
        let (stats, priced) = self.sim_stats(w, cfg, sim).map_err(EvalError::ScheduleFailure)?;
        let fused = self.fused_totals(w, &stats, priced, cfg);
        let step = fused.total_seconds;
        let qps = (stats.batch_per_core * stats.cores) as f64 / step;
        Ok(WorkloadEval {
            workload: w,
            step_seconds: step,
            qps,
            utilization: stats.matrix_flops as f64 / (step * stats.peak_flops_per_core),
            prefusion_stall: (1.0 - stats.compute_seconds / stats.prefusion_seconds).max(0.0),
            postfusion_stall: (1.0 - stats.compute_seconds / step).max(0.0),
            op_intensity_pre: stats.total_flops as f64 / stats.prefusion_dram_bytes as f64,
            op_intensity_post: if fused.dram_bytes == 0 {
                f64::INFINITY
            } else {
                stats.total_flops as f64 / fused.dram_bytes as f64
            },
            pinned_weight_bytes: fused.pinned_weight_bytes,
        })
    }

    /// Full Figure-1 evaluation of one design point.
    ///
    /// # Errors
    /// Returns [`EvalError`] when the design is invalid, over budget, or
    /// unschedulable — the search loop maps these to safe-search rejections.
    pub fn evaluate(
        &self,
        cfg: &DatapathConfig,
        sim: &SimOptions,
    ) -> Result<DesignEval, EvalError> {
        cfg.validate().map_err(|e| EvalError::InvalidConfig(e.to_string()))?;
        let area = cost::area(cfg).total_mm2;
        let tdp = cost::tdp(cfg).total_w;
        if !self.budget.admits(cfg) {
            return Err(EvalError::OverBudget {
                area: self.budget.normalized_area(cfg),
                tdp: self.budget.normalized_tdp(cfg),
            });
        }

        let mut workloads = Vec::with_capacity(self.workloads.len());
        let mut log_qps_sum = 0.0;
        for &w in &self.workloads {
            let we = self.workload_eval(w, cfg, sim)?;
            log_qps_sum += we.qps.ln();
            workloads.push(we);
        }
        let geomean_qps = (log_qps_sum / self.workloads.len() as f64).exp();
        let objective_value = match self.objective {
            Objective::Qps => geomean_qps,
            Objective::PerfPerTdp => geomean_qps / tdp,
        };
        Ok(DesignEval {
            config: *cfg,
            sim: *sim,
            workloads,
            tdp_w: tdp,
            area_mm2: area,
            geomean_qps,
            objective_value,
        })
    }

    /// Evaluates an encoded search-space point.
    ///
    /// # Errors
    /// See [`Evaluator::evaluate`].
    pub fn evaluate_point(
        &self,
        space: &FastSpace,
        point: &[usize],
    ) -> Result<DesignEval, EvalError> {
        let (cfg, sim) = space.decode(point);
        self.evaluate(&cfg, &sim)
    }

    /// Number of per-op mapper results currently memoized (Stage A).
    #[must_use]
    pub fn op_cache_len(&self) -> usize {
        self.mapper.len()
    }

    /// Number of per-workload assemblies currently memoized (Stage B).
    #[must_use]
    pub fn sim_cache_len(&self) -> usize {
        self.sims.len()
    }

    /// Number of fusion solves currently memoized (Stage C).
    #[must_use]
    pub fn fuse_cache_len(&self) -> usize {
        self.fuses.len()
    }

    /// The op-tier snapshot file that rides along with a fuse-tier snapshot
    /// at `path` (`eval_cache.bin` → `eval_cache.op.bin`).
    #[must_use]
    pub fn op_tier_path(path: &Path) -> PathBuf {
        path.with_extension("op.bin")
    }

    /// The warm-start-tier snapshot file that rides along with a fuse-tier
    /// snapshot at `path` (`eval_cache.bin` → `eval_cache.warm.bin`). Only
    /// written when the tier is non-empty — the default heuristic-only
    /// fusion path never populates it, so most studies produce no warm
    /// file. The snapshot is a pure solver hint: loading (or losing) it
    /// changes node counts, never results, which is why the shard-merge
    /// pipeline ignores warm files entirely.
    #[must_use]
    pub fn warm_tier_path(path: &Path) -> PathBuf {
        path.with_extension("warm.bin")
    }

    /// Writes the persistent cache tiers as versioned, checksummed
    /// snapshots — the fuse tier at `path`, the (much larger) op tier at
    /// [`Evaluator::op_tier_path`] — and returns the entry counts written
    /// as `(op, fuse)`.
    ///
    /// Each write is atomic (temp file + rename), so a process killed
    /// mid-save leaves either the previous snapshot or a temp file the
    /// loader never looks at — never a torn snapshot. Each file is one
    /// canonical segment: entries sorted by encoded key, so equal caches
    /// produce byte-identical files. The sim tier is not persisted: it
    /// rebuilds from a warm op tier at assembly speed, without re-running
    /// the mapper.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_eval_cache(&self, path: &Path) -> std::io::Result<(usize, usize)> {
        let op =
            write_tier(&Self::op_tier_path(path), OP_MAGIC, OP_VERSION, &self.mapper.export())?;
        let fuse = write_tier(path, FUSE_MAGIC, FUSE_VERSION, &self.fuses.export())?;
        // The warm tier rides along only when the exact solver actually ran
        // (see `warm_tier_path`); its entry count is deliberately not part
        // of the return contract.
        if !self.warm.is_empty() {
            write_tier(&Self::warm_tier_path(path), WARM_MAGIC, WARM_VERSION, &self.warm.export())?;
        }
        Ok((op, fuse))
    }

    /// Attaches an append-only checkpoint at `path` — what a checkpointed
    /// driver ([`crate::FastStudy`], [`crate::SweepRunner`]) does before
    /// its first round. Turns on the persistent tiers' new-entry logs, so
    /// [`Evaluator::save_eval_cache_if_new`] can append exactly what was
    /// computed since. With `resume`, loads the files like
    /// [`Evaluator::load_eval_cache`], rewrites a file whose torn tail the
    /// loader dropped as one canonical segment of its whole segments, and
    /// removes a file the loader rejected, so appends never land after
    /// damage. Without `resume`, the session starts a fresh checkpoint:
    /// existing tier files are removed.
    ///
    /// Entries already in memory when the log turns on are not appended:
    /// a checkpoint holds what its sessions loaded or computed.
    pub(crate) fn attach_eval_cache(&self, path: &Path, resume: bool) -> CacheLoadReport {
        self.mapper.track_new();
        self.fuses.track_new();
        self.warm.track_new();
        if resume {
            return self.load_tiers(path, true);
        }
        for file in [Self::op_tier_path(path), path.to_path_buf(), Self::warm_tier_path(path)] {
            remove_tier_file(&file);
        }
        CacheLoadReport::default()
    }

    /// Appends, per persistent tier, one sorted segment holding the entries
    /// first computed since the previous call — each entry is written once,
    /// by whichever session saves next, and a tier that computed nothing
    /// writes nothing. Needs [`Evaluator::attach_eval_cache`] first (until
    /// then the logs are off and nothing is appended). A failed append
    /// warns and is cut back off the file; its entries are then missing
    /// from the checkpoint and a resume recomputes them.
    pub(crate) fn save_eval_cache_if_new(&self, path: &Path) {
        append_tier(&Self::op_tier_path(path), OP_MAGIC, OP_VERSION, &self.mapper.take_new());
        append_tier(path, FUSE_MAGIC, FUSE_VERSION, &self.fuses.take_new());
        append_tier(&Self::warm_tier_path(path), WARM_MAGIC, WARM_VERSION, &self.warm.take_new());
    }

    /// Seals the checkpoint at `path` once its session finished: rewrites
    /// each multi-segment tier file atomically as one canonical segment —
    /// byte-identical to what [`Evaluator::save_eval_cache`] writes for the
    /// same entries, so finished checkpoints of equal sweeps `cmp` equal
    /// and merge byte-identically. A file that cannot be read is left as it
    /// is, with a warning.
    pub(crate) fn seal_eval_cache(path: &Path) {
        seal_tier::<OpKey, Result<Mapping, MapFailure>>(
            &Self::op_tier_path(path),
            OP_MAGIC,
            OP_VERSION,
            "op",
        );
        seal_tier::<FuseKey, FusionTotals>(path, FUSE_MAGIC, FUSE_VERSION, "fuse");
        seal_tier::<StructureKey, Vec<Placement>>(
            &Self::warm_tier_path(path),
            WARM_MAGIC,
            WARM_VERSION,
            "warm",
        );
    }

    /// Loads a [`Evaluator::save_eval_cache`] snapshot pair (or a
    /// checkpoint's append-only tier files) from `path` and merges every
    /// tier into this evaluator's (shared) caches.
    ///
    /// **Never fails and never poisons results:** a missing file is simply
    /// a cold tier. A file that ends inside its last segment — a process
    /// killed mid-append — keeps every whole segment before it, with a
    /// warning. Any other damage — a wrong version byte (including
    /// pre-split `eval_cache.bin` files, whose version no longer matches),
    /// endian-swapped or otherwise corrupt bytes — is detected by the
    /// envelope (magic/version/length/checksum) or the decoders and
    /// degrades that tier to cold. Warnings go through the [`crate::warn`]
    /// sink (stderr unless routed). Existing in-memory entries always win
    /// over loaded ones. Loaded entries count as neither hits nor misses
    /// until they answer an evaluation. Files are only read.
    pub fn load_eval_cache(&self, path: &Path) -> CacheLoadReport {
        self.load_tiers(path, false)
    }

    /// [`Evaluator::load_eval_cache`]; with `repair`, also rewrites each
    /// recovered or damaged file (see [`Evaluator::attach_eval_cache`]).
    fn load_tiers(&self, path: &Path, repair: bool) -> CacheLoadReport {
        let mut warnings: Vec<String> = Vec::new();
        let op_entries: Vec<(OpKey, Result<Mapping, MapFailure>)> =
            read_tier(&Self::op_tier_path(path), OP_MAGIC, OP_VERSION, "op", repair, &mut warnings);
        let op_loaded = op_entries.len();
        self.mapper.merge(op_entries);
        let fuse_entries: Vec<(FuseKey, FusionTotals)> =
            read_tier(path, FUSE_MAGIC, FUSE_VERSION, "fuse", repair, &mut warnings);
        let fuse_loaded = fuse_entries.len();
        self.fuses.merge(fuse_entries);
        let warm_entries: Vec<(StructureKey, Vec<Placement>)> = read_tier(
            &Self::warm_tier_path(path),
            WARM_MAGIC,
            WARM_VERSION,
            "warm",
            repair,
            &mut warnings,
        );
        let warm_loaded = warm_entries.len();
        self.warm.merge(warm_entries);
        CacheLoadReport {
            op_loaded,
            fuse_loaded,
            warm_loaded,
            warning: if warnings.is_empty() { None } else { Some(warnings.join("; ")) },
        }
    }
}

/// Magic prefix of fuse-tier snapshot files (`eval_cache.bin`).
pub(crate) const FUSE_MAGIC: [u8; 8] = *b"FASTEVC1";
/// Fuse-tier format version; bump on any layout or key change so old files
/// degrade to a cold cache instead of being misread. Version 1 was the
/// pre-split monolithic `(workload, datapath, schedule, fusion) →
/// WorkloadEval` cache; version 2 keyed entries by a byte-wise FNV-1a
/// [`StatsFingerprint`], whose values the word-wise digests of version 3 no
/// longer produce. Both are rejected with a version warning.
pub(crate) const FUSE_VERSION: u32 = 3;
/// Magic prefix of op-tier snapshot files (`…op.bin`).
pub(crate) const OP_MAGIC: [u8; 8] = *b"FASTOPC1";
/// Op-tier format version.
pub(crate) const OP_VERSION: u32 = 1;
/// Magic prefix of warm-start-tier snapshot files (`…warm.bin`).
pub(crate) const WARM_MAGIC: [u8; 8] = *b"FASTWRM1";
/// Warm-start-tier format version.
pub(crate) const WARM_VERSION: u32 = 1;

// A tier file is a run of one or more segments. Each segment is one
// `serde::bin` envelope whose payload is an entry count followed by that
// many `(key, value)` encodings, sorted by encoded key. A file written in
// one go ([`write_tier`]) is a single segment; a checkpoint appends one
// segment per save ([`append_tier`]) and is sealed back to a single
// segment when its session finishes ([`seal_tier`]). A one-segment file is
// exactly the pre-append format, so no version changed.

/// One canonical segment holding `entries`, sorted by encoded key. Returns
/// the segment's bytes and its entry count.
fn encode_segment<K: Encode, V: Encode>(
    magic: [u8; 8],
    version: u32,
    entries: &[(K, V)],
) -> (Vec<u8>, usize) {
    let mut encoded: Vec<(Vec<u8>, Vec<u8>)> =
        entries.iter().map(|(k, v)| (k.to_bytes(), v.to_bytes())).collect();
    encoded.sort();
    let mut payload = Writer::new();
    payload.put_u64(encoded.len() as u64);
    for (k, v) in &encoded {
        payload.put_bytes(k);
        payload.put_bytes(v);
    }
    (bin::write_envelope(magic, version, &payload.into_bytes()), encoded.len())
}

/// Atomically writes one tier file as a single canonical segment; returns
/// the entry count.
pub(crate) fn write_tier<K: Encode, V: Encode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    entries: &[(K, V)],
) -> std::io::Result<usize> {
    let (file, count) = encode_segment(magic, version, entries);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &file)?;
    std::fs::rename(&tmp, path)?;
    Ok(count)
}

/// Appends `entries` to a tier file as one segment (nothing when empty).
/// A failed write warns and truncates the file back to its old length, so
/// the next append still starts on a segment boundary.
fn append_tier<K: Encode, V: Encode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    entries: &[(K, V)],
) {
    use std::io::Write as _;
    if entries.is_empty() {
        return;
    }
    let (segment, _) = encode_segment(magic, version, entries);
    let appended =
        std::fs::OpenOptions::new().create(true).append(true).open(path).and_then(|mut file| {
            let len = file.metadata()?.len();
            file.write_all(&segment).inspect_err(|_| {
                let _ = file.set_len(len);
            })
        });
    if let Err(e) = appended {
        crate::warn::warning(format_args!(
            "could not append to cache snapshot {}: {e}",
            path.display()
        ));
    }
}

/// Replaces a tier file by one canonical segment of `entries`, or removes
/// it when there are none; failures warn.
fn rewrite_tier<K: Encode, V: Encode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    entries: &[(K, V)],
) {
    if entries.is_empty() {
        remove_tier_file(path);
    } else if let Err(e) = write_tier(path, magic, version, entries) {
        crate::warn::warning(format_args!(
            "could not rewrite cache snapshot {}: {e}",
            path.display()
        ));
    }
}

/// Removes a tier file; a missing one is fine, other failures warn.
fn remove_tier_file(path: &Path) {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            crate::warn::warning(format_args!(
                "could not remove cache snapshot {}: {e}",
                path.display()
            ));
        }
        _ => {}
    }
}

/// Seals one tier file: a file of several segments is rewritten as one; a
/// missing or single-segment file is left alone; an unreadable one is left
/// alone with a warning.
fn seal_tier<K: Encode + Decode, V: Encode + Decode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    tier: &str,
) {
    match read_tier_file::<K, V>(path, magic, version, tier) {
        Err(TierReadError::Missing) | Ok(TierFile { segments: 1, torn: None, .. }) => {}
        Ok(TierFile { entries, torn: None, .. }) => rewrite_tier(path, magic, version, &entries),
        Ok(TierFile { torn: Some(what), .. }) | Err(TierReadError::Damaged(what)) => {
            crate::warn::warning(format_args!("could not seal cache snapshot — {what}"));
        }
    }
}

/// Why a tier snapshot could not be adopted.
#[derive(Debug)]
pub(crate) enum TierReadError {
    /// The snapshot file does not exist — a cold tier, not damage.
    Missing,
    /// The file exists but is unusable; the message names the tier, the
    /// file, and the failing byte region (e.g. the checksum's coverage).
    Damaged(String),
}

/// A tier file read segment by segment.
struct TierFile<K, V> {
    /// The entries of every whole segment, in file order.
    entries: Vec<(K, V)>,
    /// How many whole segments were read.
    segments: usize,
    /// Set when the file ends inside a segment — what a process killed
    /// mid-append leaves — naming the tier, the file and the torn bytes.
    torn: Option<String>,
}

/// Reads a tier file's segments in order. A segment is adopted whole or
/// not at all; damage inside any segment fails the whole file, while a
/// file that ends inside its last segment returns the segments before it
/// and says so in [`TierFile::torn`]. (An empty file is a torn first
/// segment.)
fn read_tier_file<K: Decode, V: Decode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    tier: &str,
) -> Result<TierFile<K, V>, TierReadError> {
    let damaged = |what: String| {
        TierReadError::Damaged(format!("{tier} tier snapshot {}: {what}", path.display()))
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(TierReadError::Missing),
        Err(e) => return Err(damaged(e.to_string())),
    };
    let mut file = TierFile { entries: Vec::new(), segments: 0, torn: None };
    let mut at = 0;
    while at < bytes.len() || file.segments == 0 {
        let rest = &bytes[at..];
        let Some(end) = segment_end(rest, magic, version) else {
            file.torn = Some(format!(
                "{tier} tier snapshot {}: torn final segment at byte {at} ({} bytes)",
                path.display(),
                rest.len()
            ));
            break;
        };
        // Offsets in envelope errors count from the segment's first byte.
        let segment = |what: String| {
            damaged(if at == 0 { what } else { format!("segment at byte {at}: {what}") })
        };
        let payload =
            bin::read_envelope(magic, version, &rest[..end]).map_err(|e| segment(e.to_string()))?;
        decode_segment(payload, &mut file.entries).map_err(segment)?;
        file.segments += 1;
        at += end;
    }
    Ok(file)
}

/// The length of the segment that starts `rest`, or `None` when `rest` is
/// a strict prefix of a segment of this tier (the file ends inside it).
/// Bytes that cannot start such a segment claim all of `rest`, so the
/// envelope check reports why.
fn segment_end(rest: &[u8], magic: [u8; 8], version: u32) -> Option<usize> {
    // Envelope header: magic (8 bytes), version (u32), payload length
    // (u64), checksum (u64), little-endian.
    let mut tag = magic.to_vec();
    tag.extend_from_slice(&version.to_le_bytes());
    let seen = rest.len().min(tag.len());
    if rest[..seen] != tag[..seen] {
        return Some(rest.len());
    }
    if rest.len() < bin::ENVELOPE_HEADER_LEN {
        return None;
    }
    let len = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
    let end = usize::try_from(len).ok()?.checked_add(bin::ENVELOPE_HEADER_LEN)?;
    (end <= rest.len()).then_some(end)
}

/// Decodes one segment's payload onto `out`.
fn decode_segment<K: Decode, V: Decode>(
    payload: &[u8],
    out: &mut Vec<(K, V)>,
) -> Result<(), String> {
    let mut r = Reader::new(payload);
    let count = r.get_u64().map_err(|e| e.to_string())?;
    for _ in 0..count {
        out.push(<(K, V)>::decode(&mut r).map_err(|e| e.to_string())?);
    }
    if !r.is_done() {
        return Err(format!("{} trailing bytes", r.remaining()));
    }
    Ok(())
}

/// Reads one tier file strictly: the caller decides whether damage
/// degrades (the warm-start loader) or aborts (the merge pipeline, where a
/// silently dropped shard would break the merged == single-process
/// bit-identity contract). Any damage fails, a torn final segment
/// included; everything decodes before anything is returned.
pub(crate) fn read_tier_strict<K: Decode, V: Decode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    tier: &str,
) -> Result<Vec<(K, V)>, TierReadError> {
    let file = read_tier_file(path, magic, version, tier)?;
    match file.torn {
        Some(what) => Err(TierReadError::Damaged(what)),
        None => Ok(file.entries),
    }
}

/// [`read_tier_file`] with the warm-start policy: a missing file is
/// silently cold; a torn final segment keeps the whole segments before it;
/// other damage degrades to cold. Both warn, naming the tier file and the
/// failing byte region. With `repair`, a recovered file is rewritten as one
/// canonical segment of what was kept, and a damaged one is removed.
fn read_tier<K: Encode + Decode, V: Encode + Decode>(
    path: &Path,
    magic: [u8; 8],
    version: u32,
    tier: &str,
    repair: bool,
    warnings: &mut Vec<String>,
) -> Vec<(K, V)> {
    let (entries, what) = match read_tier_file(path, magic, version, tier) {
        Ok(TierFile { entries, torn: None, .. }) => return entries,
        Err(TierReadError::Missing) => return Vec::new(),
        Ok(TierFile { entries, torn: Some(what), .. }) => {
            crate::warn::warning(format_args!(
                "evaluation-cache snapshot cut short — {what}; kept the {} entries of the \
                 whole segments before it",
                entries.len()
            ));
            (entries, what)
        }
        Err(TierReadError::Damaged(what)) => {
            crate::warn::warning(format_args!("evaluation-cache snapshot ignored — {what}"));
            (Vec::new(), what)
        }
    };
    warnings.push(what);
    if repair {
        rewrite_tier(path, magic, version, &entries);
    }
    entries
}

/// Outcome of [`Evaluator::load_eval_cache`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Op-tier entries merged (0 when that tier was cold).
    pub op_loaded: usize,
    /// Fuse-tier entries merged (0 when that tier was cold).
    pub fuse_loaded: usize,
    /// Warm-tier incumbents merged (0 when that tier was cold — the usual
    /// case: only exact-fusion studies write warm files).
    pub warm_loaded: usize,
    /// Why a snapshot file was cut short or rejected, if one was (also
    /// logged to stderr); `None` when every tier loaded whole (or was
    /// simply absent).
    pub warning: Option<String>,
}

impl CacheLoadReport {
    /// Total entries merged across all tiers.
    #[must_use]
    pub fn loaded(&self) -> usize {
        self.op_loaded + self.fuse_loaded + self.warm_loaded
    }
}

impl Encode for Objective {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Objective::Qps => 0,
            Objective::PerfPerTdp => 1,
        });
    }
}

impl Decode for Objective {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        match r.get_u8()? {
            0 => Ok(Objective::Qps),
            1 => Ok(Objective::PerfPerTdp),
            t => Err(bin::DecodeError { offset: 0, what: format!("invalid Objective tag {t}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_arch::presets;
    use fast_models::EfficientNet;

    fn evaluator(objective: Objective) -> Evaluator {
        Evaluator::new(
            vec![Workload::EfficientNet(EfficientNet::B0)],
            objective,
            Budget::paper_default(),
        )
    }

    /// The `128×128` arrays / tiny-L1 config no schedule can map.
    fn unschedulable() -> DatapathConfig {
        let mut cfg = presets::fast_large();
        cfg.sa_x = 128;
        cfg.sa_y = 128;
        cfg.pes_x = 2;
        cfg.pes_y = 1;
        cfg
    }

    #[test]
    fn evaluates_presets() {
        let e = evaluator(Objective::PerfPerTdp);
        let eval = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        assert!(eval.geomean_qps > 0.0);
        assert!(eval.objective_value > 0.0);
        assert_eq!(eval.workloads.len(), 1);
        assert!(eval.tdp_w > 50.0);
    }

    #[test]
    fn rejects_over_budget() {
        let e = evaluator(Objective::Qps);
        let mut cfg = presets::fast_large();
        cfg.pes_x = 32;
        cfg.pes_y = 32; // 1M MACs: far over the area budget
        let err = e.evaluate(&cfg, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, EvalError::OverBudget { .. }));
    }

    #[test]
    fn rejects_schedule_failures_with_structured_cause() {
        let e = evaluator(Objective::Qps);
        // 128×128 weight tiles (32 KiB) cannot fit in 8 KiB shared L1.
        let err = e.evaluate(&unschedulable(), &SimOptions::default()).unwrap_err();
        let EvalError::ScheduleFailure(sim_err) = &err else {
            panic!("expected a schedule failure, got {err:?}");
        };
        // The cause is matchable without string inspection…
        assert!(matches!(sim_err.cause, MapFailure::WeightTileDoesNotFit { .. }));
        assert!(!sim_err.op.is_empty());
        // …and Display keeps the historical log line shape.
        assert!(err.to_string().starts_with("schedule failure: op `"));
    }

    #[test]
    fn rejects_invalid_config() {
        let e = evaluator(Objective::Qps);
        let mut cfg = presets::fast_large();
        cfg.pes_x = 3;
        assert!(matches!(
            e.evaluate(&cfg, &SimOptions::default()),
            Err(EvalError::InvalidConfig(_))
        ));
    }

    #[test]
    fn objective_perf_per_tdp_differs_from_qps() {
        let qps = evaluator(Objective::Qps)
            .evaluate(&presets::fast_large(), &SimOptions::default())
            .unwrap();
        let ppt = evaluator(Objective::PerfPerTdp)
            .evaluate(&presets::fast_large(), &SimOptions::default())
            .unwrap();
        assert!(ppt.objective_value < qps.objective_value);
        assert!((ppt.geomean_qps - qps.geomean_qps).abs() < 1e-9);
    }

    #[test]
    fn graph_cache_is_shared_across_clones() {
        let e = evaluator(Objective::Qps);
        let e2 = e.clone();
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let _ = e2.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        assert_eq!(e.graphs.lock().unwrap().len(), 1);
    }

    #[test]
    fn eval_cache_hits_on_repeat_and_across_clones() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        assert_eq!(e.staged_cache_stats().fuse, CacheStats { hits: 0, misses: 1 });
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        assert_eq!(e.staged_cache_stats().fuse, CacheStats { hits: 1, misses: 1 });
        // Clones share the tiers; fresh_eval_cache severs them.
        let _ = e.clone().evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        assert_eq!(e.staged_cache_stats().fuse.hits, 2);
        let fresh = e.fresh_eval_cache();
        let _ = fresh.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        assert_eq!(fresh.staged_cache_stats().fuse, CacheStats { hits: 0, misses: 1 });
        assert_eq!(e.staged_cache_stats().fuse.hits, 2, "fresh clone must not touch the original");
    }

    #[test]
    fn repeat_evaluation_is_a_hit_at_every_stage() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let cold = e.staged_cache_stats();
        assert_eq!(cold.sim, CacheStats { hits: 0, misses: 1 });
        assert_eq!(cold.fuse, CacheStats { hits: 0, misses: 1 });
        assert!(cold.op.misses > 0, "the mapper ran for every unique nest");
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let warm = e.staged_cache_stats();
        assert_eq!(warm.sim, CacheStats { hits: 1, misses: 1 });
        assert_eq!(warm.fuse, CacheStats { hits: 1, misses: 1 });
        assert_eq!(warm.op, cold.op, "a sim-tier hit re-runs no mapper at all");
    }

    #[test]
    fn eval_cache_result_is_bit_identical_to_fresh_run() {
        let e = evaluator(Objective::PerfPerTdp);
        let cfg = presets::fast_large();
        let sim = SimOptions::default();
        let first = e.evaluate(&cfg, &sim).unwrap();
        let cached = e.evaluate(&cfg, &sim).unwrap();
        assert!(e.staged_cache_stats().fuse.hits >= 1);
        assert_eq!(first.objective_value.to_bits(), cached.objective_value.to_bits());
        assert_eq!(
            first.workloads[0].step_seconds.to_bits(),
            cached.workloads[0].step_seconds.to_bits()
        );
        assert_eq!(first.workloads[0].pinned_weight_bytes, cached.workloads[0].pinned_weight_bytes);
    }

    /// Unit-level check of the acceptance criterion: the staged pipeline is
    /// bit-identical to the monolithic reference path, success and failure
    /// alike (`tests/staged_pipeline.rs` drives the full study matrix).
    #[test]
    fn staged_evaluation_is_bit_identical_to_monolithic() {
        let staged = evaluator(Objective::PerfPerTdp);
        let mono = evaluator(Objective::PerfPerTdp).monolithic();
        let sim = SimOptions::default();
        for cfg in [presets::fast_large(), presets::fast_small(), presets::tpu_v3()] {
            let a = staged.evaluate(&cfg, &sim).unwrap();
            let b = mono.evaluate(&cfg, &sim).unwrap();
            assert_eq!(a.objective_value.to_bits(), b.objective_value.to_bits());
            assert_eq!(a.geomean_qps.to_bits(), b.geomean_qps.to_bits());
            for (x, y) in a.workloads.iter().zip(&b.workloads) {
                assert_eq!(x.step_seconds.to_bits(), y.step_seconds.to_bits());
                assert_eq!(x.qps.to_bits(), y.qps.to_bits());
                assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
                assert_eq!(x.prefusion_stall.to_bits(), y.prefusion_stall.to_bits());
                assert_eq!(x.postfusion_stall.to_bits(), y.postfusion_stall.to_bits());
                assert_eq!(x.op_intensity_pre.to_bits(), y.op_intensity_pre.to_bits());
                assert_eq!(x.op_intensity_post.to_bits(), y.op_intensity_post.to_bits());
                assert_eq!(x.pinned_weight_bytes, y.pinned_weight_bytes);
            }
        }
        assert_eq!(
            staged.evaluate(&unschedulable(), &sim).unwrap_err(),
            mono.evaluate(&unschedulable(), &sim).unwrap_err(),
            "failures must match, op name and cause included"
        );
        assert_eq!(
            mono.staged_cache_stats().fuse,
            CacheStats::default(),
            "monolithic touches no cache"
        );
    }

    #[test]
    fn schedule_failures_are_cached_in_the_sim_tier() {
        let e = evaluator(Objective::Qps);
        let cfg = unschedulable();
        let a = e.evaluate(&cfg, &SimOptions::default()).unwrap_err();
        let b = e.evaluate(&cfg, &SimOptions::default()).unwrap_err();
        assert_eq!(a, b);
        let stats = e.staged_cache_stats();
        assert_eq!(stats.sim, CacheStats { hits: 1, misses: 1 });
        assert_eq!(stats.fuse, CacheStats { hits: 0, misses: 0 }, "failures never reach fusion");
    }

    #[test]
    fn eval_cache_distinguishes_fusion_options_without_remapping() {
        let base = evaluator(Objective::Qps);
        let cfg = presets::fast_large();
        let sim = SimOptions::default();
        let with_fusion =
            base.clone().with_fusion(FusionOptions { disabled: true, ..FusionOptions::default() });
        let fused = base.evaluate(&cfg, &sim).unwrap();
        let after_first = base.staged_cache_stats();
        // Shares the tiers but must not share fuse entries: options differ.
        let unfused = with_fusion.evaluate(&cfg, &sim).unwrap();
        assert_eq!(base.staged_cache_stats().fuse, CacheStats { hits: 0, misses: 2 });
        assert!(
            unfused.workloads[0].step_seconds >= fused.workloads[0].step_seconds,
            "disabling fusion cannot speed the workload up"
        );
        // The fusion-options sweep re-ran Stage C only: the assembly was a
        // sim-tier hit and the mapper was not consulted at all.
        let after_second = base.staged_cache_stats();
        assert_eq!(after_second.sim, CacheStats { hits: 1, misses: 1 });
        assert_eq!(after_second.op, after_first.op, "fusion sweeps must never re-map");
    }

    /// Every field of a region record, floats as their bits.
    type RegionBits = (usize, String, Option<u32>, [u64; 15], Option<usize>, bool);

    fn region_bits(r: &RegionPerf) -> RegionBits {
        let RegionPerf {
            region,
            name,
            group,
            compute_seconds,
            flops,
            in_bytes,
            primary_in_bytes,
            out_bytes,
            weight_bytes,
            weight_store_bytes,
            spill_bytes,
            t_min,
            t_max,
            t_in,
            t_fixed,
            t_out,
            t_weight,
            resident_buffer_bytes,
            primary_input,
            row_streamable,
        } = r;
        let words = [
            compute_seconds.to_bits(),
            *flops,
            *in_bytes,
            *primary_in_bytes,
            *out_bytes,
            *weight_bytes,
            *weight_store_bytes,
            *spill_bytes,
            t_min.to_bits(),
            t_max.to_bits(),
            t_in.to_bits(),
            t_fixed.to_bits(),
            t_out.to_bits(),
            t_weight.to_bits(),
            *resident_buffer_bytes,
        ];
        (region.index(), name.to_string(), *group, words, *primary_input, *row_streamable)
    }

    /// The sim tier keeps per region only its compute seconds and spill
    /// bytes. For every zoo workload on each preset, the fingerprint it
    /// stores is the one of `simulate_staged`'s records, and both the
    /// records its miss priced and the ones rebuilt from the kept values
    /// equal `simulate_staged`'s field for field, floats by their bits.
    #[test]
    fn sim_tier_fingerprints_and_rebuilds_the_simulated_regions() {
        let mut zoo = Workload::suite();
        zoo.extend(Workload::serving_suite());
        let e = evaluator(Objective::Qps);
        let sim = SimOptions::default();
        for cfg in [presets::tpu_v3(), presets::fast_large(), presets::fast_small()] {
            for &w in &zoo {
                let perf = e.simulate_workload(w, &cfg, &sim).unwrap();
                let want: Vec<RegionBits> = perf.regions.iter().map(region_bits).collect();
                let (stats, priced) = e.sim_stats(w, &cfg, &sim).unwrap();
                let (graph, priced) = priced.expect("the first ask misses the sim tier");
                assert_eq!(
                    stats.fingerprint,
                    fast_fusion::stats_fingerprint(&perf.regions, perf.compute_seconds),
                    "{w}"
                );
                let rebuilt = stats.regions(graph.sim_plan(), &cfg);
                for regions in [priced, rebuilt] {
                    let got: Vec<RegionBits> = regions.iter().map(region_bits).collect();
                    assert_eq!(got, want, "{w}");
                }
                let (_, again) = e.sim_stats(w, &cfg, &sim).unwrap();
                assert!(again.is_none(), "a sim-tier hit prices nothing");
            }
        }
    }

    #[test]
    fn op_tier_is_shared_across_workloads_and_batches() {
        // B0 and B1 (and different batches of each) share conv shapes: the
        // mapper must see cross-workload hits.
        let e = Evaluator::new(
            vec![
                Workload::EfficientNet(EfficientNet::B0),
                Workload::EfficientNet(EfficientNet::B1),
            ],
            Objective::Qps,
            Budget::paper_default(),
        );
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let stats = e.staged_cache_stats();
        assert!(
            stats.op.hits > 0,
            "B0/B1 share op shapes; expected cross-workload mapper hits, got {stats:?}"
        );
        assert_eq!(e.op_cache_len() as u64, stats.op.misses, "one miss per unique shape");
    }

    #[test]
    fn for_scenario_shares_cache_across_budget_objective_and_domain() {
        use fast_models::EfficientNet;
        let base = evaluator(Objective::Qps);
        let cfg = presets::fast_large();
        let sim = SimOptions::default();
        let _ = base.evaluate(&cfg, &sim).unwrap();
        assert_eq!(base.staged_cache_stats().fuse, CacheStats { hits: 0, misses: 1 });
        // Different objective and a tighter (still admitting) budget: the
        // whole pipeline is a cache hit.
        let tighter = Budget {
            max_area_mm2: Budget::paper_default().max_area_mm2 * 0.9,
            max_tdp_w: Budget::paper_default().max_tdp_w * 0.9,
        };
        let rescore = base.for_scenario(
            vec![Workload::EfficientNet(EfficientNet::B0)],
            Objective::PerfPerTdp,
            tighter,
        );
        let _ = rescore.evaluate(&cfg, &sim).unwrap();
        assert_eq!(base.staged_cache_stats().fuse, CacheStats { hits: 1, misses: 1 });
        // A multi-workload domain containing the simulated workload reuses
        // its simulation and only pays for the new workload.
        let multi = base.for_scenario(
            vec![
                Workload::EfficientNet(EfficientNet::B0),
                Workload::EfficientNet(EfficientNet::B1),
            ],
            Objective::Qps,
            Budget::paper_default(),
        );
        let _ = multi.evaluate(&cfg, &sim).unwrap();
        assert_eq!(base.staged_cache_stats().fuse, CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn eval_cache_distinguishes_objectives_without_resimulating() {
        // Multi-objective re-scoring: same design under QPS and Perf/TDP
        // shares one simulation when the evaluators share a cache.
        let qps_eval = evaluator(Objective::Qps);
        let mut ppt_eval = qps_eval.clone();
        ppt_eval.objective = Objective::PerfPerTdp;
        let cfg = presets::fast_large();
        let a = qps_eval.evaluate(&cfg, &SimOptions::default()).unwrap();
        let b = ppt_eval.evaluate(&cfg, &SimOptions::default()).unwrap();
        assert_eq!(qps_eval.staged_cache_stats().fuse, CacheStats { hits: 1, misses: 1 });
        assert_eq!(a.geomean_qps.to_bits(), b.geomean_qps.to_bits());
        assert!(b.objective_value < a.objective_value);
    }

    /// A per-test scratch path under the target-adjacent temp dir.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fast-evc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn cache_snapshot_round_trips_both_tiers_bit_identically() {
        let e = evaluator(Objective::PerfPerTdp);
        let sim = SimOptions::default();
        let first = e.evaluate(&presets::fast_large(), &sim).unwrap();
        // A cached schedule failure rides along in the op tier.
        let bad = unschedulable();
        let _ = e.evaluate(&bad, &sim).unwrap_err();

        let path = scratch("roundtrip.bin");
        let (op_written, fuse_written) = e.save_eval_cache(&path).unwrap();
        assert_eq!(op_written, e.op_cache_len());
        assert_eq!(fuse_written, 1, "one successful fusion solve");
        assert!(Evaluator::op_tier_path(&path).exists());

        let fresh = e.fresh_eval_cache();
        let report = fresh.load_eval_cache(&path);
        assert_eq!(report.op_loaded, op_written);
        assert_eq!(report.fuse_loaded, 1);
        assert_eq!(report.warning, None);
        assert_eq!(report.loaded(), op_written + 1);
        // Warm: the success re-assembles from the op tier and answers
        // fusion from the fuse tier, bit-identically; the failure replays
        // from the cached op-tier failure without ever running the mapper.
        let warm = fresh.evaluate(&presets::fast_large(), &sim).unwrap();
        let bad_again = fresh.evaluate(&bad, &sim).unwrap_err();
        let stats = fresh.staged_cache_stats();
        assert_eq!(stats.fuse, CacheStats { hits: 1, misses: 0 });
        assert_eq!(stats.op.misses, 0, "a loaded op tier re-maps nothing");
        assert!(stats.op.hits > 0);
        assert_eq!(warm.objective_value.to_bits(), first.objective_value.to_bits());
        assert_eq!(
            warm.workloads[0].step_seconds.to_bits(),
            first.workloads[0].step_seconds.to_bits()
        );
        assert!(matches!(bad_again, EvalError::ScheduleFailure(_)));
    }

    #[test]
    fn warm_tier_snapshot_rides_along_under_exact_fusion() {
        let exact = FusionOptions {
            exact_binary_limit: 10_000,
            max_nodes: 4_000,
            ..FusionOptions::default()
        };
        let e = evaluator(Objective::PerfPerTdp).with_fusion(exact.clone());
        let sim = SimOptions::default();
        let first = e.evaluate(&presets::fast_large(), &sim).unwrap();
        assert!(!e.warm.is_empty(), "the exact solver must populate the warm tier");
        assert_eq!(e.staged_cache_stats().solver.warm_misses, 1, "one cold structure");

        let path = scratch("warm-rides-along.bin");
        e.save_eval_cache(&path).unwrap();
        assert!(Evaluator::warm_tier_path(&path).exists());

        let fresh = e.fresh_eval_cache();
        let report = fresh.load_eval_cache(&path);
        assert_eq!(report.warm_loaded, e.warm.len());
        assert_eq!(report.warning, None);
        // A loaded tier is a pure hint: re-evaluating answers from the fuse
        // tier, and a fresh structure variant solved through the loaded
        // incumbents stays bit-identical to a tier-less solve.
        let again = fresh.evaluate(&presets::fast_large(), &sim).unwrap();
        assert_eq!(again.objective_value.to_bits(), first.objective_value.to_bits());

        // The heuristic-only default path writes no warm file at all.
        let heuristic = evaluator(Objective::PerfPerTdp);
        let _ = heuristic.evaluate(&presets::fast_large(), &sim).unwrap();
        let hpath = scratch("no-warm-file.bin");
        heuristic.save_eval_cache(&hpath).unwrap();
        assert!(!Evaluator::warm_tier_path(&hpath).exists());
    }

    #[test]
    fn cache_snapshot_missing_files_are_silently_cold() {
        let e = evaluator(Objective::Qps);
        let report = e.load_eval_cache(&scratch("never-written.bin"));
        assert_eq!(
            report,
            CacheLoadReport { op_loaded: 0, fuse_loaded: 0, warm_loaded: 0, warning: None }
        );
    }

    #[test]
    fn degrade_to_cold_warnings_route_through_the_warn_sink() {
        // The serving path: a routed sink captures the degradation warning
        // per job, so a client sees *its* study's snapshot damage in its
        // stream instead of the line landing in the daemon's stderr.
        let path = scratch("warn-routed.bin");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let e = evaluator(Objective::Qps);
        let (report, lines) = crate::warn::capture(|| e.load_eval_cache(&path));
        assert!(report.warning.is_some(), "the report still carries the cause");
        assert_eq!(lines.len(), 1, "exactly one warning line: {lines:?}");
        assert!(
            lines[0].starts_with("warning: evaluation-cache snapshot ignored — "),
            "{}",
            lines[0]
        );
        // Outside the capture the sink is uninstalled again; loading the
        // same damaged file must not send anywhere (it prints to stderr).
        let ((), after) = crate::warn::capture(|| ());
        assert!(after.is_empty());
    }

    #[test]
    fn old_format_eval_cache_degrades_to_a_warned_cold_cache() {
        // A version-1 file is what the pre-split monolithic cache wrote;
        // its payload layout is unreadable now, so the version gate must
        // reject it before any decoding is attempted.
        let path = scratch("old-format.bin");
        let old = bin::write_envelope(FUSE_MAGIC, 1, b"pre-split cache payload");
        std::fs::write(&path, &old).unwrap();
        let e = evaluator(Objective::Qps);
        let report = e.load_eval_cache(&path);
        assert_eq!(report.fuse_loaded, 0);
        assert!(report.warning.unwrap().contains("version"), "must name the version skew");
        assert_eq!(e.fuse_cache_len(), 0, "cold means cold");

        // A version-2 file has today's layout but keys from the byte-wise
        // FNV-1a fingerprint. Its payload decodes cleanly, so only the
        // version gate keeps those stale keys out.
        let warm = evaluator(Objective::Qps);
        let _ = warm.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let current = scratch("v3-format.bin");
        warm.save_eval_cache(&current).unwrap();
        let bytes = std::fs::read(&current).unwrap();
        let payload = bin::read_envelope(FUSE_MAGIC, FUSE_VERSION, &bytes).unwrap();
        assert!(
            read_tier_strict::<FuseKey, FusionTotals>(&current, FUSE_MAGIC, FUSE_VERSION, "fuse")
                .is_ok_and(|entries| !entries.is_empty()),
            "the payload carried over to the version-2 file decodes"
        );
        std::fs::write(&path, bin::write_envelope(FUSE_MAGIC, 2, payload)).unwrap();
        let e = evaluator(Objective::Qps);
        let report = e.load_eval_cache(&path);
        assert_eq!(report.fuse_loaded, 0);
        let warning = report.warning.unwrap();
        assert!(warning.contains("format version 2, expected 3"), "{warning}");
        assert_eq!(e.fuse_cache_len(), 0, "cold means cold");
    }

    /// Writes both tier files for corruption tests, returning `(op, fuse)`
    /// paths.
    fn saved_snapshot(e: &Evaluator, name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let path = scratch(name);
        e.save_eval_cache(&path).unwrap();
        (Evaluator::op_tier_path(&path), path)
    }

    #[test]
    fn cache_snapshot_rejects_truncation_at_every_length_in_both_tiers() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let (op_path, fuse_path) = saved_snapshot(&e, "truncate.bin");

        for (tier, source) in [("op", &op_path), ("fuse", &fuse_path)] {
            let bytes = std::fs::read(source).unwrap();
            for cut in
                [0, 1, bin::ENVELOPE_HEADER_LEN - 1, bin::ENVELOPE_HEADER_LEN, bytes.len() - 1]
            {
                let target = scratch("truncated.bin");
                // Rebuild the pair: one tier intact, the other truncated.
                e.save_eval_cache(&target).unwrap();
                let cut_path =
                    if tier == "op" { Evaluator::op_tier_path(&target) } else { target.clone() };
                std::fs::write(&cut_path, &bytes[..cut]).unwrap();
                let fresh = e.fresh_eval_cache();
                let report = fresh.load_eval_cache(&target);
                if tier == "op" {
                    assert_eq!(report.op_loaded, 0, "{tier} cut at {cut}");
                    assert_eq!(fresh.op_cache_len(), 0, "{tier} cut at {cut}: cold means cold");
                } else {
                    assert_eq!(report.fuse_loaded, 0, "{tier} cut at {cut}");
                    assert_eq!(fresh.fuse_cache_len(), 0, "{tier} cut at {cut}: cold means cold");
                }
                assert!(report.warning.is_some(), "{tier} cut at {cut}");
            }
        }
    }

    #[test]
    fn cache_snapshot_rejects_version_skew_per_tier() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        for tier in ["op", "fuse"] {
            let (op_path, fuse_path) = saved_snapshot(&e, &format!("version-{tier}.bin"));
            let skewed = if tier == "op" { &op_path } else { &fuse_path };
            let mut bytes = std::fs::read(skewed).unwrap();
            bytes[8] = bytes[8].wrapping_add(1); // version u32's low byte
            std::fs::write(skewed, &bytes).unwrap();
            let fresh = e.fresh_eval_cache();
            let report = fresh.load_eval_cache(&fuse_path);
            if tier == "op" {
                assert_eq!(report.op_loaded, 0);
                assert!(report.fuse_loaded > 0, "the intact tier still loads");
            } else {
                assert_eq!(report.fuse_loaded, 0);
                assert!(report.op_loaded > 0, "the intact tier still loads");
            }
            assert!(report.warning.unwrap().contains("version"), "must name the version skew");
        }
    }

    #[test]
    fn cache_snapshot_rejects_foreign_endian_garbage() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let (op_path, fuse_path) = saved_snapshot(&e, "endian.bin");

        // Byte-swap both payloads as a big-endian writer would have
        // produced them: the checksums (computed over the little-endian
        // payloads) fail.
        for path in [&op_path, &fuse_path] {
            let mut swapped = std::fs::read(path).unwrap();
            swapped[bin::ENVELOPE_HEADER_LEN..].reverse();
            std::fs::write(path, &swapped).unwrap();
        }
        let fresh = e.fresh_eval_cache();
        let report = fresh.load_eval_cache(&fuse_path);
        assert_eq!(report.loaded(), 0);
        assert!(report.warning.is_some());

        // Arbitrary garbage of plausible size: bad magic, both tiers.
        std::fs::write(&op_path, vec![0xA5u8; 256]).unwrap();
        std::fs::write(&fuse_path, vec![0xA5u8; 256]).unwrap();
        let report = fresh.load_eval_cache(&fuse_path);
        assert_eq!(report.loaded(), 0);
        assert!(report.warning.unwrap().contains("magic"));
        assert_eq!(fresh.op_cache_len(), 0);
        assert_eq!(fresh.fuse_cache_len(), 0);
    }

    #[test]
    fn cache_snapshot_checksum_catches_flipped_payload_bits_in_both_tiers() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        for tier in ["op", "fuse"] {
            let (op_path, fuse_path) = saved_snapshot(&e, &format!("bitflip-{tier}.bin"));
            let flipped = if tier == "op" { &op_path } else { &fuse_path };
            let mut bytes = std::fs::read(flipped).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x10;
            std::fs::write(flipped, &bytes).unwrap();
            let fresh = e.fresh_eval_cache();
            let report = fresh.load_eval_cache(&fuse_path);
            if tier == "op" {
                assert_eq!(report.op_loaded, 0, "flipped op bit must void the op tier");
            } else {
                assert_eq!(report.fuse_loaded, 0, "flipped fuse bit must void the fuse tier");
            }
            assert!(report.warning.unwrap().contains("checksum"));
        }
    }

    /// Pins the shape of the corrupt-snapshot warning: it must name the
    /// tier, the exact file, and the byte region whose checksum failed —
    /// "cold cache" alone is not actionable when the file came out of a
    /// multi-shard merge.
    #[test]
    fn checksum_warning_names_tier_file_and_byte_range() {
        let e = evaluator(Objective::Qps);
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        for tier in ["op", "fuse"] {
            let (op_path, fuse_path) = saved_snapshot(&e, &format!("warnshape-{tier}.bin"));
            let flipped = if tier == "op" { &op_path } else { &fuse_path };
            let mut bytes = std::fs::read(flipped).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            std::fs::write(flipped, &bytes).unwrap();

            let fresh = e.fresh_eval_cache();
            let warning = fresh.load_eval_cache(&fuse_path).warning.unwrap();
            assert!(
                warning.starts_with(&format!("{tier} tier snapshot {}", flipped.display())),
                "warning must lead with the tier and file: {warning}"
            );
            assert!(
                warning.contains(&format!(
                    "checksum mismatch over payload bytes {}..{}",
                    bin::ENVELOPE_HEADER_LEN,
                    bytes.len()
                )),
                "warning must give the failing byte range: {warning}"
            );
            assert!(
                warning.contains("stored 0x") && warning.contains("computed 0x"),
                "warning must show both sums: {warning}"
            );
        }
    }

    #[test]
    fn cache_snapshot_merge_keeps_existing_entries() {
        let e = evaluator(Objective::Qps);
        let sim = SimOptions::default();
        let _ = e.evaluate(&presets::fast_large(), &sim).unwrap();
        let path = scratch("merge.bin");
        e.save_eval_cache(&path).unwrap();

        // An evaluator that already computed the snapshot's keys keeps its
        // own entries and gains nothing new for them.
        let other = e.fresh_eval_cache();
        let _ = other.evaluate(&presets::fast_large(), &sim).unwrap();
        let report = other.load_eval_cache(&path);
        assert_eq!(report.fuse_loaded, 1);
        assert_eq!(other.fuse_cache_len(), 1);
        assert_eq!(other.op_cache_len() as u64, other.staged_cache_stats().op.misses);
    }

    #[test]
    fn fusion_only_rounds_rewrite_only_the_fuse_file() {
        let e = evaluator(Objective::Qps);
        let path = scratch("marks.bin");
        let _ = e.attach_eval_cache(&path, false);

        // Round 1: fresh simulation — both files written.
        let _ = e.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        e.save_eval_cache_if_new(&path);
        let op_path = Evaluator::op_tier_path(&path);
        let op_mtime = |p: &Path| std::fs::metadata(p).unwrap().modified().unwrap();
        assert!(path.exists() && op_path.exists());
        let op_written = std::fs::read(&op_path).unwrap();
        let t0 = op_mtime(&op_path);

        // Round 2: a fusion-only change (same datapath, new options) — the
        // op tier gained nothing, so only the fuse file may change, and it
        // only grows by the new entry's segment.
        let sweep = e
            .clone()
            .with_fusion(FusionOptions { residency_window: 1, ..FusionOptions::default() });
        let _ = sweep.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        let fuse_before = std::fs::read(&path).unwrap();
        sweep.save_eval_cache_if_new(&path);
        assert_eq!(std::fs::read(&op_path).unwrap(), op_written, "op tier must not be rewritten");
        assert_eq!(op_mtime(&op_path), t0, "op tier file untouched by a fusion-only round");
        let fuse_after = std::fs::read(&path).unwrap();
        assert!(fuse_after.len() > fuse_before.len(), "fuse tier gained an entry");
        assert!(fuse_after.starts_with(&fuse_before), "appended, not rewritten");

        // Round 3: nothing new — neither file changes.
        let _ = sweep.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap();
        sweep.save_eval_cache_if_new(&path);
        assert_eq!(std::fs::read(&path).unwrap(), fuse_after);
        assert_eq!(std::fs::read(&op_path).unwrap(), op_written);
    }

    #[test]
    fn sealed_checkpoint_equals_a_full_snapshot_and_torn_tails_keep_whole_segments() {
        let e = evaluator(Objective::Qps);
        let path = scratch("sealed.bin");
        let _ = e.attach_eval_cache(&path, false);
        let mut small = presets::fast_large();
        small.pes_x /= 2;
        for cfg in [presets::fast_large(), small] {
            let _ = e.evaluate(&cfg, &SimOptions::default()).unwrap();
            e.save_eval_cache_if_new(&path);
        }
        let fuse_segments = std::fs::read(&path).unwrap();
        let reference = scratch("sealed-reference.bin");
        e.save_eval_cache(&reference).unwrap();
        assert_ne!(fuse_segments, std::fs::read(&reference).unwrap(), "two appended segments");

        // A torn second segment: the loader keeps the first and warns; the
        // strict reader refuses the file.
        let cut = scratch("sealed-cut.bin");
        std::fs::write(&cut, &fuse_segments[..fuse_segments.len() - 3]).unwrap();
        let fresh = e.fresh_eval_cache();
        let report = fresh.load_eval_cache(&cut);
        assert_eq!(report.fuse_loaded, 1, "the whole first segment survives");
        let warning = report.warning.unwrap();
        assert!(warning.contains("torn final segment") && warning.contains("sealed-cut.bin"));
        assert!(matches!(
            read_tier_strict::<FuseKey, FusionTotals>(&cut, FUSE_MAGIC, FUSE_VERSION, "fuse"),
            Err(TierReadError::Damaged(what)) if what.contains("torn")
        ));

        // Sealing gives the full snapshot's bytes, for both tiers.
        Evaluator::seal_eval_cache(&path);
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&reference).unwrap());
        assert_eq!(
            std::fs::read(Evaluator::op_tier_path(&path)).unwrap(),
            std::fs::read(Evaluator::op_tier_path(&reference)).unwrap()
        );
    }
}
