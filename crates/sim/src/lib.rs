//! # fast-sim — the FAST performance simulator
//!
//! A from-scratch analytical simulator standing in for the paper's modified
//! internal TPU simulator + Timeloop (§6.1). It evaluates an IR graph on a
//! candidate [`fast_arch::DatapathConfig`] and produces:
//!
//! * per-node compute costs — matrix ops through a Timeloop-style mapper
//!   ([`mapper`]) with weight-/output-stationary dataflows, PE partitioning
//!   and a tensor-padding pre-pass; vector ops through VPU cost models
//!   ([`vector`]) including the §5.6 two-pass-softmax option;
//! * per-region statistics ([`engine::RegionPerf`]) — `T_min`, `T_max`,
//!   per-tensor DRAM times, buffer residency and pinnable weight sizes —
//!   exactly the inputs of the FAST-fusion ILP (Figure 8);
//! * workload summaries ([`engine::WorkloadPerf`]) — pre-fusion step time,
//!   QPS, utilization, memory-stall fraction and operational intensity.
//!
//! Op scheduling is exposed as a keyed, cacheable stage: a shared
//! [`MapperCache`] memoizes mapper results under [`OpKey`] — the loop nest
//! plus exactly the config/option fields the mapper reads — so identical
//! shapes across workloads, batch sizes and neighboring search points map
//! once ([`simulate_staged`]). The cache keys by array geometry first and
//! nest second, so a simulation resolves all its nests under one
//! geometry's lock. [`Tier`] is the building block of the later stages'
//! caches.
//!
//! ```
//! use fast_sim::{simulate_staged, MapperCache, SimOptions};
//! use fast_arch::presets;
//! use fast_models::Workload;
//!
//! # fn main() -> Result<(), fast_sim::SimError> {
//! let mapper = MapperCache::new();
//! let graph = Workload::ResNet50.build(8).expect("build");
//! let perf = simulate_staged(&graph, &presets::tpu_v3(), &SimOptions::default(), &mapper)?;
//! assert!(perf.prefusion_qps() > 0.0);
//! // A second simulation re-maps nothing: every op is a Stage-A hit.
//! let again = simulate_staged(&graph, &presets::tpu_v3(), &SimOptions::default(), &mapper)?;
//! assert_eq!(perf.prefusion_seconds.to_bits(), again.prefusion_seconds.to_bits());
//! assert_eq!(mapper.stats().misses, mapper.len() as u64);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod engine;
pub mod error;
pub mod mapper;
mod persist;
pub mod power;
pub mod softmax;
pub mod vector;

pub use cache::{CacheStats, MapperCache, OpKey, Tier};
pub use engine::{
    simulate, simulate_regions, simulate_staged, NodePerf, RegionPerf, RegionsPerf, SimOptions,
    WorkloadPerf,
};

// The parallel search driver hands `simulate` inputs to worker threads and
// collects its outputs across them; lock that thread-safety in at compile
// time so a future `Rc`/`RefCell` can't silently break parallel studies.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<fast_ir::Graph>();
    assert_send_sync::<fast_arch::DatapathConfig>();
    assert_send_sync::<engine::SimOptions>();
    assert_send_sync::<engine::WorkloadPerf>();
    assert_send_sync::<error::SimError>();
    assert_send_sync::<cache::MapperCache>();
};
pub use error::{MapFailure, SimError};
pub use mapper::{map_matrix_op, Dataflow, Mapping, PaddingMode};
pub use power::{average_power_w, step_activity, step_energy, EnergyBreakdown, StepActivity};
pub use softmax::{softmax_three_pass, softmax_two_pass};
pub use vector::{cost_vector_op, SoftmaxMode, VectorCost};
