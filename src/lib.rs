//! # fast — Full-stack Accelerator Search Technique (FAST)
//!
//! A from-scratch Rust reproduction of *"A Full-Stack Search Technique for
//! Domain Optimized Deep Learning Accelerators"* (Zhang et al., ASPLOS 2022).
//!
//! FAST jointly optimizes the hardware **datapath** (PE grid, systolic-array
//! dimensions, vector units, memory hierarchy, DRAM channels), the software
//! **schedule** (Timeloop-style mappings with tensor padding) and **compiler
//! passes** (ILP-based operation fusion with weight pinning, two-pass
//! softmax) to design inference accelerators for one or several workloads
//! under area/TDP budgets — and analyzes when building such specialized
//! chips is economically sound.
//!
//! This facade re-exports the whole stack:
//!
//! | module | contents |
//! |---|---|
//! | [`ir`] | operator-graph IR, fusion regions, op-intensity analytics |
//! | [`models`] | EfficientNet B0–B7, BERT, ResNet-50v2, OCR workloads |
//! | [`arch`] | the Table-3 datapath template + area/TDP models |
//! | [`sim`] | the analytical simulator (mapper, VPU costs, softmax modes) |
//! | [`ilp`] | a self-contained 0/1 MILP solver (simplex + branch & bound) |
//! | [`fusion`] | FAST fusion (the Figure-8 ILP) |
//! | [`search`] | black-box optimizers (random, LCS, TPE) |
//! | [`roi`] | the §5.1 return-on-investment model |
//! | [`core`] | the search framework tying it all together |
//!
//! ## Quickstart
//!
//! ```
//! use fast::prelude::*;
//!
//! // Evaluate the paper's FAST-Large design on EfficientNet-B7.
//! let evaluator = Evaluator::new(
//!     vec![Workload::EfficientNet(EfficientNet::B7)],
//!     Objective::PerfPerTdp,
//!     Budget::paper_default(),
//! );
//! let eval = evaluator
//!     .evaluate(&fast::arch::presets::fast_large(), &SimOptions::default())
//!     .expect("FAST-Large is a valid design");
//! assert!(eval.workloads[0].qps > 100.0);
//! ```

pub use fast_arch as arch;
pub use fast_core as core;
pub use fast_fusion as fusion;
pub use fast_ilp as ilp;
pub use fast_ir as ir;
pub use fast_models as models;
pub use fast_roi as roi;
pub use fast_search as search;
pub use fast_sim as sim;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use fast_arch::{presets, Budget, DatapathConfig};
    pub use fast_core::StagedCacheStats;
    pub use fast_core::{
        ablation_study, component_breakdown, design_report, relative_to_tpu, BudgetLevel,
        CacheStats, Checkpointer, DesignEval, Evaluator, FastSpace, FastStudy, Objective,
        OptimizerKind, ScenarioMatrix, SearchReport, SweepConfig, SweepResult, SweepRunner,
    };
    pub use fast_fusion::{fuse_workload, FusionOptions};
    pub use fast_ir::{DType, FusionStrategy, Graph, GraphStats};
    pub use fast_models::{BertConfig, EfficientNet, Workload, WorkloadDomain};
    pub use fast_roi::RoiModel;
    pub use fast_search::{
        trial_rng, Durability, Execution, MetricDirection, MultiObjective, ParetoArchive, Study,
        StudyConfigError, StudyEval, StudyObjective, StudyReport, TrialResult,
    };
    pub use fast_sim::{simulate, simulate_staged, MapperCache, SimError, SimOptions, SoftmaxMode};
}
