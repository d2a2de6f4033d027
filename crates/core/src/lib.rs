//! # fast-core — the Full-stack Accelerator Search Technique
//!
//! The paper's primary contribution (§5): joint optimization of the hardware
//! datapath, the software schedule, and compiler passes (FAST fusion, tensor
//! padding, two-pass softmax), targeting inference accelerators for one or a
//! set of workloads under area/TDP budgets.
//!
//! Pipeline per trial (Figure 1):
//! 1. a black-box optimizer ([`fast_search`]) proposes a point in the
//!    [`FastSpace`] (Table 3 + softmax knob);
//! 2. the simulator ([`fast_sim`]) pads and schedules every op of every
//!    workload on the candidate datapath, rejecting schedule failures;
//! 3. the FAST-fusion ILP ([`fast_fusion`]) places activations/weights in
//!    Global Memory and the design is scored (QPS or Perf/TDP geomean).
//!
//! Above the single-study drivers, the [`sweep`] module runs whole result
//! matrices — `{budget × objective × workload domain}` — as Pareto studies
//! over one shared evaluation cache (the paper's Figs. 9–11 sweeps), and
//! makes them durable: [`Checkpointer`] + [`SweepRunner::resume`] let a
//! killed sweep continue bit-identically, with the evaluation cache
//! persisted via [`Evaluator::save_eval_cache`] /
//! [`Evaluator::load_eval_cache`].
//!
//! ```no_run
//! use fast_core::{Evaluator, FastStudy, Objective};
//! use fast_arch::Budget;
//! use fast_models::Workload;
//!
//! let evaluator = Evaluator::new(
//!     vec![Workload::ResNet50],
//!     Objective::PerfPerTdp,
//!     Budget::paper_default(),
//! );
//! let report = FastStudy::new(&evaluator, 400).run().expect("valid configuration");
//! println!("best objective: {:?}", report.study.best_objective);
//! ```

pub mod analysis;
pub mod driver;
pub mod evaluate;
pub mod journal;
pub mod merge;
pub mod report;
pub mod search_space;
mod segment;
pub mod sweep;
pub mod warn;

pub use analysis::{
    ablation_study, ablation_variants, ablation_workloads, component_breakdown,
    frontier_hypervolume, hypervolume_3d, kendall_tau, spearman_rank, AblationRow, BreakdownRow,
};
pub use driver::{FastStudy, OptimizerKind, SearchReport};
// The unified study axes, re-exported so driver callers need one import.
pub use evaluate::{
    CacheLoadReport, CacheStats, DesignEval, EvalError, Evaluator, Objective, SolverStats,
    StagedCacheStats, WorkloadEval,
};
pub use fast_search::{
    Durability, Execution, Fidelity, FidelityReport, StudyConfigError, StudyObjective, StudyReport,
    SurrogateTier,
};
pub use fast_surrogate::{GuideMetric, SurrogateScreener};
pub use journal::{JobEntry, JobId, JobJournal, JobSpec, JobState};
pub use merge::{
    merge_eval_caches, merge_sweep_checkpoints, CacheMergeStats, MergeError, MergeReport,
};
pub use report::{design_report, relative_to_tpu, DesignReport, RelativePerf};
pub use search_space::{combined_search_space_log10, FastSpace, SpaceDims};
pub use sweep::{
    points_table, BudgetLevel, Checkpointer, CompletedScenario, FrontierDesign, Scenario,
    ScenarioMatrix, ScenarioResult, SweepConfig, SweepEvent, SweepObserver, SweepResult,
    SweepRunner, SweepSession,
};
