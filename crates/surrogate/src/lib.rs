//! # fast-surrogate — cheap predictor tiers for multi-fidelity search
//!
//! FAST's simulator (mapper + fusion ILP) is accurate but costs milliseconds
//! to seconds per candidate; most proposals in a study are discarded
//! immediately. This crate supplies the **surrogate tier** that a screened
//! [`fast_search::Study`] ranks each proposal round with, so only the
//! promising fraction pays for full simulation (the FLASH/multi-fidelity
//! recipe):
//!
//! * **Tier S0** ([`roofline`]) — an analytical roofline estimator: per-op
//!   latency/energy lower bounds from `fast_ir` intensity statistics and the
//!   candidate's peak compute / memory bandwidth. No mapper, no ILP, no
//!   fitting — usable from the very first round.
//! * **Tier S1** ([`ridge`]) — an online ridge regressor fitted from the
//!   accumulated true evaluations, over per-op-class features (FLOPs, bytes,
//!   roofline times, cost-model scalars). Retrained incrementally after each
//!   observation; its sufficient statistics serialize into study
//!   checkpoints so kill/resume replays bit-identically.
//!
//! [`SurrogateScreener`] packages both tiers behind the
//! [`fast_search::Screener`] trait: construct one with the workload set, the
//! guide metric and a point-decoding closure, then hand it to
//! [`fast_search::Study::run_with`].
//!
//! ```
//! use fast_search::SurrogateTier;
//! use fast_surrogate::{GuideMetric, SurrogateScreener};
//!
//! let screener = SurrogateScreener::new(
//!     SurrogateTier::S0,
//!     GuideMetric::PerfPerTdp,
//!     vec![fast_models::Workload::Bert { seq_len: 128 }],
//!     Box::new(|_point| Some(fast_arch::presets::tpu_v3())),
//! );
//! # let _ = screener;
//! ```

pub mod ridge;
pub mod roofline;
pub mod screener;

pub use ridge::Ridge;
pub use roofline::{qps_bound, roofline_guide, step_seconds_bound, GraphLoad, GuideMetric};
pub use screener::{DecodeFn, SurrogateScreener, DEFAULT_WARMUP, FEATURE_DIM, S0_BURN_IN};
