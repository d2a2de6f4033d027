//! The [`Screener`] implementation wiring both surrogate tiers to a study.
//!
//! A [`SurrogateScreener`] owns the workload set and a *decode* closure
//! mapping a search point to its [`DatapathConfig`] (returning `None` for
//! points the caller can already reject — malformed configs, over-budget
//! designs). Tier S0 scores with [`roofline_guide`] alone; tier S1 layers an
//! online [`Ridge`] model over roofline-derived log features, falling back
//! to the S0 bound until the model has warmed up.
//!
//! Both tiers report [`Screener::ready`] only after a full-fidelity warm-up
//! window ([`S0_BURN_IN`] / [`DEFAULT_WARMUP`] observation attempts): S1
//! spends it earning a training set, S0 spends it seeding the Pareto
//! archive across the design range before thinning begins.

use crate::ridge::Ridge;
use crate::roofline::{roofline_guide, GraphLoad, GuideMetric};
use fast_arch::{cost, DatapathConfig};
use fast_models::Workload;
use fast_search::{Screener, SurrogateTier};
use serde::bin::{Reader, Writer};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Number of features the S1 ridge model consumes (the private
/// `SurrogateScreener::features` vector: an intercept, the log S0
/// roofline guide, log peak-FLOPs / DRAM bandwidth / TDP / area / SRAM
/// / batch, and the log per-class roofline times).
pub const FEATURE_DIM: usize = 12;

/// Default observation *attempts* before tier S1 reports itself ready.
///
/// Attempts — not absorbed samples — so the warm-up window is "the first N
/// trials run at full fidelity", bounded even in heavily constrained spaces
/// where most candidates are invalid or over budget and contribute no
/// training pair. An S1 model fitted from only the valid minority of its
/// warm-up window degrades gracefully: until the ridge solves, its score
/// falls back to the log-roofline feature, i.e. tier-S0 ranking.
pub const DEFAULT_WARMUP: u64 = 16;

/// Default burn-in attempts for tier S0.
///
/// S0 fits no model, but screening from the very first round starves the
/// Pareto archive: a scalar-guide ranking keeps only high-objective
/// candidates, and the frontier's low-power / low-area corner is never
/// simulated. A short full-fidelity burn-in seeds the archive across the
/// whole design range before thinning begins — measured on the Table-3
/// smoke it is the difference between retaining ~20% and ~100% of the
/// exact frontier's hypervolume.
pub const S0_BURN_IN: u64 = 8;

const RIDGE_LAMBDA: f64 = 1e-3;
/// Floor added before logs so empty op classes stay finite.
const TIME_FLOOR: f64 = 1e-12;
/// State-blob tags (first byte of [`Screener::save_state`]).
const STATE_S0: u8 = 0;
const STATE_S1: u8 = 1;

/// Decodes a search point to its datapath, or `None` for points that are
/// invalid or over budget (scored [`f64::NEG_INFINITY`] without touching
/// either tier).
pub type DecodeFn = dyn Fn(&[usize]) -> Option<DatapathConfig> + Send + Sync;

/// Both surrogate tiers behind the [`Screener`] trait.
pub struct SurrogateScreener {
    tier: SurrogateTier,
    metric: GuideMetric,
    warmup: u64,
    workloads: Vec<Workload>,
    decode: Box<DecodeFn>,
    /// `(workload, batch)` graph aggregates, built once per batch size.
    loads: Mutex<HashMap<u64, Arc<Vec<GraphLoad>>>>,
    /// The S1 model (present but unused for tier S0).
    ridge: Ridge,
    /// Observation *attempts* (valid or not) — what warm-up counts.
    attempts: u64,
}

impl fmt::Debug for SurrogateScreener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SurrogateScreener")
            .field("tier", &self.tier)
            .field("metric", &self.metric)
            .field("warmup", &self.warmup)
            .field("workloads", &self.workloads)
            .field("samples", &self.ridge.samples())
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

impl SurrogateScreener {
    /// A screener for `tier` mimicking `metric` over `workloads`, decoding
    /// points with `decode`.
    #[must_use]
    pub fn new(
        tier: SurrogateTier,
        metric: GuideMetric,
        workloads: Vec<Workload>,
        decode: Box<DecodeFn>,
    ) -> Self {
        assert!(!workloads.is_empty(), "surrogate wants at least one workload");
        SurrogateScreener {
            tier,
            metric,
            warmup: match tier {
                SurrogateTier::S0 => S0_BURN_IN,
                SurrogateTier::S1 => DEFAULT_WARMUP,
            },
            workloads,
            decode,
            loads: Mutex::new(HashMap::new()),
            ridge: Ridge::new(FEATURE_DIM, RIDGE_LAMBDA),
            attempts: 0,
        }
    }

    /// Override the warm-up attempt count — S1's training window, S0's
    /// full-fidelity burn-in. Zero screens from the first round.
    #[must_use]
    pub fn warmup(mut self, observations: u64) -> Self {
        self.warmup = observations;
        self
    }

    /// The tier this screener ranks with.
    #[must_use]
    pub fn tier(&self) -> SurrogateTier {
        self.tier
    }

    /// True observations absorbed by the S1 model so far.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.ridge.samples()
    }

    fn loads_for(&self, batch: u64) -> Arc<Vec<GraphLoad>> {
        let mut cache = self.loads.lock().expect("graph-load cache poisoned");
        Arc::clone(cache.entry(batch).or_insert_with(|| {
            Arc::new(
                self.workloads
                    .iter()
                    .map(|w| {
                        let graph = w.build(batch).expect("in-tree workloads always build");
                        GraphLoad::at_batch(&graph, batch)
                    })
                    .collect(),
            )
        }))
    }

    /// The S1 feature vector of a decoded candidate: log-domain datapath
    /// scalars plus per-op-class roofline times aggregated over workloads.
    fn features(&self, cfg: &DatapathConfig, loads: &[GraphLoad]) -> [f64; FEATURE_DIM] {
        let peak_per_core = cfg.peak_flops() / cfg.cores as f64;
        let bw_per_core = cfg.dram_bytes_per_sec_per_core();
        let (mut matrix_t, mut depthwise_t, mut vector_t, mut memory_t) = (0.0, 0.0, 0.0, 0.0);
        for load in loads {
            matrix_t += load.profile.matrix.flops as f64 / peak_per_core;
            depthwise_t += load.profile.depthwise.flops as f64 / peak_per_core;
            vector_t += load.profile.vector.flops as f64 / peak_per_core;
            memory_t += load.dram_bytes / bw_per_core;
        }
        let s0 = roofline_guide(cfg, loads, self.metric);
        [
            1.0,
            (s0 + TIME_FLOOR).ln(),
            cfg.peak_flops().ln(),
            cfg.dram_bytes_per_sec().ln(),
            cost::tdp(cfg).total_w.ln(),
            cost::area(cfg).total_mm2.ln(),
            cfg.total_sram_mib().ln(),
            (cfg.native_batch as f64).ln(),
            (matrix_t + TIME_FLOOR).ln(),
            (depthwise_t + TIME_FLOOR).ln(),
            (vector_t + TIME_FLOOR).ln(),
            (memory_t + TIME_FLOOR).ln(),
        ]
    }
}

impl Screener for SurrogateScreener {
    fn ready(&self) -> bool {
        self.attempts >= self.warmup
    }

    fn score(&self, point: &[usize]) -> f64 {
        let Some(cfg) = (self.decode)(point) else {
            return f64::NEG_INFINITY;
        };
        let loads = self.loads_for(cfg.native_batch);
        match self.tier {
            SurrogateTier::S0 => roofline_guide(&cfg, &loads, self.metric),
            SurrogateTier::S1 => {
                let x = self.features(&cfg, &loads);
                // The fallback is the ln-guide feature itself, so a round
                // scored before the first solve still ranks consistently.
                self.ridge.predict(&x).unwrap_or(x[1])
            }
        }
    }

    fn observe(&mut self, point: &[usize], guide: Option<f64>) {
        // Every attempt counts toward warm-up — including invalid trials,
        // which carry no training pair. See [`DEFAULT_WARMUP`].
        self.attempts += 1;
        if self.tier != SurrogateTier::S1 {
            return;
        }
        let (Some(guide), Some(cfg)) = (guide, (self.decode)(point)) else {
            return;
        };
        // NaN-rejecting: ln() needs a strictly positive guide, and a NaN
        // guide must not poison the sufficient statistics.
        if guide.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let loads = self.loads_for(cfg.native_batch);
        let x = self.features(&cfg, &loads);
        self.ridge.observe(&x, guide.ln());
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self.tier {
            SurrogateTier::S0 => {
                w.put_u8(STATE_S0);
                w.put_u64(self.warmup);
                w.put_u64(self.attempts);
            }
            SurrogateTier::S1 => {
                w.put_u8(STATE_S1);
                w.put_u64(self.warmup);
                w.put_u64(self.attempts);
                self.ridge.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = Reader::new(bytes);
        let Ok(tag) = r.get_u8() else { return false };
        let expect = match self.tier {
            SurrogateTier::S0 => STATE_S0,
            SurrogateTier::S1 => STATE_S1,
        };
        if tag != expect {
            return false;
        }
        let Ok(warmup) = r.get_u64() else { return false };
        if warmup != self.warmup {
            return false;
        }
        let Ok(attempts) = r.get_u64() else { return false };
        let model = match self.tier {
            // Burn-in progress is all the state an analytical tier has.
            SurrogateTier::S0 => None,
            SurrogateTier::S1 => match Ridge::decode(&mut r, FEATURE_DIM) {
                Some(model) => Some(model),
                None => return false,
            },
        };
        if !r.is_done() {
            return false;
        }
        if let Some(model) = model {
            self.ridge = model;
        }
        self.attempts = attempts;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_search::{
        Execution, Fidelity, ParamDomain, ParamSpace, RandomSearch, Study, StudyEval, TrialResult,
    };

    /// One-axis toy space: the point scales compute and bandwidth together,
    /// so the roofline guide is strictly increasing whichever term binds.
    fn toy_space() -> ParamSpace {
        let mut space = ParamSpace::new();
        space.add("scale", ParamDomain::Pow2 { min: 1, max: 8 });
        space
    }

    fn toy_decode(space: ParamSpace) -> Box<DecodeFn> {
        Box::new(move |point| {
            let scale = space.value(point, 0);
            let mut cfg = fast_arch::presets::tpu_v3();
            cfg.pes_x = 2 * scale;
            cfg.dram_channels = scale;
            Some(cfg)
        })
    }

    fn s0_screener() -> SurrogateScreener {
        SurrogateScreener::new(
            SurrogateTier::S0,
            GuideMetric::Qps,
            vec![Workload::Bert { seq_len: 128 }, Workload::ResNet50],
            toy_decode(toy_space()),
        )
    }

    #[test]
    fn s0_burns_in_then_screens_and_rejects_undecodable_points() {
        let mut sc = s0_screener();
        // S0 fits nothing, but it still holds the first S0_BURN_IN trials
        // at full fidelity to seed the Pareto archive.
        assert!(!sc.ready());
        for i in 0..S0_BURN_IN {
            sc.observe(&[(i % 4) as usize], None);
        }
        assert!(sc.ready());
        assert_eq!(sc.observations(), 0, "S0 trains no model");
        assert!(sc.score(&[0]).is_finite());
        let zero_burn_in = s0_screener().warmup(0);
        assert!(zero_burn_in.ready(), "warmup(0) screens from the first round");
        let rejecting = SurrogateScreener::new(
            SurrogateTier::S0,
            GuideMetric::Qps,
            vec![Workload::Bert { seq_len: 128 }],
            Box::new(|_| None),
        );
        assert_eq!(rejecting.score(&[0]), f64::NEG_INFINITY);
    }

    #[test]
    fn s0_scores_are_deterministic_and_monotone_in_compute() {
        let sc = s0_screener();
        let scores: Vec<f64> = (0..4).map(|i| sc.score(&[i])).collect();
        for pair in scores.windows(2) {
            assert!(pair[1] > pair[0], "a uniformly bigger datapath must score higher: {scores:?}");
        }
        let again: Vec<f64> = (0..4).map(|i| sc.score(&[i])).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&again));
    }

    #[test]
    fn s1_warms_up_then_tracks_the_true_guide() {
        let space = toy_space();
        let truth = s0_screener();
        let mut sc = SurrogateScreener::new(
            SurrogateTier::S1,
            GuideMetric::Qps,
            vec![Workload::Bert { seq_len: 128 }, Workload::ResNet50],
            toy_decode(space.clone()),
        )
        .warmup(4);
        assert!(!sc.ready());
        // Feed the S0 guide as ground truth. An invalid observation adds no
        // training pair but still counts toward warm-up — the window is
        // "first N trials", not "first N valid trials".
        sc.observe(&[0], None);
        assert_eq!(sc.observations(), 0);
        assert!(!sc.ready());
        for i in 0..4usize {
            sc.observe(&[i % 4], Some(truth.score(&[i % 4])));
        }
        assert_eq!(sc.observations(), 4);
        assert!(sc.ready());
        // Rank agreement with the truth on the full axis.
        let predicted: Vec<f64> = (0..4).map(|i| sc.score(&[i])).collect();
        let actual: Vec<f64> = (0..4).map(|i| truth.score(&[i])).collect();
        let rho = fast_search::spearman_rank(&predicted, &actual).expect("4 distinct pairs");
        assert!(rho > 0.9, "S1 should track a guide it was trained on, rho = {rho}");
    }

    #[test]
    fn state_round_trips_bit_identically_and_rejects_foreign_blobs() {
        let mut trained = SurrogateScreener::new(
            SurrogateTier::S1,
            GuideMetric::PerfPerTdp,
            vec![Workload::Bert { seq_len: 128 }],
            toy_decode(toy_space()),
        )
        .warmup(2);
        let truth = s0_screener();
        for i in 0..6usize {
            trained.observe(&[i % 4], Some(truth.score(&[i % 4]).max(1.0)));
        }
        let state = trained.save_state();

        let mut restored = SurrogateScreener::new(
            SurrogateTier::S1,
            GuideMetric::PerfPerTdp,
            vec![Workload::Bert { seq_len: 128 }],
            toy_decode(toy_space()),
        )
        .warmup(2);
        assert!(restored.load_state(&state));
        assert_eq!(restored.observations(), trained.observations());
        assert_eq!(restored.ready(), trained.ready());
        for i in 0..4usize {
            assert_eq!(restored.score(&[i]).to_bits(), trained.score(&[i]).to_bits());
        }

        // Tier and warmup mismatches are refused, as is truncation.
        let mut s0 = s0_screener();
        assert!(!s0.load_state(&state));
        // S0 state carries its burn-in progress.
        for _ in 0..3 {
            s0.observe(&[0], None);
        }
        let mut s0_restored = s0_screener();
        assert!(s0_restored.load_state(&s0.save_state()));
        assert_eq!(s0_restored.attempts, 3);
        let mut other_warmup = SurrogateScreener::new(
            SurrogateTier::S1,
            GuideMetric::PerfPerTdp,
            vec![Workload::Bert { seq_len: 128 }],
            toy_decode(toy_space()),
        )
        .warmup(3);
        assert!(!other_warmup.load_state(&state));
        assert!(!restored.load_state(&state[..state.len() - 1]));
    }

    #[test]
    fn screened_study_thins_evaluations_with_perfect_rank_agreement() {
        // The evaluator returns exactly the S0 guide, so the surrogate is a
        // perfect oracle: spearman must be 1.0 and the frontier unharmed.
        let space = toy_space();
        let truth = s0_screener();
        let mut sc = s0_screener();
        let mut full = 0usize;
        let mut eval = |p: &[usize]| {
            full += 1;
            TrialResult::Valid(truth.score(p)).into()
        };
        let mut opt = RandomSearch::new();
        let report = Study::new(&space, 32)
            .seed(7)
            .execution(Execution::Batched { batch_size: 8 })
            .fidelity(Fidelity::Screened {
                keep_fraction: 0.25,
                min_full: 2,
                tier: SurrogateTier::S0,
            })
            .run_with(&mut opt, StudyEval::points(&mut eval), Some(&mut sc), None)
            .expect("valid configuration");
        let fid = report.fidelity.expect("screened study reports fidelity");
        assert_eq!(fid.full_evals, full);
        assert!(fid.savings_factor() > 2.0, "factor = {}", fid.savings_factor());
        assert_eq!(fid.spearman, Some(1.0));
        assert!(report.best_objective.is_some());
    }
}
