//! The FAST search driver: black-box optimization over the full-stack space
//! (Figure 1's outer loop).
//!
//! [`FastStudy`] is the one entry point: it binds an [`Evaluator`] to the
//! unified [`fast_search::Study`] builder, so objective scoring, execution
//! strategy ([`Execution`]), durability ([`Durability`]) and seeding are
//! orthogonal axes instead of separate driver functions.

use crate::evaluate::{DesignEval, Evaluator, Objective, StagedCacheStats};
use crate::search_space::FastSpace;
use fast_arch::DatapathConfig;
use fast_search::{
    Durability, Execution, Fidelity, LcsSwarm, Optimizer, OptimizerState, RandomSearch, Study,
    StudyConfigError, StudyEval, StudyReport, Tpe, Trial, TrialResult,
};
use fast_sim::SimOptions;
use fast_surrogate::{GuideMetric, SurrogateScreener};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which black-box optimizer drives the search (Figure 11 compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum OptimizerKind {
    /// Uniform random sampling.
    Random,
    /// Linear Combination Swarm.
    #[default]
    Lcs,
    /// TPE Bayesian optimizer (Vizier-default stand-in).
    Tpe,
}

impl OptimizerKind {
    /// All kinds, in Figure-11 order.
    pub const ALL: [OptimizerKind; 3] =
        [OptimizerKind::Tpe, OptimizerKind::Lcs, OptimizerKind::Random];

    /// Instantiates the optimizer.
    #[must_use]
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Random => Box::new(RandomSearch::new()),
            OptimizerKind::Lcs => Box::new(LcsSwarm::default()),
            OptimizerKind::Tpe => Box::new(Tpe::new()),
        }
    }

    /// Display label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            OptimizerKind::Random => "random",
            OptimizerKind::Lcs => "LCS",
            OptimizerKind::Tpe => "bayesian (TPE)",
        }
    }

    /// The kind named `name` (the lowercase CLI spelling: `random`, `lcs`,
    /// `tpe`), if any.
    #[must_use]
    pub fn by_name(name: &str) -> Option<OptimizerKind> {
        match name {
            "random" => Some(OptimizerKind::Random),
            "lcs" => Some(OptimizerKind::Lcs),
            "tpe" => Some(OptimizerKind::Tpe),
            _ => None,
        }
    }
}

// Tags match `SweepRunner::fingerprint`'s historical encoding of the
// optimizer axis, so the two stay mutually consistent.
impl serde::bin::Encode for OptimizerKind {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_u8(match self {
            OptimizerKind::Random => 0,
            OptimizerKind::Lcs => 1,
            OptimizerKind::Tpe => 2,
        });
    }
}

impl serde::bin::Decode for OptimizerKind {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        match r.get_u8()? {
            0 => Ok(OptimizerKind::Random),
            1 => Ok(OptimizerKind::Lcs),
            2 => Ok(OptimizerKind::Tpe),
            tag => Err(serde::bin::DecodeError {
                offset: 0,
                what: format!("invalid OptimizerKind tag {tag}"),
            }),
        }
    }
}

/// Wraps an optimizer so the first proposals are fixed seed points (known
/// feasible designs), after which control passes to the inner algorithm.
/// This stands in for Vizier transfer learning / prior injection and keeps
/// short CI-scale searches out of the all-invalid regime.
pub(crate) struct SeededOptimizer {
    inner: Box<dyn Optimizer>,
    seeds: Vec<Vec<usize>>,
    next: usize,
}

impl SeededOptimizer {
    pub(crate) fn new(inner: Box<dyn Optimizer>, seeds: Vec<Vec<usize>>) -> Self {
        SeededOptimizer { inner, seeds, next: 0 }
    }
}

impl Optimizer for SeededOptimizer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(
        &mut self,
        space: &fast_search::ParamSpace,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<usize> {
        if self.next < self.seeds.len() {
            let p = self.seeds[self.next].clone();
            self.next += 1;
            p
        } else {
            self.inner.propose(space, rng)
        }
    }

    fn observe(&mut self, space: &fast_search::ParamSpace, trial: &Trial) {
        self.inner.observe(space, trial);
    }

    fn save_state(&self) -> OptimizerState {
        OptimizerState::Seeded {
            seeds: self.seeds.clone(),
            next: self.next,
            inner: Box::new(self.inner.save_state()),
        }
    }

    fn load_state(&mut self, state: &OptimizerState) -> bool {
        let OptimizerState::Seeded { seeds, next, inner } = state else {
            return false;
        };
        if *next > seeds.len() || !self.inner.load_state(inner) {
            return false;
        }
        self.seeds = seeds.clone();
        self.next = *next;
        true
    }
}

/// Configuration of one FAST search run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Trial budget (the paper runs 5000; the bench harness uses fewer).
    pub trials: usize,
    /// Optimizer choice.
    pub optimizer: OptimizerKind,
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
    /// Known-good design points proposed first (may be empty).
    pub seeds: Vec<(DatapathConfig, SimOptions)>,
    /// Trials proposed and evaluated per round. The default of `1` is the
    /// classic propose→evaluate→observe loop (per-trial observation,
    /// matching the paper's sequential Vizier methodology); larger batches
    /// let [`Execution::Parallel`] fan a round out across cores at the
    /// cost of optimizers observing a whole round at once. The study outcome
    /// depends on the batch size but never on how a round's evaluations are
    /// executed.
    pub batch: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            trials: 400,
            optimizer: OptimizerKind::Lcs,
            seed: 0,
            seeds: vec![
                (fast_arch::presets::fast_large(), SimOptions::default()),
                (fast_arch::presets::fast_small(), SimOptions::default()),
            ],
            batch: 1,
        }
    }
}

/// Outcome of a [`FastStudy`] run: the unified [`StudyReport`] (trials,
/// convergence, optional frontier, checkpoint info) plus the decoded best
/// design, the explored-space size, and this run's evaluation-cache share.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The unified study report.
    pub study: StudyReport,
    /// Full evaluation of the best design, if any trial was valid.
    pub best: Option<DesignEval>,
    /// log10 of the datapath search-space size explored by the optimizer.
    pub space_log10: f64,
    /// Per-stage (op/sim/fuse) hit/miss deltas across this run, including
    /// the final best-point decode. `staged.fuse` counts one lookup per
    /// successful per-workload evaluation.
    pub staged: StagedCacheStats,
}

/// One FAST search over the Table-3 space, configured axis by axis.
///
/// ```no_run
/// use fast_core::{Evaluator, FastStudy, Objective};
/// use fast_arch::Budget;
/// use fast_models::Workload;
/// use fast_search::Execution;
///
/// let evaluator = Evaluator::new(
///     vec![Workload::ResNet50],
///     Objective::PerfPerTdp,
///     Budget::paper_default(),
/// );
/// let report = FastStudy::new(&evaluator, 400)
///     .seed(7)
///     .execution(Execution::Parallel { threads: 16 })
///     .run()
///     .expect("valid study configuration");
/// println!("best objective: {:?}", report.study.best_objective);
/// ```
///
/// **Determinism:** [`Execution::Parallel`] is bit-identical to
/// [`Execution::Batched`] at the same round size — per-trial RNGs derive
/// from `(seed, trial index)`, the evaluation cache stores pure functions
/// of its key, and round results are collected in proposal order before
/// the optimizer observes them, so thread scheduling cannot leak into the
/// trial sequence. Worker threads share the evaluator's memoization table,
/// so duplicate proposals within or across rounds cost one simulation
/// total. (The guarantee assumes the evaluation pipeline is deterministic:
/// true for the default heuristic fusion; see [`Evaluator::with_fusion`]
/// for the wall-clock-bounded exact-ILP caveat.)
///
/// **Durability:** [`Durability::Checkpointed`] persists both the study
/// checkpoint (`study.bin`, every `every` rounds) and the evaluator's cache
/// (`eval_cache.bin` and friends, appended every round and sealed when the
/// study finishes) under the directory, so a killed search resumes
/// bit-identically and re-simulates at most the round in flight.
#[derive(Clone)]
pub struct FastStudy<'e> {
    evaluator: &'e Evaluator,
    trials: usize,
    optimizer: OptimizerKind,
    seed: u64,
    seed_designs: Vec<(DatapathConfig, SimOptions)>,
    execution: Execution,
    durability: Durability,
    fidelity: Fidelity,
}

impl<'e> FastStudy<'e> {
    /// A study of `trials` evaluations scored by `evaluator`, with the
    /// historical driver defaults: LCS, seed 0, the published presets as
    /// seed designs, `Batched { batch_size: 1 }`, ephemeral.
    #[must_use]
    pub fn new(evaluator: &'e Evaluator, trials: usize) -> Self {
        let defaults = SearchConfig::default();
        FastStudy {
            evaluator,
            trials,
            optimizer: defaults.optimizer,
            seed: defaults.seed,
            seed_designs: defaults.seeds,
            execution: Execution::Batched { batch_size: defaults.batch },
            durability: Durability::Ephemeral,
            fidelity: Fidelity::Exact,
        }
    }

    /// Sets the optimizer (Figure 11 compares the three kinds).
    #[must_use]
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the reproducibility seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the known-good designs proposed first (may be empty). Seeding
    /// stands in for Vizier transfer learning and keeps short searches out
    /// of the all-invalid regime.
    #[must_use]
    pub fn seed_designs(mut self, seed_designs: Vec<(DatapathConfig, SimOptions)>) -> Self {
        self.seed_designs = seed_designs;
        self
    }

    /// Sets the execution axis (round size and parallelism).
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the durability axis.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the fidelity axis. [`Fidelity::Exact`] (the default) fully
    /// simulates every proposal — bit-identical to a study built before
    /// this axis existed. [`Fidelity::Screened`] builds a
    /// [`SurrogateScreener`] from the evaluator's workloads, objective and
    /// budget; each round is ranked by the surrogate and only the top
    /// fraction pays for simulation. The report's
    /// [`StudyReport::fidelity`] then carries the full-simulation count and
    /// the surrogate-vs-true rank correlations.
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Runs the study.
    ///
    /// # Errors
    /// Returns a [`StudyConfigError`] for invalid axes (zero batch/threads,
    /// unusable checkpoint directory) before any trial runs.
    pub fn run(&self) -> Result<SearchReport, StudyConfigError> {
        let space = FastSpace::table3();
        let seeds: Vec<Vec<usize>> =
            self.seed_designs.iter().map(|(cfg, sim)| space.encode(cfg, sim)).collect();
        let mut opt = SeededOptimizer::new(self.optimizer.build(), seeds);

        // Warm the shared cache from a prior run's snapshot; a missing or
        // damaged file degrades to a cold cache.
        let mut checkpoint = match &self.durability {
            Durability::Checkpointed { dir, .. } => {
                Some(self.evaluator.attach_eval_cache(&dir.join("eval_cache.bin"), true).0)
            }
            Durability::Ephemeral => None,
        };
        let staged_before = self.evaluator.staged_cache_stats();
        let parallel = matches!(self.execution, Execution::Parallel { .. });
        let score = |p: &Vec<usize>| match self.evaluator.evaluate_point(&space, p) {
            Ok(eval) => TrialResult::Valid(eval.objective_value).into(),
            Err(_) => fast_search::MultiObjective::Invalid,
        };
        let mut eval_round = |points: &[Vec<usize>]| {
            let scored: Vec<fast_search::MultiObjective> = if parallel {
                points.par_iter().map(score).collect()
            } else {
                points.iter().map(score).collect()
            };
            // Round boundary: append newly-computed results so a kill
            // mid-search only re-pays the round in flight.
            if let Some(checkpoint) = checkpoint.as_mut() {
                checkpoint.append(self.evaluator);
            }
            scored
        };
        // Under Fidelity::Screened the surrogate tier mirrors this study's
        // evaluator exactly: same workloads, same objective, and a decode
        // closure applying the same validity + budget gate, so surrogate
        // ranks compare the population the simulator would see.
        let mut screener = match self.fidelity {
            Fidelity::Exact => None,
            Fidelity::Screened { tier, .. } => {
                let decode_space = space.clone();
                let budget = *self.evaluator.budget();
                let metric = match self.evaluator.objective() {
                    Objective::Qps => GuideMetric::Qps,
                    Objective::PerfPerTdp => GuideMetric::PerfPerTdp,
                };
                Some(SurrogateScreener::new(
                    tier,
                    metric,
                    self.evaluator.workloads().to_vec(),
                    Box::new(move |p: &[usize]| {
                        let (cfg, _sim) = decode_space.decode(p);
                        cfg.validate().ok()?;
                        budget.admits(&cfg).then_some(cfg)
                    }),
                ))
            }
        };
        let builder = Study::new(space.space(), self.trials)
            .seed(self.seed)
            .fidelity(self.fidelity)
            .execution(self.execution)
            .durability(self.durability.clone());
        let study = match screener.as_mut() {
            Some(sc) => builder.run_screened(&mut opt, StudyEval::batch(&mut eval_round), sc)?,
            None => builder.run(&mut opt, StudyEval::batch(&mut eval_round))?,
        };

        let best =
            study.best_point.as_ref().and_then(|p| self.evaluator.evaluate_point(&space, p).ok());
        if let Some(mut checkpoint) = checkpoint {
            // Completion: append what decoding the best point computed (if
            // anything), then seal each tier file into one segment.
            checkpoint.append(self.evaluator);
            checkpoint.seal();
        }
        Ok(SearchReport {
            study,
            best,
            space_log10: space.space().log10_size(),
            staged: self.evaluator.staged_cache_stats().since(&staged_before),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Objective;
    use fast_arch::Budget;
    use fast_models::{EfficientNet, Workload};

    fn quick_evaluator() -> Evaluator {
        Evaluator::new(
            vec![Workload::EfficientNet(EfficientNet::B0)],
            Objective::PerfPerTdp,
            Budget::paper_default(),
        )
    }

    #[test]
    fn seeded_search_finds_valid_designs() {
        let e = quick_evaluator();
        let out = FastStudy::new(&e, 30).seed(1).run().expect("valid configuration");
        let best = out.best.expect("seeds guarantee at least one valid design");
        assert!(best.objective_value > 0.0);
        assert!(out.study.invalid_trials < 30);
        assert!(out.space_log10 > 12.0);
        assert!(out.study.frontier.is_none(), "single-objective search tracks no frontier");
        assert!(out.study.checkpoint.is_none(), "ephemeral search writes nothing");
    }

    #[test]
    fn search_beats_or_matches_seed_designs() {
        let e = quick_evaluator();
        let seed_eval =
            e.evaluate(&fast_arch::presets::fast_large(), &SimOptions::default()).unwrap();
        let out = FastStudy::new(&e, 60)
            .seed(7)
            .optimizer(OptimizerKind::Lcs)
            .run()
            .expect("valid configuration");
        let best = out.best.unwrap();
        assert!(
            best.objective_value >= seed_eval.objective_value * (1.0 - 1e-9),
            "search {} must not lose to its seed {}",
            best.objective_value,
            seed_eval.objective_value
        );
    }

    #[test]
    fn unseeded_random_search_mostly_invalid_but_runs() {
        let e = quick_evaluator();
        let out = FastStudy::new(&e, 40)
            .seed(3)
            .optimizer(OptimizerKind::Random)
            .seed_designs(Vec::new())
            .run()
            .expect("valid configuration");
        // With a 1e13 space most random points are invalid; the run must
        // still complete and report counts consistently.
        assert_eq!(out.study.convergence.len(), 40);
        assert!(out.study.invalid_trials <= 40);
    }

    #[test]
    fn parallel_execution_reproduces_batched_execution() {
        let e = quick_evaluator();
        for kind in OptimizerKind::ALL {
            let run = |execution: Execution| {
                let e = e.fresh_eval_cache();
                FastStudy::new(&e, 48)
                    .seed(13)
                    .optimizer(kind)
                    .execution(execution)
                    .run()
                    .expect("valid configuration")
            };
            let seq = run(Execution::Batched { batch_size: 8 });
            let par = run(Execution::Parallel { threads: 8 });
            assert_eq!(
                seq.study.best_objective, par.study.best_objective,
                "{kind:?}: best objective must not depend on parallelism"
            );
            assert_eq!(seq.study.convergence, par.study.convergence, "{kind:?}");
            assert_eq!(seq.study.invalid_trials, par.study.invalid_trials, "{kind:?}");
            assert_eq!(
                seq.study.trials.iter().map(|t| &t.point).collect::<Vec<_>>(),
                par.study.trials.iter().map(|t| &t.point).collect::<Vec<_>>(),
                "{kind:?}: trial-for-trial proposal sequence must match"
            );
        }
    }

    #[test]
    fn parallel_search_shares_the_evaluation_cache() {
        let e = quick_evaluator().fresh_eval_cache();
        let out = FastStudy::new(&e, 40)
            .seed(2)
            .execution(Execution::Parallel { threads: 8 })
            .run()
            .expect("valid configuration");
        assert!(out.best.is_some());
        let stats = e.staged_cache_stats().fuse;
        // Seeded LCS re-proposes incumbent-adjacent points constantly; the
        // cache must absorb at least the re-evaluation of the best point.
        assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
        // Only distinct proposals may miss (+1 for the final best-point
        // re-evaluation): duplicates must be served from the cache.
        let distinct: std::collections::HashSet<_> =
            out.study.trials.iter().map(|t| &t.point).collect();
        assert!(
            stats.misses <= distinct.len() as u64 + 1,
            "duplicate proposals re-ran the simulator: {stats:?}, {} distinct points",
            distinct.len()
        );
        // The report's cache delta covers exactly this run's traffic.
        assert_eq!(out.staged.fuse.hits + out.staged.fuse.misses, stats.hits + stats.misses);
    }

    /// A checkpointed search killed mid-way resumes bit-identically and
    /// answers replayed rounds from the persisted evaluation cache.
    #[test]
    fn checkpointed_search_resumes_with_warm_cache() {
        let scratch = std::env::temp_dir().join(format!("fast-core-study-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let durable = Durability::Checkpointed { dir: scratch.clone(), every: 1 };

        let e1 = quick_evaluator().fresh_eval_cache();
        let straight = FastStudy::new(&e1, 32)
            .seed(11)
            .execution(Execution::Batched { batch_size: 8 })
            .run()
            .expect("valid configuration");

        // "Kill" after 16 trials, then rerun the full budget from the dir.
        let e2 = quick_evaluator().fresh_eval_cache();
        let _ = FastStudy::new(&e2, 16)
            .seed(11)
            .execution(Execution::Batched { batch_size: 8 })
            .durability(durable.clone())
            .run()
            .expect("valid configuration");

        let e3 = quick_evaluator().fresh_eval_cache();
        let resumed = FastStudy::new(&e3, 32)
            .seed(11)
            .execution(Execution::Batched { batch_size: 8 })
            .durability(durable)
            .run()
            .expect("valid configuration");
        let info = resumed.study.checkpoint.as_ref().expect("durable run reports checkpoints");
        assert_eq!(info.resumed_trials, 16);
        assert_eq!(resumed.study.best_point, straight.study.best_point);
        assert_eq!(resumed.study.convergence, straight.study.convergence);
        assert_eq!(resumed.study.trials, straight.study.trials);
        // The restored trials were never re-simulated: the only cache
        // traffic is the resumed half plus the final best-point decode.
        assert!(
            resumed.staged.fuse.misses <= straight.staged.fuse.misses,
            "resume must not re-simulate the replayed prefix: {:?} vs {:?}",
            resumed.staged.fuse,
            straight.staged.fuse
        );
    }

    #[test]
    fn screened_study_thins_simulation_and_reports_fidelity() {
        use fast_search::SurrogateTier;
        let exact_e = quick_evaluator().fresh_eval_cache();
        let exact = FastStudy::new(&exact_e, 48)
            .seed(5)
            .execution(Execution::Batched { batch_size: 8 })
            .run()
            .expect("valid configuration");
        assert!(exact.study.fidelity.is_none(), "exact studies report no fidelity block");

        let e = quick_evaluator().fresh_eval_cache();
        let screened = FastStudy::new(&e, 48)
            .seed(5)
            .execution(Execution::Batched { batch_size: 8 })
            .fidelity(Fidelity::Screened {
                keep_fraction: 0.25,
                min_full: 2,
                tier: SurrogateTier::S0,
            })
            .run()
            .expect("valid configuration");
        let fid = screened.study.fidelity.as_ref().expect("screened studies report fidelity");
        assert_eq!(fid.full_evals + fid.screened_out, 48, "every trial is accounted");
        assert!(
            fid.savings_factor() >= 2.0,
            "keep 0.25 must at least halve simulation: {} full of 48",
            fid.full_evals
        );
        // The seed designs anchor the screened run too: the surrogate ranks
        // them far above the mostly-infeasible random proposals.
        let best = screened.best.expect("screened search still finds valid designs");
        assert!(best.objective_value > 0.0);
        // Only fully evaluated trials may miss the cache (+1 best decode).
        assert!(
            screened.staged.fuse.misses <= fid.full_evals as u64 + 1,
            "screened-out trials must never reach the simulator: {:?}",
            screened.staged.fuse
        );
    }

    #[test]
    fn optimizer_kinds_instantiate() {
        for k in OptimizerKind::ALL {
            let o = k.build();
            assert!(!o.name().is_empty());
            assert!(!k.label().is_empty());
        }
    }
}
