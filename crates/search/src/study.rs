//! The scalar study types: [`StudyResult`], the [`trial_rng`] determinism
//! contract, and convergence-band aggregation (Figure 11).
//!
//! The driver functions that used to live here (`run_study`,
//! `run_study_batched`, `run_study_batched_resumable`) are gone — the
//! unified [`crate::builder::Study`] builder is the one spelling of a
//! study (`Study::new(space, n).seed(s).run(optimizer, eval)`, with
//! [`crate::builder::Execution`] and [`crate::builder::Durability`] as the
//! orthogonal axes).

use crate::optimizer::Trial;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Result of one study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResult {
    /// Optimizer name.
    pub optimizer: String,
    /// Best point found (index encoding), if any trial was valid.
    pub best_point: Option<Vec<usize>>,
    /// Best objective found.
    pub best_objective: Option<f64>,
    /// Best-so-far objective after each trial (`NaN` until first valid).
    pub convergence: Vec<f64>,
    /// Number of invalid (rejected) trials.
    pub invalid_trials: usize,
    /// All trials in order.
    pub trials: Vec<Trial>,
}

/// Derives the dedicated RNG of one trial from the study seed and the
/// trial's global index.
///
/// This is the determinism contract of batched/parallel studies: a trial's
/// random stream depends only on `(seed, trial_index)`, never on thread
/// scheduling or batch boundaries, so a parallel run reproduces the serial
/// run trial for trial. SplitMix64 mixing keeps nearby `(seed, index)` pairs
/// statistically unrelated.
#[must_use]
pub fn trial_rng(seed: u64, trial_index: usize) -> StdRng {
    let mut x = seed ^ (trial_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(x ^ (x >> 31))
}

/// Aggregates convergence curves from repeated runs: per-trial mean and a
/// normal-approximation confidence interval (Figure 11 plots mean and the
/// 90 % CI across 5 runs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceBand {
    /// Per-trial mean of best-so-far.
    pub mean: Vec<f64>,
    /// Per-trial lower CI bound.
    pub lo: Vec<f64>,
    /// Per-trial upper CI bound.
    pub hi: Vec<f64>,
}

/// Builds a [`ConvergenceBand`] from several convergence curves.
///
/// `z` is the normal quantile (1.645 for a 90 % interval). Trials where some
/// run has no valid incumbent yet (`NaN`) are averaged over the runs that do.
///
/// Curves may be *ragged* (unequal lengths): the band extends to the longest
/// curve, and position `t` aggregates only the curves that reach `t`. The
/// tail of the band therefore reflects fewer runs than the head — its CI
/// widens accordingly (smaller `n` in the standard error), and the mean can
/// step when a short run drops out. Callers comparing optimizers on equal
/// footing should pass equal-length curves (one per seed at a fixed trial
/// budget, as [`crate::builder::Study`] produces); the ragged behavior
/// exists for aggregating runs truncated by external budgets.
#[must_use]
pub fn convergence_band(curves: &[Vec<f64>], z: f64) -> ConvergenceBand {
    let len = curves.iter().map(Vec::len).max().unwrap_or(0);
    let mut mean = Vec::with_capacity(len);
    let mut lo = Vec::with_capacity(len);
    let mut hi = Vec::with_capacity(len);
    for t in 0..len {
        let vals: Vec<f64> =
            curves.iter().filter_map(|c| c.get(t).copied()).filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            mean.push(f64::NAN);
            lo.push(f64::NAN);
            hi.push(f64::NAN);
            continue;
        }
        let m = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - m).powi(2)).sum::<f64>()
            / (vals.len().saturating_sub(1).max(1)) as f64;
        let se = (var / vals.len() as f64).sqrt();
        mean.push(m);
        lo.push(m - z * se);
        hi.push(m + z * se);
    }
    ConvergenceBand { mean, lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{LcsSwarm, RandomSearch};
    use crate::builder::{Execution, Study, StudyEval};
    use crate::optimizer::{Optimizer, TrialResult};
    use crate::pareto::MultiObjective;
    use crate::snapshot::Checkpoint;
    use crate::space::{ParamDomain, ParamSpace};

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add("x", ParamDomain::Pow2 { min: 1, max: 1024 });
        s.add("y", ParamDomain::Pow2 { min: 1, max: 1024 });
        s
    }

    /// Scalar study at the default round size of one.
    fn run_scalar(
        space: &ParamSpace,
        optimizer: &mut dyn Optimizer,
        n_trials: usize,
        seed: u64,
        mut objective: impl FnMut(&[usize]) -> TrialResult,
    ) -> StudyResult {
        let mut eval = |p: &[usize]| MultiObjective::from(objective(p));
        Study::new(space, n_trials)
            .seed(seed)
            .run(optimizer, StudyEval::points(&mut eval))
            .expect("valid study configuration")
            .into_study_result()
    }

    /// Batched scalar study in the one modern spelling.
    fn run_batched(
        space: &ParamSpace,
        optimizer: &mut dyn Optimizer,
        n_trials: usize,
        batch_size: usize,
        seed: u64,
        mut evaluate_batch: impl FnMut(&[Vec<usize>]) -> Vec<TrialResult>,
    ) -> StudyResult {
        let mut eval = |points: &[Vec<usize>]| {
            evaluate_batch(points).into_iter().map(MultiObjective::from).collect::<Vec<_>>()
        };
        Study::new(space, n_trials)
            .seed(seed)
            .execution(Execution::Batched { batch_size })
            .run(optimizer, StudyEval::batch(&mut eval))
            .expect("valid study configuration")
            .into_study_result()
    }

    /// Batched scalar study with programmatic round snapshots — the
    /// in-memory counterpart of `Durability::Checkpointed`.
    #[allow(clippy::too_many_arguments)]
    fn run_resumable(
        space: &ParamSpace,
        optimizer: &mut dyn Optimizer,
        n_trials: usize,
        batch_size: usize,
        seed: u64,
        resume_from: Option<Checkpoint>,
        mut evaluate_batch: impl FnMut(&[Vec<usize>]) -> Vec<TrialResult>,
        mut on_round: impl FnMut(&Checkpoint),
    ) -> StudyResult {
        let mut eval = |points: &[Vec<usize>]| {
            evaluate_batch(points).into_iter().map(MultiObjective::from).collect::<Vec<_>>()
        };
        let mut hook = |_p: &crate::StudyProgress, make: &dyn Fn() -> Checkpoint| on_round(&make());
        Study::new(space, n_trials)
            .seed(seed)
            .execution(Execution::Batched { batch_size })
            .run_hooked(optimizer, StudyEval::batch(&mut eval), None, resume_from, Some(&mut hook))
            .into_study_result()
    }

    #[test]
    fn study_tracks_best_so_far_monotonically() {
        let s = space();
        let mut opt = RandomSearch::new();
        let res = run_scalar(&s, &mut opt, 2000, 42, |p| TrialResult::Valid((p[0] + p[1]) as f64));
        assert_eq!(res.convergence.len(), 2000);
        for w in res.convergence.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(res.best_objective, Some(20.0)); // both at index 10
        assert_eq!(res.invalid_trials, 0);
    }

    #[test]
    fn study_counts_invalid_trials() {
        let s = space();
        let mut opt = RandomSearch::new();
        let res = run_scalar(&s, &mut opt, 100, 1, |p| {
            if p[0] > 5 {
                TrialResult::Invalid
            } else {
                TrialResult::Valid(p[0] as f64)
            }
        });
        assert!(res.invalid_trials > 0);
        assert!(res.best_objective.unwrap() <= 5.0);
    }

    #[test]
    fn reproducible_given_seed() {
        let s = space();
        let run = |seed| {
            let mut opt = LcsSwarm::default();
            run_scalar(&s, &mut opt, 100, seed, |p| TrialResult::Valid(p[0] as f64)).best_objective
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn trial_rng_is_deterministic_and_distinct() {
        use rand::RngCore as _;
        assert_eq!(trial_rng(9, 4).next_u64(), trial_rng(9, 4).next_u64());
        assert_ne!(trial_rng(9, 4).next_u64(), trial_rng(9, 5).next_u64());
        assert_ne!(trial_rng(9, 4).next_u64(), trial_rng(10, 4).next_u64());
    }

    #[test]
    fn batched_study_is_invariant_to_batch_size_for_random_search() {
        // Random search ignores history, so with per-trial RNGs the proposal
        // sequence — and therefore the whole study — must not depend on how
        // trials are grouped into batches.
        let s = space();
        let run = |batch| {
            let mut opt = RandomSearch::new();
            run_batched(&s, &mut opt, 97, batch, 5, |points| {
                points.iter().map(|p| TrialResult::Valid((p[0] * 3 + p[1]) as f64)).collect()
            })
        };
        let a = run(1);
        for batch in [2, 16, 97, 1000] {
            let b = run(batch);
            assert_eq!(a.best_point, b.best_point, "batch {batch}");
            assert_eq!(a.convergence, b.convergence, "batch {batch}");
            assert_eq!(
                a.trials.iter().map(|t| &t.point).collect::<Vec<_>>(),
                b.trials.iter().map(|t| &t.point).collect::<Vec<_>>(),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn batched_study_observes_every_trial() {
        struct Counting {
            observed: usize,
            proposed: usize,
        }
        impl Optimizer for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn propose(&mut self, space: &ParamSpace, rng: &mut StdRng) -> Vec<usize> {
                self.proposed += 1;
                space.sample(rng)
            }
            fn observe(&mut self, _space: &ParamSpace, _trial: &Trial) {
                self.observed += 1;
            }
        }
        let s = space();
        let mut opt = Counting { observed: 0, proposed: 0 };
        let res = run_batched(&s, &mut opt, 23, 4, 0, |points| {
            points.iter().map(|_| TrialResult::Invalid).collect()
        });
        assert_eq!(opt.proposed, 23);
        assert_eq!(opt.observed, 23);
        assert_eq!(res.invalid_trials, 23);
        assert_eq!(res.trials.len(), 23);
        assert!(res.best_point.is_none());
    }

    #[test]
    fn batched_study_matches_lcs_regardless_of_evaluation_order() {
        // For history-driven optimizers the guarantee is: same batch size,
        // same seed => same study, no matter how the evaluator computes a
        // round (the driver may parallelize internally).
        let s = space();
        let run = || {
            let mut opt = LcsSwarm::default();
            run_batched(&s, &mut opt, 80, 8, 11, |points| {
                points.iter().map(|p| TrialResult::Valid((p[0] + p[1]) as f64)).collect()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.convergence, b.convergence);
    }

    /// Scalar counterpart of the Pareto durability contract: checkpoint,
    /// resume with a fresh optimizer, end bit-identical.
    #[test]
    fn scalar_resumed_study_matches_uninterrupted() {
        let s = space();
        let objective = |pts: &[Vec<usize>]| -> Vec<TrialResult> {
            pts.iter()
                .map(|p| {
                    if p[0] > 512 {
                        TrialResult::Invalid
                    } else {
                        TrialResult::Valid((p[0] + 2 * p[1]) as f64)
                    }
                })
                .collect()
        };
        let mut straight_opt = LcsSwarm::default();
        let straight = run_batched(&s, &mut straight_opt, 50, 5, 17, objective);

        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut first = LcsSwarm::default();
        let _ = run_resumable(&s, &mut first, 25, 5, 17, None, objective, |ck| {
            checkpoints.push(ck.clone());
        });
        let ck = checkpoints.last().unwrap().clone();
        assert_eq!(ck.state.trials.len(), 25);

        let mut resumed_opt = LcsSwarm::default();
        let resumed = run_resumable(&s, &mut resumed_opt, 50, 5, 17, Some(ck), objective, |_| {});
        assert_eq!(resumed.best_point, straight.best_point);
        assert_eq!(resumed.convergence, straight.convergence);
        assert_eq!(resumed.trials, straight.trials);
        assert_eq!(resumed.invalid_trials, straight.invalid_trials);
    }

    /// Extending a study whose final round was partial would regroup the
    /// remaining trials into different rounds than an uninterrupted longer
    /// run — the driver must refuse rather than silently diverge.
    #[test]
    #[should_panic(expected = "not a round boundary")]
    fn resume_rejects_checkpoints_off_the_round_grid() {
        let s = space();
        let objective =
            |pts: &[Vec<usize>]| -> Vec<TrialResult> { vec![TrialResult::Invalid; pts.len()] };
        // 10 trials in rounds of 4: the final checkpoint sits at 10, which
        // is a completed study but not a multiple of 4.
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut opt = RandomSearch::new();
        let _ = run_resumable(&s, &mut opt, 10, 4, 3, None, objective, |ck| {
            checkpoints.push(ck.clone());
        });
        let ck = checkpoints.pop().unwrap();
        assert_eq!(ck.state.trials.len(), 10);
        // Extending the budget to 20 from that checkpoint must panic.
        let mut opt2 = RandomSearch::new();
        let _ = run_resumable(&s, &mut opt2, 20, 4, 3, Some(ck), objective, |_| {});
    }

    #[test]
    fn band_statistics() {
        let curves = vec![vec![1.0, 2.0, 3.0], vec![3.0, 4.0, 5.0]];
        let band = convergence_band(&curves, 1.645);
        assert!((band.mean[0] - 2.0).abs() < 1e-12);
        assert!((band.mean[2] - 4.0).abs() < 1e-12);
        assert!(band.lo[0] < band.mean[0] && band.mean[0] < band.hi[0]);
    }

    /// The documented ragged behavior: positions past a short curve's end
    /// aggregate only the longer curves, so the tail mean tracks the
    /// surviving runs (and the single-run tail has a zero-width CI).
    #[test]
    fn band_ragged_curves_average_over_runs_that_reach_t() {
        let curves = vec![vec![1.0, 2.0], vec![3.0, 4.0, 10.0]];
        let band = convergence_band(&curves, 1.645);
        assert_eq!(band.mean.len(), 3, "band extends to the longest curve");
        assert!((band.mean[0] - 2.0).abs() < 1e-12);
        assert!((band.mean[1] - 3.0).abs() < 1e-12);
        // t = 2: only the long run remains.
        assert!((band.mean[2] - 10.0).abs() < 1e-12);
        assert!((band.lo[2] - 10.0).abs() < 1e-12, "single-run tail has zero-width CI");
        assert!((band.hi[2] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn band_handles_nan_prefix() {
        let curves = vec![vec![f64::NAN, 2.0], vec![1.0, 4.0]];
        let band = convergence_band(&curves, 1.0);
        assert!((band.mean[0] - 1.0).abs() < 1e-12);
        assert!((band.mean[1] - 3.0).abs() < 1e-12);
    }
}
