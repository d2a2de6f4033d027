//! Multi-objective (Pareto) search: the layer the paper's budget sweeps
//! stand on (Figs. 9–11 report *frontiers* across area/TDP budgets, not
//! single optima).
//!
//! The scalar study drivers in [`crate::study`] optimize one objective;
//! this module adds the multi-metric path alongside them:
//!
//! * [`MultiObjective`] — the trial outcome carrying one value per tracked
//!   metric plus the scalar *guide* the black-box optimizer climbs;
//! * [`ParetoArchive`] — an order-invariant non-dominated set over two or
//!   more metrics with per-metric [`MetricDirection`]s;
//! * the multi-objective study itself now runs through the unified
//!   [`crate::Study`] builder
//!   (`.objective(StudyObjective::Pareto { .. })`), which keeps the scalar
//!   drivers' `trial_rng(seed, index)` determinism contract, so parallel
//!   evaluation reproduces the serial study frontier bit for bit.

use crate::optimizer::TrialResult;
use serde::{Deserialize, Serialize};

/// Whether larger or smaller values of a metric are preferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricDirection {
    /// Larger is better (e.g. geomean QPS).
    Maximize,
    /// Smaller is better (e.g. TDP watts, die area).
    Minimize,
}

impl MetricDirection {
    /// Canonicalizes `v` so that "larger is better" holds for every metric:
    /// minimized metrics are negated.
    #[must_use]
    fn signed(self, v: f64) -> f64 {
        match self {
            MetricDirection::Maximize => v,
            MetricDirection::Minimize => -v,
        }
    }
}

/// Outcome of evaluating one point under several metrics at once — the
/// multi-objective counterpart of [`TrialResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MultiObjective {
    /// A feasible design.
    Valid {
        /// One value per archive metric, in the archive's metric order.
        metrics: Vec<f64>,
        /// The scalar the black-box optimizer maximizes while the archive
        /// tracks the full metric vector (e.g. the scenario objective).
        guide: f64,
    },
    /// An infeasible design (safe-search rejection), counted but never
    /// archived.
    Invalid,
    /// A low-fidelity outcome: the point was screened out by a surrogate
    /// ([`crate::Fidelity::Screened`]) and never reached the real
    /// evaluator. `guide` is the surrogate's predicted objective
    /// ([`f64::NEG_INFINITY`] for predicted-infeasible points). Never
    /// archived and never an incumbent: frontiers and best points are built
    /// only from fully evaluated trials.
    Surrogate {
        /// The surrogate score the point was ranked (and rejected) with.
        guide: f64,
    },
}

impl MultiObjective {
    /// Convenience constructor for a feasible outcome.
    #[must_use]
    pub fn valid(metrics: Vec<f64>, guide: f64) -> Self {
        MultiObjective::Valid { metrics, guide }
    }

    /// Whether this outcome came from a full evaluation (valid or
    /// rejected), as opposed to a surrogate screen.
    #[must_use]
    pub fn fully_evaluated(&self) -> bool {
        !matches!(self, MultiObjective::Surrogate { .. })
    }
}

/// A scalar outcome is a multi-objective outcome with no tracked metrics —
/// the bridge that lets single-objective evaluators feed the unified
/// [`crate::Study`] driver with `.into()`.
impl From<TrialResult> for MultiObjective {
    fn from(result: TrialResult) -> Self {
        match result {
            TrialResult::Valid(guide) => MultiObjective::Valid { metrics: Vec::new(), guide },
            TrialResult::Invalid => MultiObjective::Invalid,
        }
    }
}

/// One completed multi-objective trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTrial {
    /// The proposed point (index encoding).
    pub point: Vec<usize>,
    /// Evaluation outcome.
    pub result: MultiObjective,
}

/// A non-dominated point: the design and its metric vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// The design (index encoding).
    pub point: Vec<usize>,
    /// Raw metric values (not canonicalized), in archive metric order.
    pub metrics: Vec<f64>,
}

/// A non-dominated set (Pareto frontier) over two or more metrics.
///
/// Insertion order never affects the final set: a point enters the archive
/// iff no archived point dominates it, and entering evicts every archived
/// point it dominates. Points with identical metric vectors do not dominate
/// each other, so distinct co-located designs are all kept; exact duplicates
/// (same point *and* metrics) are inserted once. [`ParetoArchive::frontier`]
/// returns the set in a canonical sort order, so two archives holding the
/// same set render identically — the basis of the order-invariance and
/// parallel-equals-serial guarantees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoArchive {
    directions: Vec<MetricDirection>,
    entries: Vec<FrontierPoint>,
}

impl ParetoArchive {
    /// Creates an empty archive over the given metric directions.
    ///
    /// # Panics
    /// Panics if fewer than two metrics are given — a single metric is a
    /// scalar study; use a [`crate::Study`] with the default
    /// [`crate::StudyObjective::Single`] objective instead.
    #[must_use]
    pub fn new(directions: &[MetricDirection]) -> Self {
        assert!(directions.len() >= 2, "a Pareto archive needs >= 2 metrics");
        ParetoArchive { directions: directions.to_vec(), entries: Vec::new() }
    }

    /// Number of tracked metrics.
    #[must_use]
    pub fn metrics(&self) -> usize {
        self.directions.len()
    }

    /// The metric directions.
    #[must_use]
    pub fn directions(&self) -> &[MetricDirection] {
        &self.directions
    }

    /// Number of non-dominated points currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `a` dominates `b`: at least as good on every metric and
    /// strictly better on at least one (directions applied).
    fn dominates(&self, a: &[f64], b: &[f64]) -> bool {
        let mut strictly = false;
        for (d, (&va, &vb)) in self.directions.iter().zip(a.iter().zip(b)) {
            let (sa, sb) = (d.signed(va), d.signed(vb));
            if sa < sb {
                return false;
            }
            if sa > sb {
                strictly = true;
            }
        }
        strictly
    }

    /// Offers a point to the archive. Returns `true` if it was kept (it is
    /// non-dominated and not an exact duplicate), evicting any archived
    /// points it dominates.
    ///
    /// # Panics
    /// Panics if `metrics` has the wrong arity or contains a NaN (NaN has no
    /// place in a dominance order).
    pub fn insert(&mut self, point: Vec<usize>, metrics: Vec<f64>) -> bool {
        assert_eq!(metrics.len(), self.directions.len(), "metric arity mismatch");
        assert!(metrics.iter().all(|m| !m.is_nan()), "NaN metric offered to Pareto archive");
        for e in &self.entries {
            if self.dominates(&e.metrics, &metrics) {
                return false;
            }
            if e.metrics == metrics && e.point == point {
                return false; // exact duplicate
            }
        }
        let dominated: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.dominates(&metrics, &self.entries[i].metrics))
            .collect();
        for i in dominated.into_iter().rev() {
            self.entries.remove(i);
        }
        self.entries.push(FrontierPoint { point, metrics });
        true
    }

    /// The raw entries in insertion order — the serialization view.
    /// Prefer [`ParetoArchive::frontier`] for reporting: insertion order is
    /// an implementation detail that checkpointing must preserve (so a
    /// resumed archive is *bit*-identical, not merely set-identical) but
    /// nothing else should depend on.
    #[must_use]
    pub fn entries(&self) -> &[FrontierPoint] {
        &self.entries
    }

    /// Rebuilds an archive from serialized parts, preserving entry order.
    ///
    /// Validates everything [`ParetoArchive::insert`] would have: ≥ 2
    /// directions, metric arity, no NaNs, and mutual non-domination with no
    /// exact duplicates — so a decoded archive is indistinguishable from
    /// the archive that was encoded.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn from_parts(
        directions: &[MetricDirection],
        entries: Vec<FrontierPoint>,
    ) -> Result<Self, String> {
        if directions.len() < 2 {
            return Err(format!("a Pareto archive needs >= 2 metrics, got {}", directions.len()));
        }
        let mut archive = ParetoArchive { directions: directions.to_vec(), entries: Vec::new() };
        for fp in entries {
            if fp.metrics.len() != directions.len() {
                return Err(format!(
                    "entry arity {} != {} directions",
                    fp.metrics.len(),
                    directions.len()
                ));
            }
            if fp.metrics.iter().any(|m| m.is_nan()) {
                return Err("NaN metric in archive entry".to_string());
            }
            if !archive.insert(fp.point, fp.metrics) {
                return Err("archive entries are not a mutually non-dominated set".to_string());
            }
        }
        Ok(archive)
    }

    /// The non-dominated set in canonical order: sorted by metric values
    /// (lexicographic `total_cmp`), ties broken by the point encoding.
    #[must_use]
    pub fn frontier(&self) -> Vec<FrontierPoint> {
        let mut f = self.entries.clone();
        f.sort_by(|a, b| {
            a.metrics
                .iter()
                .zip(&b.metrics)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.point.cmp(&b.point))
        });
        f
    }
}

/// Result of one multi-objective study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoStudyResult {
    /// Optimizer name.
    pub optimizer: String,
    /// The non-dominated set over all valid trials, in canonical order.
    pub frontier: Vec<FrontierPoint>,
    /// Best-so-far *guide* scalar after each trial (`NaN` until the first
    /// valid trial) — the multi-objective analogue of
    /// [`crate::StudyResult::convergence`].
    pub guide_convergence: Vec<f64>,
    /// Number of invalid (rejected) trials.
    pub invalid_trials: usize,
    /// All trials in order.
    pub trials: Vec<MultiTrial>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::RandomSearch;
    use crate::builder::{Execution, Study, StudyEval, StudyObjective};
    use crate::optimizer::{Optimizer, Trial};
    use crate::snapshot::Checkpoint;
    use crate::space::{ParamDomain, ParamSpace};
    use rand::rngs::StdRng;
    use MetricDirection::{Maximize, Minimize};

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add("x", ParamDomain::Pow2 { min: 1, max: 64 });
        s.add("y", ParamDomain::Pow2 { min: 1, max: 64 });
        s
    }

    /// Pareto study in rounds of one.
    fn run_pareto(
        space: &ParamSpace,
        optimizer: &mut dyn Optimizer,
        n_trials: usize,
        seed: u64,
        directions: &[MetricDirection],
        mut objective: impl FnMut(&[usize]) -> MultiObjective,
    ) -> ParetoStudyResult {
        let mut eval = |p: &[usize]| objective(p);
        Study::new(space, n_trials)
            .seed(seed)
            .objective(StudyObjective::pareto(directions))
            .execution(Execution::Batched { batch_size: 1 })
            .run(optimizer, StudyEval::points(&mut eval))
            .expect("valid study configuration")
            .into_pareto_result()
    }

    /// Batched Pareto study in the one modern spelling.
    fn run_pareto_batched(
        space: &ParamSpace,
        optimizer: &mut dyn Optimizer,
        n_trials: usize,
        batch_size: usize,
        seed: u64,
        directions: &[MetricDirection],
        mut evaluate_batch: impl FnMut(&[Vec<usize>]) -> Vec<MultiObjective>,
    ) -> ParetoStudyResult {
        let mut eval = |points: &[Vec<usize>]| evaluate_batch(points);
        Study::new(space, n_trials)
            .seed(seed)
            .objective(StudyObjective::pareto(directions))
            .execution(Execution::Batched { batch_size })
            .run(optimizer, StudyEval::batch(&mut eval))
            .expect("valid study configuration")
            .into_pareto_result()
    }

    /// Batched Pareto study with programmatic round snapshots — the
    /// in-memory counterpart of `Durability::Checkpointed`.
    #[allow(clippy::too_many_arguments)] // the durable superset of the batched helper
    fn run_pareto_resumable(
        space: &ParamSpace,
        optimizer: &mut dyn Optimizer,
        n_trials: usize,
        batch_size: usize,
        seed: u64,
        directions: &[MetricDirection],
        resume_from: Option<Checkpoint>,
        mut evaluate_batch: impl FnMut(&[Vec<usize>]) -> Vec<MultiObjective>,
        mut on_round: impl FnMut(&Checkpoint),
    ) -> ParetoStudyResult {
        let mut eval = |points: &[Vec<usize>]| evaluate_batch(points);
        let mut hook = |_p: &crate::StudyProgress, make: &dyn Fn() -> Checkpoint| on_round(&make());
        Study::new(space, n_trials)
            .seed(seed)
            .objective(StudyObjective::pareto(directions))
            .execution(Execution::Batched { batch_size })
            .run_hooked(optimizer, StudyEval::batch(&mut eval), None, resume_from, Some(&mut hook))
            .into_pareto_result()
    }

    #[test]
    fn archive_keeps_only_non_dominated() {
        let mut a = ParetoArchive::new(&[Maximize, Minimize]);
        assert!(a.insert(vec![0], vec![1.0, 5.0]));
        // Dominated: lower qps, higher tdp.
        assert!(!a.insert(vec![1], vec![0.5, 6.0]));
        // Dominates the first: evicts it.
        assert!(a.insert(vec![2], vec![2.0, 4.0]));
        assert_eq!(a.len(), 1);
        // Incomparable: better on one metric, worse on the other.
        assert!(a.insert(vec![3], vec![1.0, 1.0]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn archive_keeps_colocated_points_and_dedupes_exact() {
        let mut a = ParetoArchive::new(&[Maximize, Maximize]);
        assert!(a.insert(vec![0], vec![1.0, 1.0]));
        // Same metrics, different design: neither dominates, both kept.
        assert!(a.insert(vec![1], vec![1.0, 1.0]));
        // Exact duplicate: skipped.
        assert!(!a.insert(vec![0], vec![1.0, 1.0]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn archive_is_order_invariant_on_a_fixed_set() {
        let pts: Vec<(Vec<usize>, Vec<f64>)> = vec![
            (vec![0], vec![1.0, 5.0]),
            (vec![1], vec![2.0, 4.0]),
            (vec![2], vec![0.5, 6.0]),
            (vec![3], vec![2.0, 4.0]),
            (vec![4], vec![3.0, 9.0]),
            (vec![5], vec![1.5, 4.5]),
        ];
        let build = |order: &[usize]| {
            let mut a = ParetoArchive::new(&[Maximize, Minimize]);
            for &i in order {
                let (p, m) = pts[i].clone();
                a.insert(p, m);
            }
            a.frontier()
        };
        let reference = build(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(reference, build(&[5, 4, 3, 2, 1, 0]));
        assert_eq!(reference, build(&[3, 0, 5, 1, 4, 2]));
        assert_eq!(reference, build(&[2, 4, 0, 3, 1, 5]));
    }

    #[test]
    #[should_panic(expected = "metric arity mismatch")]
    fn archive_rejects_wrong_arity() {
        let mut a = ParetoArchive::new(&[Maximize, Minimize]);
        a.insert(vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = ">= 2 metrics")]
    fn archive_rejects_single_metric() {
        let _ = ParetoArchive::new(&[Maximize]);
    }

    #[test]
    fn pareto_study_tracks_frontier_and_guide() {
        let s = space();
        let mut opt = RandomSearch::new();
        let res = run_pareto(&s, &mut opt, 200, 7, &[Maximize, Minimize], |p| {
            // qps grows with x, "tdp" grows with x + y: the frontier is the
            // set of y == 0 points (any extra y costs tdp, gains nothing).
            let (x, y) = (p[0] as f64, p[1] as f64);
            MultiObjective::valid(vec![x, x + y], x / (x + y + 1.0))
        });
        assert_eq!(res.guide_convergence.len(), 200);
        assert_eq!(res.invalid_trials, 0);
        assert!(!res.frontier.is_empty());
        for fp in &res.frontier {
            assert_eq!(fp.point[1], 0, "frontier must be y == 0, got {:?}", fp.point);
        }
        // Guide convergence is monotone once finite.
        let mut last = f64::NEG_INFINITY;
        for v in res.guide_convergence.iter().filter(|v| v.is_finite()) {
            assert!(*v >= last);
            last = *v;
        }
    }

    #[test]
    fn pareto_study_counts_invalid_trials() {
        let s = space();
        let mut opt = RandomSearch::new();
        let res = run_pareto(&s, &mut opt, 100, 3, &[Maximize, Minimize], |p| {
            if p[0] > 3 {
                MultiObjective::Invalid
            } else {
                MultiObjective::valid(vec![p[0] as f64, p[1] as f64], p[0] as f64)
            }
        });
        assert!(res.invalid_trials > 0);
        assert!(res.frontier.iter().all(|fp| fp.point[0] <= 3));
        assert_eq!(res.trials.len(), 100);
    }

    /// The durability contract: checkpoint after any round, resume with a
    /// *fresh* optimizer, and the study ends bit-identical to an
    /// uninterrupted run — for every built-in algorithm (state restore)
    /// and for an Opaque-state optimizer (replay path).
    #[test]
    fn resumed_study_is_bit_identical_to_uninterrupted() {
        use crate::algorithms::{LcsSwarm, Tpe};

        let s = space();
        let dirs = [Maximize, Minimize];
        let objective = |pts: &[Vec<usize>]| -> Vec<MultiObjective> {
            pts.iter()
                .map(|p| {
                    if p[0] == 0 && p[1] == 0 {
                        MultiObjective::Invalid
                    } else {
                        let (x, y) = (p[0] as f64, p[1] as f64);
                        MultiObjective::valid(vec![x, x + y], x / (y + 1.0))
                    }
                })
                .collect()
        };

        type MkOpt = fn() -> Box<dyn Optimizer>;
        let makers: [MkOpt; 3] = [
            || Box::new(RandomSearch::new()),
            || Box::new(LcsSwarm::default()),
            || Box::new(Tpe::new()),
        ];
        for mk in makers {
            let mut straight_opt = mk();
            let straight =
                run_pareto_batched(&s, straight_opt.as_mut(), 60, 8, 11, &dirs, objective);

            // Capture checkpoints at every round boundary, then resume from
            // a mid-study one with a fresh optimizer.
            let mut checkpoints: Vec<Checkpoint> = Vec::new();
            let mut first_opt = mk();
            let _ = run_pareto_resumable(
                &s,
                first_opt.as_mut(),
                32,
                8,
                11,
                &dirs,
                None,
                objective,
                |ck| checkpoints.push(ck.clone()),
            );
            assert_eq!(checkpoints.len(), 4, "{}: one checkpoint per round", first_opt.name());
            let ck = checkpoints[2].clone(); // killed after 24 of 60 trials
            assert_eq!(ck.state.trials.len(), 24);

            let mut resumed_opt = mk();
            let resumed = run_pareto_resumable(
                &s,
                resumed_opt.as_mut(),
                60,
                8,
                11,
                &dirs,
                Some(ck),
                objective,
                |_| {},
            );

            let name = resumed_opt.name();
            assert_eq!(resumed.frontier, straight.frontier, "{name}: frontier");
            assert_eq!(
                resumed.guide_convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                straight.guide_convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{name}: convergence"
            );
            assert_eq!(resumed.trials, straight.trials, "{name}: trial sequence");
            assert_eq!(resumed.invalid_trials, straight.invalid_trials, "{name}");
        }
    }

    /// An optimizer whose `save_state` stays `Opaque` exercises the replay
    /// fallback: resume must still be bit-identical.
    #[test]
    fn opaque_optimizer_resumes_via_replay() {
        use crate::algorithms::LcsSwarm;

        /// LCS with snapshotting hidden — forces the replay path.
        struct NoSnapshot(LcsSwarm);
        impl Optimizer for NoSnapshot {
            fn name(&self) -> &'static str {
                "no-snapshot LCS"
            }
            fn propose(&mut self, space: &ParamSpace, rng: &mut StdRng) -> Vec<usize> {
                self.0.propose(space, rng)
            }
            fn observe(&mut self, space: &ParamSpace, trial: &Trial) {
                self.0.observe(space, trial);
            }
        }

        let s = space();
        let dirs = [Maximize, Minimize];
        let objective = |pts: &[Vec<usize>]| -> Vec<MultiObjective> {
            pts.iter()
                .map(|p| MultiObjective::valid(vec![p[0] as f64, p[1] as f64], p[0] as f64))
                .collect()
        };

        let mut straight_opt = NoSnapshot(LcsSwarm::default());
        let straight = run_pareto_batched(&s, &mut straight_opt, 48, 6, 3, &dirs, objective);

        let mut checkpoints = Vec::new();
        let mut first = NoSnapshot(LcsSwarm::default());
        let _ = run_pareto_resumable(&s, &mut first, 24, 6, 3, &dirs, None, objective, |ck| {
            checkpoints.push(ck.clone());
        });
        let ck = checkpoints.last().unwrap().clone();
        assert_eq!(ck.optimizer, crate::snapshot::OptimizerState::Opaque);

        let mut resumed_opt = NoSnapshot(LcsSwarm::default());
        let resumed = run_pareto_resumable(
            &s,
            &mut resumed_opt,
            48,
            6,
            3,
            &dirs,
            Some(ck),
            objective,
            |_| {},
        );
        assert_eq!(resumed.frontier, straight.frontier);
        assert_eq!(resumed.trials, straight.trials);
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn resume_rejects_checkpoint_from_a_different_seed() {
        let s = space();
        let dirs = [Maximize, Minimize];
        let objective = |pts: &[Vec<usize>]| -> Vec<MultiObjective> {
            pts.iter().map(|p| MultiObjective::valid(vec![p[0] as f64, 0.0], 0.0)).collect()
        };
        let mut checkpoints = Vec::new();
        let mut opt = RandomSearch::new();
        let _ = run_pareto_resumable(&s, &mut opt, 8, 4, 1, &dirs, None, objective, |ck| {
            checkpoints.push(ck.clone());
        });
        let mut opt2 = RandomSearch::new();
        let _ = run_pareto_resumable(
            &s,
            &mut opt2,
            8,
            4,
            2, // different seed
            &dirs,
            Some(checkpoints.pop().unwrap()),
            objective,
            |_| {},
        );
    }

    #[test]
    fn batched_pareto_study_is_invariant_to_batch_size_for_random_search() {
        let s = space();
        let run = |batch| {
            let mut opt = RandomSearch::new();
            run_pareto_batched(&s, &mut opt, 93, batch, 5, &[Maximize, Minimize], |pts| {
                pts.iter()
                    .map(|p| {
                        MultiObjective::valid(
                            vec![(p[0] * 2) as f64, (p[0] + p[1]) as f64],
                            p[0] as f64,
                        )
                    })
                    .collect()
            })
        };
        let a = run(1);
        for batch in [2, 16, 93, 1000] {
            let b = run(batch);
            assert_eq!(a.frontier, b.frontier, "batch {batch}");
            assert_eq!(a.guide_convergence, b.guide_convergence, "batch {batch}");
        }
    }
}
