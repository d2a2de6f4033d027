//! # fast-search — black-box optimization for FAST (the Vizier stand-in)
//!
//! The paper drives its design-space exploration with Google Vizier (§5.3,
//! §6.1): a service proposing hyperparameter settings, with LCS and random
//! sampling as alternative heuristics (Figure 11) and *safe search* rejecting
//! invalid designs. This crate rebuilds that substrate:
//!
//! * [`ParamSpace`] — discrete, named parameter domains (powers of two,
//!   categoricals, booleans — exactly Table 3's shapes);
//! * [`Optimizer`] implementations: [`RandomSearch`], [`LcsSwarm`] (linear
//!   combination swarm) and [`Tpe`] (a Parzen-estimator Bayesian optimizer
//!   standing in for Vizier's default);
//! * [`Study`] — the **unified study builder**: one driver whose orthogonal
//!   axes replace the old `run_study_*` function family — objective
//!   ([`StudyObjective::Single`] incumbent or [`StudyObjective::Pareto`]
//!   frontier over a [`ParetoArchive`]), execution ([`Execution::Batched`]
//!   rounds of per-trial [`trial_rng`] proposals, or [`Execution::Parallel`]
//!   rounds scored concurrently), durability ([`Durability::Ephemeral`] or
//!   [`Durability::Checkpointed`]), fidelity ([`Fidelity`]) and seed,
//!   validated at [`Study::run`] time with a typed [`StudyConfigError`] and
//!   returning one [`StudyReport`];
//! * [`convergence_band`] — multi-run mean/CI aggregation for Figure 11;
//! * [`snapshot`] — the durable-study substrate: one checkpoint record
//!   captures a study at a round boundary (incumbent, archive, convergence,
//!   trials, [`OptimizerState`], screening state, and the `trial_rng`
//!   cursor as `(seed, trials_done)`); [`Durability::Checkpointed`]
//!   persists one per round interval and resumes it bit-identically —
//!   interrupted-then-resumed equals uninterrupted.
//!
//! ```
//! use fast_search::{ParamSpace, ParamDomain, RandomSearch, Study, StudyEval, TrialResult};
//!
//! let mut space = ParamSpace::new();
//! space.add("pe_count", ParamDomain::Pow2 { min: 1, max: 64 });
//! let mut opt = RandomSearch::new();
//! let mut eval = |point: &[usize]| TrialResult::Valid(space.value(point, 0) as f64).into();
//! let report = Study::new(&space, 50)
//!     .seed(0)
//!     .run(&mut opt, StudyEval::points(&mut eval))
//!     .expect("valid configuration");
//! assert_eq!(report.best_objective, Some(64.0));
//! ```
//!
pub mod algorithms;
pub mod builder;
pub mod optimizer;
pub mod pareto;
pub mod screen;
pub mod snapshot;
pub mod space;
pub mod stats;
pub mod study;

pub use algorithms::{LcsSwarm, RandomSearch, Tpe};
pub use builder::{
    CheckpointInfo, Durability, Execution, Study, StudyConfigError, StudyEval, StudyObjective,
    StudyProgress, StudyReport,
};
pub use optimizer::{Optimizer, Trial, TrialResult};
pub use pareto::{
    FrontierPoint, MetricDirection, MultiObjective, MultiTrial, ParetoArchive, ParetoStudyResult,
};
pub use screen::{Fidelity, FidelityReport, Screener, SurrogateTier};
pub use snapshot::OptimizerState;
pub use space::{ParamDef, ParamDomain, ParamSpace};
pub use stats::{kendall_tau, spearman_rank};
pub use study::{convergence_band, trial_rng, ConvergenceBand, StudyResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The toy study shared by the fidelity properties: two Table-3-shaped
    /// axes, one categorical level rejected as invalid, and a two-metric
    /// Pareto objective so the frontier is exercised too.
    fn fidelity_fixture(
    ) -> (ParamSpace, [MetricDirection; 2], impl Fn(&[usize]) -> MultiObjective + Sync) {
        let mut space = ParamSpace::new();
        space.add("a", ParamDomain::Pow2 { min: 1, max: 256 });
        space.add("b", ParamDomain::Categorical { n: 7 });
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let eval = |p: &[usize]| {
            if p[1] == 6 {
                MultiObjective::Invalid
            } else {
                MultiObjective::valid(
                    vec![(p[0] * (p[1] + 1)) as f64, (p[0] + 3 * p[1]) as f64],
                    (p[0] * (p[1] + 1)) as f64,
                )
            }
        };
        (space, dirs, eval)
    }

    /// One fresh optimizer of each kind the paper sweeps (Figure 11).
    fn make_opt(ix: usize) -> Box<dyn Optimizer> {
        match ix {
            0 => Box::new(RandomSearch::new()),
            1 => Box::new(LcsSwarm::new(6)),
            _ => Box::new(Tpe::new()),
        }
    }

    /// A screener that counts calls; the fidelity properties only ever hand
    /// it to studies that must ignore it or keep every proposal.
    struct OracleScreener {
        seen: usize,
    }

    impl Screener for OracleScreener {
        fn ready(&self) -> bool {
            true
        }

        fn score(&self, p: &[usize]) -> f64 {
            (p[0] * 2 + p[1]) as f64
        }

        fn observe(&mut self, _point: &[usize], _guide: Option<f64>) {
            self.seen += 1;
        }

        fn save_state(&self) -> Vec<u8> {
            Vec::new()
        }

        fn load_state(&mut self, _bytes: &[u8]) -> bool {
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random samples always lie inside the space, for arbitrary spaces.
        #[test]
        fn samples_in_space(dims in prop::collection::vec(0u32..=8, 1..6), seed in 0u64..1000) {
            let mut space = ParamSpace::new();
            for (i, d) in dims.iter().enumerate() {
                space.add(format!("p{i}"), ParamDomain::Pow2 { min: 1, max: 1u64 << d });
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let p = space.sample(&mut rng);
                prop_assert!(space.contains(&p));
            }
        }

        /// A Pareto archive is order-invariant: inserting the same trials in
        /// any order yields the same non-dominated set (satellite of the
        /// parallel==sequential frontier guarantee).
        #[test]
        fn pareto_archive_order_invariant(
            raw in prop::collection::vec((0usize..40, 0u32..20, 0u32..20), 1..40),
            seed in 0u64..1000,
        ) {
            use rand::Rng as _;
            let pts: Vec<(Vec<usize>, Vec<f64>)> = raw
                .iter()
                .map(|&(p, a, b)| (vec![p], vec![f64::from(a), f64::from(b)]))
                .collect();
            let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
            let build = |order: &[usize]| {
                let mut arch = ParetoArchive::new(&dirs);
                for &i in order {
                    let (p, m) = pts[i].clone();
                    arch.insert(p, m);
                }
                arch.frontier()
            };
            let forward: Vec<usize> = (0..pts.len()).collect();
            let reference = build(&forward);
            // Reversed plus a seeded Fisher–Yates shuffle.
            let mut reversed = forward.clone();
            reversed.reverse();
            prop_assert_eq!(&build(&reversed), &reference);
            let mut shuffled = forward;
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0..=i);
                shuffled.swap(i, j);
            }
            prop_assert_eq!(&build(&shuffled), &reference);
        }

        /// A batch-1 Pareto study equals any other batch size for random
        /// search: the frontier is bit-identical, so a caller evaluating
        /// rounds in parallel reproduces the sequential study (the
        /// evaluator returns results in proposal order either way).
        #[test]
        fn pareto_batched_matches_sequential(seed in 0u64..200, batch in 1usize..24) {
            let mut space = ParamSpace::new();
            space.add("a", ParamDomain::Pow2 { min: 1, max: 256 });
            space.add("b", ParamDomain::Categorical { n: 7 });
            let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
            let score = |p: &[usize]| {
                if p[1] == 6 {
                    MultiObjective::Invalid
                } else {
                    MultiObjective::valid(
                        vec![(p[0] * (p[1] + 1)) as f64, (p[0] + 3 * p[1]) as f64],
                        p[0] as f64,
                    )
                }
            };
            let run = |batch_size: usize| {
                let mut opt = RandomSearch::new();
                let mut eval = |p: &[usize]| score(p);
                Study::new(&space, 60)
                    .seed(seed)
                    .objective(StudyObjective::pareto(&dirs))
                    .execution(Execution::Batched { batch_size })
                    .run(&mut opt, StudyEval::points(&mut eval))
                    .expect("valid configuration")
                    .into_pareto_result()
            };
            let seq = run(1);
            let bat = run(batch);
            prop_assert_eq!(&seq.frontier, &bat.frontier);
            // Bitwise: the convergence prefix is NaN until the first valid
            // trial, and NaN != NaN under PartialEq.
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&seq.guide_convergence), bits(&bat.guide_convergence));
            prop_assert_eq!(seq.invalid_trials, bat.invalid_trials);
        }

        /// The fidelity axis is inert for exact studies: a study built
        /// without touching the axis, one with an explicit
        /// [`Fidelity::Exact`], and one handed a screener through
        /// `run_with` all produce bit-identical reports — across every
        /// optimizer and execution shape — and the ignored screener is
        /// never called.
        #[test]
        fn exact_fidelity_is_bit_identical_to_pre_axis_study(
            seed in 0u64..200,
            batch_size in 1usize..12,
            threads in 1usize..8,
            opt_ix in 0usize..3,
        ) {
            let (space, dirs, eval) = fidelity_fixture();
            for execution in
                [Execution::Batched { batch_size }, Execution::Parallel { threads }]
            {
                let base = || {
                    Study::new(&space, 40)
                        .seed(seed)
                        .objective(StudyObjective::pareto(&dirs))
                        .execution(execution)
                };
                let pre_axis = base()
                    .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&eval))
                    .expect("valid configuration");
                let explicit = base()
                    .fidelity(Fidelity::Exact)
                    .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&eval))
                    .expect("valid configuration");
                let mut sc = OracleScreener { seen: 0 };
                let handed = base()
                    .fidelity(Fidelity::Exact)
                    .run_with(make_opt(opt_ix).as_mut(), StudyEval::shared(&eval), Some(&mut sc), None)
                    .expect("valid configuration");
                prop_assert_eq!(sc.seen, 0, "Exact fidelity must never touch the screener");
                for report in [&explicit, &handed] {
                    prop_assert_eq!(&report.trials, &pre_axis.trials);
                    prop_assert_eq!(&report.frontier, &pre_axis.frontier);
                    prop_assert_eq!(&report.best_point, &pre_axis.best_point);
                    prop_assert_eq!(
                        report.best_objective.map(f64::to_bits),
                        pre_axis.best_objective.map(f64::to_bits)
                    );
                    let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&report.convergence), bits(&pre_axis.convergence));
                    prop_assert_eq!(report.invalid_trials, pre_axis.invalid_trials);
                    prop_assert!(report.fidelity.is_none());
                }
            }
        }

        /// `Screened { keep_fraction: 1.0 }` degenerates to exact: every
        /// proposal is fully evaluated, so the trial record, convergence
        /// curve and frontier are bit-identical to the exact study — only
        /// the [`FidelityReport`] is added, and it records zero screening.
        #[test]
        fn keep_everything_screened_study_is_exact_plus_a_report(
            seed in 0u64..200,
            batch_size in 1usize..12,
            threads in 1usize..8,
            opt_ix in 0usize..3,
            min_full in 0usize..4,
        ) {
            let (space, dirs, eval) = fidelity_fixture();
            for execution in
                [Execution::Batched { batch_size }, Execution::Parallel { threads }]
            {
                let base = || {
                    Study::new(&space, 40)
                        .seed(seed)
                        .objective(StudyObjective::pareto(&dirs))
                        .execution(execution)
                };
                let exact = base()
                    .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&eval))
                    .expect("valid configuration");
                let mut sc = OracleScreener { seen: 0 };
                let screened = base()
                    .fidelity(Fidelity::Screened {
                        keep_fraction: 1.0,
                        min_full,
                        tier: SurrogateTier::S0,
                    })
                    .run_with(make_opt(opt_ix).as_mut(), StudyEval::shared(&eval), Some(&mut sc), None)
                    .expect("valid configuration");
                prop_assert_eq!(&screened.trials, &exact.trials);
                prop_assert_eq!(&screened.frontier, &exact.frontier);
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&screened.convergence), bits(&exact.convergence));
                prop_assert_eq!(screened.invalid_trials, exact.invalid_trials);
                let fid = screened.fidelity.expect("screened studies report fidelity");
                prop_assert_eq!(fid.full_evals, 40);
                prop_assert_eq!(fid.screened_out, 0);
                prop_assert!((fid.savings_factor() - 1.0).abs() < 1e-12);
            }
        }

        /// Convergence curves are monotone non-decreasing past the first
        /// valid trial, for every optimizer.
        #[test]
        fn convergence_monotone(seed in 0u64..50) {
            let mut space = ParamSpace::new();
            space.add("a", ParamDomain::Pow2 { min: 1, max: 256 });
            space.add("b", ParamDomain::Categorical { n: 5 });
            for mut opt in [
                Box::new(RandomSearch::new()) as Box<dyn Optimizer>,
                Box::new(LcsSwarm::new(6)),
                Box::new(Tpe::new()),
            ] {
                let mut eval = |p: &[usize]| {
                    if p[1] == 4 {
                        MultiObjective::Invalid
                    } else {
                        MultiObjective::from(TrialResult::Valid((p[0] * (p[1] + 1)) as f64))
                    }
                };
                let res = Study::new(&space, 60)
                    .seed(seed)
                    .run(opt.as_mut(), StudyEval::points(&mut eval))
                    .expect("valid configuration");
                let mut last = f64::NEG_INFINITY;
                for v in res.convergence.iter().filter(|v| v.is_finite()) {
                    prop_assert!(*v >= last);
                    last = *v;
                }
            }
        }
    }
}
