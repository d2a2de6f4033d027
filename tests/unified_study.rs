//! The `Study` builder's acceptance suite: the axes that used to be
//! separate driver functions must stay interchangeable spellings of the
//! same study. Fanning a round across threads (`Execution::Parallel`)
//! is **bit-identical** to scoring it serially (`Execution::Batched`) at
//! the same round size — best point, convergence curve (bitwise, NaN
//! prefixes included), trial sequence, invalid count, and (for Pareto)
//! the frontier. Checkpointed durability resumes a killed study into the
//! same bits as an uninterrupted one, for every objective × execution
//! combination, and `FastStudy` carries the guarantee through the real
//! evaluator pipeline.

use fast::prelude::*;
use fast::search::{LcsSwarm, Optimizer, ParamDomain, ParamSpace, RandomSearch, Tpe};
use proptest::prelude::*;
use std::path::PathBuf;

fn space() -> ParamSpace {
    let mut s = ParamSpace::new();
    s.add("x", ParamDomain::Pow2 { min: 1, max: 256 });
    s.add("y", ParamDomain::Categorical { n: 6 });
    s
}

fn make_opt(ix: usize) -> Box<dyn Optimizer> {
    match ix {
        0 => Box::new(RandomSearch::new()),
        1 => Box::new(LcsSwarm::default()),
        _ => Box::new(Tpe::new()),
    }
}

/// Scalar objective with an invalid region (safe-search rejections) so the
/// convergence curve has a NaN prefix on some seeds.
fn scalar_score(p: &[usize]) -> TrialResult {
    if p[1] == 5 {
        TrialResult::Invalid
    } else {
        TrialResult::Valid((p[0] * (p[1] + 2) + 3 * p[1]) as f64)
    }
}

/// Multi-objective score: guide plus two tracked metrics.
fn multi_score(p: &[usize]) -> MultiObjective {
    if p[1] == 5 {
        MultiObjective::Invalid
    } else {
        MultiObjective::valid(
            vec![(p[0] * (p[1] + 1)) as f64, (p[0] + 3 * p[1]) as f64],
            (p[0] * 2 + p[1]) as f64,
        )
    }
}

fn bits(c: &[f64]) -> Vec<u64> {
    c.iter().map(|v| v.to_bits()).collect()
}

fn assert_report_eq(a: &StudyReport, b: &StudyReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.best_point, &b.best_point);
    prop_assert_eq!(a.best_objective.map(f64::to_bits), b.best_objective.map(f64::to_bits));
    prop_assert_eq!(bits(&a.convergence), bits(&b.convergence));
    prop_assert_eq!(a.invalid_trials, b.invalid_trials);
    prop_assert_eq!(&a.trials, &b.trials);
    prop_assert_eq!(&a.frontier, &b.frontier);
    Ok(())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fast-unified-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single objective at the default execution (`Batched { batch_size:
    /// 1 }`, the classic one-trial-at-a-time loop) is reproducible per seed,
    /// for every optimizer kind.
    #[test]
    fn single_default_execution_is_reproducible(seed in 0u64..500, opt_ix in 0usize..3) {
        let s = space();
        let run = || {
            let mut eval = |p: &[usize]| scalar_score(p).into();
            Study::new(&s, 60)
                .seed(seed)
                .run(make_opt(opt_ix).as_mut(), StudyEval::points(&mut eval))
                .expect("valid configuration")
        };
        assert_report_eq(&run(), &run())?;
    }

    /// Single + Parallel == Single + Batched at the same round size:
    /// fanning a round across threads must not change a bit, for every
    /// optimizer kind and round size.
    #[test]
    fn single_parallel_matches_batched(
        seed in 0u64..500,
        batch in 1usize..16,
        opt_ix in 0usize..3,
    ) {
        let s = space();
        let mut eval = |pts: &[Vec<usize>]| {
            pts.iter().map(|p| scalar_score(p).into()).collect::<Vec<_>>()
        };
        let batched = Study::new(&s, 60)
            .seed(seed)
            .execution(Execution::Batched { batch_size: batch })
            .run(make_opt(opt_ix).as_mut(), StudyEval::batch(&mut eval))
            .expect("valid configuration");
        let shared = |p: &[usize]| scalar_score(p).into();
        let parallel = Study::new(&s, 60)
            .seed(seed)
            .execution(Execution::Parallel { threads: batch })
            .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&shared))
            .expect("valid configuration");
        assert_report_eq(&batched, &parallel)?;
    }

    /// Pareto + Parallel == Pareto + Batched at the same round size: the
    /// frontier, guide convergence and trial sequence must not depend on
    /// how a round's points are scored.
    #[test]
    fn pareto_parallel_matches_batched(
        seed in 0u64..500,
        batch in 1usize..16,
        opt_ix in 0usize..3,
    ) {
        let s = space();
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let eval = |p: &[usize]| multi_score(p);
        let run = |execution: Execution| {
            Study::new(&s, 48)
                .seed(seed)
                .objective(StudyObjective::pareto(&dirs))
                .execution(execution)
                .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let batched = run(Execution::Batched { batch_size: batch });
        let parallel = run(Execution::Parallel { threads: batch });
        prop_assert!(batched.frontier.is_some(), "a Pareto study reports a frontier");
        assert_report_eq(&batched, &parallel)?;
    }

    /// Checkpointed durability: a builder study killed at a round boundary
    /// and rerun from its directory equals the uninterrupted run, scalar
    /// and Pareto alike.
    #[test]
    fn checkpointed_resumes_bit_identically(seed in 0u64..200, opt_ix in 0usize..3) {
        let s = space();
        let (n_trials, batch, stop) = (40, 8, 24);

        // --- scalar ---
        let mut eval = |pts: &[Vec<usize>]| {
            pts.iter().map(|p| scalar_score(p).into()).collect::<Vec<_>>()
        };
        let straight = Study::new(&s, n_trials)
            .seed(seed)
            .execution(Execution::Batched { batch_size: batch })
            .run(make_opt(opt_ix).as_mut(), StudyEval::batch(&mut eval))
            .expect("valid configuration");
        // Kill at `stop` via a short budget, rerun the full one from disk.
        let dir = scratch_dir(&format!("scalar-{seed}-{opt_ix}"));
        let shared = |p: &[usize]| scalar_score(p).into();
        let run = |trials: usize| {
            Study::new(&s, trials)
                .seed(seed)
                .execution(Execution::Batched { batch_size: batch })
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&shared))
                .expect("valid configuration")
        };
        let _ = run(stop);
        let resumed = run(n_trials);
        prop_assert_eq!(resumed.checkpoint.as_ref().unwrap().resumed_trials, stop);
        assert_report_eq(&straight, &resumed)?;

        // --- Pareto ---
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let p_eval = |p: &[usize]| multi_score(p);
        let straight_p = Study::new(&s, n_trials)
            .seed(seed)
            .objective(StudyObjective::pareto(&dirs))
            .execution(Execution::Batched { batch_size: batch })
            .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&p_eval))
            .expect("valid configuration");
        let p_dir = scratch_dir(&format!("pareto-{seed}-{opt_ix}"));
        let p_run = |trials: usize| {
            Study::new(&s, trials)
                .seed(seed)
                .objective(StudyObjective::pareto(&dirs))
                .execution(Execution::Batched { batch_size: batch })
                .durability(Durability::Checkpointed { dir: p_dir.clone(), every: 1 })
                .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&p_eval))
                .expect("valid configuration")
        };
        let _ = p_run(stop);
        let resumed_p = p_run(n_trials);
        prop_assert!(resumed_p.frontier.is_some(), "a Pareto study reports a frontier");
        assert_report_eq(&straight_p, &resumed_p)?;
    }

    /// Checkpointed at the default execution: with rounds of one every
    /// trial count is a round boundary, so a study killed at trial 17
    /// resumes there and ends bit-identical to an uninterrupted study.
    #[test]
    fn default_execution_checkpointed_resumes_bit_identically(
        seed in 0u64..200,
        opt_ix in 0usize..3,
    ) {
        let s = space();
        let mut eval = |p: &[usize]| scalar_score(p).into();
        let straight = Study::new(&s, 40)
            .seed(seed)
            .run(make_opt(opt_ix).as_mut(), StudyEval::points(&mut eval))
            .expect("valid configuration");
        let dir = scratch_dir(&format!("rounds-of-one-{seed}-{opt_ix}"));
        let shared = |p: &[usize]| scalar_score(p).into();
        let run = |trials: usize| {
            Study::new(&s, trials)
                .seed(seed)
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run(make_opt(opt_ix).as_mut(), StudyEval::shared(&shared))
                .expect("valid configuration")
        };
        let _ = run(17); // any trial count is a boundary of rounds of one
        let resumed = run(40);
        prop_assert_eq!(resumed.checkpoint.as_ref().unwrap().resumed_trials, 17);
        assert_report_eq(&straight, &resumed)?;
    }
}

/// Core-level equivalence: `FastStudy`'s parallel execution reproduces its
/// batched execution bit for bit against the real evaluator pipeline (a
/// few seeds — each run simulates).
#[test]
fn fast_study_parallel_matches_batched() {
    let evaluator = Evaluator::new(
        vec![Workload::EfficientNet(EfficientNet::B0)],
        Objective::PerfPerTdp,
        Budget::paper_default(),
    );
    for seed in [0u64, 9] {
        let builder = |execution: Execution| {
            let fresh = evaluator.fresh_eval_cache();
            FastStudy::new(&fresh, 24)
                .seed(seed)
                .execution(execution)
                .run()
                .expect("valid configuration")
        };
        let via_batched = builder(Execution::Batched { batch_size: 6 });
        let via_parallel = builder(Execution::Parallel { threads: 6 });
        assert_eq!(via_batched.study.best_point, via_parallel.study.best_point, "seed {seed}");
        assert_eq!(via_batched.study.convergence, via_parallel.study.convergence, "seed {seed}");
        assert_eq!(
            via_batched.study.invalid_trials, via_parallel.study.invalid_trials,
            "seed {seed}"
        );
        assert_eq!(
            via_batched.best.as_ref().map(|b| b.objective_value.to_bits()),
            via_parallel.best.as_ref().map(|b| b.objective_value.to_bits()),
            "seed {seed}"
        );
    }
}
