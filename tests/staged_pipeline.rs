//! The staged-pipeline determinism contract, end to end: the staged
//! evaluation pipeline (per-op mapper cache → per-workload assembly →
//! keyed fusion) must be **bit-identical** to the monolithic simulate→fuse
//! reference path for every optimizer × execution combination, for whole
//! studies and for Pareto frontiers — the refactor is an optimization, not
//! a semantics change.

use fast::core::{BudgetLevel, ScenarioMatrix, SweepConfig, SweepRunner};
use fast::prelude::*;
use proptest::prelude::*;

fn evaluator() -> Evaluator {
    Evaluator::new(
        vec![Workload::EfficientNet(EfficientNet::B0)],
        Objective::PerfPerTdp,
        Budget::paper_default(),
    )
}

fn run_study(e: &Evaluator, kind: OptimizerKind, execution: Execution, seed: u64) -> SearchReport {
    FastStudy::new(e, 24)
        .optimizer(kind)
        .seed(seed)
        .execution(execution)
        .run()
        .expect("valid study configuration")
}

/// Every optimizer × execution combination: trial-for-trial, bit-for-bit
/// equality of the staged and monolithic studies, decoded best design
/// included.
#[test]
fn staged_studies_match_monolithic_for_every_optimizer_and_execution() {
    let executions = [
        Execution::Batched { batch_size: 1 },
        Execution::Batched { batch_size: 8 },
        Execution::Parallel { threads: 8 },
    ];
    for kind in OptimizerKind::ALL {
        for execution in executions {
            let staged = run_study(&evaluator(), kind, execution, 9);
            let mono = run_study(&evaluator().monolithic(), kind, execution, 9);
            let label = format!("{kind:?} / {execution:?}");

            assert_eq!(staged.study.trials.len(), mono.study.trials.len(), "{label}");
            for (a, b) in staged.study.trials.iter().zip(&mono.study.trials) {
                assert_eq!(a, b, "{label}: trial diverged");
            }
            assert_eq!(
                staged.study.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                mono.study.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{label}"
            );
            assert_eq!(staged.study.best_point, mono.study.best_point, "{label}");
            assert_eq!(staged.study.invalid_trials, mono.study.invalid_trials, "{label}");
            let (a, b) = (staged.best.expect("seeded"), mono.best.expect("seeded"));
            assert_eq!(a.objective_value.to_bits(), b.objective_value.to_bits(), "{label}");
            assert_eq!(a.geomean_qps.to_bits(), b.geomean_qps.to_bits(), "{label}");
            assert_eq!(a.tdp_w.to_bits(), b.tdp_w.to_bits(), "{label}");
            assert_eq!(a.area_mm2.to_bits(), b.area_mm2.to_bits(), "{label}");
            for (x, y) in a.workloads.iter().zip(&b.workloads) {
                assert_eq!(x.step_seconds.to_bits(), y.step_seconds.to_bits(), "{label}");
                assert_eq!(x.qps.to_bits(), y.qps.to_bits(), "{label}");
                assert_eq!(x.utilization.to_bits(), y.utilization.to_bits(), "{label}");
                assert_eq!(x.postfusion_stall.to_bits(), y.postfusion_stall.to_bits(), "{label}");
                assert_eq!(x.op_intensity_post.to_bits(), y.op_intensity_post.to_bits(), "{label}");
                assert_eq!(x.pinned_weight_bytes, y.pinned_weight_bytes, "{label}");
            }
        }
    }
}

/// The sweep engine (Pareto studies over the shared cache) reproduces the
/// monolithic frontiers exactly — and since `SweepRunner` always runs the
/// staged pipeline, the check drives it against per-point monolithic
/// re-evaluation of every frontier design.
#[test]
fn staged_sweep_frontiers_match_monolithic_reevaluation() {
    let matrix = ScenarioMatrix {
        budgets: vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.7)],
        objectives: vec![Objective::Qps, Objective::PerfPerTdp],
        domains: vec![WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0))],
    };
    let config = SweepConfig { trials: 24, batch: 8, ..SweepConfig::default() };
    let result = SweepRunner::new(matrix, config).run();
    let space = fast::core::FastSpace::table3();
    for s in &result.scenarios {
        assert!(!s.frontier.is_empty(), "{}", s.scenario.name);
        assert!(
            s.staged.op.hits + s.staged.op.misses > 0 || s.staged.fuse.misses == 0,
            "{}: scenarios that simulate must touch the mapper",
            s.scenario.name
        );
        let mono = Evaluator::new(
            s.scenario.domain.workloads.clone(),
            s.scenario.objective,
            s.scenario.budget,
        )
        .monolithic();
        for design in &s.frontier {
            let eval = mono.evaluate_point(&space, &design.point).expect("frontier point valid");
            assert_eq!(
                eval.objective_value.to_bits(),
                design.objective_value.to_bits(),
                "{}: staged frontier diverged from monolithic",
                s.scenario.name
            );
            assert_eq!(eval.geomean_qps.to_bits(), design.geomean_qps.to_bits());
            assert_eq!(eval.tdp_w.to_bits(), design.tdp_w.to_bits());
            assert_eq!(eval.area_mm2.to_bits(), design.area_mm2.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random designs, random workloads: staged == monolithic on the raw
    /// evaluator, successes and failures alike (the cached failure must
    /// carry the same op name and structured cause as a fresh one).
    #[test]
    fn staged_point_evaluations_match_monolithic(seed in 0u64..300, wix in 0u8..3) {
        use rand::SeedableRng as _;
        let w = match wix {
            0 => Workload::EfficientNet(EfficientNet::B0),
            1 => Workload::ResNet50,
            _ => Workload::Bert { seq_len: 128 },
        };
        let space = fast::core::FastSpace::table3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let staged = Evaluator::new(vec![w], Objective::Qps, Budget::paper_default());
        let mono = staged.clone().monolithic();
        let mut checked = 0;
        for _ in 0..40 {
            let p = space.space().sample(&mut rng);
            let (cfg, sim) = space.decode(&p);
            if cfg.total_macs() > 1 << 20 || cfg.native_batch > 16 {
                continue;
            }
            // Evaluate through the staged path twice (cold, then cached) and
            // through the monolithic path; all three must agree bitwise.
            let a = staged.evaluate(&cfg, &sim);
            let b = staged.evaluate(&cfg, &sim);
            let c = mono.evaluate(&cfg, &sim);
            match (a, b, c) {
                (Ok(a), Ok(b), Ok(c)) => {
                    prop_assert_eq!(a.objective_value.to_bits(), c.objective_value.to_bits());
                    prop_assert_eq!(b.objective_value.to_bits(), c.objective_value.to_bits());
                    prop_assert_eq!(
                        a.workloads[0].step_seconds.to_bits(),
                        c.workloads[0].step_seconds.to_bits()
                    );
                    prop_assert_eq!(
                        a.workloads[0].utilization.to_bits(),
                        c.workloads[0].utilization.to_bits()
                    );
                    checked += 1;
                }
                (Err(a), Err(b), Err(c)) => {
                    prop_assert_eq!(&a, &c, "cold staged failure must equal monolithic");
                    prop_assert_eq!(&b, &c, "cached staged failure must equal monolithic");
                    checked += 1;
                }
                (a, b, c) => {
                    return Err(TestCaseError(format!(
                        "staged and monolithic disagreed on validity: {a:?} / {b:?} / {c:?}"
                    )));
                }
            }
            if checked >= 6 {
                break;
            }
        }
    }
}
