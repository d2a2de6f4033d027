//! Integration tests for the multi-objective Pareto path and the
//! scenario-sweep engine: parallel evaluation must reproduce the sequential
//! frontier bit for bit, and a sweep's scenarios must share one evaluation
//! cache (re-scoring reuses simulations instead of re-running them).

use fast::core::{BudgetLevel, Objective, OptimizerKind, ScenarioMatrix, SweepConfig, SweepRunner};
use fast::prelude::*;
use fast::search::MultiObjective;
use proptest::prelude::*;
use rayon::prelude::*;

fn directions() -> [MetricDirection; 3] {
    [MetricDirection::Maximize, MetricDirection::Minimize, MetricDirection::Minimize]
}

fn score(evaluator: &Evaluator, space: &FastSpace, p: &[usize]) -> MultiObjective {
    match evaluator.evaluate_point(space, p) {
        Ok(e) => {
            MultiObjective::valid(vec![e.objective_value, e.tdp_w, e.area_mm2], e.objective_value)
        }
        Err(_) => MultiObjective::Invalid,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A Pareto study whose rounds are evaluated across the rayon pool is
    /// bit-identical to the same study evaluated serially — frontier,
    /// guide convergence and invalid count — for every optimizer kind.
    #[test]
    fn pareto_parallel_reproduces_sequential(seed in 0u64..100, kind_ix in 0usize..3) {
        let kind = OptimizerKind::ALL[kind_ix];
        let space = FastSpace::table3();
        let seeds = [
            space.encode(&fast::arch::presets::fast_large(), &SimOptions::default()),
            space.encode(&fast::arch::presets::fast_small(), &SimOptions::default()),
        ];
        let run = |parallel: bool| {
            let evaluator = Evaluator::new(
                vec![Workload::EfficientNet(EfficientNet::B0)],
                Objective::PerfPerTdp,
                Budget::paper_default(),
            );
            // Seed the swarm the way the drivers do: propose known-feasible
            // designs first so short studies leave the all-invalid regime.
            let mut opt = kind.build();
            let queue = seeds.to_vec();
            let mut propose_count = 0usize;
            let mut eval = |points: &[Vec<usize>]| {
                // Replace the first proposals with the seed designs,
                // mirroring SeededOptimizer (private to fast-core).
                let points: Vec<Vec<usize>> = points
                    .iter()
                    .map(|p| {
                        let q = if propose_count < queue.len() {
                            queue[propose_count].clone()
                        } else {
                            p.clone()
                        };
                        propose_count += 1;
                        q
                    })
                    .collect();
                if parallel {
                    points.par_iter().map(|p| score(&evaluator, &space, p)).collect()
                } else {
                    points.iter().map(|p| score(&evaluator, &space, p)).collect()
                }
            };
            Study::new(space.space(), 32)
                .seed(seed)
                .objective(StudyObjective::pareto(&directions()))
                .execution(Execution::Batched { batch_size: 8 })
                .run(opt.as_mut(), StudyEval::batch(&mut eval))
                .expect("valid study configuration")
                .into_pareto_result()
        };
        let seq = run(false);
        let par = run(true);
        prop_assert_eq!(&seq.frontier, &par.frontier, "frontier must not depend on parallelism");
        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&seq.guide_convergence), bits(&par.guide_convergence));
        prop_assert_eq!(seq.invalid_trials, par.invalid_trials);
    }
}

/// The ISSUE's acceptance scenario: one `SweepRunner` call over 3 area/TDP
/// budgets × 2 objectives × 2 workload domains emits a non-dominated
/// frontier per scenario, and the shared cache reports a >50 % hit rate on
/// every scenario after the first (re-scoring reuses simulations).
#[test]
fn sweep_matrix_shares_cache_and_emits_frontiers() {
    let matrix = ScenarioMatrix {
        // Loosest budget first so tighter budgets re-score cached designs.
        budgets: vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.8), BudgetLevel::scaled(0.6)],
        objectives: vec![Objective::Qps, Objective::PerfPerTdp],
        // The per-model domain is a subset of the multi-model domain, so its
        // simulations are already cached when its scenarios run.
        domains: vec![
            WorkloadDomain::multi_model(
                "B0+B1",
                vec![
                    Workload::EfficientNet(EfficientNet::B0),
                    Workload::EfficientNet(EfficientNet::B1),
                ],
            ),
            WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0)),
        ],
    };
    let config = SweepConfig { trials: 24, batch: 8, seed: 5, ..SweepConfig::default() };
    let result = SweepRunner::new(matrix, config).run();

    assert_eq!(result.scenarios.len(), 12, "3 budgets x 2 objectives x 2 domains");
    for (i, s) in result.scenarios.iter().enumerate() {
        // Every scenario yields a non-empty, mutually non-dominated frontier
        // (the seed designs guarantee valid trials at every budget level).
        assert!(!s.frontier.is_empty(), "{}: empty frontier", s.scenario.name);
        for (ai, a) in s.frontier.iter().enumerate() {
            for (bi, b) in s.frontier.iter().enumerate() {
                if ai == bi {
                    continue;
                }
                let dominates = a.objective_value >= b.objective_value
                    && a.tdp_w <= b.tdp_w
                    && a.area_mm2 <= b.area_mm2
                    && (a.objective_value > b.objective_value
                        || a.tdp_w < b.tdp_w
                        || a.area_mm2 < b.area_mm2);
                assert!(!dominates, "{}: frontier point dominated", s.scenario.name);
            }
        }
        // Frontier designs respect the scenario budget.
        for d in &s.frontier {
            assert!(
                s.scenario.budget.admits(&d.config),
                "{}: frontier design over budget",
                s.scenario.name
            );
        }
        if i > 0 {
            assert!(
                s.staged.fuse.hit_rate() > 0.5,
                "{}: hit rate {:.2} ({:?}) — re-scoring must reuse simulations",
                s.scenario.name,
                s.staged.fuse.hit_rate(),
                s.staged.fuse
            );
        }
    }
    // Tighter budgets can only shrink the feasible set, never improve the
    // best objective, within a (domain, objective) column.
    for domain in ["B0+B1", "EfficientNet-B0"] {
        for objective in ["Qps", "PerfPerTdp"] {
            let bests: Vec<f64> = result
                .scenarios
                .iter()
                .filter(|s| {
                    s.scenario.domain.name == domain
                        && format!("{:?}", s.scenario.objective) == objective
                })
                .map(|s| s.best_objective.expect("seeded scenarios always have a best"))
                .collect();
            assert_eq!(bests.len(), 3);
            assert!(
                bests[0] >= bests[1] && bests[1] >= bests[2],
                "{domain}/{objective}: best objectives {bests:?} not monotone in budget"
            );
        }
    }
}
