//! Integration tests for the parallel, memoized search-evaluation engine:
//! the evaluation cache must be invisible (bit-identical results) and a
//! parallel study must reproduce the sequential study trial for trial.

use fast::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluator(w: Workload) -> Evaluator {
    Evaluator::new(vec![w], Objective::PerfPerTdp, Budget::paper_default())
}

/// One FastStudy run with the execution axis as the only variable.
fn run_search(e: &Evaluator, seed: u64, execution: Execution) -> SearchReport {
    FastStudy::new(e, 24).seed(seed).execution(execution).run().expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over random valid designs, a cache hit returns results bit-identical
    /// to a fresh uncached evaluation AND to the raw simulate→fuse pipeline
    /// run by hand.
    #[test]
    fn cached_results_bit_identical_to_fresh_runs(seed in 0u64..400, wix in 0u8..3) {
        let w = match wix {
            0 => Workload::EfficientNet(EfficientNet::B0),
            1 => Workload::ResNet50,
            _ => Workload::Bert { seq_len: 128 },
        };
        let space = FastSpace::table3();
        let mut rng = StdRng::seed_from_u64(seed);
        let e = evaluator(w);

        // Find one evaluable random design (skip the draw if none shows up —
        // most of the 1e13-point space is invalid, that's expected).
        let mut found = None;
        for _ in 0..60 {
            let p = space.space().sample(&mut rng);
            let (cfg, sim) = space.decode(&p);
            if cfg.total_macs() > 1 << 20 || cfg.native_batch > 16 {
                continue;
            }
            if e.evaluate(&cfg, &sim).is_ok() {
                found = Some((cfg, sim));
                break;
            }
        }
        let Some((cfg, sim)) = found else { return Ok(()) };

        // Second evaluation: answered from the cache.
        let before = e.staged_cache_stats().fuse;
        let cached = e.evaluate(&cfg, &sim).expect("just evaluated fine");
        prop_assert!(e.staged_cache_stats().fuse.hits > before.hits, "second run must hit the cache");

        // Fresh evaluator: same pipeline, empty cache.
        let fresh = e.fresh_eval_cache().evaluate(&cfg, &sim).expect("deterministic");
        prop_assert_eq!(cached.workloads.len(), fresh.workloads.len());
        for (c, f) in cached.workloads.iter().zip(&fresh.workloads) {
            prop_assert_eq!(c.step_seconds.to_bits(), f.step_seconds.to_bits());
            prop_assert_eq!(c.qps.to_bits(), f.qps.to_bits());
            prop_assert_eq!(c.utilization.to_bits(), f.utilization.to_bits());
            prop_assert_eq!(c.op_intensity_post.to_bits(), f.op_intensity_post.to_bits());
            prop_assert_eq!(c.pinned_weight_bytes, f.pinned_weight_bytes);
        }
        prop_assert_eq!(cached.objective_value.to_bits(), fresh.objective_value.to_bits());

        // And both match the raw pipeline composed by hand.
        let graph = w.build(cfg.native_batch).expect("zoo builds");
        let perf = simulate(&graph, &cfg, &sim).expect("deterministic");
        let fused = fuse_workload(&perf, &cfg, &FusionOptions::heuristic_only());
        prop_assert_eq!(cached.workloads[0].step_seconds.to_bits(), fused.total_seconds.to_bits());
        let qps = (perf.batch_per_core * perf.cores) as f64 / fused.total_seconds;
        prop_assert_eq!(cached.workloads[0].qps.to_bits(), qps.to_bits());
    }

    /// A parallel study with seed `s` reproduces the sequential study's
    /// trial sequence exactly, for any seed.
    #[test]
    fn parallel_study_reproduces_sequential_trials(s in 0u64..200) {
        let e = evaluator(Workload::EfficientNet(EfficientNet::B0));
        let seq = run_search(&e.fresh_eval_cache(), s, Execution::Batched { batch_size: 6 });
        let par = run_search(&e.fresh_eval_cache(), s, Execution::Parallel { threads: 6 });

        prop_assert_eq!(seq.study.trials.len(), par.study.trials.len());
        for (i, (a, b)) in seq.study.trials.iter().zip(&par.study.trials).enumerate() {
            prop_assert_eq!(&a.point, &b.point, "trial {} proposed different points", i);
            let guide = |r: &MultiObjective| match r {
                MultiObjective::Valid { guide, .. } => Some(guide.to_bits()),
                MultiObjective::Invalid | MultiObjective::Surrogate { .. } => None,
            };
            prop_assert_eq!(
                guide(&a.result),
                guide(&b.result),
                "trial {} scored differently", i
            );
        }
        prop_assert_eq!(seq.study.best_point, par.study.best_point);
        prop_assert_eq!(
            seq.study.best_objective.map(f64::to_bits),
            par.study.best_objective.map(f64::to_bits)
        );
    }
}

/// The cache makes re-running the same study nearly free: every trial of the
/// second run is a hit.
#[test]
fn second_study_runs_entirely_from_cache() {
    let e = evaluator(Workload::EfficientNet(EfficientNet::B0)).fresh_eval_cache();
    let run = || {
        FastStudy::new(&e, 30)
            .seed(4)
            .execution(Execution::Parallel { threads: 8 })
            .run()
            .expect("valid configuration")
    };
    let first = run();
    let misses_after_first = e.staged_cache_stats().fuse.misses;
    let second = run();
    assert_eq!(
        e.staged_cache_stats().fuse.misses,
        misses_after_first,
        "identical study must not re-run the simulator"
    );
    assert_eq!(
        first.study.best_objective.map(f64::to_bits),
        second.study.best_objective.map(f64::to_bits)
    );
}
