//! Criterion bench: the batched vs rayon-parallel FAST search driver on
//! the acceptance workload — a 64-trial random-search study — plus the
//! evaluation cache's effect on a repeated study.
//!
//! Before timing anything it asserts the determinism contract: batched
//! and parallel drivers must report the identical best objective.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast_arch::Budget;
use fast_core::{Evaluator, Execution, FastStudy, Objective, OptimizerKind, SearchReport};
use fast_models::{EfficientNet, Workload};

/// Round size shared by the batched and parallel studies.
const BATCH: usize = 16;

fn run_search(e: &Evaluator, execution: Execution) -> SearchReport {
    FastStudy::new(e, 64)
        .optimizer(OptimizerKind::Random)
        .seed(2024)
        .execution(execution)
        .run()
        .expect("valid study configuration")
}

fn batched(e: &Evaluator) -> SearchReport {
    run_search(e, Execution::Batched { batch_size: BATCH })
}

fn parallel(e: &Evaluator) -> SearchReport {
    run_search(e, Execution::Parallel { threads: BATCH })
}

fn evaluator() -> Evaluator {
    // A permissive budget: the paper budget rejects most random points in
    // microseconds (area/TDP arithmetic), leaving a 64-trial random study
    // with almost no parallelizable work. Lifting the budget routes random
    // proposals into the real mapper/fusion pipeline, which is the workload
    // this bench exists to parallelize.
    let budget = Budget { max_area_mm2: 1e9, max_tdp_w: 1e9 };
    Evaluator::new(vec![Workload::EfficientNet(EfficientNet::B0)], Objective::PerfPerTdp, budget)
}

/// With `FAST_ASSERT_SPEEDUP=<factor>` set and at least 4 worker threads
/// available, times both drivers directly and fails the bench run when the
/// parallel driver is not at least `<factor>`× faster — so CI catches a
/// silently serialized parallel path, not just a nondeterministic one.
///
/// On fewer than 4 threads the measurement is meaningless; by default that
/// skips with a notice, and `FAST_ASSERT_SPEEDUP_STRICT=1` turns the skip
/// into a failure so a pinned multi-core CI runner can't quietly degrade
/// into never measuring (a 2-vCPU runner would otherwise stay green).
fn assert_speedup_if_requested(e: &Evaluator) {
    let Ok(spec) = std::env::var("FAST_ASSERT_SPEEDUP") else { return };
    let need: f64 = spec.parse().expect("FAST_ASSERT_SPEEDUP must be a number like 2.0");
    let threads = rayon::current_num_threads();
    if threads < 4 {
        assert!(
            std::env::var("FAST_ASSERT_SPEEDUP_STRICT").is_err(),
            "FAST_ASSERT_SPEEDUP_STRICT set but only {threads} worker threads available"
        );
        eprintln!("FAST_ASSERT_SPEEDUP: skipped ({threads} worker threads, need >= 4)");
        return;
    }
    let best_of = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let bat = best_of(&|| {
        let _ = batched(&e.fresh_eval_cache());
    });
    let par = best_of(&|| {
        let _ = parallel(&e.fresh_eval_cache());
    });
    let speedup = bat / par;
    println!(
        "FAST_ASSERT_SPEEDUP: batched {:.1} ms, parallel {:.1} ms -> {speedup:.2}x \
         on {threads} threads (need {need:.2}x)",
        bat * 1e3,
        par * 1e3,
    );
    assert!(speedup >= need, "parallel driver too slow: {speedup:.2}x < required {need:.2}x");
}

fn bench_search(c: &mut Criterion) {
    let e = evaluator();

    // Warm the immutable workload-graph cache so both sides time trials, not
    // graph construction, then pin down the determinism guarantee.
    let bat = batched(&e.fresh_eval_cache());
    let par = parallel(&e.fresh_eval_cache());
    assert_eq!(
        bat.study.best_objective, par.study.best_objective,
        "batched and parallel drivers diverged — determinism contract broken"
    );
    assert_speedup_if_requested(&e);
    if std::env::var("FAST_SPEEDUP_ONLY").is_ok() {
        // CI gate mode: the two assertions above are the point; skip the
        // criterion sampling suite (~10 more studies per group).
        return;
    }

    let mut group = c.benchmark_group("search_64_trials_random");
    group.sample_size(10);
    // Each iteration gets a fresh evaluation cache: we are measuring the
    // driver, not the memoization table.
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &e, |b, e| {
        b.iter(|| batched(&e.fresh_eval_cache()))
    });
    group.bench_with_input(BenchmarkId::from_parameter("parallel"), &e, |b, e| {
        b.iter(|| parallel(&e.fresh_eval_cache()))
    });
    // And the memoized steady state: the same study re-run against a warm
    // shared cache (every trial a hit).
    let warm = e.fresh_eval_cache();
    let _ = parallel(&warm);
    group.bench_with_input(BenchmarkId::from_parameter("parallel_warm_cache"), &warm, |b, warm| {
        b.iter(|| parallel(warm))
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
