//! Criterion bench: the staged evaluation pipeline vs the monolithic
//! simulate→fuse path on a **cold-mapper fusion-options sweep** — the
//! workload the staging exists for. Sweeping `FusionOptions` over a fixed
//! datapath re-solves Stage C per option; the monolithic path re-runs the
//! mapper and the whole per-node assembly every time, the staged path maps
//! once and answers Stages A+B from its tiers.
//!
//! Before timing anything it asserts the determinism contract (staged ==
//! monolithic objective values, bit for bit) and the exact per-stage
//! traffic of a cold staged sweep ([`EXPECTED_TRAFFIC`]) — the reuse that
//! staging exists for. It then times one sweep each way and the fixed
//! kernel of `fast_bench::calibration`, and writes `BENCH_eval.json`: staged and monolithic
//! seconds, their ratio (informational), the calibration seconds,
//! `staged_norm` (staged ÷ calibration, which cancels the runner's speed
//! and is what `bench_trend --check-fresh` gates) and per-stage hit/miss
//! rates, so CI can archive the perf trajectory per PR.

use criterion::{criterion_group, criterion_main, Criterion};
use fast_arch::Budget;
use fast_bench::calibration::{calibration_kernel, seconds};
use fast_core::{CacheStats, Evaluator, Objective, StagedCacheStats};
use fast_fusion::FusionOptions;
use fast_models::{EfficientNet, Workload};
use fast_sim::SimOptions;

/// The swept fusion configurations: residency windows, strict Figure-8
/// adjacency, and the disabled ablation — all heuristic-only, so the
/// pipeline stays a pure function and the comparison is deterministic.
fn fusion_sweep() -> Vec<FusionOptions> {
    let mut sweep: Vec<FusionOptions> = (1..=15)
        .map(|residency_window| FusionOptions {
            residency_window,
            ..FusionOptions::heuristic_only()
        })
        .collect();
    sweep.push(FusionOptions { disabled: true, ..FusionOptions::heuristic_only() });
    sweep
}

/// Op-, sim- and fuse-tier traffic of one cold staged sweep: 5 workloads
/// mapped once (Stage A reuse within and across workloads), assembled once
/// and answered from the sim tier for the other 15 options, and one fusion
/// solve per option and workload.
const EXPECTED_TRAFFIC: [CacheStats; 3] = [
    CacheStats { hits: 356, misses: 133 },
    CacheStats { hits: 75, misses: 5 },
    CacheStats { hits: 0, misses: 80 },
];

/// Interleaved timing rounds: each times the calibration kernel, one
/// monolithic sweep and one cold staged sweep back to back, so all three
/// see the same host conditions; the report keeps the fastest of each.
const TIMING_ROUNDS: usize = 9;

fn evaluator() -> Evaluator {
    Evaluator::new(
        vec![
            Workload::EfficientNet(EfficientNet::B0),
            Workload::EfficientNet(EfficientNet::B4),
            Workload::ResNet50,
            Workload::Bert { seq_len: 128 },
            Workload::Bert { seq_len: 512 },
        ],
        Objective::PerfPerTdp,
        Budget::paper_default(),
    )
}

/// Runs the whole fusion-options sweep on one evaluator (clones share the
/// cache tiers), returning an objective checksum so the work cannot be
/// optimized away.
fn run_sweep(e: &Evaluator) -> f64 {
    let cfg = fast_arch::presets::fast_large();
    let sim = SimOptions::default();
    fusion_sweep()
        .into_iter()
        .map(|opts| {
            e.clone()
                .with_fusion(opts)
                .evaluate(&cfg, &sim)
                .expect("the preset is schedulable")
                .objective_value
        })
        .sum()
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn write_report(monolithic_s: f64, staged_s: f64, calibration_s: f64, stages: &StagedCacheStats) {
    let speedup = monolithic_s / staged_s;
    let staged_norm = staged_s / calibration_s;
    let json = format!(
        "{{\n  \"bench\": \"staged_eval\",\n  \"sweep\": \"cold-mapper fusion-options sweep, {} options × 5 workloads\",\n  \"monolithic_seconds\": {monolithic_s:.6},\n  \"staged_seconds\": {staged_s:.6},\n  \"speedup\": {speedup:.3},\n  \"calibration_seconds\": {calibration_s:.6},\n  \"staged_norm\": {staged_norm:.4},\n  \"stages\": {{\n    \"op\":   {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},\n    \"sim\":  {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},\n    \"fuse\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }}\n  }}\n}}\n",
        fusion_sweep().len(),
        stages.op.hits,
        stages.op.misses,
        rate(stages.op.hits, stages.op.misses),
        stages.sim.hits,
        stages.sim.misses,
        rate(stages.sim.hits, stages.sim.misses),
        stages.fuse.hits,
        stages.fuse.misses,
        rate(stages.fuse.hits, stages.fuse.misses),
    );
    let path = std::env::var("FAST_BENCH_JSON").unwrap_or_else(|_| "BENCH_eval.json".to_string());
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("staged_eval: report written to {path}");
    }
    println!(
        "staged_eval: monolithic {:.1} ms, staged {:.1} ms -> {speedup:.2}x; \
         calibration {:.1} ms -> staged_norm {staged_norm:.3} \
         (op hit rate {:.0}%, sim {:.0}%, fuse {:.0}%)",
        monolithic_s * 1e3,
        staged_s * 1e3,
        calibration_s * 1e3,
        100.0 * rate(stages.op.hits, stages.op.misses),
        100.0 * rate(stages.sim.hits, stages.sim.misses),
        100.0 * rate(stages.fuse.hits, stages.fuse.misses),
    );
}

fn bench_staged_eval(c: &mut Criterion) {
    let proto = evaluator();

    // Determinism first: the staged sweep must reproduce the monolithic
    // sweep bit for bit (the checksum is a sum of exact f64s).
    let staged_checksum = run_sweep(&proto.fresh_eval_cache());
    let mono_checksum = run_sweep(&proto.clone().monolithic());
    assert_eq!(
        staged_checksum.to_bits(),
        mono_checksum.to_bits(),
        "staged and monolithic sweeps diverged — determinism contract broken"
    );

    // Timed rounds: every staged repetition starts with a cold mapper
    // (fresh tiers), exactly the acceptance scenario — and every one must
    // show exactly the reuse the stages exist for.
    let fresh = proto.fresh_eval_cache();
    let mut stages = StagedCacheStats::default();
    let (mut mono_s, mut staged_s, mut calibration_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..TIMING_ROUNDS {
        calibration_s = calibration_s.min(seconds(calibration_kernel));
        mono_s = mono_s.min(seconds(|| run_sweep(&proto.clone().monolithic())));
        let e = fresh.fresh_eval_cache();
        staged_s = staged_s.min(seconds(|| run_sweep(&e)));
        stages = e.staged_cache_stats();
        assert_eq!(
            [stages.op, stages.sim, stages.fuse],
            EXPECTED_TRAFFIC,
            "op/sim/fuse tier traffic of a cold sweep changed"
        );
    }
    write_report(mono_s, staged_s, calibration_s, &stages);

    if std::env::var("FAST_STAGED_ONLY").is_ok() {
        // CI gate mode: the assertions and the JSON report are the point;
        // skip the criterion sampling suite.
        return;
    }

    let mut group = c.benchmark_group("staged_eval_fusion_sweep");
    group.sample_size(10);
    group.bench_function("monolithic", |b| b.iter(|| run_sweep(&proto.clone().monolithic())));
    group.bench_function("staged_cold_mapper", |b| b.iter(|| run_sweep(&proto.fresh_eval_cache())));
    // Steady state: tiers already warm from a previous sweep.
    let warm = proto.fresh_eval_cache();
    let _ = run_sweep(&warm);
    group.bench_function("staged_warm", |b| b.iter(|| run_sweep(&warm)));
    group.finish();
}

criterion_group!(benches, bench_staged_eval);
criterion_main!(benches);
