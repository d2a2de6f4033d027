//! Criterion gate bench: the upgraded Figure-8 branch-and-bound (best-bound
//! node selection, pseudocost branching, presolve, parent-basis warm
//! starts) vs the reference DFS solver, on the **production fusion ILPs**
//! of the model zoo — exactly the `(Problem, greedy incumbent)` pairs
//! `fuse_regions` hands to `solve_milp` on a cold evaluation, at the
//! production node budget (`FusionOptions::default().max_nodes`).
//!
//! Before timing anything it asserts the determinism contract per model:
//! the new solver must *prove* optimality within the production budget,
//! and whatever the reference returns under the same budget (proven or
//! budget-capped incumbent — the pre-PR production behavior) must agree
//! bit for bit on the objective and on every variable value. Then it
//! asserts the node-count gate (≥3× fewer branch-and-bound nodes over the
//! zoo), times one cold pass each way, runs a Table-3-style datapath
//! study to measure the cross-point warm-start hit rate after round 1
//! (must exceed 50%), times the fast-solver pass interleaved with the
//! calibration kernel of `fast_bench::calibration` (fastest of
//! [`TIMING_ROUNDS`] each), and writes `BENCH_ilp.json` — node counts, hit
//! rate, seconds and `ilp_norm` = fast pass ÷ calibration, which cancels
//! the runner's speed and is what `bench_trend --check-fresh` gates — so CI
//! can archive the solver's perf trajectory per PR. With
//! `FAST_ASSERT_ILP_WALL=1` set, the run additionally fails unless the new
//! solver is faster on the wall clock.

use criterion::{criterion_group, criterion_main, Criterion};
use fast_arch::presets;
use fast_bench::calibration::{calibration_kernel, seconds};
use fast_fusion::{figure8_problem, fuse_regions_warm, FusionOptions, WarmStartTier};
use fast_ilp::{solve_milp, solve_milp_reference, MilpSolution, MilpStatus, Problem, SolveOptions};
use fast_models::{EfficientNet, Workload};
use fast_sim::{simulate, SimOptions};

/// The model zoo the cold solves cover (CNN + attention families, small
/// and large, at serving batch sizes). EfficientNet-B7 is excluded: its
/// ILP is beyond what either solver finishes in CI time.
fn zoo() -> Vec<(&'static str, Workload, u64)> {
    vec![
        ("efficientnet_b0/b1", Workload::EfficientNet(EfficientNet::B0), 1),
        ("efficientnet_b0/b8", Workload::EfficientNet(EfficientNet::B0), 8),
        ("resnet50/b8", Workload::ResNet50, 8),
        ("bert_128/b8", Workload::Bert { seq_len: 128 }, 8),
        ("bert_512/b8", Workload::Bert { seq_len: 512 }, 8),
        ("efficientnet_b4/b8", Workload::EfficientNet(EfficientNet::B4), 8),
    ]
}

/// Production fusion options with the binary limit lifted so every zoo
/// model takes the exact path; the node budget stays the production
/// default — the budget pre-PR solves actually ran under.
fn exact_opts() -> FusionOptions {
    FusionOptions { exact_binary_limit: 10_000, ..FusionOptions::default() }
}

/// The cold-solve configuration both solvers run under: the production
/// node budget, no wall clock, and the greedy incumbent as the warm
/// start — the exact seed `fuse_regions` uses.
fn cold_opts(warm: Vec<f64>) -> SolveOptions {
    SolveOptions {
        max_nodes: FusionOptions::default().max_nodes,
        time_limit: None,
        gap_tol: 1e-6,
        warm_start: Some(warm),
    }
}

/// One production fusion ILP plus its greedy warm start.
struct ZooIlp {
    label: &'static str,
    prob: Problem,
    warm: Vec<f64>,
}

fn zoo_ilps() -> Vec<ZooIlp> {
    let cfg = presets::fast_large();
    let opts = exact_opts();
    zoo()
        .into_iter()
        .map(|(label, w, batch)| {
            let graph = w.build(batch).expect("zoo model builds");
            let perf = simulate(&graph, &cfg, &SimOptions::default()).expect("zoo schedulable");
            let (prob, warm) =
                figure8_problem(&perf.regions, cfg.global_memory_bytes(), &opts, label)
                    .expect("zoo model reaches the exact fusion path");
            ZooIlp { label, prob, warm }
        })
        .collect()
}

/// Interleaved timing rounds of the fast-solver pass and the calibration
/// kernel; the report keeps the fastest of each.
const TIMING_ROUNDS: usize = 5;

/// One cold pass of the fast solver over the zoo ILPs.
fn fast_pass(ilps: &[ZooIlp]) -> Vec<MilpSolution> {
    ilps.iter().map(|ilp| solve_milp(&ilp.prob, &cold_opts(ilp.warm.clone()))).collect()
}

/// Table-3-style datapath study: the large preset swept over clock
/// frequencies (points that share fusion structure but not `T_i`
/// magnitudes), two rounds over every `point × workload` job with one
/// shared [`WarmStartTier`]. Returns the warm-start hit rate measured
/// after round 1.
fn warm_start_study() -> f64 {
    let opts = exact_opts();
    let clocks = [0.85, 1.0, 1.25, 1.5];
    let jobs: Vec<(fast_arch::DatapathConfig, fast_sim::WorkloadPerf)> = clocks
        .iter()
        .flat_map(|&clock_ghz| {
            let cfg = fast_arch::DatapathConfig { clock_ghz, ..presets::fast_large() };
            zoo().into_iter().take(3).map(move |(_, w, batch)| {
                let graph = w.build(batch).expect("zoo model builds");
                let perf = simulate(&graph, &cfg, &SimOptions::default()).expect("schedulable");
                (cfg, perf)
            })
        })
        .collect();

    let tier = WarmStartTier::new();
    let run_round = || {
        for (cfg, perf) in &jobs {
            let _ = fuse_regions_warm(
                &perf.regions,
                perf.compute_seconds,
                cfg.global_memory_bytes(),
                &opts,
                &perf.workload,
                Some(&tier),
            );
        }
    };
    run_round();
    let after_round1 = tier.stats();
    run_round();
    tier.stats().since(&after_round1).hit_rate()
}

fn write_report(
    per_model: &[(&'static str, usize, usize)],
    fast_nodes: usize,
    ref_nodes: usize,
    fast_s: f64,
    ref_s: f64,
    calibration_s: f64,
    warm_hit_rate: f64,
) {
    let node_ratio = ref_nodes as f64 / (fast_nodes as f64).max(1.0);
    let wall_speedup = ref_s / fast_s;
    let ilp_norm = fast_s / calibration_s;
    let models = per_model
        .iter()
        .map(|(label, f, r)| {
            format!(
                "    {{ \"model\": \"{label}\", \"nodes_fast\": {f}, \"nodes_reference\": {r} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"ilp_solve\",\n  \"sweep\": \"cold Figure-8 fusion solves over the model zoo, fast_large preset, production node budget\",\n  \"nodes_fast\": {fast_nodes},\n  \"nodes_reference\": {ref_nodes},\n  \"node_ratio\": {node_ratio:.3},\n  \"fast_seconds\": {fast_s:.6},\n  \"reference_seconds\": {ref_s:.6},\n  \"wall_speedup\": {wall_speedup:.3},\n  \"calibration_seconds\": {calibration_s:.6},\n  \"ilp_norm\": {ilp_norm:.4},\n  \"warm_hit_rate\": {warm_hit_rate:.4},\n  \"models\": [\n{models}\n  ]\n}}\n",
    );
    let path = std::env::var("FAST_BENCH_JSON").unwrap_or_else(|_| "BENCH_ilp.json".to_string());
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("ilp_solve: report written to {path}");
    }
    println!(
        "ilp_solve: {fast_nodes} nodes vs {ref_nodes} reference ({node_ratio:.1}x fewer), \
         {:.1} ms vs {:.1} ms ({wall_speedup:.2}x), calibration {:.1} ms -> ilp_norm \
         {ilp_norm:.2}, warm-start hit rate {:.0}% after round 1",
        fast_s * 1e3,
        ref_s * 1e3,
        calibration_s * 1e3,
        warm_hit_rate * 100.0,
    );
}

fn bench_ilp_solve(c: &mut Criterion) {
    let ilps = zoo_ilps();

    // Determinism first. The new solver must prove optimality within the
    // production budget on every zoo ILP; the reference gets the same
    // budget and may stop on it (that *is* the pre-PR behavior), but its
    // answer — objective and every variable — must agree bit for bit, so
    // the fusion decisions derived from the two solvers are identical.
    let mut per_model: Vec<(&'static str, usize, usize)> = Vec::new();
    let mut fast_nodes = 0usize;
    let mut ref_nodes = 0usize;
    let fast_solutions = fast_pass(&ilps);
    for (ilp, fast) in ilps.iter().zip(&fast_solutions) {
        assert_eq!(fast.status, MilpStatus::Optimal, "{}: fast solve not proven", ilp.label);
        per_model.push((ilp.label, fast.nodes_explored, 0));
        fast_nodes += fast.nodes_explored;
    }
    let ref_s = seconds(|| {
        for (k, ilp) in ilps.iter().enumerate() {
            let refr = solve_milp_reference(&ilp.prob, &cold_opts(ilp.warm.clone()));
            let fast = &fast_solutions[k];
            assert!(
                matches!(refr.status, MilpStatus::Optimal | MilpStatus::Incumbent),
                "{}: reference returned no answer",
                ilp.label
            );
            assert_eq!(
                fast.objective.to_bits(),
                refr.objective.to_bits(),
                "{}: objectives diverged — determinism contract broken",
                ilp.label
            );
            assert_eq!(
                fast.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                refr.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}: decisions diverged — determinism contract broken",
                ilp.label
            );
            per_model[k].2 = refr.nodes_explored;
            ref_nodes += refr.nodes_explored;
        }
    });

    // The node gate: ≥3× fewer branch-and-bound nodes over the zoo. Node
    // counts are deterministic, so this is enforced unconditionally.
    assert!(
        ref_nodes as f64 >= 3.0 * fast_nodes as f64,
        "node gate failed: {fast_nodes} fast vs {ref_nodes} reference (< 3x)"
    );

    // Cross-point warm-start gate: >50% hit rate after round 1.
    let warm_hit_rate = warm_start_study();
    assert!(
        warm_hit_rate > 0.5,
        "warm-start gate failed: hit rate {warm_hit_rate:.2} <= 0.5 after round 1"
    );

    // Timed rounds: the fast pass interleaved with the calibration kernel,
    // so both see the same host conditions.
    let (mut fast_s, mut calibration_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TIMING_ROUNDS {
        calibration_s = calibration_s.min(seconds(calibration_kernel));
        fast_s = fast_s.min(seconds(|| fast_pass(&ilps)));
    }
    write_report(&per_model, fast_nodes, ref_nodes, fast_s, ref_s, calibration_s, warm_hit_rate);

    if std::env::var("FAST_ASSERT_ILP_WALL").is_ok() {
        assert!(
            fast_s < ref_s,
            "wall-clock gate failed: fast {fast_s:.4}s vs reference {ref_s:.4}s"
        );
    }
    if std::env::var("FAST_ILP_ONLY").is_ok() {
        // CI gate mode: the assertions and the JSON report are the point.
        return;
    }

    // Criterion sampling on a representative cheap ILP (the root-provable
    // BERT problem) — the budget-bound B4 solve is covered by the timed
    // gate above and is too slow to sample.
    let mut group = c.benchmark_group("ilp_solve");
    group.sample_size(10);
    let bert = ilps.iter().find(|i| i.label == "bert_512/b8").expect("bert in the zoo");
    group.bench_function("fast/bert_512", |b| {
        b.iter(|| solve_milp(&bert.prob, &cold_opts(bert.warm.clone())))
    });
    group.bench_function("reference/bert_512", |b| {
        b.iter(|| solve_milp_reference(&bert.prob, &cold_opts(bert.warm.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_ilp_solve);
criterion_main!(benches);
