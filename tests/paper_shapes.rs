//! Cross-crate integration tests asserting the paper's headline *shapes*:
//! who wins, by roughly what factor, and where the crossovers fall.
//! Exact measured values are archived in EXPERIMENTS.md.

use fast::prelude::*;
use fast::sim::engine::ScheduleQuality;
use fast::sim::mapper::DataflowSet;

fn b7() -> Workload {
    Workload::EfficientNet(EfficientNet::B7)
}

/// §4.1: TPU-v3's compute/bandwidth ridgepoint is 137 FLOPS/B, and
/// EfficientNet sits far below it while batched ResNet-50 clears it.
#[test]
fn ridgepoints_and_intensities() {
    let tpu = presets::tpu_v3();
    assert!((tpu.ridgepoint() - 137.0).abs() < 2.0);

    let b0 = EfficientNet::B0.build(1).unwrap();
    let eff = fast::ir::operational_intensity(&b0, FusionStrategy::XlaDefault);
    assert!(eff.intensity < 137.0, "B0 XLA intensity {}", eff.intensity);

    let rn = Workload::ResNet50.build(128).unwrap();
    let rn_xla = fast::ir::operational_intensity(&rn, FusionStrategy::XlaDefault);
    assert!(rn_xla.intensity > 100.0, "batched ResNet intensity {}", rn_xla.intensity);
    // With block-level fusion batched ResNet clears the TPU ridgepoint.
    let rn_blk = fast::ir::operational_intensity(&rn, FusionStrategy::BlockTemplate);
    assert!(rn_blk.intensity > 137.0, "block-fused ResNet intensity {}", rn_blk.intensity);
}

/// Figure 3's batching crossover: batching helps ResNet-50 and BERT-128 but
/// barely moves EfficientNet or BERT-1024.
#[test]
fn batching_crossover() {
    let gain = |w: Workload| {
        let g1 = w.build(1).unwrap();
        let g128 = w.build(128).unwrap();
        let i1 = fast::ir::operational_intensity(&g1, FusionStrategy::XlaDefault).intensity;
        let i128 = fast::ir::operational_intensity(&g128, FusionStrategy::XlaDefault).intensity;
        i128 / i1
    };
    let resnet = gain(Workload::ResNet50);
    let bert128 = gain(Workload::Bert { seq_len: 128 });
    let b7 = gain(Workload::EfficientNet(EfficientNet::B7));
    let bert1024 = gain(Workload::Bert { seq_len: 1024 });
    assert!(resnet > 1.4, "resnet batching gain {resnet}");
    assert!(bert128 > 1.3, "bert-128 batching gain {bert128}");
    assert!(b7 < 1.2, "B7 batching gain {b7} should be near 1");
    assert!(b7 < resnet - 0.3, "B7 gain {b7} far below resnet {resnet}");
    assert!(bert1024 < bert128, "bert-1024 {bert1024} below bert-128 {bert128}");
}

/// Table 2's shape: depthwise convs are ~5 % of B7 FLOPs but the majority of
/// TPU-v3 runtime.
#[test]
fn depthwise_dominates_tpu_runtime() {
    let g = EfficientNet::B7.build(64).unwrap();
    let perf = simulate(&g, &presets::tpu_v3(), &SimOptions::tpu_baseline()).unwrap();
    let rows = perf.time_by(|n| n.class.to_string());
    let total: f64 = rows.iter().map(|r| r.1).sum();
    let dw = rows.iter().find(|r| r.0 == "DepthwiseConv2dNative").unwrap();
    assert!(dw.1 / total > 0.5, "dw runtime share {}", dw.1 / total);
    assert!((dw.2 as f64 / g.total_flops() as f64) < 0.1);
}

/// The full-stack pipeline end to end: FAST-Large on B7 must land in the
/// paper's regime vs the TPU-v3 baseline (Table 5 / Table 6 row 1).
#[test]
fn fast_large_b7_headline() {
    let budget = Budget::paper_default();
    let rel =
        relative_to_tpu(&presets::fast_large(), &SimOptions::default(), b7(), &budget).unwrap();
    assert!((2.5..9.0).contains(&rel.perf_per_tdp), "B7 Perf/TDP vs TPU {}", rel.perf_per_tdp);
    assert!(rel.speedup > 2.5, "B7 speedup {}", rel.speedup);
}

/// Ordering across workloads (Figures 9/10): EfficientNet gains most; the
/// TPU-friendly OCR workloads gain least.
#[test]
fn workload_gain_ordering() {
    let budget = Budget::paper_default();
    let gain = |w: Workload| {
        relative_to_tpu(&presets::fast_large(), &SimOptions::default(), w, &budget)
            .unwrap()
            .perf_per_tdp
    };
    let eff = gain(b7());
    let resnet = gain(Workload::ResNet50);
    let rpn = gain(Workload::OcrRpn);
    assert!(eff > resnet, "EfficientNet {eff} must beat ResNet {resnet}");
    assert!(eff > 2.0 * rpn, "EfficientNet {eff} must dwarf OCR-RPN {rpn}");
}

/// Figure 9's first bar: FAST scheduling + fusion on the *unchanged* TPU-v3
/// datapath is worth a substantial speedup (paper: 1.7x).
#[test]
fn scheduling_and_fusion_alone_help_tpu() {
    let budget = Budget::paper_default();
    let sim = SimOptions {
        dataflows: DataflowSet::All,
        schedule_quality: ScheduleQuality::Searched,
        ..SimOptions::tpu_baseline()
    };
    let rel = relative_to_tpu(&presets::tpu_v3(), &sim, Workload::ResNet50, &budget).unwrap();
    assert!((1.2..3.0).contains(&rel.speedup), "sched/fusion-only speedup {}", rel.speedup);
}

/// Fusion is the load-bearing component (Figure 15 / Table 6): removing it
/// costs more than removing anything else on B7.
#[test]
fn fusion_is_the_biggest_component() {
    let rows = ablation_study().unwrap();
    let rel_of = |label: &str| {
        rows.iter().find(|r| r.label.contains(label)).map(|r| r.per_workload[0].2).unwrap()
    };
    let no_fusion = rel_of("Without FAST Fusion");
    let small_l1 = rel_of("32KB L1");
    assert!(no_fusion < 0.6, "no-fusion relative {no_fusion}");
    assert!(no_fusion < small_l1, "fusion must matter more than L1 sizing");
}

/// The search improves on its seeds and respects the budget (Eq. 4).
#[test]
fn search_respects_budget_and_improves() {
    let budget = Budget::paper_default();
    let evaluator = Evaluator::new(
        vec![Workload::EfficientNet(EfficientNet::B2)],
        Objective::PerfPerTdp,
        budget,
    );
    let seed_obj =
        evaluator.evaluate(&presets::fast_large(), &SimOptions::default()).unwrap().objective_value;
    let outcome = FastStudy::new(&evaluator, 150).seed(3).run().expect("valid configuration");
    let best = outcome.best.unwrap();
    assert!(best.objective_value >= seed_obj);
    assert!(budget.admits(&best.config));
    best.config.validate().unwrap();
}

/// Two-pass softmax wins exactly when bandwidth is scarce relative to VPU
/// throughput (§5.6).
#[test]
fn two_pass_softmax_tradeoff() {
    let mut starved = presets::fast_large();
    starved.dram_channels = 1;
    starved.global_memory_mib = 1;
    let g = BertConfig::base().build(8, 2048).unwrap();
    let step = |mode| {
        let sim = SimOptions { softmax: mode, ..SimOptions::default() };
        simulate(&g, &starved, &sim).unwrap().prefusion_seconds
    };
    assert!(
        step(SoftmaxMode::TwoPass) < step(SoftmaxMode::ThreePass),
        "two-pass must win on a bandwidth-starved design"
    );

    // On the bandwidth-rich TPU it must NOT win (extra exponentials).
    let tpu = presets::tpu_v3();
    let step_tpu = |mode| {
        let sim = SimOptions { softmax: mode, ..SimOptions::tpu_baseline() };
        simulate(&g, &tpu, &sim).unwrap().prefusion_seconds
    };
    assert!(step_tpu(SoftmaxMode::TwoPass) >= step_tpu(SoftmaxMode::ThreePass));
}

/// ROI model matches Table 4 on its self-consistent rows.
#[test]
fn roi_matches_table4() {
    let m = RoiModel::paper_default();
    let v = m.volume_for_roi(3.91, 1.0).unwrap();
    assert!((v - 2164.0).abs() / 2164.0 < 0.01, "break-even volume {v}");
}
