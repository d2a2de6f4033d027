//! The Figure 9/10-style budget sweep, regenerated by the scenario-sweep
//! engine: Perf and Perf/TDP frontiers per {budget × objective × domain}
//! scenario over one shared evaluation cache, with ROI along the frontier.

use crate::{trial_budget, Table};
use fast_arch::{presets, Budget};
use fast_core::{
    BudgetLevel, Checkpointer, Evaluator, Fidelity, Objective, ScenarioMatrix, ScenarioResult,
    SweepConfig, SweepRunner,
};
use fast_models::{EfficientNet, Workload, WorkloadDomain};
use fast_roi::RoiModel;
use fast_sim::SimOptions;
use std::fmt::Write as _;
use std::path::PathBuf;

/// How to run (and persist) the budget sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepRunOptions {
    /// Checkpoint directory: save the evaluation cache and scenario ledger
    /// there while running.
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` (requires it): replay completed scenarios
    /// from the snapshot, continue the rest, keep checkpointing.
    pub resume: bool,
    /// Print only the deterministic frontier tables — no cache-traffic
    /// stats, whose values differ between cold and resumed runs. This is
    /// what the CI kill-and-resume smoke diffs.
    pub frontiers_only: bool,
    /// Run only shard `(index, count)` of the matrix — the
    /// `fast-sweep-worker` mode. Requires `checkpoint`: the shard's
    /// checkpoint directory is what `fast-sweep-merge` folds back together.
    pub shard: Option<(usize, usize)>,
    /// Print only the canonical frontier-points table
    /// ([`fast_core::points_table`]): one line per frontier point with
    /// every metric as its exact bit pattern. Two runs print byte-identical
    /// output **iff** their frontiers are bit-identical — the strongest
    /// diffable artifact, used to compare served results against a
    /// single-process run.
    pub points: bool,
    /// Evaluation fidelity — `Fidelity::Screened` routes every round
    /// through the surrogate tier and only fully simulates the top
    /// fraction (the `--fidelity`/`--keep-fraction`/`--min-full` flags).
    pub fidelity: Fidelity,
}

/// A prototype evaluator for TPU-v3 baselines (fusion disabled, baseline
/// scheduling — the Figure 9/10 anchor). Retarget it per domain with
/// `for_scenario` so workloads shared between domains are simulated once.
fn tpu_baseline_evaluator() -> Evaluator {
    Evaluator::new(Vec::new(), Objective::PerfPerTdp, Budget::paper_default())
        .with_fusion(fast_fusion::FusionOptions::disabled())
}

/// The TPU-v3 Perf/TDP baseline on a domain (geomean across its workloads).
fn tpu_perf_per_tdp(baseline: &Evaluator, domain: &WorkloadDomain) -> Option<f64> {
    let evaluator = baseline.for_scenario(
        domain.workloads.clone(),
        Objective::PerfPerTdp,
        Budget::paper_default(),
    );
    let eval = evaluator.evaluate(&presets::tpu_v3(), &SimOptions::tpu_baseline()).ok()?;
    Some(eval.geomean_qps / eval.tdp_w)
}

/// Renders one scenario's frontier with ROI along it.
fn frontier_table(s: &ScenarioResult, baseline_perf_per_tdp: Option<f64>, volume: f64) -> String {
    let roi_model = RoiModel::paper_default();
    let gains: Vec<f64> = s
        .frontier
        .iter()
        .map(|d| baseline_perf_per_tdp.map_or(0.0, |b| (d.geomean_qps / d.tdp_w) / b))
        .collect();
    let rois = roi_model.roi_along_frontier(volume, &gains);

    let mut t = Table::new(["objective", "geomean QPS", "TDP W", "area mm2", "S vs TPU", "ROI"]);
    for ((d, &gain), &roi) in s.frontier.iter().zip(&gains).zip(&rois) {
        t.row([
            format!("{:.4}", d.objective_value),
            format!("{:.0}", d.geomean_qps),
            format!("{:.0}", d.tdp_w),
            format!("{:.0}", d.area_mm2),
            format!("{gain:.2}x"),
            format!("{roi:.1}x"),
        ]);
    }
    t.render()
}

/// The budget sweep: ≥3 area/TDP budgets × 2 objectives × 3 workload
/// domains (B0+ResNet50, B0 alone, and the Serving-4 extension: LLM
/// prefill/decode, DLRM, diffusion UNet) in one `SweepRunner` call,
/// reporting every scenario's frontier
/// size, best objective and cache hit rate, the full frontier (with ROI at
/// a 4,000-chip deployment) for the headline scenarios, and the shared
/// cache's aggregate reuse.
#[must_use]
pub fn sweep_budget_frontiers() -> String {
    sweep_budget_frontiers_with(&SweepRunOptions::default())
}

/// The budget sweep's scenario matrix — shared verbatim with the
/// `fast-serve-client` binary so a served run and a single-process run
/// compute the *same* studies (and therefore, by the determinism contract,
/// bit-identical frontiers).
#[must_use]
pub fn bench_matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        // Loosest budget first: designs admitted later are re-scores.
        budgets: vec![
            BudgetLevel::scaled(1.0),
            BudgetLevel::scaled(0.75),
            BudgetLevel::scaled(0.5),
        ],
        objectives: vec![Objective::Qps, Objective::PerfPerTdp],
        domains: vec![
            WorkloadDomain::multi_model(
                "B0+ResNet50",
                vec![Workload::EfficientNet(EfficientNet::B0), Workload::ResNet50],
            ),
            WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0)),
            // The modern-serving extension: LLM prefill/decode, DLRM and the
            // diffusion-UNet block searched as one domain.
            WorkloadDomain::serving4(),
        ],
    }
}

/// The budget sweep's search settings (trials honor `FAST_TRIALS`),
/// likewise shared with `fast-serve-client`.
#[must_use]
pub fn bench_config() -> SweepConfig {
    SweepConfig { trials: trial_budget(48), batch: 8, ..SweepConfig::default() }
}

/// [`sweep_budget_frontiers`] with durability and output control — the
/// function behind the `sweep_frontiers` binary's `--checkpoint` /
/// `--resume` / `--frontiers-only` / `--points` flags.
#[must_use]
pub fn sweep_budget_frontiers_with(opts: &SweepRunOptions) -> String {
    let matrix = bench_matrix();
    let mut config = bench_config();
    config.fidelity = opts.fidelity;
    let trials = config.trials;
    let n_scenarios = opts.shard.map_or(matrix.len(), |(i, n)| matrix.shard_range(i, n).len());
    let runner = SweepRunner::new(matrix, config);
    let checkpointer = opts.checkpoint.as_ref().and_then(|dir| match Checkpointer::new(dir) {
        Ok(ck) => Some(ck),
        Err(e) => {
            eprintln!(
                "warning: checkpoint directory {} unusable ({e}); running without durability",
                dir.display()
            );
            None
        }
    });
    let result = match (&checkpointer, opts.resume, opts.shard) {
        // A shard worker without a usable checkpoint directory has nothing
        // to merge later — that is an operational error, not something to
        // degrade around (the CLI already guarantees --checkpoint was given).
        (None, _, Some(_)) => {
            panic!("--shard requires a usable --checkpoint directory")
        }
        (Some(ck), false, Some((i, n))) => runner.run_shard(ck, i, n),
        (Some(ck), true, Some((i, n))) => runner.resume_shard(ck, i, n),
        (Some(ck), true, None) => runner.resume(ck),
        (Some(ck), false, None) => runner.run_checkpointed(ck),
        (None, _, None) => runner.run(),
    };

    if opts.points {
        let records: Vec<_> = result.scenarios.iter().map(|s| s.record()).collect();
        return fast_core::points_table(&records);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Budget sweep — Pareto frontiers per scenario ({n_scenarios} scenarios x {trials} trials,\n\
         one shared evaluation cache; objective ^, TDP v, area v)\n"
    );

    // The overview's cache column (and the closing cache summary) depend on
    // whether the process started cold or from a snapshot; --frontiers-only
    // omits them so interrupted-then-resumed output diffs clean against an
    // uninterrupted run.
    let mut overview = if opts.frontiers_only {
        Table::new(["scenario", "frontier", "best objective", "invalid"])
    } else {
        Table::new(["scenario", "frontier", "best objective", "invalid", "cache hit %"])
    };
    for s in &result.scenarios {
        let mut row = vec![
            s.scenario.name.clone(),
            s.frontier.len().to_string(),
            s.best_objective.map_or("-".to_string(), |v| format!("{v:.4}")),
            s.invalid_trials.to_string(),
        ];
        if !opts.frontiers_only {
            row.push(format!("{:.0}%", 100.0 * s.staged.fuse.hit_rate()));
        }
        overview.row(row);
    }
    out.push_str(&overview.render());

    // Surrogate accounting, when the sweep ran screened: how much full
    // simulation the surrogate tier saved and how well it ranked. The
    // numbers are deterministic (screening is inside the determinism
    // contract) but only meaningful alongside cache stats, so they stay
    // out of the --frontiers-only diff artifact.
    if !opts.frontiers_only && result.scenarios.iter().any(|s| s.fidelity.is_some()) {
        let mut fid_table =
            Table::new(["scenario", "full sims", "screened out", "savings", "spearman", "kendall"]);
        for s in &result.scenarios {
            let Some(f) = &s.fidelity else { continue };
            fid_table.row([
                s.scenario.name.clone(),
                f.full_evals.to_string(),
                f.screened_out.to_string(),
                format!("{:.1}x", f.savings_factor()),
                f.spearman.map_or("-".to_string(), |v| format!("{v:.3}")),
                f.kendall.map_or("-".to_string(), |v| format!("{v:.3}")),
            ]);
        }
        let _ = writeln!(
            out,
            "\nSurrogate screening (surrogate-vs-true rank correlation over the\nfully simulated trials):\n{}",
            fid_table.render()
        );
    }

    // Headline frontier detail: the paper-budget Perf/TDP scenario of each
    // domain, with ROI along the frontier at a 4,000-chip deployment.
    let volume = 4_000.0;
    let tpu_baseline = tpu_baseline_evaluator();
    let mut seen = std::collections::HashSet::new();
    for s in &result.scenarios {
        if s.scenario.objective == Objective::PerfPerTdp
            && s.scenario.budget_name == "1.00x"
            && seen.insert(s.scenario.domain.name.clone())
        {
            let baseline = tpu_perf_per_tdp(&tpu_baseline, &s.scenario.domain);
            let _ = writeln!(
                out,
                "\nFrontier — {} (ROI at n = {volume} chips, Perf/TDP as the Perf/TCO proxy):\n{}",
                s.scenario.name,
                frontier_table(s, baseline, volume)
            );
        }
    }

    if !opts.frontiers_only {
        let staged = result.total_staged;
        let _ = writeln!(
            out,
            "\nShared cache: {} hits / {} misses across the sweep — scenarios after\n\
             the first re-score cached simulations instead of re-running them\n\
             (tighter budgets admit subsets; the per-model domain reuses the\n\
             multi-model domain's simulations wholesale).\n\
             Per stage: op {}/{} hits/misses, sim {}/{}, fuse {}/{} — fusion and\n\
             objective changes re-solve at most Stage C; the mapper runs once\n\
             per unique op shape x array/L1 geometry.\n\
             Solver warm starts: {}/{} cross-point hits ({:.0}% hit rate),\n\
             {} nodes on warm solves vs {} cold — the tier reuses incumbents\n\
             across datapath points that share a fusion structure.",
            staged.fuse.hits,
            staged.fuse.misses,
            staged.op.hits,
            staged.op.misses,
            staged.sim.hits,
            staged.sim.misses,
            staged.fuse.hits,
            staged.fuse.misses,
            staged.solver.warm_hits,
            staged.solver.warm_hits + staged.solver.warm_misses,
            staged.solver.hit_rate() * 100.0,
            staged.solver.warm_nodes,
            staged.solver.cold_nodes,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpu_baseline_is_finite_and_shares_cache_across_domains() {
        let proto = tpu_baseline_evaluator();
        let single = WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0));
        let multi = WorkloadDomain::multi_model(
            "B0+ResNet50",
            vec![Workload::EfficientNet(EfficientNet::B0), Workload::ResNet50],
        );
        let b_multi = tpu_perf_per_tdp(&proto, &multi).unwrap();
        assert!(b_multi.is_finite() && b_multi > 0.0);
        let before = proto.staged_cache_stats().fuse;
        // The singleton domain's workload was already simulated above.
        let b_single = tpu_perf_per_tdp(&proto, &single).unwrap();
        assert!(b_single.is_finite() && b_single > 0.0);
        let after = proto.staged_cache_stats().fuse;
        assert_eq!(after.misses, before.misses, "B0 baseline must be a cache hit");
        assert!(after.hits > before.hits);
    }
}
