//! Integration tests for durable sweeps — the interrupted-equals-
//! uninterrupted contract, end to end:
//!
//! * a sweep killed after scenario `k` and resumed from its checkpoint
//!   produces bit-identical per-scenario frontiers to an uninterrupted run,
//!   with >90 % cache hits on the replayed scenarios;
//! * the contract holds under both batched and rayon-parallel execution
//!   (the sweep evaluates rounds across the rayon pool; the study-level
//!   checkpoint is exercised through the `Study` builder's file-based
//!   durability in both modes);
//! * the contract extends to [`Fidelity::Screened`] sweeps: the resumed
//!   run reproduces the exact surrogate accounting, not just the frontier;
//! * damaged checkpoint files degrade to a cold — but still correct — run,
//!   and the resume leaves files equal to an uninterrupted run's;
//! * a tier file cut inside its last append keeps its whole segments.

use fast::core::{
    merge_eval_caches, BudgetLevel, Checkpointer, Fidelity, MergeError, Objective, ScenarioMatrix,
    SurrogateTier, SweepConfig, SweepRunner,
};
use fast::prelude::*;
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fast-ckpt-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        budgets: vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.7)],
        objectives: vec![Objective::Qps, Objective::PerfPerTdp],
        domains: vec![WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0))],
    }
}

fn config() -> SweepConfig {
    SweepConfig { trials: 24, batch: 8, ..SweepConfig::default() }
}

/// The acceptance-criterion test: interrupt after scenario k, resume,
/// compare against uninterrupted — bit-identical frontiers, >90 % cache
/// hits on the replayed prefix.
#[test]
fn interrupted_sweep_resumes_bit_identically_with_warm_cache() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();
    assert_eq!(uninterrupted.scenarios.len(), 4);

    // "Kill" after scenario k = 2: a prefix run persists exactly what a
    // SIGKILL at that boundary would have left on disk.
    let ck = Checkpointer::new(scratch_dir("kill-after-k")).unwrap();
    let killed = SweepRunner::new(matrix(), config()).run_prefix(&ck, 2);
    assert_eq!(killed.scenarios.len(), 2);
    assert!(ck.cache_path().exists(), "cache snapshot must exist at the kill point");
    assert!(ck.sweep_path().exists(), "scenario ledger must exist at the kill point");

    // A fresh runner — a fresh process, conceptually — resumes.
    let resumed = SweepRunner::new(matrix(), config()).resume(&ck);
    assert_eq!(resumed.scenarios.len(), uninterrupted.scenarios.len());
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.scenario.name, b.scenario.name);
        // Bit-identical: FrontierPoint equality is exact f64 equality.
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        assert_eq!(a.invalid_trials, b.invalid_trials, "{}", a.scenario.name);
        assert_eq!(a.best_objective.map(f64::to_bits), b.best_objective.map(f64::to_bits));
    }
    // Replayed scenarios answer from the loaded snapshot.
    for s in &resumed.scenarios[..2] {
        assert!(
            s.staged.fuse.hit_rate() > 0.9,
            "{}: replayed scenario hit rate {:.2} ({:?})",
            s.scenario.name,
            s.staged.fuse.hit_rate(),
            s.staged.fuse
        );
    }
}

/// Killing *mid-scenario* (between rounds) loses at most the in-flight
/// round: the resumed run still matches and the partially-completed
/// scenario replays its finished rounds from the cache snapshot.
#[test]
fn mid_scenario_kill_loses_at_most_one_round() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();

    // Simulate a mid-scenario kill: run only the first scenario (its
    // per-round cache saves happened), then delete the ledger so the
    // checkpoint looks like a run that died before any scenario boundary…
    let ck = Checkpointer::new(scratch_dir("mid-scenario")).unwrap();
    let _ = SweepRunner::new(matrix(), config()).run_prefix(&ck, 1);
    std::fs::remove_file(ck.sweep_path()).unwrap();

    // …and resume: scenario 0 re-runs as cache traffic, everything matches.
    let resumed = SweepRunner::new(matrix(), config()).resume(&ck);
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
    }
    assert!(
        resumed.scenarios[0].staged.fuse.hit_rate() > 0.9,
        "rounds finished before the kill must replay from the snapshot: {:?}",
        resumed.scenarios[0].staged.fuse
    );
}

/// The interrupted-equals-uninterrupted contract holds on the fidelity
/// axis too: a *screened* sweep (tier S1, so the checkpoint carries a
/// fitted ridge model and burn-in progress) killed after scenario k and
/// resumed from a fresh runner replays bit-identically — frontiers,
/// trial records, and the full [`fast::core::FidelityReport`] accounting
/// (counts and rank-correlation floats included).
#[test]
fn interrupted_screened_sweep_resumes_bit_identically() {
    let screened = |mut config: SweepConfig| {
        config.fidelity =
            Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S1 };
        config
    };
    let uninterrupted = SweepRunner::new(matrix(), screened(config())).run();
    assert_eq!(uninterrupted.scenarios.len(), 4);
    for s in &uninterrupted.scenarios {
        let fid = s.fidelity.as_ref().expect("screened scenarios carry fidelity");
        assert_eq!(fid.full_evals + fid.screened_out, config().trials, "{}", s.scenario.name);
    }

    let ck = Checkpointer::new(scratch_dir("screened-kill")).unwrap();
    let killed = SweepRunner::new(matrix(), screened(config())).run_prefix(&ck, 2);
    assert_eq!(killed.scenarios.len(), 2);

    let resumed = SweepRunner::new(matrix(), screened(config())).resume(&ck);
    assert_eq!(resumed.scenarios.len(), uninterrupted.scenarios.len());
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.scenario.name, b.scenario.name);
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        assert_eq!(a.invalid_trials, b.invalid_trials, "{}", a.scenario.name);
        assert_eq!(a.best_objective.map(f64::to_bits), b.best_objective.map(f64::to_bits));
        // FidelityReport equality is exact f64 equality on the correlation
        // statistics — the resumed surrogate must have reproduced the same
        // kept sets, pair sets, and therefore the same spearman/kendall.
        assert_eq!(a.fidelity, b.fidelity, "{}", a.scenario.name);
    }
}

/// The study-level checkpoint contract holds whether a round is evaluated
/// serially or across the rayon pool — the resumed frontier is
/// bit-identical to the uninterrupted one either way. This drives the
/// unified `Study` builder's file-based durability end to end: run 16 of 32
/// trials checkpointed ("the kill"), then rerun the full budget against the
/// same directory ("the resume").
#[test]
fn study_checkpoint_contract_holds_for_sequential_and_parallel_drivers() {
    let dirs = [MetricDirection::Maximize, MetricDirection::Minimize, MetricDirection::Minimize];
    let space = FastSpace::table3();
    let evaluator = Evaluator::new(
        vec![Workload::EfficientNet(EfficientNet::B0)],
        Objective::PerfPerTdp,
        Budget::paper_default(),
    );
    let seed_points = vec![
        space.encode(&fast::arch::presets::fast_large(), &SimOptions::default()),
        space.encode(&fast::arch::presets::fast_small(), &SimOptions::default()),
    ];

    for parallel in [false, true] {
        let execution = if parallel {
            Execution::Parallel { threads: 8 }
        } else {
            Execution::Batched { batch_size: 8 }
        };
        let run = |trials: usize, durability: Durability, e: &Evaluator| {
            let score = |p: &[usize]| match e.evaluate_point(&space, p) {
                Ok(ev) => MultiObjective::valid(
                    vec![ev.objective_value, ev.tdp_w, ev.area_mm2],
                    ev.objective_value,
                ),
                Err(_) => MultiObjective::Invalid,
            };
            let mut opt = make_seeded(&seed_points);
            Study::new(space.space(), trials)
                .seed(5)
                .objective(StudyObjective::pareto(&dirs))
                .execution(execution)
                .durability(durability)
                .run(opt.as_mut(), StudyEval::shared(&score))
                .expect("valid study configuration")
                .into_pareto_result()
        };

        // Uninterrupted run, fresh cache.
        let e1 = evaluator.fresh_eval_cache();
        let straight = run(32, Durability::Ephemeral, &e1);

        // Interrupted after round 2 (16 trials), then resumed from disk.
        let dir = scratch_dir(&format!("study-level-{parallel}"));
        let e2 = evaluator.fresh_eval_cache();
        let _ = run(16, Durability::Checkpointed { dir: dir.clone(), every: 1 }, &e2);
        let resumed = run(32, Durability::Checkpointed { dir, every: 1 }, &e2);

        assert_eq!(resumed.frontier, straight.frontier, "parallel={parallel}");
        assert_eq!(
            resumed.guide_convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            straight.guide_convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "parallel={parallel}"
        );
        assert_eq!(resumed.trials, straight.trials, "parallel={parallel}");
    }
}

/// Seed-injecting optimizer equivalent to the sweep's (LCS would also work;
/// random keeps the test fast and its proposals domain-independent).
fn make_seeded(seeds: &[Vec<usize>]) -> Box<dyn fast::search::Optimizer> {
    struct Seeded {
        inner: fast::search::RandomSearch,
        seeds: Vec<Vec<usize>>,
        next: usize,
    }
    impl fast::search::Optimizer for Seeded {
        fn name(&self) -> &'static str {
            "seeded-random"
        }
        fn propose(
            &mut self,
            space: &fast::search::ParamSpace,
            rng: &mut rand::rngs::StdRng,
        ) -> Vec<usize> {
            if self.next < self.seeds.len() {
                self.next += 1;
                self.seeds[self.next - 1].clone()
            } else {
                self.inner.propose(space, rng)
            }
        }
        fn observe(&mut self, space: &fast::search::ParamSpace, trial: &fast::search::Trial) {
            self.inner.observe(space, trial);
        }
        fn save_state(&self) -> fast::search::OptimizerState {
            fast::search::OptimizerState::Seeded {
                seeds: self.seeds.clone(),
                next: self.next,
                inner: Box::new(self.inner.save_state()),
            }
        }
        fn load_state(&mut self, state: &fast::search::OptimizerState) -> bool {
            let fast::search::OptimizerState::Seeded { seeds, next, inner } = state else {
                return false;
            };
            if *next > seeds.len() || !self.inner.load_state(inner) {
                return false;
            }
            self.seeds = seeds.clone();
            self.next = *next;
            true
        }
    }
    Box::new(Seeded { inner: fast::search::RandomSearch::new(), seeds: seeds.to_vec(), next: 0 })
}

/// Corrupt checkpoint artifacts must never poison a resume: the run falls
/// back to cold and still matches the uninterrupted result, and the
/// finished checkpoint loads cleanly and its files equal those of an
/// uninterrupted checkpointed run.
#[test]
fn corrupt_checkpoints_degrade_to_cold_but_correct_runs() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();
    let clean = Checkpointer::new(scratch_dir("corrupt-clean")).unwrap();
    let _ = SweepRunner::new(matrix(), config()).run_checkpointed(&clean);

    for (name, damage) in
        [("truncated", b"FASTEVC1".to_vec()), ("garbage", vec![0x5Au8; 512]), ("empty", Vec::new())]
    {
        let ck = Checkpointer::new(scratch_dir(&format!("corrupt-{name}"))).unwrap();
        let _ = SweepRunner::new(matrix(), config()).run_prefix(&ck, 2);
        std::fs::write(ck.cache_path(), &damage).unwrap();
        std::fs::write(ck.sweep_path(), &damage).unwrap();
        let resumed = SweepRunner::new(matrix(), config()).resume(&ck);
        for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{name}: {}", a.scenario.name);
        }
        let report = fresh_evaluator().load_eval_cache(&ck.cache_path());
        assert_eq!(report.warning, None, "{name}: the resumed checkpoint loads cleanly");
        assert_checkpoint_files_equal(&clean, &ck, name);
    }
}

/// An evaluator with empty caches, for loading checkpoints into.
fn fresh_evaluator() -> Evaluator {
    Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default())
}

/// `cmp` of the two checkpoints' tier files and ledgers.
fn assert_checkpoint_files_equal(want: &Checkpointer, got: &Checkpointer, what: &str) {
    for path in [want.cache_path(), Evaluator::op_tier_path(&want.cache_path()), want.sweep_path()]
    {
        let name = path.file_name().unwrap();
        assert!(
            std::fs::read(&path).unwrap() == std::fs::read(got.dir().join(name)).unwrap(),
            "{what}: {} differs from the uninterrupted run's",
            name.to_string_lossy()
        );
    }
}

/// Byte offsets at which each segment of a tier file starts. A segment is
/// one envelope: magic (8 bytes), version (4), payload length (8),
/// checksum (8), payload.
fn segment_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        starts.push(at);
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap());
        at += 28 + usize::try_from(len).unwrap();
    }
    assert_eq!(at, bytes.len(), "segments tile the file");
    starts
}

/// A kill in the middle of an append leaves the op file's last segment
/// torn. The loader keeps every whole segment before it and warns, the
/// merger refuses the file, and a resume finishes with frontiers and
/// files equal to an uninterrupted checkpointed run's.
#[test]
fn torn_op_tier_tail_keeps_whole_segments_and_resumes_to_identical_files() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();
    let clean = Checkpointer::new(scratch_dir("torn-clean")).unwrap();
    let _ = SweepRunner::new(matrix(), config()).run_checkpointed(&clean);

    let ck = Checkpointer::new(scratch_dir("torn")).unwrap();
    let _ = SweepRunner::new(matrix(), config()).run_prefix(&ck, 2);
    let op_path = Evaluator::op_tier_path(&ck.cache_path());
    let bytes = std::fs::read(&op_path).unwrap();
    let starts = segment_starts(&bytes);
    assert!(starts.len() > 1, "a prefix run appends one segment per round");
    let last = *starts.last().unwrap();

    // The entries of the whole segments, loaded from a copy holding only
    // them.
    let whole_dir = Checkpointer::new(scratch_dir("torn-whole")).unwrap();
    std::fs::write(Evaluator::op_tier_path(&whole_dir.cache_path()), &bytes[..last]).unwrap();
    let whole = fresh_evaluator().load_eval_cache(&whole_dir.cache_path());
    assert_eq!(whole.warning, None);
    assert!(whole.op_loaded > 0);

    std::fs::write(&op_path, &bytes[..last + (bytes.len() - last) / 2]).unwrap();
    let (report, lines) =
        fast::core::warn::capture(|| fresh_evaluator().load_eval_cache(&ck.cache_path()));
    assert_eq!(report.op_loaded, whole.op_loaded, "every whole segment is kept");
    assert!(report.fuse_loaded > 0, "the fuse tier is untouched");
    let named = |line: &str| line.contains(&op_path.display().to_string());
    assert!(lines.len() == 1 && named(&lines[0]), "one warning naming the file: {lines:?}");
    assert!(report.warning.as_deref().is_some_and(named));

    let merged = scratch_dir("torn-merged").join("eval_cache.bin");
    std::fs::create_dir_all(merged.parent().unwrap()).unwrap();
    match merge_eval_caches(&[ck.cache_path()], &merged) {
        Err(MergeError::Snapshot(what)) => {
            assert!(what.contains(&op_path.display().to_string()), "names the file: {what}");
        }
        other => panic!("a torn tail must be a hard merge error, got {other:?}"),
    }

    let resumed = SweepRunner::new(matrix(), config()).resume(&ck);
    assert_eq!(resumed.scenarios.len(), uninterrupted.scenarios.len());
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        assert_eq!(a.invalid_trials, b.invalid_trials, "{}", a.scenario.name);
        assert_eq!(a.best_objective.map(f64::to_bits), b.best_objective.map(f64::to_bits));
    }
    assert_checkpoint_files_equal(&clean, &ck, "resumed after a torn tail");
}
