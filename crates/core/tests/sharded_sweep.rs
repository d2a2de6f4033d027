//! The distributed-sweep contract, end to end: sharding a `ScenarioMatrix`
//! across workers and merging their checkpoints is **bit-identical** to
//! running the whole matrix in one process — same per-scenario frontiers,
//! and byte-equal `sweep.bin` / `eval_cache.bin` / `eval_cache.op.bin`
//! artifacts. Alongside the identity properties, an adversarial suite pins
//! the merge refusal policy file-corruption-by-corruption: truncation,
//! version skew, mid-shard kills, coverage gaps, fingerprint mismatches and
//! poisoned (conflicting) values each produce their documented hard error.

use fast_core::{
    merge_eval_caches, merge_sweep_checkpoints, BudgetLevel, Checkpointer, MergeError, Objective,
    ScenarioMatrix, SweepConfig, SweepResult, SweepRunner,
};
use fast_models::{EfficientNet, Workload, WorkloadDomain};
use proptest::prelude::*;
use serde::bin::{fnv1a, ENVELOPE_HEADER_LEN};
use std::path::{Path, PathBuf};

fn b0_domain() -> WorkloadDomain {
    WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0))
}

/// A 2-scenario matrix — the cheapest multi-scenario fixture.
fn tiny_matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        budgets: vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.7)],
        objectives: vec![Objective::Qps],
        domains: vec![b0_domain()],
    }
}

fn tiny_config() -> SweepConfig {
    SweepConfig { trials: 10, batch: 4, ..SweepConfig::default() }
}

/// A unique scratch directory per test (and per proptest case).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fast-shard-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three files a checkpoint directory holds.
const ARTIFACTS: [&str; 3] = ["sweep.bin", "eval_cache.bin", "eval_cache.op.bin"];

fn assert_dirs_byte_equal(a: &Path, b: &Path, context: &str) {
    for file in ARTIFACTS {
        let fa = std::fs::read(a.join(file)).unwrap_or_else(|e| panic!("{context}: {file}: {e}"));
        let fb = std::fs::read(b.join(file)).unwrap_or_else(|e| panic!("{context}: {file}: {e}"));
        assert!(fa == fb, "{context}: {file} differs ({} vs {} bytes)", fa.len(), fb.len());
    }
}

/// Runs every shard of an `n`-way split into its own checkpoint directory,
/// returning the shard directories and the concatenated results.
fn run_shards(
    matrix: &ScenarioMatrix,
    config: &SweepConfig,
    n: usize,
    tag: &str,
) -> (Vec<PathBuf>, Vec<SweepResult>) {
    let mut dirs = Vec::new();
    let mut results = Vec::new();
    for i in 0..n {
        let dir = scratch(&format!("{tag}-w{i}of{n}"));
        let ck = Checkpointer::new(&dir).unwrap();
        results.push(SweepRunner::new(matrix.clone(), config.clone()).run_shard(&ck, i, n));
        dirs.push(dir);
    }
    (dirs, results)
}

/// Flips the last 8 payload bytes of an envelope file (a trailing value
/// field) and repairs the checksum — a *validly decoding* snapshot whose
/// content disagrees with every honest copy.
fn poison_last_value(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let n = bytes.len();
    assert!(n > ENVELOPE_HEADER_LEN + 8, "nothing to poison in {}", path.display());
    for b in &mut bytes[n - 8..] {
        *b ^= 0xFF;
    }
    let sum = fnv1a(&bytes[ENVELOPE_HEADER_LEN..]);
    bytes[20..28].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// Flips a ledger record's trailing `best_objective` f64 and repairs the
/// checksum. An exact-fidelity ledger record ends with
/// `[best_objective: Some tag + 8 bytes][fidelity: None tag]`, so the 8
/// bytes before the final tag byte are the value — flipping them keeps the
/// file *validly decoding* while disagreeing with every honest copy.
fn poison_ledger_best_objective(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let n = bytes.len();
    assert!(n > ENVELOPE_HEADER_LEN + 9, "nothing to poison in {}", path.display());
    for b in &mut bytes[n - 9..n - 1] {
        *b ^= 0xFF;
    }
    let sum = fnv1a(&bytes[ENVELOPE_HEADER_LEN..]);
    bytes[20..28].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// Patches the version field (bytes 8..12) of an envelope file — a snapshot
/// from a future (or past) format revision.
fn skew_version(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    bytes[8..12].copy_from_slice(&(version + 1).to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

// ---------------------------------------------------------------------------
// Shard partition properties (pure — no sweeps run)
// ---------------------------------------------------------------------------

/// A random matrix, parameterized by axis sizes (the proptest shim samples
/// primitives; composition happens here): `nb` budget levels of `no`
/// objectives over the B0 domain — 1 to 6 scenarios.
fn matrix_of(nb: usize, no: usize) -> ScenarioMatrix {
    let scales = [1.0, 0.85, 0.7];
    ScenarioMatrix {
        budgets: scales[..nb].iter().map(|&s| BudgetLevel::scaled(s)).collect(),
        objectives: [Objective::Qps, Objective::PerfPerTdp][..no].to_vec(),
        domains: vec![b0_domain()],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `shard(i, n)` is a stable, gap-free, order-preserving partition:
    /// concatenating the shards in index order reproduces `scenarios()`
    /// exactly, for every shard count — including counts larger than the
    /// matrix, where trailing shards are legitimately empty.
    #[test]
    fn shard_partition_is_stable_gap_free_and_order_preserving(
        nb in 1usize..=3,
        no in 1usize..=2,
        n in 1usize..=8,
    ) {
        let matrix = matrix_of(nb, no);
        let all: Vec<String> = matrix.scenarios().into_iter().map(|s| s.name).collect();
        let mut concatenated = Vec::new();
        let mut covered = 0usize;
        for i in 0..n {
            let range = matrix.shard_range(i, n);
            prop_assert_eq!(range.start, covered, "shard {} does not start where {} ended", i, i.wrapping_sub(1));
            covered = range.end;
            let shard: Vec<String> = matrix.shard(i, n).into_iter().map(|s| s.name).collect();
            prop_assert_eq!(shard.len(), range.len());
            // Stable: a second call returns the same slice.
            let again: Vec<String> = matrix.shard(i, n).into_iter().map(|s| s.name).collect();
            prop_assert_eq!(&shard, &again);
            concatenated.extend(shard);
        }
        prop_assert_eq!(covered, all.len(), "shards must cover the whole matrix");
        prop_assert_eq!(concatenated, all);
    }

    /// Shard sizes are balanced: no shard is more than one scenario larger
    /// than any other.
    #[test]
    fn shard_sizes_are_balanced(nb in 1usize..=3, no in 1usize..=2, n in 1usize..=8) {
        let matrix = matrix_of(nb, no);
        let sizes: Vec<usize> = (0..n).map(|i| matrix.shard_range(i, n).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced shards: {:?}", sizes);
    }
}

#[test]
#[should_panic(expected = "shard index")]
fn out_of_range_shard_index_panics() {
    let _ = tiny_matrix().shard(3, 3);
}

#[test]
#[should_panic(expected = "shard count")]
fn zero_shard_count_panics() {
    let _ = tiny_matrix().shard(0, 0);
}

// ---------------------------------------------------------------------------
// Bit-identity: N-shard run + merge == single-process sweep
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The ROADMAP item-4 property: for random matrices and every shard
    /// count in {1, 2, 3, 5}, running the shards in separate "processes"
    /// (separate checkpoint directories, cold caches) and merging produces
    /// (a) the same per-scenario frontiers as the single-process sweep and
    /// (b) byte-identical ledger and tier-snapshot files.
    #[test]
    fn sharded_merge_is_bit_identical_to_single_process(nb in 1usize..=3, no in 1usize..=2) {
        let matrix = matrix_of(nb, no);
        let config = SweepConfig { trials: 8, batch: 4, ..SweepConfig::default() };
        let single_dir = scratch("prop-single");
        let ck = Checkpointer::new(&single_dir).unwrap();
        let full = SweepRunner::new(matrix.clone(), config.clone()).run_checkpointed(&ck);

        for n in [1usize, 2, 3, 5] {
            let (dirs, shard_results) = run_shards(&matrix, &config, n, "prop");
            // (a) concatenated shard results == single-process results.
            let shard_scenarios: Vec<_> =
                shard_results.iter().flat_map(|r| r.scenarios.iter()).collect();
            prop_assert_eq!(shard_scenarios.len(), full.scenarios.len());
            for (a, b) in full.scenarios.iter().zip(shard_scenarios) {
                prop_assert_eq!(&a.scenario.name, &b.scenario.name);
                prop_assert_eq!(&a.frontier_points, &b.frontier_points,
                    "{} differs under {}-way sharding", a.scenario.name, n);
                prop_assert_eq!(a.invalid_trials, b.invalid_trials);
            }
            // (b) merged artifacts byte-equal the single-process ones.
            let merged = scratch(&format!("prop-merged-{n}"));
            let report = merge_sweep_checkpoints(&dirs, &merged).unwrap();
            prop_assert_eq!(report.shards, n);
            prop_assert_eq!(report.scenarios, full.scenarios.len());
            assert_dirs_byte_equal(&single_dir, &merged, &format!("{n}-way merge"));
            for d in dirs.iter().chain([&merged]) {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        let _ = std::fs::remove_dir_all(&single_dir);
    }
}

/// The canonical fixture, deterministically: every shard count's merge is
/// byte-equal to the single-process checkpoint, and the merged directory is
/// *resumable* — a single-process resume on it replays everything from the
/// warm cache with the same frontiers.
#[test]
fn merged_checkpoint_is_resumable_as_single_process() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let single_dir = scratch("resume-single");
    let ck = Checkpointer::new(&single_dir).unwrap();
    let full = SweepRunner::new(matrix.clone(), config.clone()).run_checkpointed(&ck);

    let (dirs, _) = run_shards(&matrix, &config, 2, "resume");
    let merged = scratch("resume-merged");
    merge_sweep_checkpoints(&dirs, &merged).unwrap();
    assert_dirs_byte_equal(&single_dir, &merged, "2-way merge");

    // Resume the *full* sweep from the merged checkpoint: near-pure cache
    // replay, identical frontiers.
    let merged_ck = Checkpointer::new(&merged).unwrap();
    let resumed = SweepRunner::new(matrix, config).resume(&merged_ck);
    for (a, b) in full.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        assert!(
            b.staged.fuse.hit_rate() > 0.9,
            "{}: replay from merged cache hit rate {:.2}",
            b.scenario.name,
            b.staged.fuse.hit_rate()
        );
    }
}

/// `resume_shard` on an empty directory degrades to a cold shard run;
/// pointing it at a *different* shard's checkpoint rejects the ledger and
/// still produces the correct results.
#[test]
fn resume_shard_degrades_safely() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let (dirs, shard_results) = run_shards(&matrix, &config, 2, "degrade");

    let cold_dir = scratch("degrade-cold");
    let cold_ck = Checkpointer::new(&cold_dir).unwrap();
    let cold = SweepRunner::new(matrix.clone(), config.clone()).resume_shard(&cold_ck, 0, 2);
    assert_eq!(cold.scenarios[0].frontier_points, shard_results[0].scenarios[0].frontier_points);

    // Shard 1 resumed against shard 0's checkpoint: the ledger is for the
    // wrong range and must be ignored; results are still shard 1's.
    let wrong_ck = Checkpointer::new(&dirs[0]).unwrap();
    let crossed = SweepRunner::new(matrix, config).resume_shard(&wrong_ck, 1, 2);
    assert_eq!(crossed.scenarios[0].frontier_points, shard_results[1].scenarios[0].frontier_points);
}

// ---------------------------------------------------------------------------
// Adversarial merges — the refusal policy, corruption by corruption
// ---------------------------------------------------------------------------

#[test]
fn truncated_shard_snapshot_is_a_hard_error() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let (dirs, _) = run_shards(&matrix, &config, 2, "trunc");
    let cache = dirs[1].join("eval_cache.bin");
    let bytes = std::fs::read(&cache).unwrap();
    std::fs::write(&cache, &bytes[..bytes.len() / 2]).unwrap();

    let err = merge_sweep_checkpoints(&dirs, &scratch("trunc-out")).unwrap_err();
    match &err {
        MergeError::Snapshot(what) => {
            assert!(what.contains("eval_cache.bin"), "should name the file: {what}");
        }
        other => panic!("expected Snapshot error, got {other:?}"),
    }
}

#[test]
fn version_skewed_shard_is_a_hard_error_not_a_silent_drop() {
    let (matrix, config) = (tiny_matrix(), tiny_config());

    // Skewed tier snapshot.
    let (dirs, _) = run_shards(&matrix, &config, 2, "skew-tier");
    skew_version(&dirs[0].join("eval_cache.op.bin"));
    let err = merge_sweep_checkpoints(&dirs, &scratch("skew-tier-out")).unwrap_err();
    assert!(
        matches!(&err, MergeError::Snapshot(what) if what.contains("version")),
        "expected a version-naming Snapshot error, got {err:?}"
    );

    // Skewed ledger.
    let (dirs, _) = run_shards(&matrix, &config, 2, "skew-ledger");
    skew_version(&dirs[1].join("sweep.bin"));
    let err = merge_sweep_checkpoints(&dirs, &scratch("skew-ledger-out")).unwrap_err();
    assert!(
        matches!(&err, MergeError::Ledger(what) if what.contains("version")),
        "expected a version-naming Ledger error, got {err:?}"
    );
}

#[test]
fn missing_shard_ledger_is_a_hard_error() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let (dirs, _) = run_shards(&matrix, &config, 2, "noledger");
    std::fs::remove_file(dirs[0].join("sweep.bin")).unwrap();
    let err = merge_sweep_checkpoints(&dirs, &scratch("noledger-out")).unwrap_err();
    assert!(matches!(err, MergeError::Ledger(_)), "got {err:?}");
}

#[test]
fn killed_mid_shard_worker_must_be_resumed_before_merging() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    // A prefix run writes a 0..total ledger with fewer completed scenarios
    // — exactly what a worker killed at a scenario boundary leaves behind.
    let dir = scratch("killed");
    let ck = Checkpointer::new(&dir).unwrap();
    let _ = SweepRunner::new(matrix.clone(), config.clone()).run_prefix(&ck, 1);

    let err =
        merge_sweep_checkpoints(std::slice::from_ref(&dir), &scratch("killed-out")).unwrap_err();
    assert!(
        matches!(&err, MergeError::IncompleteShard(what) if what.contains("resume") || what.contains("1 of")),
        "got {err:?}"
    );

    // Resuming completes the shard; the merge then goes through and matches
    // a clean single-process checkpoint byte for byte.
    let _ = SweepRunner::new(matrix.clone(), config.clone()).resume(&ck);
    let merged = scratch("killed-merged");
    merge_sweep_checkpoints(&[dir], &merged).unwrap();

    let clean_dir = scratch("killed-clean");
    let clean_ck = Checkpointer::new(&clean_dir).unwrap();
    let _ = SweepRunner::new(matrix, config).run_checkpointed(&clean_ck);
    assert_dirs_byte_equal(&clean_dir, &merged, "resumed-then-merged");
}

#[test]
fn coverage_gap_is_a_hard_error() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let (dirs, _) = run_shards(&matrix, &config, 2, "gap");
    // Merge only shard 0 of 2: scenarios 1..2 are unaccounted for.
    let err = merge_sweep_checkpoints(&dirs[..1], &scratch("gap-out")).unwrap_err();
    assert!(matches!(err, MergeError::CoverageGap(_)), "got {err:?}");
}

#[test]
fn fingerprint_mismatch_between_shards_is_a_hard_error() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let (mut dirs, _) = run_shards(&matrix, &config, 2, "fpmix");
    // Re-run shard 1 under a different seed: same files, different study.
    let other = SweepConfig { seed: 99, ..config };
    let dir = scratch("fpmix-other");
    let ck = Checkpointer::new(&dir).unwrap();
    let _ = SweepRunner::new(matrix, other).run_shard(&ck, 1, 2);
    dirs[1] = dir;

    let err = merge_sweep_checkpoints(&dirs, &scratch("fpmix-out")).unwrap_err();
    assert!(matches!(err, MergeError::LedgerMismatch(_)), "got {err:?}");
}

/// Overlap with *identical* records is tolerated (first-wins dedup): a full
/// 0..total checkpoint merged with one of its own shards re-produces the
/// full checkpoint byte for byte and counts the duplicates.
#[test]
fn identical_overlap_dedups_clean() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let single_dir = scratch("overlap-single");
    let ck = Checkpointer::new(&single_dir).unwrap();
    let _ = SweepRunner::new(matrix.clone(), config.clone()).run_checkpointed(&ck);
    let (dirs, shard_results) = run_shards(&matrix, &config, 2, "overlap");

    let merged = scratch("overlap-merged");
    let inputs = vec![single_dir.clone(), dirs[0].clone()];
    let report = merge_sweep_checkpoints(&inputs, &merged).unwrap();
    assert_eq!(report.scenario_duplicates, shard_results[0].scenarios.len());
    assert!(report.cache.fuse_duplicates > 0, "shard 0's fuse entries all repeat");
    assert_dirs_byte_equal(&single_dir, &merged, "overlap merge");
}

/// The poisoned-value case: a shard snapshot that *decodes perfectly* but
/// disagrees with another shard about one cached value. Deterministic
/// evaluation cannot produce that, so the merge must refuse rather than
/// pick a winner.
#[test]
fn poisoned_conflicting_tier_value_is_a_hard_error() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let single_dir = scratch("poison-single");
    let ck = Checkpointer::new(&single_dir).unwrap();
    let _ = SweepRunner::new(matrix.clone(), config.clone()).run_checkpointed(&ck);
    let (dirs, _) = run_shards(&matrix, &config, 2, "poison");

    // Shard 0's entries are a subset of the full run's, so flipping one of
    // its values guarantees a same-key disagreement.
    poison_last_value(&dirs[0].join("eval_cache.bin"));
    let inputs = vec![single_dir, dirs[0].clone()];
    let err = merge_sweep_checkpoints(&inputs, &scratch("poison-out")).unwrap_err();
    match &err {
        MergeError::TierConflict { tier, detail } => {
            assert_eq!(*tier, "fuse");
            assert!(detail.contains("eval_cache.bin"), "should name both files: {detail}");
        }
        other => panic!("expected TierConflict, got {other:?}"),
    }
}

/// Same poisoning, aimed at the ledger: a record whose trailing field was
/// flipped disagrees with the honest copy of the same scenario.
#[test]
fn poisoned_conflicting_scenario_record_is_a_hard_error() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let single_dir = scratch("poisonledger-single");
    let ck = Checkpointer::new(&single_dir).unwrap();
    let _ = SweepRunner::new(matrix.clone(), config.clone()).run_checkpointed(&ck);
    let (dirs, _) = run_shards(&matrix, &config, 2, "poisonledger");

    poison_ledger_best_objective(&dirs[1].join("sweep.bin"));
    let inputs = vec![single_dir, dirs[1].clone()];
    let err = merge_sweep_checkpoints(&inputs, &scratch("poisonledger-out")).unwrap_err();
    assert!(matches!(err, MergeError::ScenarioConflict(_)), "got {err:?}");
}

/// The standalone cache merger: unioning the tier snapshots of two
/// independent runs of *different* scenario subsets succeeds, and merging a
/// snapshot with itself is the identity.
#[test]
fn merge_eval_caches_unions_and_is_idempotent() {
    let (matrix, config) = (tiny_matrix(), tiny_config());
    let (dirs, _) = run_shards(&matrix, &config, 2, "union");
    let caches: Vec<PathBuf> = dirs.iter().map(|d| d.join("eval_cache.bin")).collect();

    let out_dir = scratch("union-out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let merged = out_dir.join("eval_cache.bin");
    let stats = merge_eval_caches(&caches, &merged).unwrap();
    assert!(stats.op_entries > 0 && stats.fuse_entries > 0);

    // Self-merge of the merged pair changes nothing.
    let again = out_dir.join("again.bin");
    let stats2 = merge_eval_caches(&[merged.clone(), merged.clone()], &again).unwrap();
    assert_eq!(stats2.op_entries, stats.op_entries);
    assert_eq!(stats2.op_duplicates, stats.op_entries);
    assert_eq!(std::fs::read(&merged).unwrap(), std::fs::read(&again).unwrap());

    // A missing input is an error, never a silent drop.
    let err = merge_eval_caches(&[out_dir.join("nope.bin")], &again).unwrap_err();
    assert!(matches!(&err, MergeError::Snapshot(what) if what.contains("does not exist")));
}
