//! Merging sharded sweep checkpoints back into the single-process artifact
//! set.
//!
//! A distributed sweep runs [`crate::SweepRunner::run_shard`] once per shard,
//! each worker checkpointing into its own directory. This module folds those
//! directories back together: [`merge_eval_caches`] unions the key-sorted
//! tier snapshots (`eval_cache.bin` / `eval_cache.op.bin`), and
//! [`merge_sweep_checkpoints`] additionally stitches the shard ledgers into
//! one full-matrix ledger, re-running [`ParetoArchive`] insertion over every
//! recorded frontier. The merged directory is then indistinguishable from a
//! single-process [`crate::SweepRunner::run_checkpointed`] checkpoint — byte
//! for byte, because a finished checkpoint's tier files are sealed into one
//! segment of entries sorted by encoded key and evaluation is
//! deterministic, so the union of the shard entry sets *is* the
//! single-process entry set.
//!
//! # Conflict policy
//!
//! The warm-start loader degrades damage to a cold cache; the merger must
//! not — a silently dropped shard would un-account its scenarios and break
//! the merged == single-process contract. Every abnormality is therefore a
//! hard [`MergeError`]:
//!
//! * a missing, truncated (a torn final segment included), version-skewed
//!   or checksum-damaged shard snapshot ([`MergeError::Snapshot`] /
//!   [`MergeError::Ledger`]);
//! * the same tier key bound to two different values — impossible under
//!   deterministic evaluation, so it means a poisoned or stale shard
//!   ([`MergeError::TierConflict`]);
//! * a shard ledger whose completed set does not cover its declared range —
//!   the worker was killed mid-shard and must be resumed before merging
//!   ([`MergeError::IncompleteShard`]);
//! * shard ranges that do not jointly cover the matrix
//!   ([`MergeError::CoverageGap`]).
//!
//! The one tolerated redundancy is *identical* overlap: two shards that both
//! completed a scenario (or both hold a tier entry) merge fine when the
//! records agree byte-for-byte — first-wins dedup, counted in the
//! [`MergeReport`]. Disagreement is [`MergeError::ScenarioConflict`].

use crate::evaluate::{
    read_tier_strict, Evaluator, TierReadError, FUSE_MAGIC, FUSE_VERSION, OP_MAGIC, OP_VERSION,
};
use crate::sweep::{
    read_ledger_strict, CompletedScenario, LedgerFile, DIRECTIONS, SWEEP_MAGIC, SWEEP_VERSION,
};
use fast_search::ParetoArchive;
use fast_sim::{MapFailure, Mapping, OpKey};
use serde::bin::{self, Decode, Encode, Writer};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a merge was refused. Every variant is a hard error by design — see
/// the module docs for the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A shard tier snapshot is missing or damaged (truncation, version
    /// skew, checksum failure, undecodable entries). The message names the
    /// tier, the file, and the failing byte region.
    Snapshot(String),
    /// The same tier key carries different values in two shards.
    /// Evaluation is deterministic, so this means a poisoned or stale
    /// snapshot, never a legitimate disagreement.
    TierConflict {
        /// Which tier (`"op"` or `"fuse"`).
        tier: &'static str,
        /// The two snapshot files that disagree and a key preview.
        detail: String,
    },
    /// A shard ledger is missing or damaged.
    Ledger(String),
    /// Shard ledgers disagree about what is being merged (different
    /// matrix/config fingerprints or matrix sizes).
    LedgerMismatch(String),
    /// A shard completed fewer scenarios than its declared range — the
    /// worker was killed mid-shard. Resume it, then re-merge.
    IncompleteShard(String),
    /// The shard ranges do not jointly cover every scenario of the matrix.
    CoverageGap(String),
    /// Two shards completed the same scenario with different results.
    ScenarioConflict(String),
    /// A recorded frontier failed [`ParetoArchive`] re-insertion (dominated
    /// or duplicate points) — the ledger record is corrupt.
    Frontier(String),
    /// A filesystem error writing the merged artifacts.
    Io(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Snapshot(s) => write!(f, "shard snapshot unusable: {s}"),
            MergeError::TierConflict { tier, detail } => {
                write!(f, "{tier} tier conflict (same key, different value): {detail}")
            }
            MergeError::Ledger(s) => write!(f, "shard ledger unusable: {s}"),
            MergeError::LedgerMismatch(s) => write!(f, "shard ledgers disagree: {s}"),
            MergeError::IncompleteShard(s) => {
                write!(f, "shard incomplete (killed mid-range; resume it before merging): {s}")
            }
            MergeError::CoverageGap(s) => write!(f, "shards do not cover the matrix: {s}"),
            MergeError::ScenarioConflict(s) => {
                write!(f, "shards disagree on a completed scenario: {s}")
            }
            MergeError::Frontier(s) => write!(f, "recorded frontier is not a Pareto set: {s}"),
            MergeError::Io(s) => write!(f, "could not write merged artifacts: {s}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// What [`merge_eval_caches`] merged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMergeStats {
    /// Distinct op-tier entries written.
    pub op_entries: usize,
    /// Distinct fuse-tier entries written.
    pub fuse_entries: usize,
    /// Op-tier entries seen in more than one input (identical values).
    pub op_duplicates: usize,
    /// Fuse-tier entries seen in more than one input (identical values).
    pub fuse_duplicates: usize,
}

/// What [`merge_sweep_checkpoints`] merged.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Number of shard directories merged.
    pub shards: usize,
    /// Scenarios in the merged ledger (the full matrix).
    pub scenarios: usize,
    /// Scenarios recorded by more than one shard (identical records).
    pub scenario_duplicates: usize,
    /// Tier statistics from the cache merge.
    pub cache: CacheMergeStats,
    /// The merged ledger records, in matrix order.
    pub completed: Vec<CompletedScenario>,
}

/// First bytes of an encoded key, for conflict messages.
fn key_preview(key: &[u8]) -> String {
    let shown = &key[..key.len().min(16)];
    let hex: String = shown.iter().map(|b| format!("{b:02x}")).collect();
    if key.len() > shown.len() {
        format!("0x{hex}… ({} bytes)", key.len())
    } else {
        format!("0x{hex}")
    }
}

/// Atomically writes `file` (temp + rename), mapping failures to
/// [`MergeError::Io`].
fn write_atomic(path: &Path, file: &[u8]) -> Result<(), MergeError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, file)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| MergeError::Io(format!("{}: {e}", path.display())))
}

/// Unions one tier across `paths` into `out`.
///
/// Entries are decoded strictly (any damage aborts), compared by their
/// encoded bytes, and re-written sorted by encoded key — the same canonical
/// form [`crate::evaluate`] writes, so a union equal to a single process's
/// entry set produces a byte-identical file.
fn merge_tier<K, V>(
    paths: &[PathBuf],
    out: &Path,
    magic: [u8; 8],
    version: u32,
    tier: &'static str,
) -> Result<(usize, usize), MergeError>
where
    K: Encode + Decode,
    V: Encode + Decode,
{
    // key bytes → (value bytes, index of the shard that contributed them)
    let mut union: BTreeMap<Vec<u8>, (Vec<u8>, usize)> = BTreeMap::new();
    let mut duplicates = 0usize;
    for (i, path) in paths.iter().enumerate() {
        let entries: Vec<(K, V)> =
            read_tier_strict(path, magic, version, tier).map_err(|e| match e {
                TierReadError::Missing => MergeError::Snapshot(format!(
                    "{tier} tier snapshot {} does not exist (a completed worker always \
                     leaves both tier files; exclude empty shards instead of \
                     pointing at missing ones)",
                    path.display()
                )),
                TierReadError::Damaged(what) => MergeError::Snapshot(what),
            })?;
        for (k, v) in entries {
            let (kb, vb) = (k.to_bytes(), v.to_bytes());
            match union.entry(kb) {
                Entry::Vacant(slot) => {
                    slot.insert((vb, i));
                }
                Entry::Occupied(slot) => {
                    let (prior, from) = slot.get();
                    if *prior != vb {
                        return Err(MergeError::TierConflict {
                            tier,
                            detail: format!(
                                "key {} has one value in {} and another in {}",
                                key_preview(slot.key()),
                                paths[*from].display(),
                                path.display()
                            ),
                        });
                    }
                    duplicates += 1;
                }
            }
        }
    }
    let mut payload = Writer::new();
    payload.put_u64(union.len() as u64);
    for (k, (v, _)) in &union {
        payload.put_bytes(k);
        payload.put_bytes(v);
    }
    write_atomic(out, &bin::write_envelope(magic, version, &payload.into_bytes()))?;
    Ok((union.len(), duplicates))
}

/// Unions evaluation-cache snapshot pairs into one pair at `output`.
///
/// `inputs` and `output` are fuse-tier paths (`eval_cache.bin`); each op
/// tier rides along at [`Evaluator::op_tier_path`]. Both tiers are merged
/// with conflict detection — the same key bound to two different values is a
/// hard [`MergeError::TierConflict`], since deterministic evaluation cannot
/// legitimately disagree. Unlike [`Evaluator::load_eval_cache`], nothing
/// degrades: a missing or damaged input is an error, because silently
/// dropping a shard's entries would break the merged == single-process
/// byte-identity.
///
/// # Errors
/// See [`MergeError`].
pub fn merge_eval_caches(inputs: &[PathBuf], output: &Path) -> Result<CacheMergeStats, MergeError> {
    let op_inputs: Vec<PathBuf> = inputs.iter().map(|p| Evaluator::op_tier_path(p)).collect();
    #[allow(clippy::type_complexity)] // the op tier's on-disk entry type, spelled once
    let (op_entries, op_duplicates) = merge_tier::<OpKey, Result<Mapping, MapFailure>>(
        &op_inputs,
        &Evaluator::op_tier_path(output),
        OP_MAGIC,
        OP_VERSION,
        "op",
    )?;
    let (fuse_entries, fuse_duplicates) = merge_tier::<
        crate::evaluate::FuseKey,
        fast_fusion::FusionTotals,
    >(inputs, output, FUSE_MAGIC, FUSE_VERSION, "fuse")?;
    Ok(CacheMergeStats { op_entries, fuse_entries, op_duplicates, fuse_duplicates })
}

/// Validates a recorded frontier by re-running [`ParetoArchive`] insertion
/// over it and returns the canonical (re-derived) frontier.
fn revalidate_frontier(record: &CompletedScenario) -> Result<CompletedScenario, MergeError> {
    let archive = ParetoArchive::from_parts(&DIRECTIONS, record.frontier_points.clone())
        .map_err(|e| MergeError::Frontier(format!("scenario {}: {e}", record.name)))?;
    Ok(CompletedScenario { frontier_points: archive.frontier(), ..record.clone() })
}

/// Merges shard checkpoint directories into `output`, producing the exact
/// artifact set a single-process checkpointed sweep of the same matrix and
/// config would have left:
///
/// * `eval_cache.bin` / `eval_cache.op.bin` — the tier union, byte-identical
///   to the single-process snapshots (see [`merge_eval_caches`]);
/// * `sweep.bin` — a full-matrix ledger (`0..total`) whose records are the
///   shards' records concatenated in matrix order, each frontier
///   re-validated through [`ParetoArchive`] insertion.
///
/// The merged directory is therefore directly resumable: pointing the
/// single-process sweep at it with `--resume` replays every scenario from
/// the warm cache and cross-checks each against the merged ledger.
///
/// Shards must share one fingerprint and matrix size, each must be complete
/// (its ledger covers its declared range), and together they must cover
/// every scenario. Overlap is tolerated only when the overlapping records
/// agree exactly. Shards with an empty range contribute nothing and may
/// omit their tier files.
///
/// # Errors
/// See [`MergeError`] for the full refusal policy.
pub fn merge_sweep_checkpoints(
    inputs: &[PathBuf],
    output: &Path,
) -> Result<MergeReport, MergeError> {
    if inputs.is_empty() {
        return Err(MergeError::CoverageGap("no shard directories given".to_string()));
    }
    let mut shards: Vec<(PathBuf, LedgerFile)> = Vec::new();
    for dir in inputs {
        let ledger = read_ledger_strict(&dir.join("sweep.bin")).map_err(MergeError::Ledger)?;
        shards.push((dir.clone(), ledger));
    }

    let (first_dir, first) = &shards[0];
    for (dir, ledger) in &shards[1..] {
        if ledger.fingerprint != first.fingerprint {
            return Err(MergeError::LedgerMismatch(format!(
                "{} and {} come from different matrix/config fingerprints",
                first_dir.display(),
                dir.display()
            )));
        }
        if ledger.total != first.total {
            return Err(MergeError::LedgerMismatch(format!(
                "{} covers a {}-scenario matrix, {} a {}-scenario one",
                first_dir.display(),
                first.total,
                dir.display(),
                ledger.total
            )));
        }
    }
    let (fingerprint, total) = (first.fingerprint, first.total);

    for (dir, ledger) in &shards {
        let expected = ledger.end - ledger.start;
        if (ledger.completed.len() as u64) < expected {
            return Err(MergeError::IncompleteShard(format!(
                "{} completed {} of its {} scenarios ({}..{})",
                dir.display(),
                ledger.completed.len(),
                expected,
                ledger.start,
                ledger.end
            )));
        }
    }

    // Shard ranges are contiguous index windows; sorted by start, they must
    // tile 0..total with no gap (overlap is handled by record dedup below).
    shards.sort_by_key(|(_, l)| (l.start, l.end));
    let mut covered = 0u64;
    for (dir, ledger) in &shards {
        if ledger.start > covered {
            return Err(MergeError::CoverageGap(format!(
                "scenarios {covered}..{} of {total} are not covered by any shard (next is {})",
                ledger.start,
                dir.display()
            )));
        }
        covered = covered.max(ledger.end);
    }
    if covered < total {
        return Err(MergeError::CoverageGap(format!(
            "scenarios {covered}..{total} of {total} are not covered by any shard"
        )));
    }

    // Concatenate records in matrix order, first-wins on identical overlap.
    let mut completed: Vec<CompletedScenario> = Vec::new();
    let mut taken: HashMap<String, usize> = HashMap::new();
    let mut scenario_duplicates = 0usize;
    for (dir, ledger) in &shards {
        for record in &ledger.completed {
            if let Some(&at) = taken.get(&record.name) {
                if completed[at] != revalidate_frontier(record)? {
                    return Err(MergeError::ScenarioConflict(format!(
                        "scenario {} differs between shards (second copy in {})",
                        record.name,
                        dir.display()
                    )));
                }
                scenario_duplicates += 1;
                continue;
            }
            taken.insert(record.name.clone(), completed.len());
            completed.push(revalidate_frontier(record)?);
        }
    }

    // Union the tier snapshots. Empty-range shards never evaluated anything
    // and legitimately have no tier files; every other shard must.
    let cache_inputs: Vec<PathBuf> = shards
        .iter()
        .filter(|(_, l)| l.start < l.end)
        .map(|(dir, _)| dir.join("eval_cache.bin"))
        .collect();
    std::fs::create_dir_all(output)
        .map_err(|e| MergeError::Io(format!("{}: {e}", output.display())))?;
    let cache = merge_eval_caches(&cache_inputs, &output.join("eval_cache.bin"))?;

    let ledger =
        LedgerFile { fingerprint, start: 0, end: total, total, completed: completed.clone() };
    let file = bin::write_envelope(SWEEP_MAGIC, SWEEP_VERSION, &ledger.encode_payload());
    write_atomic(&output.join("sweep.bin"), &file)?;

    Ok(MergeReport {
        shards: shards.len(),
        scenarios: completed.len(),
        scenario_duplicates,
        cache,
        completed,
    })
}
