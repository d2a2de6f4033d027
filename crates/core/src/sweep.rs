//! The scenario-sweep engine: one call runs the paper's whole result matrix.
//!
//! The headline results of the paper are *sweeps*, not single optima —
//! Perf and Perf/TDP frontiers across area/TDP budgets, per-model and
//! multi-model domains (Figs. 9–11, §6). [`SweepRunner`] expands a
//! declarative [`ScenarioMatrix`] — `{budget × objective × workload
//! domain}` — into one Pareto study per scenario, all sharing a single
//! evaluation cache: re-scoring a design under a second objective or a
//! tighter budget is a cache hit, not a re-simulation, and a domain whose
//! workloads were already simulated under another domain reuses those
//! simulations wholesale. Each scenario reports its non-dominated frontier
//! (objective vs. TDP vs. area) and its share of the cache traffic.
//!
//! Determinism: every scenario runs the batched Pareto driver under the
//! `trial_rng(seed, index)` contract, so a sweep is reproducible from
//! `(matrix, config)` alone, and evaluating rounds in parallel cannot change
//! any frontier.

use crate::driver::{OptimizerKind, SeededOptimizer};
use crate::evaluate::{Evaluator, Objective, StagedCacheStats};
use crate::search_space::FastSpace;
use crate::segment;
use fast_arch::{Budget, DatapathConfig};
use fast_models::WorkloadDomain;
use fast_search::{
    Execution, Fidelity, FidelityReport, FrontierPoint, MetricDirection, MultiObjective, Study,
    StudyEval, StudyObjective,
};
use fast_sim::SimOptions;
use fast_surrogate::{GuideMetric, SurrogateScreener};
use rayon::prelude::*;
use serde::bin::{self, Decode, Encode, Reader, Writer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A named area/TDP budget level of the sweep (e.g. `"1.00x"` for the paper
/// budget, `"0.50x"` for an embedded-class point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetLevel {
    /// Display name.
    pub name: String,
    /// The budget constraint (Eq. 4).
    pub budget: Budget,
}

impl BudgetLevel {
    /// The paper budget scaled by `factor` on both axes, named `"{factor}x"`.
    #[must_use]
    pub fn scaled(factor: f64) -> Self {
        let paper = Budget::paper_default();
        BudgetLevel {
            name: format!("{factor:.2}x"),
            budget: Budget {
                max_area_mm2: paper.max_area_mm2 * factor,
                max_tdp_w: paper.max_tdp_w * factor,
            },
        }
    }
}

/// The declarative scenario matrix: budgets × objectives × workload domains.
///
/// Expansion order is domain-major (all budgets and objectives of a domain
/// before the next domain), budgets in the given order, objectives
/// innermost. Cache reuse is maximized by listing budgets loosest-first
/// (designs admitted by a tight budget are a subset of those admitted by a
/// loose one) and superset domains before their sub-domains.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// Budget levels, ideally loosest first.
    pub budgets: Vec<BudgetLevel>,
    /// Objectives to score under.
    pub objectives: Vec<Objective>,
    /// Workload domains (per-model and/or multi-model).
    pub domains: Vec<WorkloadDomain>,
}

impl ScenarioMatrix {
    /// Expands the matrix into the concrete scenario list.
    ///
    /// # Panics
    /// Panics if any axis is empty — an empty matrix is a configuration
    /// error, not an empty sweep.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        assert!(
            !self.budgets.is_empty() && !self.objectives.is_empty() && !self.domains.is_empty(),
            "every scenario-matrix axis needs at least one entry"
        );
        let mut out =
            Vec::with_capacity(self.budgets.len() * self.objectives.len() * self.domains.len());
        for domain in &self.domains {
            for level in &self.budgets {
                for &objective in &self.objectives {
                    out.push(Scenario {
                        name: format!("{}/{}/{:?}", domain.name, level.name, objective),
                        domain: domain.clone(),
                        budget_name: level.name.clone(),
                        budget: level.budget,
                        objective,
                    });
                }
            }
        }
        out
    }

    /// Number of scenarios the matrix expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.budgets.len() * self.objectives.len() * self.domains.len()
    }

    /// Whether the matrix expands to no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical shard partition: the index range of the expanded
    /// scenario list owned by shard `index` of `count`.
    ///
    /// The partition is *stable* (a pure function of `(len, index, count)`),
    /// *gap-free* (the `count` ranges tile `0..len` exactly, no scenario
    /// dropped or duplicated), and *order-preserving* (concatenating the
    /// shards in index order reproduces [`ScenarioMatrix::scenarios`] —
    /// contiguous chunks, not round-robin — which is what lets the merger
    /// rebuild the single-process scenario order by concatenation). Shard
    /// sizes differ by at most one; when `count > len`, trailing shards are
    /// empty.
    ///
    /// # Panics
    /// Panics when `count` is zero or `index >= count`.
    #[must_use]
    pub fn shard_range(&self, index: usize, count: usize) -> std::ops::Range<usize> {
        assert!(count > 0, "shard count must be at least 1");
        assert!(index < count, "shard index {index} out of range for {count} shards");
        let len = self.len();
        (index * len / count)..((index + 1) * len / count)
    }

    /// The scenarios of shard `index` of `count` — the expanded list sliced
    /// by [`ScenarioMatrix::shard_range`].
    ///
    /// # Panics
    /// Panics when `count` is zero, `index >= count`, or (as in
    /// [`ScenarioMatrix::scenarios`]) any matrix axis is empty.
    #[must_use]
    pub fn shard(&self, index: usize, count: usize) -> Vec<Scenario> {
        let range = self.shard_range(index, count);
        let mut all = self.scenarios();
        all.drain(..range.start);
        all.truncate(range.end - range.start);
        all
    }
}

/// One concrete cell of the scenario matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// `"{domain}/{budget}/{objective}"`.
    pub name: String,
    /// The workload domain scored (geomean across its workloads).
    pub domain: WorkloadDomain,
    /// The budget level's display name.
    pub budget_name: String,
    /// The budget constraint.
    pub budget: Budget,
    /// The optimization objective.
    pub objective: Objective,
}

/// Search settings shared by every scenario of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Trial budget per scenario.
    pub trials: usize,
    /// Optimizer driving each scenario's study.
    ///
    /// [`OptimizerKind::Random`] proposes identically across scenarios
    /// (proposals never depend on observations), maximizing cross-scenario
    /// cache reuse; the guided optimizers trade some reuse (their proposal
    /// streams diverge once observations differ) for per-scenario quality.
    pub optimizer: OptimizerKind,
    /// Base RNG seed; every scenario uses the same seed so proposal streams
    /// align across scenarios where possible.
    pub seed: u64,
    /// Trials proposed and evaluated per round (rounds are scored in
    /// parallel across the rayon pool).
    pub batch: usize,
    /// Known-good designs proposed first in every scenario (keeps short
    /// sweeps out of the all-invalid regime and anchors every frontier).
    pub seeds: Vec<(DatapathConfig, SimOptions)>,
    /// Evaluation fidelity of every scenario's study. [`Fidelity::Exact`]
    /// (the default) fully simulates every proposal — bit-identical to a
    /// sweep built before this axis existed. [`Fidelity::Screened`] ranks
    /// each round with a per-scenario [`SurrogateScreener`] (built from the
    /// scenario's workloads, objective and budget) and only the top
    /// fraction reaches the simulator; frontiers still contain only fully
    /// simulated points.
    pub fidelity: Fidelity,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            trials: 120,
            optimizer: OptimizerKind::Random,
            seed: 0,
            batch: 16,
            seeds: vec![
                (fast_arch::presets::fast_large(), SimOptions::default()),
                (fast_arch::presets::fast_small(), SimOptions::default()),
            ],
            fidelity: Fidelity::Exact,
        }
    }
}

impl Encode for BudgetLevel {
    fn encode(&self, w: &mut Writer) {
        let BudgetLevel { name, budget } = self;
        name.encode(w);
        budget.encode(w);
    }
}

impl Decode for BudgetLevel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(BudgetLevel { name: Decode::decode(r)?, budget: Decode::decode(r)? })
    }
}

impl Encode for ScenarioMatrix {
    fn encode(&self, w: &mut Writer) {
        let ScenarioMatrix { budgets, objectives, domains } = self;
        budgets.encode(w);
        objectives.encode(w);
        domains.encode(w);
    }
}

impl Decode for ScenarioMatrix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(ScenarioMatrix {
            budgets: Decode::decode(r)?,
            objectives: Decode::decode(r)?,
            domains: Decode::decode(r)?,
        })
    }
}

impl Encode for SweepConfig {
    fn encode(&self, w: &mut Writer) {
        let SweepConfig { trials, optimizer, seed, batch, seeds, fidelity } = self;
        trials.encode(w);
        optimizer.encode(w);
        seed.encode(w);
        batch.encode(w);
        seeds.encode(w);
        fidelity.encode(w);
    }
}

impl Decode for SweepConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(SweepConfig {
            trials: Decode::decode(r)?,
            optimizer: Decode::decode(r)?,
            seed: Decode::decode(r)?,
            batch: Decode::decode(r)?,
            seeds: Decode::decode(r)?,
            fidelity: Decode::decode(r)?,
        })
    }
}

/// A frontier design decoded and summarized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierDesign {
    /// The encoded search-space point.
    pub point: Vec<usize>,
    /// The decoded datapath.
    pub config: DatapathConfig,
    /// Scenario-objective value (higher is better).
    pub objective_value: f64,
    /// Geomean QPS across the domain's workloads.
    pub geomean_qps: f64,
    /// Power-virus TDP (watts).
    pub tdp_w: f64,
    /// Die area (mm²).
    pub area_mm2: f64,
}

/// Outcome of one scenario's Pareto study.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario.
    pub scenario: Scenario,
    /// The non-dominated set (objective ↑, TDP ↓, area ↓) in canonical
    /// order, decoded into design summaries.
    pub frontier: Vec<FrontierDesign>,
    /// The raw frontier points (index encoding + metric vectors).
    pub frontier_points: Vec<FrontierPoint>,
    /// Best objective value observed (`None` if every trial was invalid).
    pub best_objective: Option<f64>,
    /// Number of safe-search rejections.
    pub invalid_trials: usize,
    /// Per-stage (op/sim/fuse) hit/miss deltas across this scenario's
    /// Pareto study. `staged.fuse` counts one lookup per successful
    /// per-workload evaluation.
    pub staged: StagedCacheStats,
    /// Fidelity accounting of the scenario's study — full-simulation count,
    /// screened-out count and surrogate-vs-true rank correlations. `Some`
    /// iff the sweep ran with [`Fidelity::Screened`].
    pub fidelity: Option<FidelityReport>,
}

impl ScenarioResult {
    /// The durable [`CompletedScenario`] record of this result — what the
    /// ledger stores and [`points_table`] renders.
    #[must_use]
    pub fn record(&self) -> CompletedScenario {
        CompletedScenario {
            name: self.scenario.name.clone(),
            frontier_points: self.frontier_points.clone(),
            invalid_trials: self.invalid_trials,
            best_objective: self.best_objective,
            fidelity: self.fidelity.clone(),
        }
    }
}

/// Outcome of a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-scenario results, in matrix expansion order.
    pub scenarios: Vec<ScenarioResult>,
    /// Total per-stage (op/sim/fuse) traffic across the sweep.
    pub total_staged: StagedCacheStats,
}

impl SweepResult {
    /// Looks a scenario up by its `"{domain}/{budget}/{objective}"` name.
    #[must_use]
    pub fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.scenario.name == name)
    }
}

/// Writes sweep progress to disk so a killed sweep can be resumed.
///
/// Two kinds of file live under the checkpoint directory:
///
/// * `eval_cache.bin` (+ `eval_cache.op.bin`, and `eval_cache.warm.bin`
///   under exact fusion) — the evaluation-cache tiers. Every study round
///   that computed new entries appends them as one segment per tier file;
///   a session that finishes its range seals each file back into one
///   canonical segment, the same bytes [`Evaluator::save_eval_cache`]
///   writes. This is the expensive state: after a mid-scenario kill, the
///   resumed scenario re-proposes the same points (determinism contract)
///   and answers them from these files.
/// * `sweep.bin` — the scenario ledger: a header (a fingerprint of
///   `(matrix, config)` and the shard range), written atomically when the
///   session starts, then one appended segment per finished scenario,
///   each repeating the header and carrying that scenario's
///   [`CompletedScenario`] record. The scenario that finishes the range
///   replaces the file atomically by one canonical segment holding every
///   record.
///
/// A kill mid-append leaves a torn final segment, which the resume drops
/// (keeping the whole segments before it). Any other damage, or a
/// fingerprint mismatch, degrades to "no checkpoint" — resuming can cost
/// re-simulation, never correctness.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
}

/// Magic prefix of sweep-ledger files.
pub(crate) const SWEEP_MAGIC: [u8; 8] = *b"FASTSWP1";
/// Ledger format version; bump on layout changes. Version 1 had no shard
/// header, version 2 no per-scenario fidelity record — files of either
/// vintage degrade to "no checkpoint" via the version gate.
pub(crate) const SWEEP_VERSION: u32 = 3;

/// The decoded contents of one `sweep.bin` — the fingerprint guarding
/// reuse, the scenario-index range the writing process *intended* to run
/// (`start..end` of `total`; a single-process sweep writes `0..total`), and
/// the scenarios that actually completed. `completed.len() < end - start`
/// means the process was killed mid-range and must be resumed before its
/// checkpoint can be merged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LedgerFile {
    pub fingerprint: u64,
    pub start: u64,
    pub end: u64,
    pub total: u64,
    pub completed: Vec<CompletedScenario>,
}

impl LedgerFile {
    /// This ledger's header with `records`, as one segment: the whole
    /// canonical ledger when `records` is every completed record, or one
    /// appended record.
    pub(crate) fn segment(&self, records: &[CompletedScenario]) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.put_u64(self.fingerprint);
        payload.put_u64(self.start);
        payload.put_u64(self.end);
        payload.put_u64(self.total);
        payload.put_u64(records.len() as u64);
        for record in records {
            record.encode(&mut payload);
        }
        bin::write_envelope(SWEEP_MAGIC, SWEEP_VERSION, &payload.into_bytes())
    }

    /// The header: the fingerprint and the shard range.
    fn header(&self) -> (u64, u64, u64, u64) {
        (self.fingerprint, self.start, self.end, self.total)
    }
}

/// Reads a sweep ledger and folds its segments: the first segment's
/// header and records, then the records of each appended segment, whose
/// header must repeat the first's. Any damage is an error naming the file
/// and cause. A file that ends inside a segment after the first is not
/// damage: the ledger of the whole segments comes back with what was cut.
fn read_ledger(path: &Path) -> Result<(LedgerFile, Option<String>), String> {
    let damaged = |what: String| format!("sweep ledger {}: {what}", path.display());
    let bytes = std::fs::read(path).map_err(|e| damaged(e.to_string()))?;
    fn decode_ledger(r: &mut Reader<'_>) -> Result<LedgerFile, bin::DecodeError> {
        Ok(LedgerFile {
            fingerprint: r.get_u64()?,
            start: r.get_u64()?,
            end: r.get_u64()?,
            total: r.get_u64()?,
            completed: Decode::decode(r)?,
        })
    }
    let mut folded: Option<LedgerFile> = None;
    let split = segment::read(&bytes, SWEEP_MAGIC, SWEEP_VERSION, |_, payload| {
        let mut r = Reader::new(payload);
        let next = decode_ledger(&mut r).map_err(|e| e.to_string())?;
        if !r.is_done() {
            return Err(format!("{} trailing bytes", r.remaining()));
        }
        match &mut folded {
            None => folded = Some(next),
            Some(ledger) if ledger.header() == next.header() => {
                ledger.completed.extend(next.completed);
            }
            Some(_) => return Err("appended record under a different header".to_string()),
        }
        Ok(())
    })
    .map_err(damaged)?;
    let Some(ledger) = folded else {
        return Err(damaged(format!("torn header ({} bytes)", bytes.len())));
    };
    if ledger.start > ledger.end || ledger.end > ledger.total {
        return Err(damaged(format!(
            "inconsistent shard range {}..{} of {}",
            ledger.start, ledger.end, ledger.total
        )));
    }
    let torn = split.torn.then(|| {
        damaged(format!(
            "torn final record at byte {} ({} bytes)",
            split.whole_len,
            bytes.len() - split.whole_len
        ))
    });
    Ok((ledger, torn))
}

/// Reads and fully validates a sweep ledger, strictly: any damage —
/// missing file, truncation (a torn final record included), version skew,
/// checksum failure, trailing bytes — is an error naming the file and
/// cause. The resume path reads with its degrade-to-cold policy instead;
/// the merge pipeline propagates the error (a silently dropped shard
/// ledger would un-account its scenarios).
pub(crate) fn read_ledger_strict(path: &Path) -> Result<LedgerFile, String> {
    match read_ledger(path)? {
        (_, Some(torn)) => Err(torn),
        (ledger, None) => Ok(ledger),
    }
}

impl Checkpointer {
    /// Creates (or reopens) a checkpoint directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Checkpointer { dir })
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the evaluation-cache snapshot.
    #[must_use]
    pub fn cache_path(&self) -> PathBuf {
        self.dir.join("eval_cache.bin")
    }

    /// Path of the scenario ledger.
    #[must_use]
    pub fn sweep_path(&self) -> PathBuf {
        self.dir.join("sweep.bin")
    }

    /// Atomically replaces the scenario ledger by `segment`.
    fn save_ledger(&self, segment: &[u8]) {
        let path = self.sweep_path();
        if let Err(e) = segment::replace(&path, segment) {
            crate::warn::warning(format_args!(
                "could not write sweep ledger {}: {e}",
                path.display()
            ));
        }
    }

    /// Appends one record's `segment` to the scenario ledger. A failed
    /// append warns and is cut back off the file; the record is then
    /// missing from the ledger until the range's end rewrites it whole.
    fn append_ledger(&self, segment: &[u8]) {
        let path = self.sweep_path();
        if let Err(e) = segment::append(&path, segment) {
            crate::warn::warning(format_args!(
                "could not append to sweep ledger {}: {e}",
                path.display()
            ));
        }
    }

    /// Loads the ledger if it exists, is intact, and matches `fingerprint`
    /// and the shard `range` (of `total` scenarios). A ledger that ends
    /// inside its last record — a process killed mid-append — keeps the
    /// records before it, with a warning. Anything else — a missing file,
    /// corruption, a ledger from a different matrix/config, or one written
    /// by a different shard — yields an empty ledger (with a logged
    /// warning when the file existed but was unusable).
    fn load_ledger(
        &self,
        fingerprint: u64,
        range: &std::ops::Range<usize>,
        total: usize,
    ) -> Vec<CompletedScenario> {
        let path = self.sweep_path();
        if !path.exists() {
            return Vec::new();
        }
        let reject = |what: String| {
            crate::warn::warning(format_args!("sweep ledger ignored — {what}"));
            Vec::new()
        };
        let (ledger, torn) = match read_ledger(&path) {
            Ok(read) => read,
            Err(e) => return reject(e),
        };
        if ledger.fingerprint != fingerprint {
            return reject(format!(
                "{}: checkpoint belongs to a different matrix/config",
                path.display()
            ));
        }
        if (ledger.start, ledger.end, ledger.total)
            != (range.start as u64, range.end as u64, total as u64)
        {
            return reject(format!(
                "{}: checkpoint covers shard {}..{} of {}, this process runs {}..{} of {total}",
                path.display(),
                ledger.start,
                ledger.end,
                ledger.total,
                range.start,
                range.end,
            ));
        }
        if let Some(what) = torn {
            crate::warn::warning(format_args!(
                "sweep ledger cut short — {what}; kept the {} records before it",
                ledger.completed.len()
            ));
        }
        ledger.completed
    }
}

/// One finished scenario as recorded in the sweep ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedScenario {
    /// `"{domain}/{budget}/{objective}"`.
    pub name: String,
    /// The scenario's non-dominated set in canonical order.
    pub frontier_points: Vec<FrontierPoint>,
    /// Safe-search rejections in its study.
    pub invalid_trials: usize,
    /// Best objective value observed.
    pub best_objective: Option<f64>,
    /// Fidelity accounting of its study — `Some` iff the sweep ran with
    /// [`Fidelity::Screened`].
    pub fidelity: Option<FidelityReport>,
}

impl Encode for CompletedScenario {
    fn encode(&self, w: &mut Writer) {
        let CompletedScenario { name, frontier_points, invalid_trials, best_objective, fidelity } =
            self;
        name.encode(w);
        frontier_points.encode(w);
        invalid_trials.encode(w);
        best_objective.encode(w);
        fidelity.encode(w);
    }
}

impl Decode for CompletedScenario {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(CompletedScenario {
            name: Decode::decode(r)?,
            frontier_points: Decode::decode(r)?,
            invalid_trials: Decode::decode(r)?,
            best_objective: Decode::decode(r)?,
            fidelity: Decode::decode(r)?,
        })
    }
}

/// Renders completed scenarios as the canonical frontier-points table: one
/// header line per scenario, one line per frontier point carrying the index
/// encoding and every metric as its exact IEEE-754 bit pattern. Two runs
/// print byte-identical tables **iff** their frontiers are bit-identical —
/// this is the artifact the serve smoke test diffs between a daemon-streamed
/// campaign and a single-process `sweep_frontiers --points` run.
#[must_use]
pub fn points_table(records: &[CompletedScenario]) -> String {
    let mut out = String::new();
    for rec in records {
        let best =
            rec.best_objective.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()));
        let _ = writeln!(
            out,
            "scenario {} frontier={} invalid={} best={best}",
            rec.name,
            rec.frontier_points.len(),
            rec.invalid_trials,
        );
        for fp in &rec.frontier_points {
            let point: Vec<String> = fp.point.iter().map(ToString::to_string).collect();
            let metrics: Vec<String> =
                fp.metrics.iter().map(|m| format!("{:016x}", m.to_bits())).collect();
            let _ = writeln!(out, "  [{}] {}", point.join(","), metrics.join(" "));
        }
    }
    out
}

/// Progress events emitted by an observed sweep ([`SweepRunner::run_session`]
/// with an observer) — the stream a `fast-serve` client watches.
#[derive(Debug, Clone)]
pub enum SweepEvent {
    /// A scenario's Pareto study is about to run. `index` counts the
    /// scenarios this run processes (0-based), `total` is how many it will.
    ScenarioStarted {
        /// Position within this run.
        index: usize,
        /// Scenarios this run will process.
        total: usize,
        /// `"{domain}/{budget}/{objective}"`.
        name: String,
    },
    /// A study round finished (every `config.batch` trials).
    Round {
        /// Position of the running scenario within this run.
        index: usize,
        /// The running scenario's name.
        name: String,
        /// Trials evaluated so far in this scenario.
        trials_done: usize,
        /// The scenario's trial budget.
        total_trials: usize,
        /// Best objective observed so far (`None` while all-invalid).
        best_objective: Option<f64>,
        /// Size of the non-dominated set so far.
        frontier_size: usize,
        /// Trials that reached the real evaluator so far — `Some` iff the
        /// sweep runs with [`Fidelity::Screened`] (equals `trials_done`
        /// under [`Fidelity::Exact`], so exact studies report `None`).
        full_evals: Option<usize>,
    },
    /// A scenario finished; its durable record and cache traffic.
    ScenarioFinished {
        /// Position within this run.
        index: usize,
        /// The finished scenario's ledger record (name, frontier, counts).
        record: CompletedScenario,
        /// Per-stage hit/miss delta of the evaluator's counters across
        /// this scenario. With a shared evaluator
        /// ([`SweepSession::evaluator`]) the counters are shared too, so
        /// the delta also counts the lookups of anything else using that
        /// evaluator meanwhile, such as other `fast-serve` jobs.
        staged: StagedCacheStats,
    },
}

/// An observer receiving [`SweepEvent`]s as the sweep runs.
pub type SweepObserver<'o> = &'o mut dyn FnMut(&SweepEvent);

/// How [`SweepRunner::run_session`] runs: which evaluator owns the caches,
/// whether and where to checkpoint, whether to resume, and who observes
/// progress. The plain entry points ([`SweepRunner::run`],
/// [`SweepRunner::resume`], …) are shorthands for common shapes of this.
#[derive(Default)]
pub struct SweepSession<'a> {
    /// Evaluator whose (shared) caches the sweep reads and populates — the
    /// cross-request warm cache when many sweeps serve from one process.
    /// `None` builds a private evaluator, as [`SweepRunner::run`] does.
    /// Sharing never changes any result: caches accelerate, the determinism
    /// contract fixes what is computed.
    pub evaluator: Option<&'a Evaluator>,
    /// Checkpoint directory manager; `None` runs ephemerally.
    pub checkpointer: Option<&'a Checkpointer>,
    /// Load the checkpoint before running (replaying completed scenarios
    /// from the warm snapshot). With no usable checkpoint this degrades to
    /// a cold run, so a fresh directory may simply always pass `true`.
    pub resume: bool,
    /// Progress observer; `None` runs silently.
    pub observer: Option<SweepObserver<'a>>,
}

impl std::fmt::Debug for SweepSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepSession")
            .field("evaluator", &self.evaluator.is_some())
            .field("checkpointer", &self.checkpointer)
            .field("resume", &self.resume)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// Runs a [`ScenarioMatrix`] as a sequence of Pareto studies over one shared
/// evaluation cache.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    matrix: ScenarioMatrix,
    config: SweepConfig,
}

/// Archive metric order used by every scenario: scenario objective
/// (maximize), TDP watts (minimize), die area (minimize).
pub(crate) const DIRECTIONS: [MetricDirection; 3] =
    [MetricDirection::Maximize, MetricDirection::Minimize, MetricDirection::Minimize];

impl SweepRunner {
    /// Creates a runner for `matrix` under `config`.
    #[must_use]
    pub fn new(matrix: ScenarioMatrix, config: SweepConfig) -> Self {
        SweepRunner { matrix, config }
    }

    /// The expanded scenario list (matrix order).
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.matrix.scenarios()
    }

    /// Runs every scenario, sharing one evaluation cache, and returns the
    /// per-scenario frontiers and cache statistics.
    ///
    /// Scenario rounds are evaluated in parallel across the rayon pool; by
    /// the Pareto driver's determinism contract the result — frontiers,
    /// convergence *and* cache counters — is bit-identical to a serial run
    /// of the same matrix and config. (Duplicate proposals within a round
    /// are deduplicated before evaluation: without that, two threads racing
    /// the same uncached key would each count a miss, making the hit/miss
    /// stats depend on thread scheduling.)
    #[must_use]
    pub fn run(&self) -> SweepResult {
        self.run_impl(None, None, false, None, None, None)
    }

    /// The fully-general entry point: runs the matrix under `session` —
    /// optionally against a caller-owned (shared) evaluator, optionally
    /// checkpointed/resumed, optionally observed. This is what a serving
    /// process uses to run many requests' sweeps over **one** warm
    /// `MapperCache`/sim/fuse tier while streaming progress to each
    /// client; results are bit-identical to [`SweepRunner::run`] no matter
    /// how warm the shared caches are.
    #[must_use]
    pub fn run_session(&self, session: SweepSession<'_>) -> SweepResult {
        self.run_impl(
            session.evaluator,
            session.checkpointer,
            session.resume,
            None,
            None,
            session.observer,
        )
    }

    /// [`SweepRunner::run`], saving checkpoints as it goes: each round that
    /// computed something new appends it to the evaluation-cache files,
    /// each scenario boundary appends its record to the ledger, and the
    /// finished sweep seals the ledger and the cache files into one segment
    /// each. The sweep result is identical to [`SweepRunner::run`]'s; the
    /// process merely becomes killable.
    #[must_use]
    pub fn run_checkpointed(&self, ck: &Checkpointer) -> SweepResult {
        self.run_impl(None, Some(ck), false, None, None, None)
    }

    /// Resumes a killed [`SweepRunner::run_checkpointed`] sweep.
    ///
    /// Loads the evaluation-cache snapshot, then *replays* the whole matrix
    /// against it: scenarios that completed before the kill re-run as
    /// near-pure cache traffic (their proposals repeat by the determinism
    /// contract, so every simulation is already memoized), and the first
    /// unfinished scenario continues paying only for rounds the snapshot
    /// missed. The result — every frontier, every convergence curve — is
    /// **bit-identical to an uninterrupted run**; replayed scenarios are
    /// additionally cross-checked against the ledger, warning on any
    /// mismatch (which would indicate the code changed between runs).
    ///
    /// A missing, damaged, or mismatched checkpoint degrades to a cold
    /// fresh run — resuming can cost re-simulation, never correctness.
    /// Checkpointing continues during the resumed run.
    #[must_use]
    pub fn resume(&self, ck: &Checkpointer) -> SweepResult {
        self.run_impl(None, Some(ck), true, None, None, None)
    }

    /// Runs only the first `limit` scenarios (with checkpointing) and stops
    /// — a time-boxed prefix run. The returned result covers the prefix;
    /// [`SweepRunner::resume`] later completes the matrix from the
    /// checkpoint as if the prefix run had been killed at the boundary (so
    /// the cache files are left unsealed, as a kill leaves them).
    #[must_use]
    pub fn run_prefix(&self, ck: &Checkpointer, limit: usize) -> SweepResult {
        self.run_impl(None, Some(ck), false, None, Some(limit), None)
    }

    /// Runs shard `index` of `count` — the scenarios of
    /// [`ScenarioMatrix::shard`] — checkpointing under `ck` like
    /// [`SweepRunner::run_checkpointed`]. Per-scenario results are
    /// **bit-identical** to the same scenarios of a single-process
    /// [`SweepRunner::run`]: every scenario's study is self-contained (the
    /// shared cache accelerates but never alters results), so partitioning
    /// the matrix across processes cannot change any frontier. The shard's
    /// checkpoint directory is the unit [`crate::merge_sweep_checkpoints`]
    /// merges.
    ///
    /// # Panics
    /// Panics when `count` is zero or `index >= count`.
    #[must_use]
    pub fn run_shard(&self, ck: &Checkpointer, index: usize, count: usize) -> SweepResult {
        self.run_impl(
            None,
            Some(ck),
            false,
            Some(self.matrix.shard_range(index, count)),
            None,
            None,
        )
    }

    /// Resumes a killed [`SweepRunner::run_shard`] worker, with the same
    /// contract as [`SweepRunner::resume`]: completed scenarios replay from
    /// the warm snapshot, the interrupted one re-pays only what the
    /// snapshot missed, and the result is bit-identical to an uninterrupted
    /// shard run. A checkpoint written by a *different* shard (or matrix,
    /// or config) is rejected and degrades to a cold shard run.
    ///
    /// # Panics
    /// Panics when `count` is zero or `index >= count`.
    #[must_use]
    pub fn resume_shard(&self, ck: &Checkpointer, index: usize, count: usize) -> SweepResult {
        self.run_impl(None, Some(ck), true, Some(self.matrix.shard_range(index, count)), None, None)
    }

    /// Fingerprint of `(matrix, config)` guarding ledger reuse: resuming
    /// under any other matrix, budget set, objective set, domain content,
    /// trial budget, optimizer, seed set, batch size or fidelity must not
    /// adopt this checkpoint's ledger.
    fn fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        for level in &self.matrix.budgets {
            level.name.encode(&mut w);
            level.budget.encode(&mut w);
        }
        for objective in &self.matrix.objectives {
            objective.encode(&mut w);
        }
        for domain in &self.matrix.domains {
            domain.encode(&mut w);
        }
        self.config.trials.encode(&mut w);
        w.put_u8(match self.config.optimizer {
            OptimizerKind::Random => 0,
            OptimizerKind::Lcs => 1,
            OptimizerKind::Tpe => 2,
        });
        self.config.seed.encode(&mut w);
        self.config.batch.encode(&mut w);
        for (cfg, sim) in &self.config.seeds {
            cfg.encode(&mut w);
            sim.encode(&mut w);
        }
        self.config.fidelity.encode(&mut w);
        bin::fnv1a(&w.into_bytes())
    }

    fn run_impl(
        &self,
        shared: Option<&Evaluator>,
        ck: Option<&Checkpointer>,
        resume: bool,
        range: Option<std::ops::Range<usize>>,
        limit: Option<usize>,
        mut observer: Option<SweepObserver<'_>>,
    ) -> SweepResult {
        let space = FastSpace::table3();
        let seeds: Vec<Vec<usize>> =
            self.config.seeds.iter().map(|(cfg, sim)| space.encode(cfg, sim)).collect();
        // The prototype owns the caches every scenario evaluator shares; its
        // own scenario fields are never used to score anything. A session
        // may lend one in (clone-cheap, Arc-shared tiers) so many sweeps
        // serve from the same warm caches.
        let private;
        let proto = match shared {
            Some(p) => p,
            None => {
                private = Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default());
                &private
            }
        };
        // Sweep-level traffic is reported as a delta so a shared evaluator's
        // history from earlier sweeps never pollutes this result. (For a
        // private evaluator the delta equals the absolute counts.)
        let total_staged_before = proto.staged_cache_stats();

        let all = self.matrix.scenarios();
        let total = all.len();
        // The range this process *owns* (and records in its ledger header);
        // `limit` additionally time-boxes how far into it this run gets.
        let range = range.unwrap_or(0..total);

        let fingerprint = self.fingerprint();
        let mut ledger: HashMap<String, CompletedScenario> = HashMap::new();
        let mut cache = None;
        if let Some(ck) = ck {
            let (checkpoint, report) = proto.attach_eval_cache(&ck.cache_path(), resume);
            cache = Some(checkpoint);
            if report.loaded() > 0 {
                crate::warn::note(format_args!(
                    "resuming: {} cached results loaded from {} ({} op-tier, {} fuse-tier)",
                    report.loaded(),
                    ck.cache_path().display(),
                    report.op_loaded,
                    report.fuse_loaded,
                ));
            }
            if resume {
                ledger = ck
                    .load_ledger(fingerprint, &range, total)
                    .into_iter()
                    .map(|c| (c.name.clone(), c))
                    .collect();
            }
        }
        // The ledger this session writes. Its (empty) header goes out up
        // front so even a shard killed before its first scenario boundary —
        // or one whose range is empty — leaves a header attesting which
        // slice of the matrix it owns.
        let mut written = LedgerFile {
            fingerprint,
            start: range.start as u64,
            end: range.end as u64,
            total: total as u64,
            completed: Vec::new(),
        };
        if let Some(ck) = ck {
            ck.save_ledger(&written.segment(&[]));
        }

        let n = limit.map_or(range.len(), |l| l.min(range.len()));

        let mut scenarios = Vec::new();
        for (index, scenario) in all.into_iter().skip(range.start).take(n).enumerate() {
            if let Some(obs) = observer.as_deref_mut() {
                obs(&SweepEvent::ScenarioStarted { index, total: n, name: scenario.name.clone() });
            }
            let evaluator = proto.for_scenario(
                scenario.domain.workloads.clone(),
                scenario.objective,
                scenario.budget,
            );
            let staged_before = evaluator.staged_cache_stats();
            let mut opt = SeededOptimizer::new(self.config.optimizer.build(), seeds.clone());
            let mut evaluate_round = |points: &[Vec<usize>]| {
                // Score each *unique* point once, in parallel, then fan
                // results back out to the proposal order.
                let mut unique: Vec<&Vec<usize>> = Vec::new();
                let mut index_of: HashMap<&Vec<usize>, usize> = HashMap::new();
                for p in points {
                    index_of.entry(p).or_insert_with(|| {
                        unique.push(p);
                        unique.len() - 1
                    });
                }
                let scored: Vec<MultiObjective> = unique
                    .par_iter()
                    .map(|p| match evaluator.evaluate_point(&space, p) {
                        Ok(e) => MultiObjective::valid(
                            vec![e.objective_value, e.tdp_w, e.area_mm2],
                            e.objective_value,
                        ),
                        Err(_) => MultiObjective::Invalid,
                    })
                    .collect();
                // Round boundary: append newly-computed results so a kill
                // mid-scenario only re-pays this round's proposals.
                if let Some(cache) = cache.as_mut() {
                    cache.append(&evaluator);
                }
                points.iter().map(|p| scored[index_of[p]].clone()).collect::<Vec<_>>()
            };
            // Under Fidelity::Screened every scenario gets its own surrogate
            // tier, built from *its* workloads, objective and budget — the
            // S1 model of one scenario must never leak into another's.
            let mut screener = match self.config.fidelity {
                Fidelity::Exact => None,
                Fidelity::Screened { tier, .. } => {
                    let decode_space = space.clone();
                    let budget = scenario.budget;
                    let metric = match scenario.objective {
                        Objective::Qps => GuideMetric::Qps,
                        Objective::PerfPerTdp => GuideMetric::PerfPerTdp,
                    };
                    Some(SurrogateScreener::new(
                        tier,
                        metric,
                        scenario.domain.workloads.clone(),
                        Box::new(move |p: &[usize]| {
                            let (cfg, _sim) = decode_space.decode(p);
                            cfg.validate().ok()?;
                            budget.admits(&cfg).then_some(cfg)
                        }),
                    ))
                }
            };
            let scenario_name = scenario.name.clone();
            let study = Study::new(space.space(), self.config.trials)
                .seed(self.config.seed)
                .objective(StudyObjective::pareto(&DIRECTIONS))
                .fidelity(self.config.fidelity)
                .execution(Execution::Batched { batch_size: self.config.batch.max(1) });
            let eval = StudyEval::batch(&mut evaluate_round);
            let report = match observer.as_deref_mut() {
                Some(obs) => {
                    let mut on_round = |p: &fast_search::StudyProgress| {
                        obs(&SweepEvent::Round {
                            index,
                            name: scenario_name.clone(),
                            trials_done: p.trials_done,
                            total_trials: p.total_trials,
                            best_objective: p.best_objective,
                            frontier_size: p.frontier_size.unwrap_or(0),
                            full_evals: p.full_evals,
                        });
                    };
                    match screener.as_mut() {
                        Some(sc) => study.run_screened_observed(&mut opt, eval, sc, &mut on_round),
                        None => study.run_observed(&mut opt, eval, &mut on_round),
                    }
                }
                None => match screener.as_mut() {
                    Some(sc) => study.run_screened(&mut opt, eval, sc),
                    None => study.run(&mut opt, eval),
                },
            };
            let report = report.expect("the sweep's study axes are always valid");
            let fidelity = report.fidelity.clone();
            let study = report.into_pareto_result();
            let staged = evaluator.staged_cache_stats().since(&staged_before);

            // Decode the frontier into design summaries; re-evaluation is a
            // cache hit by construction (every frontier point was valid).
            let frontier: Vec<FrontierDesign> = study
                .frontier
                .iter()
                .filter_map(|fp| {
                    let eval = evaluator.evaluate_point(&space, &fp.point).ok()?;
                    Some(FrontierDesign {
                        point: fp.point.clone(),
                        config: eval.config,
                        objective_value: eval.objective_value,
                        geomean_qps: eval.geomean_qps,
                        tdp_w: eval.tdp_w,
                        area_mm2: eval.area_mm2,
                    })
                })
                .collect();
            let best_objective = study.guide_convergence.last().copied().filter(|v| v.is_finite());

            let record = CompletedScenario {
                name: scenario.name.clone(),
                frontier_points: study.frontier.clone(),
                invalid_trials: study.invalid_trials,
                best_objective,
                fidelity: fidelity.clone(),
            };
            if let Some(prior) = ledger.get(&record.name) {
                // A replayed scenario must reproduce its pre-kill result
                // exactly; a mismatch means the code (or an env knob the
                // fingerprint cannot see) changed between runs. The fresh
                // computation wins either way.
                if *prior != record {
                    crate::warn::warning(format_args!(
                        "resumed scenario {} diverged from its checkpoint record \
                         (recomputed result kept)",
                        record.name
                    ));
                }
            }
            if let Some(obs) = observer.as_deref_mut() {
                obs(&SweepEvent::ScenarioFinished { index, record: record.clone(), staged });
            }
            if let Some(ck) = ck {
                written.completed.push(record);
                if written.completed.len() == range.len() {
                    // The range is finished: the canonical one-segment
                    // ledger replaces the appended records.
                    ck.save_ledger(&written.segment(&written.completed));
                } else {
                    let last = written.completed.len() - 1;
                    ck.append_ledger(&written.segment(&written.completed[last..]));
                }
            }

            scenarios.push(ScenarioResult {
                scenario,
                frontier,
                frontier_points: study.frontier,
                best_objective,
                invalid_trials: study.invalid_trials,
                staged,
                fidelity,
            });
        }

        if let (Some(cache), None) = (cache, limit) {
            // The range is finished: one canonical segment per tier file. A
            // time-boxed prefix run stands in for a kill and stays unsealed.
            cache.seal();
        }
        SweepResult {
            scenarios,
            total_staged: proto.staged_cache_stats().since(&total_staged_before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_models::{EfficientNet, Workload};

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix {
            budgets: vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.7)],
            objectives: vec![Objective::Qps, Objective::PerfPerTdp],
            domains: vec![WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0))],
        }
    }

    #[test]
    fn matrix_expands_domain_major() {
        let m = tiny_matrix();
        assert_eq!(m.len(), 4);
        let names: Vec<String> = m.scenarios().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "EfficientNet-B0/1.00x/Qps",
                "EfficientNet-B0/1.00x/PerfPerTdp",
                "EfficientNet-B0/0.70x/Qps",
                "EfficientNet-B0/0.70x/PerfPerTdp",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_axis_panics() {
        let m = ScenarioMatrix {
            budgets: vec![],
            objectives: vec![Objective::Qps],
            domains: vec![WorkloadDomain::per_model(Workload::ResNet50)],
        };
        let _ = m.scenarios();
    }

    #[test]
    fn budget_level_scales_both_axes() {
        let half = BudgetLevel::scaled(0.5);
        let paper = Budget::paper_default();
        assert_eq!(half.name, "0.50x");
        assert!((half.budget.max_area_mm2 - paper.max_area_mm2 * 0.5).abs() < 1e-9);
        assert!((half.budget.max_tdp_w - paper.max_tdp_w * 0.5).abs() < 1e-9);
    }

    #[test]
    fn sweep_emits_frontier_per_scenario_and_reuses_cache() {
        let config = SweepConfig { trials: 24, batch: 8, ..SweepConfig::default() };
        let result = SweepRunner::new(tiny_matrix(), config).run();
        assert_eq!(result.scenarios.len(), 4);
        for (i, s) in result.scenarios.iter().enumerate() {
            // Seed designs guarantee at least one valid trial per scenario
            // (fast_small fits 0.7x of the paper budget).
            assert!(!s.frontier.is_empty(), "{}: empty frontier", s.scenario.name);
            assert!(s.best_objective.is_some(), "{}", s.scenario.name);
            // Frontier designs are mutually non-dominated.
            for a in &s.frontier {
                for b in &s.frontier {
                    let dominates = a.objective_value >= b.objective_value
                        && a.tdp_w <= b.tdp_w
                        && a.area_mm2 <= b.area_mm2
                        && (a.objective_value > b.objective_value
                            || a.tdp_w < b.tdp_w
                            || a.area_mm2 < b.area_mm2);
                    assert!(!dominates, "{}: dominated point on frontier", s.scenario.name);
                }
            }
            if i > 0 {
                // Same proposals (Random, same seed) against the shared
                // cache: later scenarios re-score, they don't re-simulate.
                assert!(
                    s.staged.fuse.hit_rate() > 0.5,
                    "{}: hit rate {:.2} ({:?})",
                    s.scenario.name,
                    s.staged.fuse.hit_rate(),
                    s.staged.fuse
                );
            }
        }
        assert_eq!(
            result.total_staged.fuse.hits + result.total_staged.fuse.misses,
            result.scenarios.iter().map(|s| s.staged.fuse.hits + s.staged.fuse.misses).sum::<u64>()
                + result.scenarios.iter().map(|s| s.frontier.len() as u64).sum::<u64>(),
            "per-scenario deltas + frontier decoding account for all traffic"
        );
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fast-sweep-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let matrix = tiny_matrix();
        let plain = SweepRunner::new(matrix.clone(), config.clone()).run();
        let ck = Checkpointer::new(scratch_dir("equals")).unwrap();
        let durable = SweepRunner::new(matrix, config).run_checkpointed(&ck);
        for (a, b) in plain.scenarios.iter().zip(&durable.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
            assert_eq!(
                a.staged.fuse, b.staged.fuse,
                "{}: checkpointing must not perturb cache traffic",
                a.scenario.name
            );
        }
        assert!(ck.cache_path().exists());
        assert!(ck.sweep_path().exists());
    }

    #[test]
    fn prefix_then_resume_is_bit_identical_with_high_hit_rate() {
        let config = SweepConfig { trials: 24, batch: 8, ..SweepConfig::default() };
        let matrix = tiny_matrix();
        let full = SweepRunner::new(matrix.clone(), config.clone()).run();

        let ck = Checkpointer::new(scratch_dir("resume")).unwrap();
        let runner = SweepRunner::new(matrix.clone(), config.clone());
        let prefix = runner.run_prefix(&ck, 2);
        assert_eq!(prefix.scenarios.len(), 2);

        // A fresh runner (fresh process, conceptually) resumes.
        let resumed = SweepRunner::new(matrix, config).resume(&ck);
        assert_eq!(resumed.scenarios.len(), full.scenarios.len());
        for (a, b) in full.scenarios.iter().zip(&resumed.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
            assert_eq!(a.invalid_trials, b.invalid_trials, "{}", a.scenario.name);
        }
        // The replayed prefix scenarios answer (almost) everything from the
        // loaded snapshot.
        for s in &resumed.scenarios[..2] {
            assert!(
                s.staged.fuse.hit_rate() > 0.9,
                "{}: replay hit rate {:.2} ({:?})",
                s.scenario.name,
                s.staged.fuse.hit_rate(),
                s.staged.fuse
            );
        }
    }

    /// The ledger segments of the file at `path`.
    fn ledger_segments(path: &Path) -> usize {
        let bytes = std::fs::read(path).unwrap();
        segment::read(&bytes, SWEEP_MAGIC, SWEEP_VERSION, |_, _| Ok(())).unwrap().segments
    }

    #[test]
    fn prefix_ledger_appends_records_and_resume_cross_checks_each() {
        let matrix = tiny_matrix();
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let full = Checkpointer::new(scratch_dir("ledger-full")).unwrap();
        let _ = SweepRunner::new(matrix.clone(), config.clone()).run_checkpointed(&full);
        assert_eq!(ledger_segments(&full.sweep_path()), 1, "a finished range is one segment");

        // A prefix run leaves its header and one appended record per
        // finished scenario.
        let ck = Checkpointer::new(scratch_dir("ledger-prefix")).unwrap();
        let _ = SweepRunner::new(matrix.clone(), config.clone()).run_prefix(&ck, 3);
        assert_eq!(ledger_segments(&ck.sweep_path()), 4);
        let ledger = read_ledger_strict(&ck.sweep_path()).unwrap();
        assert_eq!(ledger.header().1..ledger.header().2, 0..4);
        let recorded = ledger.completed.clone();
        assert_eq!(recorded, read_ledger_strict(&full.sweep_path()).unwrap().completed[..3]);

        // Mutate every appended record: the resume cross-checks each one.
        let mut mutated = ledger.segment(&[]);
        for record in &recorded {
            let record =
                CompletedScenario { invalid_trials: record.invalid_trials + 1, ..record.clone() };
            mutated.extend(ledger.segment(std::slice::from_ref(&record)));
        }
        std::fs::write(ck.sweep_path(), mutated).unwrap();
        let (_, lines) =
            crate::warn::capture(|| SweepRunner::new(matrix.clone(), config.clone()).resume(&ck));
        let diverged: Vec<&String> =
            lines.iter().filter(|l| l.contains("diverged from its checkpoint record")).collect();
        assert_eq!(diverged.len(), recorded.len(), "{lines:?}");
        for (line, record) in diverged.iter().zip(&recorded) {
            assert!(line.contains(&record.name), "{line}");
        }

        // The finished resume sealed the ledger to the uninterrupted bytes.
        for file in ["sweep.bin", "eval_cache.bin", "eval_cache.op.bin"] {
            assert!(
                std::fs::read(ck.dir().join(file)).unwrap()
                    == std::fs::read(full.dir().join(file)).unwrap(),
                "{file} differs from the uninterrupted run's"
            );
        }
    }

    #[test]
    fn ledger_cut_inside_its_last_record_keeps_the_records_before_it() {
        let matrix = tiny_matrix();
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let ck = Checkpointer::new(scratch_dir("ledger-torn")).unwrap();
        let runner = SweepRunner::new(matrix.clone(), config.clone());
        let _ = runner.run_prefix(&ck, 3);
        let bytes = std::fs::read(ck.sweep_path()).unwrap();
        std::fs::write(ck.sweep_path(), &bytes[..bytes.len() - 5]).unwrap();

        let (kept, lines) =
            crate::warn::capture(|| ck.load_ledger(runner.fingerprint(), &(0..4), 4));
        assert_eq!(kept.len(), 2, "the whole records before the cut survive");
        assert!(
            lines.len() == 1
                && lines[0].contains("sweep ledger cut short")
                && lines[0].contains("torn"),
            "{lines:?}"
        );
        match crate::merge_sweep_checkpoints(
            &[ck.dir().to_path_buf()],
            &scratch_dir("ledger-torn-out"),
        ) {
            Err(crate::MergeError::Ledger(what)) => {
                assert!(what.contains("torn") && what.contains("sweep.bin"), "{what}");
            }
            other => panic!("a torn ledger must be a hard merge error, got {other:?}"),
        }

        let expected = SweepRunner::new(matrix.clone(), config.clone()).run();
        let resumed = SweepRunner::new(matrix, config).resume(&ck);
        for (a, b) in expected.scenarios.iter().zip(&resumed.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        }
        assert_eq!(read_ledger_strict(&ck.sweep_path()).unwrap().completed.len(), 4);
    }

    #[test]
    fn resume_with_mismatched_config_degrades_to_cold_run() {
        let matrix = tiny_matrix();
        let ck = Checkpointer::new(scratch_dir("mismatch")).unwrap();
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let _ = SweepRunner::new(matrix.clone(), config.clone()).run_prefix(&ck, 1);

        // Different seed => different fingerprint: the ledger must be
        // ignored, and the run must still complete correctly end to end.
        let other = SweepConfig { seed: 99, ..config };
        let expected = SweepRunner::new(matrix.clone(), other.clone()).run();
        let resumed = SweepRunner::new(matrix, other).resume(&ck);
        for (a, b) in expected.scenarios.iter().zip(&resumed.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        }
    }

    #[test]
    fn corrupt_checkpoint_files_degrade_to_cold_run() {
        let matrix = tiny_matrix();
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let ck = Checkpointer::new(scratch_dir("corrupt")).unwrap();
        let _ = SweepRunner::new(matrix.clone(), config.clone()).run_prefix(&ck, 2);
        // Trash both files.
        std::fs::write(ck.cache_path(), b"definitely not a snapshot").unwrap();
        std::fs::write(ck.sweep_path(), vec![0xFFu8; 64]).unwrap();

        let expected = SweepRunner::new(matrix.clone(), config.clone()).run();
        let resumed = SweepRunner::new(matrix, config).resume(&ck);
        for (a, b) in expected.scenarios.iter().zip(&resumed.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        }
    }

    #[test]
    fn fingerprint_sees_every_axis() {
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let base = SweepRunner::new(tiny_matrix(), config.clone());
        let fp = |r: &SweepRunner| r.fingerprint();
        assert_eq!(fp(&base), fp(&SweepRunner::new(tiny_matrix(), config.clone())));

        let mut m = tiny_matrix();
        m.budgets.pop();
        assert_ne!(fp(&base), fp(&SweepRunner::new(m, config.clone())));
        assert_ne!(
            fp(&base),
            fp(&SweepRunner::new(tiny_matrix(), SweepConfig { trials: 17, ..config.clone() }))
        );
        assert_ne!(
            fp(&base),
            fp(&SweepRunner::new(
                tiny_matrix(),
                SweepConfig { optimizer: OptimizerKind::Lcs, ..config.clone() }
            ))
        );
        assert_ne!(
            fp(&base),
            fp(&SweepRunner::new(
                tiny_matrix(),
                SweepConfig {
                    fidelity: Fidelity::Screened {
                        keep_fraction: 0.25,
                        min_full: 2,
                        tier: fast_search::SurrogateTier::S0,
                    },
                    ..config.clone()
                }
            ))
        );
        assert_ne!(
            fp(&base),
            fp(&SweepRunner::new(tiny_matrix(), SweepConfig { seeds: Vec::new(), ..config }))
        );
    }

    #[test]
    fn screened_sweep_thins_simulation_and_is_deterministic() {
        use fast_search::SurrogateTier;
        let config = SweepConfig {
            trials: 24,
            batch: 8,
            fidelity: Fidelity::Screened {
                keep_fraction: 0.25,
                min_full: 2,
                tier: SurrogateTier::S0,
            },
            ..SweepConfig::default()
        };
        let a = SweepRunner::new(tiny_matrix(), config.clone()).run();
        let b = SweepRunner::new(tiny_matrix(), config).run();
        assert_eq!(a.scenarios.len(), 4);
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.frontier_points, y.frontier_points, "{}", x.scenario.name);
            assert_eq!(x.fidelity, y.fidelity, "{}", x.scenario.name);
            let fid = x.fidelity.as_ref().expect("screened sweeps report fidelity");
            assert_eq!(fid.full_evals + fid.screened_out, 24, "{}", x.scenario.name);
            assert!(
                fid.savings_factor() >= 2.0,
                "{}: keep 0.25 must at least halve simulation ({} full of 24)",
                x.scenario.name,
                fid.full_evals
            );
            // Every frontier point was fully simulated: each decodes via the
            // evaluator (surrogate-only trials can never enter the archive).
            assert_eq!(x.frontier.len(), x.frontier_points.len(), "{}", x.scenario.name);
            assert!(!x.frontier.is_empty(), "{}: seeds anchor the frontier", x.scenario.name);
        }
    }

    #[test]
    fn screened_ledger_round_trips_fidelity_records() {
        use fast_search::SurrogateTier;
        let config = SweepConfig {
            trials: 16,
            batch: 8,
            fidelity: Fidelity::Screened {
                keep_fraction: 0.25,
                min_full: 2,
                tier: SurrogateTier::S1,
            },
            ..SweepConfig::default()
        };
        let ck = Checkpointer::new(scratch_dir("screened-ledger")).unwrap();
        let result = SweepRunner::new(tiny_matrix(), config).run_checkpointed(&ck);
        let ledger = read_ledger_strict(&ck.sweep_path()).expect("intact ledger");
        assert_eq!(ledger.completed.len(), result.scenarios.len());
        for (rec, s) in ledger.completed.iter().zip(&result.scenarios) {
            assert_eq!(*rec, s.record(), "{}", s.scenario.name);
            assert!(rec.fidelity.is_some(), "{}", s.scenario.name);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = SweepConfig { trials: 16, batch: 4, ..SweepConfig::default() };
        let matrix = tiny_matrix();
        let a = SweepRunner::new(matrix.clone(), config.clone()).run();
        let b = SweepRunner::new(matrix, config).run();
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.frontier_points, y.frontier_points, "{}", x.scenario.name);
            assert_eq!(x.invalid_trials, y.invalid_trials);
        }
    }
}
