//! The unified study driver: one builder, one `run`, every axis.
//!
//! The paper's methodology is a single loop — propose, evaluate, observe —
//! parameterized by objective, execution strategy, and durability. Earlier
//! revisions of this crate exposed that loop through a cross-product of free
//! functions (`run_study`, `run_study_batched`, `run_study_pareto_batched`,
//! `run_study_*_resumable`, …) that doubled with every new axis. [`Study`]
//! replaces them with orthogonal, independently-settable axes:
//!
//! * [`Study::objective`] — [`StudyObjective::Single`] (the scalar incumbent
//!   study) or [`StudyObjective::Pareto`] (a [`ParetoArchive`] over ≥ 2
//!   metric directions);
//! * [`Study::execution`] — [`Execution::Batched`] (rounds of per-trial
//!   [`trial_rng`] proposals; rounds of one, the classic
//!   propose→evaluate→observe loop, by default) or [`Execution::Parallel`]
//!   (batched rounds evaluated concurrently);
//! * [`Study::durability`] — [`Durability::Ephemeral`] or
//!   [`Durability::Checkpointed`] (a checkpoint file per round interval;
//!   re-running the same study against the same directory resumes it
//!   bit-identically);
//! * [`Study::seed`] — the reproducibility seed.
//!
//! Configurations are validated at [`Study::run`] time with a typed
//! [`StudyConfigError`] instead of scattered panics, and every run returns
//! one [`StudyReport`].
//!
//! ```
//! use fast_search::{Execution, ParamDomain, ParamSpace, RandomSearch};
//! use fast_search::{Study, StudyEval, TrialResult};
//!
//! let mut space = ParamSpace::new();
//! space.add("pe_count", ParamDomain::Pow2 { min: 1, max: 64 });
//! let mut opt = RandomSearch::new();
//! let mut eval = |p: &[usize]| TrialResult::Valid(space.value(p, 0) as f64).into();
//! let report = Study::new(&space, 50)
//!     .execution(Execution::Batched { batch_size: 8 })
//!     .seed(0)
//!     .run(&mut opt, StudyEval::points(&mut eval))
//!     .expect("valid configuration");
//! assert_eq!(report.best_objective, Some(64.0));
//! ```
//!
//! # Determinism
//!
//! Trial `i` derives its randomness from [`trial_rng`]`(seed, i)`, so a
//! study depends only on `(seed, round size, optimizer, objective
//! function)` — never on thread scheduling. `Parallel { threads: n }` is
//! *defined* as `Batched { batch_size: n }` with the round's points scored
//! concurrently, so the two produce bit-identical reports for equal round
//! sizes.

use crate::optimizer::{Optimizer, Trial, TrialResult};
use crate::pareto::{
    FrontierPoint, MetricDirection, MultiObjective, MultiTrial, ParetoArchive, ParetoStudyResult,
};
use crate::screen::{Fidelity, FidelityReport, ScreenEngine, Screener};
use crate::snapshot::{Checkpoint, OptimizerState};
use crate::space::ParamSpace;
use crate::study::{trial_rng, StudyResult};
use rand::rngs::StdRng;
use rayon::prelude::*;
use serde::bin::{self, Decode, Encode};
use std::fmt;
use std::path::{Path, PathBuf};

/// What the study optimizes: one scalar, or a Pareto frontier over several
/// metrics (the optimizer still climbs each trial's scalar *guide*).
#[derive(Debug, Clone, PartialEq)]
pub enum StudyObjective {
    /// Track a single scalar incumbent (the guide of each valid trial);
    /// metric vectors returned by the evaluator are ignored.
    Single,
    /// Maintain a [`ParetoArchive`] over the given metric directions while
    /// the optimizer maximizes the per-trial guide. Needs ≥ 2 directions.
    Pareto {
        /// One direction per tracked metric, in metric order.
        directions: Vec<MetricDirection>,
    },
}

impl StudyObjective {
    /// Convenience constructor for the Pareto variant.
    #[must_use]
    pub fn pareto(directions: &[MetricDirection]) -> Self {
        StudyObjective::Pareto { directions: directions.to_vec() }
    }
}

/// How trials are grouped and evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Rounds of `batch_size` proposals with per-trial [`trial_rng`]
    /// generators; the evaluator scores a whole round before the optimizer
    /// observes it. `Batched { batch_size: 1 }`, the [`Study::new`]
    /// default, is the classic one-trial-at-a-time loop.
    Batched {
        /// Trials proposed and evaluated per round (≥ 1).
        batch_size: usize,
    },
    /// [`Execution::Batched`] with rounds of `threads` points scored
    /// concurrently across the rayon pool. Requires a thread-safe
    /// [`StudyEval::shared`] evaluator (or [`StudyEval::batch`], which owns
    /// its parallelism). Bit-identical to `Batched { batch_size: threads }`.
    Parallel {
        /// Round size == maximum evaluations in flight (≥ 1).
        threads: usize,
    },
}

/// Whether (and where) the study persists round checkpoints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// Nothing is persisted; an interrupted study starts over.
    #[default]
    Ephemeral,
    /// Write a checkpoint file (`study.bin` under `dir`) every `every`
    /// rounds (and at study completion). Running the same configuration
    /// against the same directory resumes from the file bit-identically;
    /// a missing, damaged, or differently-configured file — including one
    /// written by a different optimizer — degrades to a cold start with a
    /// logged warning, never a wrong result. (Custom optimizers without
    /// snapshot support all save [`OptimizerState::Opaque`] and so cannot
    /// be told apart: resuming one with a differently-configured optimizer
    /// panics when its replayed proposals diverge from the record.)
    Checkpointed {
        /// Checkpoint directory (created if absent; must be writable).
        dir: PathBuf,
        /// Rounds between saves (≥ 1). `1` saves every round.
        every: usize,
    },
}

/// A [`Study`] configuration rejected at [`Study::run`] time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyConfigError {
    /// `Batched { batch_size: 0 }`.
    EmptyBatch,
    /// `Parallel { threads: 0 }`.
    NoThreads,
    /// A Pareto objective with fewer than two metric directions.
    TooFewMetrics {
        /// Number of directions supplied.
        got: usize,
    },
    /// `Checkpointed { every: 0, .. }`.
    ZeroCheckpointInterval,
    /// The checkpoint directory cannot be created or written.
    CheckpointDirUnwritable {
        /// The offending directory.
        dir: PathBuf,
        /// The underlying I/O error.
        reason: String,
    },
    /// [`Execution::Parallel`] with a serial-only [`StudyEval::points`]
    /// evaluator.
    SerialEvalUnderParallelExecution,
    /// [`Fidelity::Screened`] with a `keep_fraction` outside `(0, 1]`.
    KeepFractionOutOfRange,
    /// [`Fidelity::Screened`] run without a [`Screener`] to rank rounds
    /// with — pass one to [`Study::run_with`].
    ScreenedWithoutScreener,
}

impl fmt::Display for StudyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyConfigError::EmptyBatch => {
                write!(f, "Batched execution needs batch_size >= 1")
            }
            StudyConfigError::NoThreads => write!(f, "Parallel execution needs threads >= 1"),
            StudyConfigError::TooFewMetrics { got } => {
                write!(f, "a Pareto objective needs >= 2 metric directions, got {got}")
            }
            StudyConfigError::ZeroCheckpointInterval => {
                write!(f, "Checkpointed durability needs every >= 1 (rounds between saves)")
            }
            StudyConfigError::CheckpointDirUnwritable { dir, reason } => {
                write!(f, "checkpoint directory {} is not writable: {reason}", dir.display())
            }
            StudyConfigError::SerialEvalUnderParallelExecution => write!(
                f,
                "Parallel execution needs StudyEval::shared (scored across threads) or \
                 StudyEval::batch (the closure owns its parallelism); StudyEval::points \
                 is serial-only"
            ),
            StudyConfigError::KeepFractionOutOfRange => {
                write!(f, "Screened fidelity needs keep_fraction in (0, 1]")
            }
            StudyConfigError::ScreenedWithoutScreener => {
                write!(f, "Screened fidelity needs a screener; pass one to Study::run_with")
            }
        }
    }
}

impl std::error::Error for StudyConfigError {}

/// The evaluation function handed to [`Study::run`] — one design point in,
/// one [`MultiObjective`] out. Three shapes cover every caller:
///
/// * [`StudyEval::points`] — a per-point `FnMut` closure (may capture
///   mutable state); scored one point at a time on the calling thread.
/// * [`StudyEval::batch`] — a whole-round `FnMut` closure; the study hands
///   it each round and trusts it to return one result per point *in
///   proposal order* (it may parallelize internally).
/// * [`StudyEval::shared`] — a thread-safe per-point `Fn`; the only shape
///   [`Execution::Parallel`] can fan out itself.
///
/// Single-objective evaluators can return [`TrialResult`] and convert with
/// `.into()` ([`MultiObjective`] implements `From<TrialResult>`).
pub enum StudyEval<'a> {
    /// Serial per-point evaluation.
    Points(&'a mut dyn FnMut(&[usize]) -> MultiObjective),
    /// Whole-round evaluation; must return one result per point, in order.
    Batch(&'a mut dyn FnMut(&[Vec<usize>]) -> Vec<MultiObjective>),
    /// Thread-safe per-point evaluation.
    Shared(&'a (dyn Fn(&[usize]) -> MultiObjective + Sync)),
}

impl<'a> StudyEval<'a> {
    /// Wraps a serial per-point closure.
    pub fn points<F: FnMut(&[usize]) -> MultiObjective>(f: &'a mut F) -> Self {
        StudyEval::Points(f)
    }

    /// Wraps a whole-round closure (one result per point, proposal order).
    pub fn batch<F: FnMut(&[Vec<usize>]) -> Vec<MultiObjective>>(f: &'a mut F) -> Self {
        StudyEval::Batch(f)
    }

    /// Wraps a thread-safe per-point function.
    pub fn shared<F: Fn(&[usize]) -> MultiObjective + Sync>(f: &'a F) -> Self {
        StudyEval::Shared(f)
    }

    /// Scores one round. `parallel` only affects [`StudyEval::Shared`],
    /// which then fans the round out across the rayon pool (results are
    /// collected in proposal order either way).
    fn eval(&mut self, points: &[Vec<usize>], parallel: bool) -> Vec<MultiObjective> {
        match self {
            StudyEval::Points(f) => points.iter().map(|p| f(p)).collect(),
            StudyEval::Batch(f) => f(points),
            StudyEval::Shared(f) => {
                if parallel {
                    points.par_iter().map(|p| f(p)).collect()
                } else {
                    points.iter().map(|p| f(p)).collect()
                }
            }
        }
    }
}

impl fmt::Debug for StudyEval<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StudyEval::Points(_) => "StudyEval::Points(..)",
            StudyEval::Batch(_) => "StudyEval::Batch(..)",
            StudyEval::Shared(_) => "StudyEval::Shared(..)",
        })
    }
}

/// What [`Durability::Checkpointed`] did during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The checkpoint file.
    pub path: PathBuf,
    /// Trials restored from the file before the first round (0 on a cold
    /// start).
    pub resumed_trials: usize,
    /// Checkpoints written during this run.
    pub saves: usize,
}

/// The one result type of [`Study::run`]: scalar incumbent, convergence,
/// trials, the Pareto frontier (when tracked), and checkpoint info (when
/// durable).
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Optimizer name.
    pub optimizer: String,
    /// Best point found (index encoding), if any trial was valid.
    pub best_point: Option<Vec<usize>>,
    /// Best guide objective found.
    pub best_objective: Option<f64>,
    /// Best-so-far guide after each trial (`NaN` until the first valid
    /// trial).
    pub convergence: Vec<f64>,
    /// Number of invalid (rejected) trials.
    pub invalid_trials: usize,
    /// All trials in proposal order. Single-objective studies record an
    /// empty metric vector per valid trial (only the guide is tracked).
    pub trials: Vec<MultiTrial>,
    /// The non-dominated set in canonical order — `Some` iff the study ran
    /// with [`StudyObjective::Pareto`].
    pub frontier: Option<Vec<FrontierPoint>>,
    /// Checkpoint activity — `Some` iff the study ran with
    /// [`Durability::Checkpointed`].
    pub checkpoint: Option<CheckpointInfo>,
    /// Screening activity — `Some` iff the study ran with
    /// [`Fidelity::Screened`].
    pub fidelity: Option<FidelityReport>,
}

impl StudyReport {
    /// Converts into the scalar [`StudyResult`] shape (metric vectors are
    /// dropped; each trial keeps its guide).
    #[must_use]
    pub fn into_study_result(self) -> StudyResult {
        StudyResult {
            optimizer: self.optimizer,
            best_point: self.best_point,
            best_objective: self.best_objective,
            convergence: self.convergence,
            invalid_trials: self.invalid_trials,
            trials: self
                .trials
                .into_iter()
                .map(|t| Trial { result: scalar_of(&t.result), point: t.point })
                .collect(),
        }
    }

    /// Converts into the multi-objective [`ParetoStudyResult`] shape.
    ///
    /// # Panics
    /// Panics if the study did not run with [`StudyObjective::Pareto`]
    /// (there is no frontier to report).
    #[must_use]
    pub fn into_pareto_result(self) -> ParetoStudyResult {
        ParetoStudyResult {
            optimizer: self.optimizer,
            frontier: self.frontier.expect("into_pareto_result on a single-objective study"),
            guide_convergence: self.convergence,
            invalid_trials: self.invalid_trials,
            trials: self.trials,
        }
    }
}

/// The guide scalar of a stored trial outcome. Screened-out trials project
/// to [`TrialResult::Invalid`]: the optimizer must not climb surrogate
/// scores as if they had been simulated, so it sees them as rejections.
fn scalar_of(result: &MultiObjective) -> TrialResult {
    match result {
        MultiObjective::Valid { guide, .. } => TrialResult::Valid(*guide),
        MultiObjective::Invalid | MultiObjective::Surrogate { .. } => TrialResult::Invalid,
    }
}

/// Cheap per-round progress, handed to observers after every evaluated
/// round. Everything here is O(1) to produce — no trial history, no
/// archive clone — so observing a study costs nothing measurable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyProgress {
    /// Trials evaluated so far (monotone; starts at the restored count on a
    /// resumed study).
    pub trials_done: usize,
    /// The study's trial budget.
    pub total_trials: usize,
    /// Best guide objective observed so far (`None` while all trials were
    /// invalid).
    pub best_objective: Option<f64>,
    /// Safe-search rejections so far.
    pub invalid_trials: usize,
    /// Current non-dominated-set size (`None` for single-objective
    /// studies).
    pub frontier_size: Option<usize>,
    /// Trials that reached the real evaluator so far (`None` for
    /// [`Fidelity::Exact`] studies, where it would equal `trials_done`).
    pub full_evals: Option<usize>,
}

/// A round hook: called after every evaluated round with that round's
/// progress and a thunk building its checkpoint. The thunk clones the full
/// accumulated state (trials, convergence, archive, optimizer), so hooks
/// that thin their save cadence only call it on the rounds they actually
/// persist.
pub(crate) type RoundHook<'h> = &'h mut dyn FnMut(&StudyProgress, &dyn Fn() -> Checkpoint);

/// Whether a checkpoint's optimizer state (`ck`, mid-run) was produced by
/// an optimizer configured like `fresh` (a just-built optimizer's state):
/// same algorithm *and* same hyperparameters/seed designs, ignoring the
/// run-accumulated fields (history, particles, cursors). Used to reject a
/// checkpoint file written by a different or differently-configured
/// algorithm before the resume path silently continues the old
/// configuration or panics on a diverging replay. Two
/// [`OptimizerState::Opaque`] states are indistinguishable — custom
/// optimizers without snapshot support are the caller's responsibility.
fn same_optimizer_config(ck: &OptimizerState, fresh: &OptimizerState) -> bool {
    match (ck, fresh) {
        (OptimizerState::Random, OptimizerState::Random)
        | (OptimizerState::Opaque, OptimizerState::Opaque) => true,
        (
            OptimizerState::Lcs { population: pa, pull_global: ga, mutate: ma, .. },
            OptimizerState::Lcs { population: pb, pull_global: gb, mutate: mb, .. },
        ) => pa == pb && ga.to_bits() == gb.to_bits() && ma.to_bits() == mb.to_bits(),
        (
            OptimizerState::Tpe { gamma: ga, candidates: ca, startup: sa, .. },
            OptimizerState::Tpe { gamma: gb, candidates: cb, startup: sb, .. },
        ) => ga.to_bits() == gb.to_bits() && ca == cb && sa == sb,
        (
            OptimizerState::Seeded { seeds: sa, inner: ia, .. },
            OptimizerState::Seeded { seeds: sb, inner: ib, .. },
        ) => sa == sb && same_optimizer_config(ia, ib),
        _ => false,
    }
}

/// Checkpoint file name under [`Durability::Checkpointed`]'s directory.
const STUDY_FILE_NAME: &str = "study.bin";
/// Magic prefix of study checkpoint files.
const STUDY_MAGIC: [u8; 8] = *b"FASTSTU1";
/// Checkpoint file format version; bump on layout changes.
/// v3: one [`Checkpoint`] record for every objective and fidelity.
const STUDY_VERSION: u32 = 3;

/// Seed salt of the screening exploration RNG. Each screened round draws
/// its exploration pick from `trial_rng(seed ^ SCREEN_SEED_SALT,
/// round_start)` — a pure function of the study seed and the round's first
/// trial index, so the "screening RNG cursor" is the completed-trial count
/// the checkpoint already records, and a resumed study re-derives the
/// exact generator a straight-through run would have used.
const SCREEN_SEED_SALT: u64 = 0x5c3e_e21d_0b5c_a17e;

/// The unified study driver. See the [module docs](self) for the axis
/// semantics and a runnable example.
#[derive(Debug, Clone)]
pub struct Study<'s> {
    space: &'s ParamSpace,
    trials: usize,
    objective: StudyObjective,
    execution: Execution,
    durability: Durability,
    fidelity: Fidelity,
    seed: u64,
}

impl<'s> Study<'s> {
    /// A study of `trials` evaluations over `space`, with default axes:
    /// [`StudyObjective::Single`], `Execution::Batched { batch_size: 1 }`,
    /// [`Durability::Ephemeral`], [`Fidelity::Exact`], seed 0.
    #[must_use]
    pub fn new(space: &'s ParamSpace, trials: usize) -> Self {
        Study {
            space,
            trials,
            objective: StudyObjective::Single,
            execution: Execution::Batched { batch_size: 1 },
            durability: Durability::Ephemeral,
            fidelity: Fidelity::Exact,
            seed: 0,
        }
    }

    /// Sets the objective axis.
    #[must_use]
    pub fn objective(mut self, objective: StudyObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the execution axis.
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the durability axis.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the fidelity axis. [`Fidelity::Screened`] studies need a
    /// [`Screener`], passed to [`Study::run_with`].
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the reproducibility seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `(round_size, parallel)` of the execution axis.
    fn shape(&self) -> (usize, bool) {
        match self.execution {
            Execution::Batched { batch_size } => (batch_size.max(1), false),
            Execution::Parallel { threads } => (threads.max(1), true),
        }
    }

    /// Validates the configuration against the evaluator shape.
    fn validate(&self, eval: &StudyEval<'_>) -> Result<(), StudyConfigError> {
        match self.execution {
            Execution::Batched { batch_size: 0 } => return Err(StudyConfigError::EmptyBatch),
            Execution::Parallel { threads: 0 } => return Err(StudyConfigError::NoThreads),
            Execution::Parallel { .. } => {
                if matches!(eval, StudyEval::Points(_)) {
                    return Err(StudyConfigError::SerialEvalUnderParallelExecution);
                }
            }
            Execution::Batched { .. } => {}
        }
        if let StudyObjective::Pareto { directions } = &self.objective {
            if directions.len() < 2 {
                return Err(StudyConfigError::TooFewMetrics { got: directions.len() });
            }
        }
        if let Fidelity::Screened { keep_fraction, .. } = self.fidelity {
            // NaN fails the first comparison and lands here too.
            if !(keep_fraction > 0.0 && keep_fraction <= 1.0) {
                return Err(StudyConfigError::KeepFractionOutOfRange);
            }
        }
        if let Durability::Checkpointed { dir, every } = &self.durability {
            if *every == 0 {
                return Err(StudyConfigError::ZeroCheckpointInterval);
            }
            let unwritable = |e: std::io::Error| StudyConfigError::CheckpointDirUnwritable {
                dir: dir.clone(),
                reason: e.to_string(),
            };
            std::fs::create_dir_all(dir).map_err(unwritable)?;
            let probe = dir.join(".study_write_probe");
            std::fs::write(&probe, b"probe").map_err(unwritable)?;
            let _ = std::fs::remove_file(&probe);
        }
        Ok(())
    }

    /// Runs the study.
    ///
    /// # Errors
    /// Returns a [`StudyConfigError`] when the configured axes are invalid
    /// (zero batch/threads, < 2 Pareto metrics, an unusable checkpoint
    /// directory, or a serial evaluator under parallel execution) — before
    /// any trial runs.
    ///
    /// # Panics
    /// Panics on evaluator-contract violations (wrong result count per
    /// round, wrong metric arity, NaN metrics offered to the archive) —
    /// caller bugs, exactly as the drivers this API absorbed did.
    pub fn run(
        &self,
        optimizer: &mut dyn Optimizer,
        eval: StudyEval<'_>,
    ) -> Result<StudyReport, StudyConfigError> {
        self.run_with(optimizer, eval, None, None)
    }

    /// [`Study::run`] with its two optional inputs:
    ///
    /// * `screener` ranks each proposal round. [`Fidelity::Screened`]
    ///   requires one; under [`Fidelity::Exact`] it is ignored and the run
    ///   is bit-identical to [`Study::run`].
    /// * `observer` is called with a [`StudyProgress`] after every evaluated
    ///   round — the live-progress feed a serving process streams to its
    ///   clients. It works under every durability axis (a resumed
    ///   checkpointed study reports progress from its restored trial count
    ///   onward), and observation never changes what is computed.
    ///
    /// # Errors
    /// As [`Study::run`], plus [`StudyConfigError::ScreenedWithoutScreener`]
    /// for a screened study given no screener.
    pub fn run_with(
        &self,
        optimizer: &mut dyn Optimizer,
        eval: StudyEval<'_>,
        screener: Option<&mut dyn Screener>,
        mut observer: Option<&mut dyn FnMut(&StudyProgress)>,
    ) -> Result<StudyReport, StudyConfigError> {
        self.validate(&eval)?;
        let screen = match (self.fidelity, screener) {
            (Fidelity::Screened { .. }, Some(sc)) => Some(ScreenEngine::new(sc, self.fidelity)),
            (Fidelity::Screened { .. }, None) => {
                return Err(StudyConfigError::ScreenedWithoutScreener)
            }
            (Fidelity::Exact, _) => None,
        };
        let Durability::Checkpointed { dir, every } = &self.durability else {
            return Ok(self.run_unsaved(optimizer, eval, screen, observer));
        };
        let path = dir.join(STUDY_FILE_NAME);
        let resume = match load_snapshot(&path, self, &*optimizer) {
            SnapshotLoad::Loaded(ck) => Some(*ck),
            SnapshotLoad::Missing => None,
            // Transiently unreadable: the file may hold real progress a
            // later rerun can resume from, so neither overwrite it with this
            // run's saves nor quarantine it — run undurably and leave it in
            // place.
            SnapshotLoad::Unreadable => {
                eprintln!(
                    "warning: checkpoint {} is unreadable right now; running without saves so \
                     the file is preserved",
                    path.display()
                );
                let mut report = self.run_unsaved(optimizer, eval, screen, observer);
                report.checkpoint = Some(CheckpointInfo { path, resumed_trials: 0, saves: 0 });
                return Ok(report);
            }
            SnapshotLoad::Rejected => {
                // The file was read but is damaged or belongs to a different
                // configuration. The cold run's first save would overwrite
                // it — quarantine it instead so whatever progress it holds
                // survives a mis-typed rerun.
                quarantine_rejected(&path);
                None
            }
        };
        let resumed_trials = resume.as_ref().map_or(0, |ck| ck.state.trials.len());
        let every = *every;
        let n_trials = self.trials;
        let mut rounds = 0usize;
        let mut saves = 0usize;
        let mut report = {
            // Off-cadence rounds never call `make`, so they skip the
            // full-state checkpoint clone entirely.
            let mut hook = |p: &StudyProgress, make: &dyn Fn() -> Checkpoint| {
                if let Some(obs) = observer.as_deref_mut() {
                    obs(p);
                }
                rounds += 1;
                if rounds.is_multiple_of(every) || p.trials_done == n_trials {
                    saves += usize::from(save_snapshot(&path, &make()));
                }
            };
            self.run_hooked(optimizer, eval, screen, resume, Some(&mut hook))
        };
        report.checkpoint = Some(CheckpointInfo { path, resumed_trials, saves });
        Ok(report)
    }

    /// Runs without saving anything, feeding `observer` (if any) after every
    /// round.
    fn run_unsaved(
        &self,
        optimizer: &mut dyn Optimizer,
        eval: StudyEval<'_>,
        screen: Option<ScreenEngine<'_>>,
        observer: Option<&mut dyn FnMut(&StudyProgress)>,
    ) -> StudyReport {
        match observer {
            None => self.run_hooked(optimizer, eval, screen, None, None),
            Some(obs) => {
                let mut hook = |p: &StudyProgress, _make: &dyn Fn() -> Checkpoint| obs(p);
                self.run_hooked(optimizer, eval, screen, None, Some(&mut hook))
            }
        }
    }

    /// The engine behind [`Study::run_with`]: optionally restores an
    /// in-memory checkpoint before the first round ([`Study::restore`]) and
    /// calls `on_round` after every evaluated round with the round's
    /// progress and a lazy checkpoint builder.
    pub(crate) fn run_hooked(
        &self,
        optimizer: &mut dyn Optimizer,
        mut eval: StudyEval<'_>,
        mut screen: Option<ScreenEngine<'_>>,
        resume: Option<Checkpoint>,
        mut on_round: Option<RoundHook<'_>>,
    ) -> StudyReport {
        let (round_size, parallel) = self.shape();
        let mut st = match resume {
            Some(ck) => self.restore(optimizer, screen.as_mut(), ck),
            None => EngineState::new(&self.objective),
        };
        let mut start = st.trials.len();
        while start < self.trials {
            let round = round_size.min(self.trials - start);
            let mut rngs: Vec<StdRng> =
                (start..start + round).map(|i| trial_rng(self.seed, i)).collect();
            let points = optimizer.propose_batch(self.space, &mut rngs);
            assert_eq!(points.len(), round, "optimizer must propose one point per RNG");
            debug_assert!(points.iter().all(|p| self.space.contains(p)));

            let results = match screen.as_mut() {
                Some(eng) => self.screen_round(eng, &points, &mut eval, parallel, start),
                None => {
                    let results = eval.eval(&points, parallel);
                    assert_eq!(results.len(), round, "evaluator must score every proposed point");
                    results
                }
            };

            let mut scalar_trials = Vec::with_capacity(round);
            for (point, result) in points.into_iter().zip(results) {
                let scalar = st.absorb(&point, &result);
                scalar_trials.push(Trial { point: point.clone(), result: scalar });
                st.push_trial(point, result);
            }
            optimizer.observe_batch(self.space, &scalar_trials);
            start += round;

            if let Some(hook) = on_round.as_deref_mut() {
                let opt_ref: &dyn Optimizer = optimizer;
                let sc_ref = screen.as_ref();
                let progress = self.progress(&st, sc_ref);
                hook(&progress, &|| self.snapshot(&st, round_size, opt_ref, sc_ref));
            }
        }

        StudyReport {
            optimizer: optimizer.name().to_string(),
            best_point: st.best.as_ref().map(|(p, _)| p.clone()),
            best_objective: st.best.as_ref().map(|(_, g)| *g),
            convergence: st.convergence,
            invalid_trials: st.invalid,
            trials: st.trials,
            frontier: st.archive.as_ref().map(ParetoArchive::frontier),
            checkpoint: None,
            fidelity: screen.as_ref().map(ScreenEngine::report),
        }
    }

    /// Scores one screened round: ranks `points` with the screener, fully
    /// evaluates the kept subset, and fills the rest with
    /// [`MultiObjective::Surrogate`] outcomes. Rounds proposed while the
    /// screener is still warming up keep everything (that is how an online
    /// tier earns its training set). One kept slot per screened round is an
    /// exploration pick — a uniformly random screened-out candidate drawn
    /// from [`trial_rng`]`(seed ^ `[`SCREEN_SEED_SALT`]`, round_start)` —
    /// so a systematically wrong surrogate keeps receiving corrective
    /// observations instead of locking the search into its own bias.
    fn screen_round(
        &self,
        eng: &mut ScreenEngine<'_>,
        points: &[Vec<usize>],
        eval: &mut StudyEval<'_>,
        parallel: bool,
        start: usize,
    ) -> Vec<MultiObjective> {
        use rand::Rng;
        let round = points.len();
        let ready = eng.screener.ready();
        let scores: Option<Vec<f64>> =
            ready.then(|| points.iter().map(|p| eng.screener.score(p)).collect());
        let keep = if ready { eng.fidelity.keep_of_round(round) } else { round };
        let kept: Vec<usize> = if keep >= round {
            (0..round).collect()
        } else {
            let scores = scores.as_ref().expect("partial rounds only happen when ready");
            let mut order: Vec<usize> = (0..round).collect();
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            let mut kept = order[..keep].to_vec();
            if keep >= 2 {
                // Sacrifice the weakest kept slot, never the top pick.
                let mut rng = trial_rng(self.seed ^ SCREEN_SEED_SALT, start);
                kept[keep - 1] = order[keep + rng.gen_range(0..round - keep)];
            }
            kept.sort_unstable();
            kept
        };
        let kept_points: Vec<Vec<usize>> = kept.iter().map(|&i| points[i].clone()).collect();
        let kept_results = eval.eval(&kept_points, parallel);
        assert_eq!(kept_results.len(), kept.len(), "evaluator must score every kept point");
        let mut merged: Vec<MultiObjective> = match &scores {
            Some(sc) => sc.iter().map(|&s| MultiObjective::Surrogate { guide: s }).collect(),
            // Warm-up round: every slot is overwritten below.
            None => vec![MultiObjective::Invalid; round],
        };
        for (&i, result) in kept.iter().zip(kept_results) {
            if let MultiObjective::Valid { guide, .. } = &result {
                if let Some(sc) = &scores {
                    eng.pairs.push((sc[i], *guide));
                }
            }
            let guide = match &result {
                MultiObjective::Valid { guide, .. } => Some(*guide),
                MultiObjective::Invalid | MultiObjective::Surrogate { .. } => None,
            };
            eng.screener.observe(&points[i], guide);
            merged[i] = result;
        }
        eng.full_evals += kept.len();
        eng.screened_out += round - kept.len();
        merged
    }

    /// Cheap progress summary of the engine state, for round observers.
    fn progress(&self, st: &EngineState, screen: Option<&ScreenEngine<'_>>) -> StudyProgress {
        StudyProgress {
            trials_done: st.trials.len(),
            total_trials: self.trials,
            best_objective: st.best.as_ref().map(|(_, g)| *g),
            invalid_trials: st.invalid,
            frontier_size: st.archive.as_ref().map(ParetoArchive::len),
            full_evals: screen.map(|eng| eng.full_evals),
        }
    }

    /// The checkpoint of the round boundary `st` stands at.
    fn snapshot(
        &self,
        st: &EngineState,
        round_size: usize,
        opt: &dyn Optimizer,
        screen: Option<&ScreenEngine<'_>>,
    ) -> Checkpoint {
        let mut ck = Checkpoint {
            seed: self.seed,
            round_size,
            state: st.clone(),
            optimizer: opt.save_state(),
            fidelity: self.fidelity,
            full_evals: 0,
            screened_out: 0,
            pairs: Vec::new(),
            screener: Vec::new(),
        };
        if let Some(eng) = screen {
            ck.full_evals = eng.full_evals;
            ck.screened_out = eng.screened_out;
            ck.pairs = eng.pairs.clone();
            ck.screener = eng.screener.save_state();
        }
        ck
    }

    /// Why `ck` cannot resume this study, if it cannot: it was written with
    /// a different seed, round size, objective, fidelity or optimizer
    /// configuration, holds more trials than the budget, or stops off this
    /// study's round grid — resuming there would regroup observations and
    /// diverge from an uninterrupted run.
    fn check(&self, ck: &Checkpoint, optimizer: &dyn Optimizer) -> Result<(), String> {
        let (round_size, _) = self.shape();
        let done = ck.state.trials.len();
        let directions = match &self.objective {
            StudyObjective::Single => None,
            StudyObjective::Pareto { directions } => Some(&directions[..]),
        };
        if ck.seed != self.seed {
            return Err("checkpoint seed mismatch".into());
        }
        if ck.round_size != round_size {
            return Err("checkpoint round-size mismatch".into());
        }
        if done > self.trials {
            return Err(format!(
                "checkpoint holds {done} trials but the study budget is {}",
                self.trials
            ));
        }
        if ck.state.convergence.len() != done {
            return Err("checkpoint convergence/trial length mismatch".into());
        }
        if !done.is_multiple_of(round_size) && done != self.trials {
            return Err(format!(
                "checkpoint at {done} trials is not a round boundary of a batch-{round_size} \
                 study over {} trials: resuming would regroup observations and diverge from an \
                 uninterrupted run",
                self.trials
            ));
        }
        if ck.state.archive.as_ref().map(ParetoArchive::directions) != directions {
            return Err("checkpoint objective mismatch".into());
        }
        // Adopting an exact study's file into a screened rerun (or a
        // differently-screened one) would splice two different kept-trial
        // sequences into one record.
        if ck.fidelity != self.fidelity {
            return Err("checkpoint fidelity mismatch".into());
        }
        if !same_optimizer_config(&ck.optimizer, &optimizer.save_state()) {
            return Err(
                "checkpoint was written by a different or differently-configured optimizer".into(),
            );
        }
        Ok(())
    }

    /// Resumes from `ck`: adopts its engine state as recorded, restores the
    /// optimizer from its saved state — or, when the optimizer refuses it
    /// (an [`OptimizerState::Opaque`] custom optimizer), replays the
    /// recorded rounds through it, exact by the [`trial_rng`] contract —
    /// and restores the screening state. A screener that refuses its saved
    /// bytes is retrained by replaying every fully evaluated trial through
    /// [`Screener::observe`], the observations the original run fed it.
    ///
    /// # Panics
    /// Panics when [`Study::check`] refuses the checkpoint (the disk loader
    /// filters such files out first, so for a programmatic resume it is a
    /// caller bug, and silently breaking bit-identity would be worse) or
    /// when replayed proposals diverge from the record.
    fn restore(
        &self,
        optimizer: &mut dyn Optimizer,
        screen: Option<&mut ScreenEngine<'_>>,
        ck: Checkpoint,
    ) -> EngineState {
        if let Err(why) = self.check(&ck, optimizer) {
            panic!("{why}");
        }
        if !optimizer.load_state(&ck.optimizer) {
            let (round_size, _) = self.shape();
            for (r, recorded) in ck.state.trials.chunks(round_size).enumerate() {
                let start = r * round_size;
                let mut rngs: Vec<StdRng> =
                    (start..start + recorded.len()).map(|i| trial_rng(self.seed, i)).collect();
                let points = optimizer.propose_batch(self.space, &mut rngs);
                assert!(
                    points.iter().zip(recorded).all(|(p, t)| *p == t.point),
                    "replayed optimizer diverged from the checkpoint's proposal record (was the \
                     optimizer configured differently?)"
                );
                optimizer.observe_batch(self.space, &scalar_trials(recorded));
            }
        }
        if let Some(eng) = screen {
            eng.full_evals = ck.full_evals;
            eng.screened_out = ck.screened_out;
            eng.pairs = ck.pairs;
            if !eng.screener.load_state(&ck.screener) {
                for t in &ck.state.trials {
                    match &t.result {
                        MultiObjective::Valid { guide, .. } => {
                            eng.screener.observe(&t.point, Some(*guide));
                        }
                        MultiObjective::Invalid => eng.screener.observe(&t.point, None),
                        MultiObjective::Surrogate { .. } => {}
                    }
                }
            }
        }
        ck.state
    }
}

/// Accumulated study state shared by every objective × execution cell —
/// and, as it stands at a round boundary, the heart of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EngineState {
    /// Incumbent `(point, guide)`.
    pub(crate) best: Option<(Vec<usize>, f64)>,
    /// Best-so-far guide after each trial.
    pub(crate) convergence: Vec<f64>,
    /// Safe-search rejections.
    pub(crate) invalid: usize,
    /// Completed trials, in proposal order.
    pub(crate) trials: Vec<MultiTrial>,
    /// The non-dominated set — `Some` iff the objective is Pareto.
    pub(crate) archive: Option<ParetoArchive>,
}

impl EngineState {
    pub(crate) fn new(objective: &StudyObjective) -> Self {
        let archive = match objective {
            StudyObjective::Single => None,
            StudyObjective::Pareto { directions } => Some(ParetoArchive::new(directions)),
        };
        EngineState { best: None, convergence: Vec::new(), invalid: 0, trials: Vec::new(), archive }
    }

    /// Feeds one outcome into the archive/incumbent/counters and returns
    /// the scalar trial the optimizer observes.
    pub(crate) fn absorb(&mut self, point: &[usize], result: &MultiObjective) -> TrialResult {
        let scalar = match result {
            MultiObjective::Valid { metrics, guide } => {
                if let Some(archive) = self.archive.as_mut() {
                    archive.insert(point.to_vec(), metrics.clone());
                }
                // Incumbent rule, bit-compatible with the drivers this
                // engine absorbed: a scalar study's NaN incumbent sticks
                // (`obj > NaN` is false); a Pareto study's guide incumbent
                // recovers from NaN (it mirrored a bare `f64` that began
                // life as NaN).
                let pareto = self.archive.is_some();
                let replace =
                    self.best.as_ref().is_none_or(|(_, b)| *guide > *b || (pareto && b.is_nan()));
                if replace {
                    self.best = Some((point.to_vec(), *guide));
                }
                TrialResult::Valid(*guide)
            }
            MultiObjective::Invalid => {
                self.invalid += 1;
                TrialResult::Invalid
            }
            // Screened-out: no archive insert, no incumbent update — a
            // surrogate score must never masquerade as a simulated result —
            // and not a safe-search rejection either (the screening
            // counters live in the `ScreenEngine`).
            MultiObjective::Surrogate { .. } => TrialResult::Invalid,
        };
        self.convergence.push(self.best.as_ref().map_or(f64::NAN, |(_, b)| *b));
        scalar
    }

    /// Records a completed trial. Single-objective studies drop the metric
    /// vector: they track only the guide.
    pub(crate) fn push_trial(&mut self, point: Vec<usize>, result: MultiObjective) {
        let result = if self.archive.is_none() {
            match result {
                MultiObjective::Valid { guide, .. } => {
                    MultiObjective::Valid { metrics: Vec::new(), guide }
                }
                MultiObjective::Invalid => MultiObjective::Invalid,
                MultiObjective::Surrogate { guide } => MultiObjective::Surrogate { guide },
            }
        } else {
            result
        };
        self.trials.push(MultiTrial { point, result });
    }
}

/// Projects stored trials down to the scalar stream the optimizer observed.
fn scalar_trials(trials: &[MultiTrial]) -> Vec<Trial> {
    trials.iter().map(|t| Trial { point: t.point.clone(), result: scalar_of(&t.result) }).collect()
}

/// Moves a rejected checkpoint file aside under the first free
/// `study.bin.rejected[.N]` name, so neither the new run's saves nor an
/// earlier quarantined file clobber the progress it may hold.
fn quarantine_rejected(path: &Path) {
    let fresh = (0..)
        .map(|i| {
            let name = if i == 0 {
                format!("{STUDY_FILE_NAME}.rejected")
            } else {
                format!("{STUDY_FILE_NAME}.rejected.{i}")
            };
            path.with_file_name(name)
        })
        .find(|p| !p.exists())
        .expect("some rejected-checkpoint name is free");
    match std::fs::rename(path, &fresh) {
        Ok(()) => eprintln!("note: preserved the rejected checkpoint as {}", fresh.display()),
        Err(e) => {
            eprintln!("warning: could not preserve rejected checkpoint {}: {e}", path.display());
        }
    }
}

/// Atomically writes a checkpoint file (temp + rename). Returns whether the
/// write succeeded; failures warn and the study continues undurably.
fn save_snapshot(path: &Path, ck: &Checkpoint) -> bool {
    let file = bin::write_envelope(STUDY_MAGIC, STUDY_VERSION, &ck.to_bytes());
    let tmp = path.with_extension("tmp");
    match std::fs::write(&tmp, &file).and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: could not write study checkpoint {}: {e}", path.display());
            false
        }
    }
}

/// Outcome of reading a checkpoint file: only [`SnapshotLoad::Rejected`]
/// files are quarantined — an unreadable file may be transiently so and is
/// left in place for a later rerun.
enum SnapshotLoad {
    /// No file: a plain cold start.
    Missing,
    /// The file exists but could not be read right now (transient I/O).
    Unreadable,
    /// The file was read but is damaged, of another format version, or
    /// belongs to another study.
    Rejected,
    /// A checkpoint matching this study's configuration.
    Loaded(Box<Checkpoint>),
}

/// Loads a checkpoint file and checks it against the study configuration
/// ([`Study::check`], which includes the optimizer: a file written by a
/// different algorithm must not be adopted — its replay would diverge and
/// panic). A missing file is a silent cold start; damage, another format
/// version or a configuration mismatch warns and degrades to a cold start —
/// resuming can cost re-evaluation, never correctness.
fn load_snapshot(path: &Path, study: &Study<'_>, optimizer: &dyn Optimizer) -> SnapshotLoad {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SnapshotLoad::Missing,
        Err(e) => {
            eprintln!("warning: study checkpoint ignored — reading {}: {e}", path.display());
            return SnapshotLoad::Unreadable;
        }
    };
    let checked = bin::read_envelope(STUDY_MAGIC, STUDY_VERSION, &bytes)
        .and_then(Checkpoint::from_bytes)
        .map_err(|e| e.to_string())
        .and_then(|ck| study.check(&ck, optimizer).map(|()| ck));
    match checked {
        Ok(ck) => SnapshotLoad::Loaded(Box::new(ck)),
        Err(why) => {
            eprintln!("warning: study checkpoint ignored — {}: {why}", path.display());
            SnapshotLoad::Rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{LcsSwarm, RandomSearch, Tpe};
    use crate::space::ParamDomain;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add("x", ParamDomain::Pow2 { min: 1, max: 256 });
        s.add("y", ParamDomain::Categorical { n: 6 });
        s
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fast-study-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn score(p: &[usize]) -> MultiObjective {
        if p[1] == 5 {
            MultiObjective::Invalid
        } else {
            MultiObjective::valid(
                vec![(p[0] * (p[1] + 1)) as f64, (p[0] + 3 * p[1]) as f64],
                (p[0] * 2 + p[1]) as f64,
            )
        }
    }

    #[test]
    fn config_errors_are_typed_not_panics() {
        let s = space();
        let mut opt = RandomSearch::new();
        let run = |study: Study<'_>, opt: &mut RandomSearch| {
            let mut eval = |p: &[usize]| score(p);
            study.run(opt, StudyEval::points(&mut eval)).map(|_| ())
        };
        assert_eq!(
            run(Study::new(&s, 4).execution(Execution::Batched { batch_size: 0 }), &mut opt),
            Err(StudyConfigError::EmptyBatch)
        );
        assert_eq!(
            run(Study::new(&s, 4).execution(Execution::Parallel { threads: 0 }), &mut opt),
            Err(StudyConfigError::NoThreads)
        );
        assert_eq!(
            run(
                Study::new(&s, 4).objective(StudyObjective::pareto(&[MetricDirection::Maximize])),
                &mut opt
            ),
            Err(StudyConfigError::TooFewMetrics { got: 1 })
        );
        assert_eq!(
            run(
                Study::new(&s, 4)
                    .durability(Durability::Checkpointed { dir: scratch_dir("every0"), every: 0 }),
                &mut opt
            ),
            Err(StudyConfigError::ZeroCheckpointInterval)
        );
        // A file where the checkpoint directory should be is unwritable.
        let blocked = scratch_dir("blocked");
        std::fs::write(&blocked, b"not a directory").unwrap();
        let err = run(
            Study::new(&s, 4)
                .durability(Durability::Checkpointed { dir: blocked.clone(), every: 1 }),
            &mut opt,
        )
        .unwrap_err();
        assert!(
            matches!(err, StudyConfigError::CheckpointDirUnwritable { ref dir, .. } if *dir == blocked),
            "{err:?}"
        );
        // Parallel execution cannot fan out a serial-only points closure.
        let mut eval = |p: &[usize]| score(p);
        let got = Study::new(&s, 4)
            .execution(Execution::Parallel { threads: 2 })
            .run(&mut opt, StudyEval::points(&mut eval));
        assert_eq!(got.map(|_| ()), Err(StudyConfigError::SerialEvalUnderParallelExecution));
        // Each error renders a non-empty human-readable message.
        for e in [
            StudyConfigError::EmptyBatch,
            StudyConfigError::NoThreads,
            StudyConfigError::TooFewMetrics { got: 1 },
            StudyConfigError::ZeroCheckpointInterval,
            StudyConfigError::CheckpointDirUnwritable {
                dir: PathBuf::from("/x"),
                reason: "denied".into(),
            },
            StudyConfigError::SerialEvalUnderParallelExecution,
            StudyConfigError::KeepFractionOutOfRange,
            StudyConfigError::ScreenedWithoutScreener,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn parallel_equals_batched_bitwise() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let run = |execution: Execution| {
            let mut opt = LcsSwarm::default();
            Study::new(&s, 48)
                .seed(9)
                .execution(execution)
                .run(&mut opt, StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let batched = run(Execution::Batched { batch_size: 6 });
        let parallel = run(Execution::Parallel { threads: 6 });
        assert_eq!(batched.best_point, parallel.best_point);
        assert_eq!(
            batched.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(batched.trials, parallel.trials);
    }

    /// Kill-and-rerun through the file checkpoint: running the same
    /// configuration against the same directory resumes and finishes
    /// bit-identically to an uninterrupted study — scalar and Pareto, at
    /// the default round size of one and at rounds of eight, serial and
    /// parallel.
    #[test]
    fn checkpointed_rerun_is_bit_identical_for_every_axis_combination() {
        let s = space();
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        type MkOpt = fn() -> Box<dyn Optimizer>;
        let makers: [MkOpt; 3] = [
            || Box::new(RandomSearch::new()),
            || Box::new(LcsSwarm::default()),
            || Box::new(Tpe::new()),
        ];
        let objectives =
            [StudyObjective::Single, StudyObjective::Pareto { directions: dirs.to_vec() }];
        let executions = [
            Execution::Batched { batch_size: 1 },
            Execution::Batched { batch_size: 8 },
            Execution::Parallel { threads: 8 },
        ];
        for (mi, mk) in makers.iter().enumerate() {
            for (oi, objective) in objectives.iter().enumerate() {
                for (ei, execution) in executions.iter().enumerate() {
                    let eval = |p: &[usize]| score(p);
                    let run = |trials: usize, durability: Durability, opt: &mut dyn Optimizer| {
                        Study::new(&s, trials)
                            .seed(7)
                            .objective(objective.clone())
                            .execution(*execution)
                            .durability(durability)
                            .run(opt, StudyEval::shared(&eval))
                            .expect("valid configuration")
                    };
                    let mut straight_opt = mk();
                    let straight = run(40, Durability::Ephemeral, straight_opt.as_mut());

                    let dir = scratch_dir(&format!("axis-{mi}-{oi}-{ei}"));
                    let durable = || Durability::Checkpointed { dir: dir.clone(), every: 1 };
                    // "Kill" at trial 24 (a round boundary of every
                    // execution mode here), then rerun the full budget.
                    let mut first = mk();
                    let partial = run(24, durable(), first.as_mut());
                    assert!(partial.checkpoint.as_ref().unwrap().saves > 0);

                    let mut resumed_opt = mk();
                    let resumed = run(40, durable(), resumed_opt.as_mut());
                    let label = format!("{objective:?}/{execution:?}/{}", straight.optimizer);
                    assert_eq!(
                        resumed.checkpoint.as_ref().unwrap().resumed_trials,
                        24,
                        "{label}: must resume from the partial run's file"
                    );
                    assert_eq!(resumed.best_point, straight.best_point, "{label}");
                    assert_eq!(
                        resumed.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        straight.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{label}"
                    );
                    assert_eq!(resumed.trials, straight.trials, "{label}");
                    assert_eq!(resumed.invalid_trials, straight.invalid_trials, "{label}");
                    assert_eq!(resumed.frontier, straight.frontier, "{label}");
                }
            }
        }
    }

    /// A damaged or differently-configured checkpoint file degrades to a
    /// cold (but correct) run instead of panicking or poisoning results.
    #[test]
    fn damaged_or_mismatched_checkpoint_degrades_to_cold_run() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let run = |seed: u64, durability: Durability| {
            let mut opt = LcsSwarm::default();
            Study::new(&s, 24)
                .seed(seed)
                .execution(Execution::Batched { batch_size: 4 })
                .durability(durability)
                .run(&mut opt, StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let straight = run(3, Durability::Ephemeral);

        for (name, damage) in [
            ("garbage", vec![0xA5u8; 128]),
            ("truncated", STUDY_MAGIC.to_vec()),
            ("empty", Vec::new()),
        ] {
            let dir = scratch_dir(&format!("damage-{name}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(STUDY_FILE_NAME), &damage).unwrap();
            let got = run(3, Durability::Checkpointed { dir, every: 1 });
            assert_eq!(got.checkpoint.as_ref().unwrap().resumed_trials, 0, "{name}");
            assert_eq!(got.trials, straight.trials, "{name}");
        }

        // A well-formed file of the previous format version (v2): only the
        // version differs from a file this build would resume from, and it
        // still cold-starts and is quarantined.
        let current = scratch_dir("current-version");
        let _ = run(3, Durability::Checkpointed { dir: current.clone(), every: 1 });
        let bytes = std::fs::read(current.join(STUDY_FILE_NAME)).unwrap();
        let payload = bin::read_envelope(STUDY_MAGIC, STUDY_VERSION, &bytes).unwrap();
        let dir = scratch_dir("version-2");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STUDY_FILE_NAME), bin::write_envelope(STUDY_MAGIC, 2, payload))
            .unwrap();
        let got = run(3, Durability::Checkpointed { dir: dir.clone(), every: 1 });
        assert_eq!(got.checkpoint.as_ref().unwrap().resumed_trials, 0, "v2");
        assert_eq!(got.trials, straight.trials, "v2");
        assert!(dir.join("study.bin.rejected").exists(), "the v2 file must be quarantined");

        // A checkpoint from a different seed is ignored, not adopted —
        // and quarantined, not overwritten: its progress survives the
        // mismatched rerun's saves.
        let dir = scratch_dir("seed-mismatch");
        let _ = run(99, Durability::Checkpointed { dir: dir.clone(), every: 1 });
        let got = run(3, Durability::Checkpointed { dir: dir.clone(), every: 1 });
        assert_eq!(got.checkpoint.as_ref().unwrap().resumed_trials, 0);
        assert_eq!(got.trials, straight.trials);
        assert!(
            dir.join("study.bin.rejected").exists(),
            "the rejected checkpoint must be preserved, not overwritten"
        );
    }

    /// A checkpoint written by one optimizer must not be adopted by a run
    /// with a different one (e.g. comparing LCS vs TPE against the same
    /// directory): without the state-kind check, TPE would reject the LCS
    /// state, fall back to replay, propose different points, and panic —
    /// instead the file is ignored and the run starts cold.
    #[test]
    fn checkpoint_from_a_different_optimizer_degrades_to_cold_run() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dir = scratch_dir("optimizer-mismatch");
        let run = |opt: &mut dyn Optimizer, trials: usize| {
            Study::new(&s, trials)
                .seed(7)
                .execution(Execution::Batched { batch_size: 4 })
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run(opt, StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let _ = run(&mut LcsSwarm::default(), 16);
        let mut straight_opt = Tpe::new();
        let straight = Study::new(&s, 24)
            .seed(7)
            .execution(Execution::Batched { batch_size: 4 })
            .run(&mut straight_opt, StudyEval::shared(&eval))
            .expect("valid configuration");
        let got = run(&mut Tpe::new(), 24);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "an LCS-written checkpoint must not resume a TPE study"
        );
        assert_eq!(got.trials, straight.trials);

        // Same algorithm, different configuration (swarm size): also a
        // cold start, not a silent continuation of the old configuration.
        let _ = run(&mut LcsSwarm::default(), 16); // refresh the file with a default-LCS state
        let got = run(&mut LcsSwarm::new(3), 24);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "a default-swarm checkpoint must not resume a 3-particle study"
        );
    }

    /// `every` thins the saves; the completed study is always persisted.
    #[test]
    fn checkpoint_interval_thins_saves_but_keeps_the_final_state() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dir = scratch_dir("every3");
        let mut opt = RandomSearch::new();
        // 24 trials in rounds of 4 = 6 rounds; every=4 saves at round 4
        // plus the forced final-round save.
        let report = Study::new(&s, 24)
            .seed(1)
            .execution(Execution::Batched { batch_size: 4 })
            .durability(Durability::Checkpointed { dir: dir.clone(), every: 4 })
            .run(&mut opt, StudyEval::shared(&eval))
            .expect("valid configuration");
        assert_eq!(report.checkpoint.as_ref().unwrap().saves, 2);
        // The persisted state is the completed study: a rerun is a no-op
        // resume that reproduces it without re-evaluating anything.
        let mut evals = 0usize;
        let mut counting = |p: &[usize]| {
            evals += 1;
            score(p)
        };
        let mut opt2 = RandomSearch::new();
        let rerun = Study::new(&s, 24)
            .seed(1)
            .execution(Execution::Batched { batch_size: 4 })
            .durability(Durability::Checkpointed { dir, every: 4 })
            .run(&mut opt2, StudyEval::points(&mut counting))
            .expect("valid configuration");
        assert_eq!(evals, 0, "a completed checkpoint resumes without re-evaluation");
        assert_eq!(rerun.trials, report.trials);
        assert_eq!(rerun.checkpoint.as_ref().unwrap().resumed_trials, 24);
    }

    /// Deterministic test screener: scores with the same formula `score`
    /// uses for the guide (a perfect surrogate), becomes ready after
    /// `warmup` observations, and (when `restorable`) checkpoints its
    /// observation count.
    struct ToyScreener {
        warmup: usize,
        seen: usize,
        restorable: bool,
    }

    impl ToyScreener {
        fn new(warmup: usize) -> Self {
            ToyScreener { warmup, seen: 0, restorable: true }
        }
    }

    impl Screener for ToyScreener {
        fn ready(&self) -> bool {
            self.seen >= self.warmup
        }

        fn score(&self, p: &[usize]) -> f64 {
            (p[0] * 2 + p[1]) as f64
        }

        fn observe(&mut self, _point: &[usize], _guide: Option<f64>) {
            self.seen += 1;
        }

        fn save_state(&self) -> Vec<u8> {
            (self.seen as u64).to_le_bytes().to_vec()
        }

        fn load_state(&mut self, bytes: &[u8]) -> bool {
            let Ok(raw) = <[u8; 8]>::try_from(bytes) else { return false };
            if !self.restorable {
                return false;
            }
            self.seen = u64::from_le_bytes(raw) as usize;
            true
        }
    }

    fn screened(keep_fraction: f64, min_full: usize) -> Fidelity {
        Fidelity::Screened { keep_fraction, min_full, tier: crate::SurrogateTier::S0 }
    }

    #[test]
    fn screened_config_errors_are_typed() {
        let s = space();
        let mut opt = RandomSearch::new();
        let mut eval = |p: &[usize]| score(p);
        // Screened fidelity without a screener: run() has none to offer.
        let got = Study::new(&s, 8)
            .execution(Execution::Batched { batch_size: 4 })
            .fidelity(screened(0.5, 1))
            .run(&mut opt, StudyEval::points(&mut eval));
        assert_eq!(got.map(|_| ()), Err(StudyConfigError::ScreenedWithoutScreener));
        // Rounds of one (the default execution) are accepted and always
        // keep their single candidate.
        let mut sc = ToyScreener::new(0);
        let report = Study::new(&s, 8)
            .fidelity(screened(0.5, 1))
            .run_with(&mut opt, StudyEval::points(&mut eval), Some(&mut sc), None)
            .expect("valid configuration");
        assert_eq!(report.fidelity.map(|f| f.screened_out), Some(0));
        // keep_fraction outside (0, 1] — including NaN.
        for bad in [0.0, -0.25, 1.5, f64::NAN] {
            let got = Study::new(&s, 8)
                .execution(Execution::Batched { batch_size: 4 })
                .fidelity(screened(bad, 1))
                .run_with(&mut opt, StudyEval::points(&mut eval), Some(&mut sc), None);
            assert_eq!(got.map(|_| ()), Err(StudyConfigError::KeepFractionOutOfRange), "{bad}");
        }
    }

    /// `Screened { keep_fraction: 1.0 }` keeps every proposal: the trial
    /// record, convergence curve, and frontier are bit-identical to the
    /// same study under `Fidelity::Exact` — only the fidelity report is
    /// added. An exact study handed a screener ignores the
    /// screener entirely.
    #[test]
    fn keep_everything_screening_degenerates_to_exact() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let base = || {
            Study::new(&s, 48)
                .seed(5)
                .objective(StudyObjective::pareto(&dirs))
                .execution(Execution::Batched { batch_size: 8 })
        };
        let mut opt = LcsSwarm::default();
        let exact = base().run(&mut opt, StudyEval::shared(&eval)).unwrap();

        let mut opt = LcsSwarm::default();
        let mut sc = ToyScreener::new(0);
        let kept_all = base()
            .fidelity(screened(1.0, 0))
            .run_with(&mut opt, StudyEval::shared(&eval), Some(&mut sc), None)
            .unwrap();
        assert_eq!(kept_all.trials, exact.trials);
        assert_eq!(
            kept_all.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            exact.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(kept_all.frontier, exact.frontier);
        let fid = kept_all.fidelity.expect("screened studies report fidelity");
        assert_eq!(fid.full_evals, 48);
        assert_eq!(fid.screened_out, 0);

        let mut opt = LcsSwarm::default();
        let mut sc = ToyScreener::new(0);
        let ignored =
            base().run_with(&mut opt, StudyEval::shared(&eval), Some(&mut sc), None).unwrap();
        assert_eq!(ignored.trials, exact.trials);
        assert!(ignored.fidelity.is_none(), "Exact fidelity reports no screening");
        assert_eq!(sc.seen, 0, "Exact fidelity never touches the screener");
    }

    /// Partial screening: only the kept fraction reaches the evaluator,
    /// screened-out trials are recorded as Surrogate outcomes, the frontier
    /// only ever contains fully simulated points, and a perfect surrogate
    /// reports Spearman 1.
    #[test]
    fn screened_run_thins_full_evaluations_and_reports_fidelity() {
        let s = space();
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let mut evals = 0usize;
        let mut eval = |points: &[Vec<usize>]| {
            evals += points.len();
            points.iter().map(|p| score(p)).collect::<Vec<_>>()
        };
        let mut opt = RandomSearch::new();
        // Warmup of 8 = exactly the first round: round 1 is fully
        // evaluated, every later round keeps 2 of 8.
        let mut sc = ToyScreener::new(8);
        let report = Study::new(&s, 64)
            .seed(3)
            .objective(StudyObjective::pareto(&dirs))
            .execution(Execution::Batched { batch_size: 8 })
            .fidelity(screened(0.25, 2))
            .run_with(&mut opt, StudyEval::batch(&mut eval), Some(&mut sc), None)
            .unwrap();
        let fid = report.fidelity.expect("screened studies report fidelity");
        assert_eq!(fid.full_evals, 8 + 7 * 2);
        assert_eq!(fid.screened_out, 64 - fid.full_evals);
        assert_eq!(evals, fid.full_evals, "only kept trials reach the evaluator");
        assert!(fid.savings_factor() > 2.5, "factor = {}", fid.savings_factor());
        // The perfect surrogate ranks exactly like the simulator.
        assert_eq!(fid.spearman, Some(1.0));
        assert_eq!(fid.kendall, Some(1.0));
        assert!(fid.pairs > 0);
        // The full trial record is kept, with screened-out trials marked.
        assert_eq!(report.trials.len(), 64);
        let surrogates = report.trials.iter().filter(|t| !t.result.fully_evaluated()).count();
        assert_eq!(surrogates, fid.screened_out);
        // Every frontier point was fully simulated: its point must appear
        // among the fully evaluated trials.
        for fp in report.frontier.as_ref().unwrap() {
            assert!(report
                .trials
                .iter()
                .any(|t| t.point == fp.point && t.result.fully_evaluated()));
        }
    }

    /// Kill-and-rerun bit-identity holds on the screened axis too — both
    /// when the screener restores its serialized state and when it refuses
    /// the bytes and is retrained by observation replay.
    #[test]
    fn screened_checkpointed_rerun_is_bit_identical() {
        let s = space();
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let eval = |p: &[usize]| score(p);
        for restorable in [true, false] {
            let mk_sc = || ToyScreener { warmup: 8, seen: 0, restorable };
            let run = |trials: usize, durability: Durability, sc: &mut ToyScreener| {
                let mut opt = LcsSwarm::default();
                Study::new(&s, trials)
                    .seed(11)
                    .objective(StudyObjective::pareto(&dirs))
                    .execution(Execution::Batched { batch_size: 8 })
                    .fidelity(screened(0.25, 2))
                    .durability(durability)
                    .run_with(&mut opt, StudyEval::shared(&eval), Some(sc), None)
                    .unwrap()
            };
            let straight = run(64, Durability::Ephemeral, &mut mk_sc());

            let dir = scratch_dir(&format!("screened-{restorable}"));
            let durable = || Durability::Checkpointed { dir: dir.clone(), every: 1 };
            let partial = run(24, durable(), &mut mk_sc());
            assert!(partial.checkpoint.as_ref().unwrap().saves > 0);

            let resumed = run(64, durable(), &mut mk_sc());
            let label = format!("restorable={restorable}");
            assert_eq!(resumed.checkpoint.as_ref().unwrap().resumed_trials, 24, "{label}");
            assert_eq!(resumed.trials, straight.trials, "{label}");
            assert_eq!(
                resumed.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                straight.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{label}"
            );
            assert_eq!(resumed.frontier, straight.frontier, "{label}");
            assert_eq!(resumed.fidelity, straight.fidelity, "{label}");
        }
    }

    /// A checkpoint written under one fidelity configuration must not be
    /// adopted by a run with another (exact file → screened rerun and
    /// vice versa): both degrade to a quarantined cold start.
    #[test]
    fn fidelity_mismatched_checkpoint_degrades_to_cold_run() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dir = scratch_dir("fidelity-mismatch");
        let run_exact = |trials: usize| {
            let mut opt = RandomSearch::new();
            Study::new(&s, trials)
                .seed(2)
                .execution(Execution::Batched { batch_size: 4 })
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run(&mut opt, StudyEval::shared(&eval))
                .unwrap()
        };
        let screened_run = |trials: usize| {
            let mut opt = RandomSearch::new();
            let mut sc = ToyScreener::new(4);
            Study::new(&s, trials)
                .seed(2)
                .execution(Execution::Batched { batch_size: 4 })
                .fidelity(screened(0.5, 1))
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run_with(&mut opt, StudyEval::shared(&eval), Some(&mut sc), None)
                .unwrap()
        };
        let _ = run_exact(16);
        let got = screened_run(16);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "an exact-mode checkpoint must not resume a screened study"
        );
        // The screened rerun's own file now sits there; an exact rerun
        // must reject it in turn.
        let got = run_exact(16);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "a screened checkpoint must not resume an exact study"
        );
    }

    /// Single-objective reports carry no frontier; Pareto reports do, and
    /// `into_pareto_result` refuses the former.
    #[test]
    #[should_panic(expected = "single-objective study")]
    fn into_pareto_result_rejects_single_objective_reports() {
        let s = space();
        let mut opt = RandomSearch::new();
        let mut eval = |p: &[usize]| score(p);
        let report = Study::new(&s, 4)
            .run(&mut opt, StudyEval::points(&mut eval))
            .expect("valid configuration");
        assert!(report.frontier.is_none());
        let _ = report.into_pareto_result();
    }
}
