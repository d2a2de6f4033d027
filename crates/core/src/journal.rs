//! The job journal: crash-safe bookkeeping for a serving process.
//!
//! A `fast-serve` daemon accepts sweep jobs over a socket and must survive
//! `kill -9` without losing an accepted job or a computed result.
//! [`JobJournal`] provides exactly that, as a thin directory layout over the
//! existing durability machinery:
//!
//! ```text
//! <root>/jobs/job-000001/job.bin         the accepted JobSpec (FASTJOB1)
//! <root>/jobs/job-000001/eval_cache.bin  the job's Checkpointer pair —
//! <root>/jobs/job-000001/eval_cache.op.bin   appended while the sweep runs
//! <root>/jobs/job-000001/sweep.bin       the job's scenario ledger
//! <root>/jobs/job-000001/result.bin      final records (FASTJRS1); its
//!                                        existence marks the job done
//! ```
//!
//! The spec, ledger and result files are written atomically (temp +
//! rename). The cache files grow by one appended segment per round that
//! computed something and are sealed into one segment when the job
//! finishes; a kill mid-append leaves a torn final segment, which a resume
//! drops. So a job is always in exactly one of three states: **pending**
//! (spec recorded, no result — in flight or never started), **done**
//! (result recorded), or **damaged** (spec unreadable). On restart a server replays [`JobJournal::jobs`]:
//! done jobs serve their recorded result, pending jobs re-run through
//! [`crate::SweepRunner::run_session`] with `resume: true` against their
//! checkpoint directory — bit-identical to an uninterrupted run by the
//! sweep determinism contract — and damaged jobs are reported, never
//! silently dropped.

use crate::sweep::{Checkpointer, CompletedScenario, ScenarioMatrix, SweepConfig};
use serde::bin::{self, Decode, Encode, Reader, Writer};
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic prefix of job-spec files.
pub(crate) const JOB_MAGIC: [u8; 8] = *b"FASTJOB1";
/// Job-spec format version; bump on layout changes.
pub(crate) const JOB_VERSION: u32 = 1;
/// Magic prefix of job-result files.
pub(crate) const RESULT_MAGIC: [u8; 8] = *b"FASTJRS1";
/// Job-result format version; bump on layout changes.
pub(crate) const RESULT_VERSION: u32 = 1;

/// A declarative sweep request — what a client submits and the journal
/// persists: a [`ScenarioMatrix`] plus the search settings to run it under.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen display name (free-form; not an identifier).
    pub name: String,
    /// The scenario matrix to run.
    pub matrix: ScenarioMatrix,
    /// Search settings (trials, optimizer, seed, batch, seed designs).
    pub config: SweepConfig,
}

impl Encode for JobSpec {
    fn encode(&self, w: &mut Writer) {
        let JobSpec { name, matrix, config } = self;
        name.encode(w);
        matrix.encode(w);
        config.encode(w);
    }
}

impl Decode for JobSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(JobSpec {
            name: Decode::decode(r)?,
            matrix: Decode::decode(r)?,
            config: Decode::decode(r)?,
        })
    }
}

/// A journal-assigned job identifier, monotone per journal directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{:06}", self.0)
    }
}

/// The durable state of a journaled job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Spec recorded, no result yet: queued or in flight when the process
    /// died; a restarted server resumes it.
    Pending,
    /// Result recorded; the job is complete.
    Done,
    /// The spec file is unreadable (the stored reason says why). The job
    /// cannot be resumed, but its directory is preserved for inspection.
    Damaged(String),
}

/// One journaled job, as enumerated by [`JobJournal::jobs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEntry {
    /// The job's identifier (also its directory name).
    pub id: JobId,
    /// Its durable state.
    pub state: JobState,
}

/// A directory of journaled jobs. See the [module docs](self) for the
/// layout and restart semantics.
#[derive(Debug, Clone)]
pub struct JobJournal {
    root: PathBuf,
}

impl JobJournal {
    /// Opens (creating if needed) a journal rooted at `root`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("jobs"))?;
        Ok(JobJournal { root })
    }

    /// The journal's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of job `id` (which may not exist yet).
    #[must_use]
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.root.join("jobs").join(id.to_string())
    }

    /// Accepts a job: allocates the next id, creates its directory, and
    /// atomically records `spec`. Once this returns, the job survives
    /// `kill -9` — a restarted server will see it as [`JobState::Pending`]
    /// and run it.
    ///
    /// # Errors
    /// Propagates directory and file I/O failures; on failure no id is
    /// consumed (a later call may reuse it).
    pub fn create(&self, spec: &JobSpec) -> std::io::Result<JobId> {
        let mut next = self.jobs()?.last().map_or(1, |e| e.id.0 + 1);
        // One server process owns a journal, but stay robust to a stale
        // directory from a crashed create: claim ids until one is free.
        let dir = loop {
            let dir = self.job_dir(JobId(next));
            match std::fs::create_dir(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
                Err(e) => return Err(e),
            }
        };
        let mut w = Writer::new();
        spec.encode(&mut w);
        let file = bin::write_envelope(JOB_MAGIC, JOB_VERSION, &w.into_bytes());
        let path = dir.join("job.bin");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &file)?;
        std::fs::rename(&tmp, &path)?;
        Ok(JobId(next))
    }

    /// Reads and fully validates job `id`'s spec, strictly: any damage is
    /// an error naming the file and cause (the recovery path surfaces it as
    /// [`JobState::Damaged`]).
    ///
    /// # Errors
    /// Returns a description of the damage (missing file, envelope or
    /// payload corruption, trailing bytes).
    pub fn load_spec(&self, id: JobId) -> Result<JobSpec, String> {
        let path = self.job_dir(id).join("job.bin");
        read_strict(&path, JOB_MAGIC, JOB_VERSION)
    }

    /// Atomically records job `id`'s final per-scenario records; their
    /// existence marks the job [`JobState::Done`].
    ///
    /// # Errors
    /// Propagates file I/O failures.
    pub fn record_result(&self, id: JobId, records: &[CompletedScenario]) -> std::io::Result<()> {
        let mut w = Writer::new();
        records.to_vec().encode(&mut w);
        let file = bin::write_envelope(RESULT_MAGIC, RESULT_VERSION, &w.into_bytes());
        let path = self.job_dir(id).join("result.bin");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &file)?;
        std::fs::rename(&tmp, &path)
    }

    /// Whether job `id` has a recorded result.
    #[must_use]
    pub fn has_result(&self, id: JobId) -> bool {
        self.job_dir(id).join("result.bin").exists()
    }

    /// Reads and fully validates job `id`'s recorded result.
    ///
    /// # Errors
    /// Returns a description of the damage (missing file, envelope or
    /// payload corruption, trailing bytes).
    pub fn load_result(&self, id: JobId) -> Result<Vec<CompletedScenario>, String> {
        let path = self.job_dir(id).join("result.bin");
        read_strict(&path, RESULT_MAGIC, RESULT_VERSION)
    }

    /// The job's sweep [`Checkpointer`] — `eval_cache.bin` + `sweep.bin`
    /// live directly in the job directory, so the whole job is one
    /// subtree.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn checkpointer(&self, id: JobId) -> std::io::Result<Checkpointer> {
        Checkpointer::new(self.job_dir(id))
    }

    /// Every journaled job in id order, classified: done (has a result),
    /// pending (spec but no result — the restart queue, in original
    /// acceptance order), or damaged (unreadable spec, with the reason).
    ///
    /// # Errors
    /// Propagates directory-enumeration failures.
    pub fn jobs(&self) -> std::io::Result<Vec<JobEntry>> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(self.root.join("jobs"))? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(parse_job_dir) else {
                continue;
            };
            let state = if self.has_result(id) {
                JobState::Done
            } else {
                match self.load_spec(id) {
                    Ok(_) => JobState::Pending,
                    Err(what) => JobState::Damaged(what),
                }
            };
            entries.push(JobEntry { id, state });
        }
        entries.sort_by_key(|e| e.id);
        Ok(entries)
    }
}

/// Parses a `job-NNNNNN` directory name back to its id.
fn parse_job_dir(name: &str) -> Option<JobId> {
    name.strip_prefix("job-")?.parse().ok().map(JobId)
}

/// Reads one enveloped journal file strictly, decoding the whole payload.
fn read_strict<T: Decode>(path: &Path, magic: [u8; 8], version: u32) -> Result<T, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let payload = bin::read_envelope(magic, version, &bytes)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut r = Reader::new(payload);
    let decoded = T::decode(&mut r).map_err(|e| format!("{}: {e}", path.display()))?;
    if !r.is_done() {
        return Err(format!("{}: {} trailing bytes", path.display(), r.remaining()));
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Objective;
    use crate::sweep::BudgetLevel;
    use fast_models::{Workload, WorkloadDomain};
    use fast_search::FrontierPoint;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fast-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            matrix: ScenarioMatrix {
                budgets: vec![BudgetLevel::scaled(1.0)],
                objectives: vec![Objective::Qps],
                domains: vec![WorkloadDomain::per_model(Workload::ResNet50)],
            },
            config: SweepConfig { trials: 8, batch: 4, ..SweepConfig::default() },
        }
    }

    #[test]
    fn create_load_roundtrip_and_id_order() {
        let j = JobJournal::open(scratch("roundtrip")).unwrap();
        let a = j.create(&spec("first")).unwrap();
        let b = j.create(&spec("second")).unwrap();
        assert!(a < b);
        assert_eq!(j.load_spec(a).unwrap().name, "first");
        let back = j.load_spec(b).unwrap();
        assert_eq!(back.name, "second");
        assert_eq!(back.matrix.len(), 1);
        assert_eq!(back.config.trials, 8);
        assert_eq!(
            j.jobs().unwrap(),
            [
                JobEntry { id: a, state: JobState::Pending },
                JobEntry { id: b, state: JobState::Pending },
            ]
        );
    }

    #[test]
    fn result_marks_done_and_roundtrips() {
        let j = JobJournal::open(scratch("result")).unwrap();
        let id = j.create(&spec("job")).unwrap();
        assert!(!j.has_result(id));
        let records = vec![CompletedScenario {
            name: "d/1.00x/Qps".to_string(),
            frontier_points: vec![FrontierPoint {
                point: vec![1, 2, 3],
                metrics: vec![4.0, 5.0, 6.0],
            }],
            invalid_trials: 2,
            best_objective: Some(4.0),
            fidelity: Some(fast_search::FidelityReport {
                tier: fast_search::SurrogateTier::S0,
                keep_fraction: 0.25,
                min_full: 2,
                full_evals: 6,
                screened_out: 18,
                pairs: 6,
                spearman: Some(1.0),
                kendall: Some(1.0),
            }),
        }];
        j.record_result(id, &records).unwrap();
        assert!(j.has_result(id));
        assert_eq!(j.load_result(id).unwrap(), records);
        assert_eq!(j.jobs().unwrap(), [JobEntry { id, state: JobState::Done }]);
    }

    #[test]
    fn ids_survive_restart_and_continue_monotone() {
        let root = scratch("restart");
        let a = {
            let j = JobJournal::open(&root).unwrap();
            j.create(&spec("before the crash")).unwrap()
        };
        // A fresh journal handle (fresh process, conceptually) sees the job
        // and continues the id sequence after it.
        let j = JobJournal::open(&root).unwrap();
        assert_eq!(j.jobs().unwrap().len(), 1);
        let b = j.create(&spec("after the restart")).unwrap();
        assert_eq!(b.0, a.0 + 1);
    }

    #[test]
    fn damaged_spec_is_reported_not_dropped() {
        let j = JobJournal::open(scratch("damaged")).unwrap();
        let id = j.create(&spec("to be trashed")).unwrap();
        std::fs::write(j.job_dir(id).join("job.bin"), b"garbage").unwrap();
        let jobs = j.jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        let JobState::Damaged(what) = &jobs[0].state else {
            panic!("expected Damaged, got {:?}", jobs[0].state)
        };
        assert!(what.contains("job.bin"), "{what}");
        assert!(j.load_spec(id).is_err());
    }

    #[test]
    fn truncated_and_bitflipped_results_are_rejected() {
        let j = JobJournal::open(scratch("corrupt-result")).unwrap();
        let id = j.create(&spec("job")).unwrap();
        j.record_result(id, &[]).unwrap();
        let path = j.job_dir(id).join("result.bin");
        let good = std::fs::read(&path).unwrap();

        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(j.load_result(id).is_err(), "truncation must be rejected");

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(j.load_result(id).is_err(), "bit flip must be rejected");

        std::fs::write(&path, &good).unwrap();
        assert!(j.load_result(id).is_ok(), "restored file must load again");
    }

    #[test]
    fn checkpointer_lives_in_the_job_dir() {
        let j = JobJournal::open(scratch("ck")).unwrap();
        let id = j.create(&spec("job")).unwrap();
        let ck = j.checkpointer(id).unwrap();
        assert_eq!(ck.dir(), j.job_dir(id));
    }
}
