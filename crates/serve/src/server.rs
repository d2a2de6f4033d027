//! The `fast-serve` daemon: admission control, the shared warm evaluator,
//! job workers, event fan-out, and crash recovery.
//!
//! # Life of a job
//!
//! 1. A client submits a [`JobSpec`]. Under the scheduler lock the server
//!    checks admission (queue capacity, shutdown), journals the spec
//!    durably ([`JobJournal::create`]) and appends the job to the FIFO
//!    queue — so an `Accepted` reply *guarantees* the job survives any
//!    later crash of either side.
//! 2. A worker thread pops the queue and runs the job's sweep through
//!    [`SweepRunner::run_session`] with three attachments: the process-wide
//!    shared [`Evaluator`] (every job reads and feeds one warm cache), the
//!    job's own [`fast_core::Checkpointer`] inside its journal directory, and an
//!    observer that fans sweep progress out to watching clients. Warnings
//!    the evaluation stack raises meanwhile are captured per-job via
//!    [`fast_core::warn::route_to`] and streamed as
//!    [`JobEvent::Warning`]s.
//! 3. The finished frontier set is journaled (`result.bin`) and broadcast
//!    as [`Response::Done`].
//!
//! # Crash recovery
//!
//! On startup the server replays its journal: every job directory's
//! evaluation-cache files are merged into the shared evaluator (warming it
//! across restarts), and every job with a spec but no result re-enters the
//! queue in id order. Because each job resumes from its own checkpoint
//! and the determinism contract fixes what a study computes, a job
//! interrupted by `kill -9` finishes with frontiers **bit-identical** to
//! an uninterrupted run — the only observable difference is cache traffic.
//!
//! Each cache entry the shared evaluator computes is appended once, to the
//! directory of whichever job saves next, so a job directory holds what
//! the daemon computed while it ran — not a copy of the whole shared
//! cache. The startup merge over every directory rebuilds the complete
//! cache; a job directory resumed on its own may recompute entries that
//! another job's directory holds.
//!
//! Sharing one evaluator across concurrent jobs is safe for the same
//! reason: the staged tiers are concurrent-safe and memoize pure
//! functions, so sharing changes speed, never results.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use fast_arch::Budget;
use fast_core::{
    warn, Evaluator, JobEntry, JobId, JobJournal, JobSpec, JobState, Objective, StagedCacheStats,
    SweepEvent, SweepRunner, SweepSession,
};

use crate::net::{Conn, ListenAddr, Listener};
use crate::protocol::{
    read_frame, write_frame, FrameError, JobEvent, JobPhase, RejectReason, Request, Response,
};

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub listen: ListenAddr,
    /// Journal root; created if absent, replayed if not.
    pub journal: PathBuf,
    /// Worker threads = jobs running concurrently (min 1).
    pub max_inflight: usize,
    /// FIFO queue capacity; a submit beyond it gets
    /// [`RejectReason::QueueFull`] (min 1).
    pub queue_capacity: usize,
    /// Per-connection read timeout between requests; `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl ServerConfig {
    /// Ephemeral-port localhost defaults around `journal`.
    #[must_use]
    pub fn at(journal: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            listen: ListenAddr::Tcp("127.0.0.1:0".to_string()),
            journal: journal.into(),
            max_inflight: 2,
            queue_capacity: 16,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Scheduler state guarded by one mutex: the FIFO queue, the in-flight
/// count, and the drain flag.
#[derive(Debug)]
struct Sched {
    queue: VecDeque<JobId>,
    running: usize,
    shutdown: bool,
}

/// Everything the threads share.
struct Shared {
    journal: JobJournal,
    /// The process-wide warm evaluator every job's session borrows.
    proto: Evaluator,
    sched: Mutex<Sched>,
    /// Signaled when the queue gains work or shutdown begins.
    work_ready: Condvar,
    /// Signaled when the last in-flight job finishes with an empty queue.
    idle: Condvar,
    /// Per-job event fan-out; entries removed at the job's terminal
    /// response.
    watchers: Mutex<HashMap<u64, Fanout>>,
    queue_capacity: usize,
}

/// Runs the daemon: replays the journal, binds, prints
/// `fast-serve listening on {addr}` to stdout (the line tooling parses for
/// the resolved port), and serves until a [`Request::Shutdown`] drains the
/// queue — at which point the process exits 0.
///
/// # Errors
/// Propagates journal-open and bind failures; per-connection and per-job
/// failures are handled in-protocol and never tear the daemon down.
pub fn serve(config: ServerConfig) -> io::Result<()> {
    let journal = JobJournal::open(&config.journal)?;
    let proto = Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default());

    // Recovery: warm the shared cache from every job's snapshot and
    // re-queue everything that has a spec but no result, in id order.
    let mut pending = VecDeque::new();
    for entry in journal.jobs()? {
        let ck = journal.checkpointer(entry.id)?;
        let report = proto.load_eval_cache(&ck.cache_path());
        if report.loaded() > 0 {
            warn::note(format_args!(
                "{}: warmed shared cache with {} entries",
                entry.id,
                report.loaded()
            ));
        }
        if entry.state == JobState::Pending {
            pending.push_back(entry.id);
        }
    }
    if !pending.is_empty() {
        warn::note(format_args!("resuming {} unfinished job(s) from the journal", pending.len()));
    }

    let listener = Listener::bind(&config.listen)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        journal,
        proto,
        sched: Mutex::new(Sched { queue: pending, running: 0, shutdown: false }),
        work_ready: Condvar::new(),
        idle: Condvar::new(),
        watchers: Mutex::new(HashMap::new()),
        queue_capacity: config.queue_capacity.max(1),
    });

    for worker in 0..config.max_inflight.max(1) {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(format!("fast-serve-worker-{worker}"))
            .spawn(move || worker_loop(&shared))?;
    }

    // The exact line tests and the CI smoke job parse; flush so a piped
    // stdout delivers it before the first job starts.
    println!("fast-serve listening on {addr}");
    io::stdout().flush()?;

    loop {
        match listener.accept() {
            Ok(conn) => {
                let shared = Arc::clone(&shared);
                let read_timeout = config.read_timeout;
                thread::Builder::new()
                    .name("fast-serve-conn".to_string())
                    .spawn(move || handle_conn(&shared, conn, read_timeout))?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Event fan-out
// ---------------------------------------------------------------------------

/// One job's event fan-out: live subscribers plus the backlog of every
/// event the job has emitted so far.
///
/// The backlog is what makes late attachment lossless: a job resumed at
/// daemon startup begins emitting (including degrade-to-cold warnings from
/// its snapshot load) *before* any client can possibly reconnect, so a
/// watcher registered mid-job first replays the backlog, then follows
/// live. Cleared with the entry at the job's terminal response — a
/// finished job's durable record is `result.bin`, not this buffer.
#[derive(Default)]
struct Fanout {
    subs: Vec<mpsc::Sender<Response>>,
    backlog: Vec<Response>,
}

/// Subscribes a new watcher to `id`'s event stream, replaying everything
/// the job already emitted. Replay and registration share one lock
/// acquisition with [`broadcast`], so the watcher sees every event exactly
/// once, in order.
fn register_watcher(shared: &Shared, id: u64) -> mpsc::Receiver<Response> {
    let (tx, rx) = mpsc::channel();
    let mut watchers = shared.watchers.lock().expect("watchers lock");
    let fanout = watchers.entry(id).or_default();
    for resp in &fanout.backlog {
        // A fresh channel with a live receiver cannot refuse.
        let _ = tx.send(resp.clone());
    }
    fanout.subs.push(tx);
    rx
}

/// Sends `resp` to every watcher of `id` (pruning the hung-up ones) and
/// appends it to the job's backlog for watchers yet to attach.
fn broadcast(shared: &Shared, id: u64, resp: &Response) {
    let mut watchers = shared.watchers.lock().expect("watchers lock");
    let fanout = watchers.entry(id).or_default();
    fanout.subs.retain(|tx| tx.send(resp.clone()).is_ok());
    fanout.backlog.push(resp.clone());
}

/// Sends the job's final response and drops its watcher list.
fn finish(shared: &Shared, id: u64, resp: &Response) {
    broadcast(shared, id, resp);
    shared.watchers.lock().expect("watchers lock").remove(&id);
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut sched = shared.sched.lock().expect("sched lock");
            loop {
                if let Some(id) = sched.queue.pop_front() {
                    sched.running += 1;
                    break id;
                }
                if sched.shutdown {
                    return;
                }
                sched = shared.work_ready.wait(sched).expect("sched lock");
            }
        };
        run_job(shared, id);
        let mut sched = shared.sched.lock().expect("sched lock");
        sched.running -= 1;
        if sched.running == 0 && sched.queue.is_empty() {
            shared.idle.notify_all();
        }
    }
}

/// Translates a sweep progress event to its wire form.
fn wire_event(ev: &SweepEvent) -> JobEvent {
    match ev {
        SweepEvent::ScenarioStarted { index, total, name } => {
            JobEvent::ScenarioStarted { index: *index, total: *total, name: name.clone() }
        }
        SweepEvent::Round {
            index,
            name,
            trials_done,
            total_trials,
            best_objective,
            frontier_size,
            full_evals,
        } => JobEvent::Round {
            index: *index,
            name: name.clone(),
            trials_done: *trials_done,
            total_trials: *total_trials,
            best_objective: *best_objective,
            frontier_size: *frontier_size,
            full_evals: *full_evals,
        },
        SweepEvent::ScenarioFinished { index, record, staged } => JobEvent::ScenarioFinished {
            index: *index,
            name: record.name.clone(),
            frontier_size: record.frontier_points.len(),
            best_objective: record.best_objective,
            invalid_trials: record.invalid_trials,
            staged: *staged,
            fidelity: record.fidelity.clone(),
        },
    }
}

/// Runs one job to completion on the current worker thread.
fn run_job(shared: &Shared, id: JobId) {
    let raw = id.0;
    let spec = match shared.journal.load_spec(id) {
        Ok(spec) => spec,
        Err(what) => {
            finish(shared, raw, &Response::Rejected { reason: RejectReason::Damaged { what } });
            return;
        }
    };
    // A job that already has a readable result (finished just before a
    // kill, re-queued by a racing restart) replays it instead of re-running.
    if shared.journal.has_result(id) {
        if let Ok(scenarios) = shared.journal.load_result(id) {
            let staged = StagedCacheStats::default();
            finish(shared, raw, &Response::Done { id: raw, scenarios, staged });
            return;
        }
        // Unreadable result: fall through and recompute it — the
        // checkpoint makes that cheap and the determinism contract makes
        // it bit-identical.
    }
    let ck = match shared.journal.checkpointer(id) {
        Ok(ck) => ck,
        Err(e) => {
            finish(
                shared,
                raw,
                &Response::Rejected { reason: RejectReason::Damaged { what: e.to_string() } },
            );
            return;
        }
    };
    let resumed = ck.sweep_path().exists();
    broadcast(shared, raw, &Response::Event { id: raw, event: JobEvent::Started { resumed } });

    // Warnings raised while this job runs (all on this thread — the sweep
    // drives rounds from the calling thread) stream to its watchers.
    let (warn_tx, warn_rx) = mpsc::channel::<String>();
    let result = thread::scope(|scope| {
        scope.spawn(|| {
            for line in warn_rx {
                broadcast(
                    shared,
                    raw,
                    &Response::Event { id: raw, event: JobEvent::Warning { line } },
                );
            }
        });
        let _sink = warn::route_to(warn_tx);
        let runner = SweepRunner::new(spec.matrix, spec.config);
        let mut observe = |ev: &SweepEvent| {
            broadcast(shared, raw, &Response::Event { id: raw, event: wire_event(ev) });
        };
        runner.run_session(SweepSession {
            evaluator: Some(&shared.proto),
            checkpointer: Some(&ck),
            // Always resume: with no checkpoint this degrades to a cold
            // run, so cold-start and crash-restart are one code path.
            resume: true,
            observer: Some(&mut observe),
        })
        // `_sink` drops here, closing the channel and ending the
        // forwarder before the scope joins it.
    });

    let records: Vec<_> = result.scenarios.iter().map(|s| s.record()).collect();
    if let Err(e) = shared.journal.record_result(id, &records) {
        broadcast(
            shared,
            raw,
            &Response::Event {
                id: raw,
                event: JobEvent::Warning {
                    line: format!("warning: could not journal the result of {id}: {e}"),
                },
            },
        );
    }
    finish(
        shared,
        raw,
        &Response::Done { id: raw, scenarios: records, staged: result.total_staged },
    );
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Serves one connection until it closes, times out, or sends a damaged
/// frame (answered with a typed reject, then closed).
fn handle_conn(shared: &Shared, mut conn: Conn, read_timeout: Option<Duration>) {
    let _ = conn.set_read_timeout(read_timeout);
    loop {
        let req = match read_frame::<Request>(&mut conn) {
            Ok(req) => req,
            Err(FrameError::Closed | FrameError::TimedOut) => return,
            Err(e) => {
                // Best-effort typed reject; the connection is unusable
                // afterwards (framing is lost), so close it either way.
                let _ = write_frame(
                    &mut conn,
                    &Response::Rejected { reason: RejectReason::BadFrame { what: e.to_string() } },
                );
                return;
            }
        };
        let keep_going = match req {
            Request::Ping => write_frame(&mut conn, &Response::Pong).is_ok(),
            Request::Submit { spec, watch } => handle_submit(shared, &mut conn, spec, watch),
            Request::Watch { id } => handle_watch(shared, &mut conn, id),
            Request::Status { id } => {
                let resp = match phase_of(shared, JobId(id)) {
                    Some(phase) => Response::JobStatus { id, phase },
                    None => Response::Rejected { reason: RejectReason::UnknownJob { id } },
                };
                write_frame(&mut conn, &resp).is_ok()
            }
            Request::List => {
                let resp = match list_jobs(shared) {
                    Ok(jobs) => Response::Jobs { jobs },
                    Err(e) => {
                        Response::Rejected { reason: RejectReason::Damaged { what: e.to_string() } }
                    }
                };
                write_frame(&mut conn, &resp).is_ok()
            }
            Request::Shutdown => {
                drain(shared);
                let _ = write_frame(&mut conn, &Response::ShuttingDown);
                std::process::exit(0);
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Structural validation run before a spec is journaled.
fn validate_spec(spec: &JobSpec) -> Result<(), String> {
    if spec.matrix.budgets.is_empty() {
        return Err("matrix has no budget levels".to_string());
    }
    if spec.matrix.objectives.is_empty() {
        return Err("matrix has no objectives".to_string());
    }
    if spec.matrix.domains.is_empty() {
        return Err("matrix has no workload domains".to_string());
    }
    if spec.config.trials == 0 {
        return Err("sweep config has a zero trial budget".to_string());
    }
    Ok(())
}

/// Admits, journals, and queues a submission; returns `false` when the
/// connection should close.
fn handle_submit(shared: &Shared, conn: &mut Conn, spec: JobSpec, watch: bool) -> bool {
    if let Err(what) = validate_spec(&spec) {
        return write_frame(conn, &Response::Rejected { reason: RejectReason::BadSpec { what } })
            .is_ok();
    }
    // Admission, journaling and queue insertion are one critical section:
    // ids are handed out in queue order and capacity is never oversubscribed.
    let admitted = {
        let mut sched = shared.sched.lock().expect("sched lock");
        if sched.shutdown {
            Err(RejectReason::ShuttingDown)
        } else if sched.queue.len() >= shared.queue_capacity {
            Err(RejectReason::QueueFull { capacity: shared.queue_capacity })
        } else {
            match shared.journal.create(&spec) {
                Ok(id) => {
                    let position = sched.queue.len();
                    // Subscribe before enqueueing so no event is missed.
                    let rx = watch.then(|| register_watcher(shared, id.0));
                    sched.queue.push_back(id);
                    shared.work_ready.notify_one();
                    Ok((id.0, position, rx))
                }
                Err(e) => {
                    Err(RejectReason::Damaged { what: format!("could not journal the spec: {e}") })
                }
            }
        }
    };
    match admitted {
        Err(reason) => write_frame(conn, &Response::Rejected { reason }).is_ok(),
        Ok((id, position, rx)) => {
            broadcast(shared, id, &Response::Event { id, event: JobEvent::Queued { position } });
            if write_frame(conn, &Response::Accepted { id, position }).is_err() {
                return false;
            }
            match rx {
                None => true,
                Some(rx) => stream_until_done(conn, &rx),
            }
        }
    }
}

/// Attaches `conn` to `id`'s event stream (finished jobs get an immediate
/// journal-replayed `Done`).
fn handle_watch(shared: &Shared, conn: &mut Conn, id: u64) -> bool {
    if !shared.journal.job_dir(JobId(id)).is_dir() {
        return write_frame(conn, &Response::Rejected { reason: RejectReason::UnknownJob { id } })
            .is_ok();
    }
    // Subscribe first, then check for a stored result: a job finishing in
    // between delivers through the subscription, never into a gap.
    let rx = register_watcher(shared, id);
    if shared.journal.has_result(JobId(id)) {
        // The subscription was only a race guard; a job with a stored
        // result answers from the journal and will never broadcast again,
        // so drop a fanout entry we created for nothing. (A non-empty
        // backlog means the job is *just now* finishing — its terminal
        // broadcast still needs the entry; it is removed there instead.)
        drop(rx);
        let mut watchers = shared.watchers.lock().expect("watchers lock");
        if watchers.get(&id).is_some_and(|f| f.backlog.is_empty()) {
            watchers.remove(&id);
        }
        drop(watchers);
        let resp = match shared.journal.load_result(JobId(id)) {
            Ok(scenarios) => Response::Done { id, scenarios, staged: StagedCacheStats::default() },
            Err(what) => Response::Rejected { reason: RejectReason::Damaged { what } },
        };
        return write_frame(conn, &resp).is_ok();
    }
    stream_until_done(conn, &rx)
}

/// Forwards events to the client until the job's terminal response; `true`
/// keeps the connection open for further requests.
fn stream_until_done(conn: &mut Conn, rx: &mpsc::Receiver<Response>) -> bool {
    for resp in rx {
        let terminal = matches!(resp, Response::Done { .. } | Response::Rejected { .. });
        if write_frame(conn, &resp).is_err() {
            return false;
        }
        if terminal {
            return true;
        }
    }
    // The channel closed without a terminal response (server tearing
    // down); nothing more will come, so close.
    false
}

/// Where `id` currently is, or `None` if no such job.
fn phase_of(shared: &Shared, id: JobId) -> Option<JobPhase> {
    if !shared.journal.job_dir(id).is_dir() {
        return None;
    }
    // Queue membership first: a queued job also has a readable spec.
    {
        let sched = shared.sched.lock().expect("sched lock");
        if let Some(position) = sched.queue.iter().position(|&q| q == id) {
            return Some(JobPhase::Queued { position });
        }
    }
    if shared.journal.has_result(id) {
        return Some(JobPhase::Done);
    }
    match shared.journal.load_spec(id) {
        Ok(_) => Some(JobPhase::Running),
        Err(what) => Some(JobPhase::Damaged { what }),
    }
}

/// Every journaled job with its current phase, id-ascending.
fn list_jobs(shared: &Shared) -> io::Result<Vec<(u64, JobPhase)>> {
    let entries = shared.journal.jobs()?;
    let sched = shared.sched.lock().expect("sched lock");
    Ok(entries
        .into_iter()
        .map(|JobEntry { id, state }| {
            let phase = match state {
                JobState::Done => JobPhase::Done,
                JobState::Damaged(what) => JobPhase::Damaged { what },
                JobState::Pending => match sched.queue.iter().position(|&q| q == id) {
                    Some(position) => JobPhase::Queued { position },
                    None => JobPhase::Running,
                },
            };
            (id.0, phase)
        })
        .collect())
}

/// Stops admissions and blocks until the queue and the workers drain.
fn drain(shared: &Shared) {
    let mut sched = shared.sched.lock().expect("sched lock");
    sched.shutdown = true;
    shared.work_ready.notify_all();
    while sched.running > 0 || !sched.queue.is_empty() {
        sched = shared.idle.wait(sched).expect("sched lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_core::{BudgetLevel, Fidelity, OptimizerKind, ScenarioMatrix, SweepConfig};
    use fast_models::WorkloadDomain;

    fn spec(trials: usize) -> JobSpec {
        JobSpec {
            name: "t".to_string(),
            matrix: ScenarioMatrix {
                budgets: vec![BudgetLevel::scaled(1.0)],
                objectives: vec![Objective::Qps],
                domains: vec![WorkloadDomain::by_name("EfficientNet-B0").expect("registry")],
            },
            config: SweepConfig {
                trials,
                optimizer: OptimizerKind::Random,
                seed: 1,
                batch: 4,
                seeds: Vec::new(),
                fidelity: Fidelity::Exact,
            },
        }
    }

    #[test]
    fn empty_axes_and_zero_trials_are_bad_specs() {
        assert!(validate_spec(&spec(8)).is_ok());
        let mut s = spec(8);
        s.matrix.domains.clear();
        assert!(validate_spec(&s).is_err());
        let mut s = spec(8);
        s.matrix.budgets.clear();
        assert!(validate_spec(&s).is_err());
        let mut s = spec(8);
        s.matrix.objectives.clear();
        assert!(validate_spec(&s).is_err());
        assert!(validate_spec(&spec(0)).is_err());
    }

    #[test]
    fn broadcast_prunes_hung_up_watchers() {
        let dir = std::env::temp_dir().join(format!("fast-serve-bc-{}", std::process::id()));
        let shared = Shared {
            journal: JobJournal::open(&dir).expect("journal"),
            proto: Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default()),
            sched: Mutex::new(Sched { queue: VecDeque::new(), running: 0, shutdown: false }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            watchers: Mutex::new(HashMap::new()),
            queue_capacity: 1,
        };
        let rx_live = register_watcher(&shared, 7);
        drop(register_watcher(&shared, 7)); // hung up immediately
        broadcast(&shared, 7, &Response::Pong);
        assert_eq!(rx_live.try_recv().expect("live watcher got it"), Response::Pong);
        assert_eq!(shared.watchers.lock().expect("lock")[&7].subs.len(), 1, "dead watcher pruned");

        // A watcher attaching *after* the broadcast replays the backlog —
        // the lossless-late-attach guarantee resumed jobs depend on.
        let rx_late = register_watcher(&shared, 7);
        assert_eq!(rx_late.try_recv().expect("backlog replayed"), Response::Pong);

        finish(&shared, 7, &Response::ShuttingDown);
        assert_eq!(rx_late.try_recv().expect("terminal delivered"), Response::ShuttingDown);
        assert!(
            shared.watchers.lock().expect("lock").get(&7).is_none(),
            "entry (subs + backlog) dropped at the terminal response"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
