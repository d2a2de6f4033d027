//! The `fast-serve` wire protocol: length-prefixed, checksummed frames
//! carrying [`Request`]s client→server and [`Response`]s server→client.
//!
//! # Frame layout
//!
//! Every frame is exactly the [`serde::bin`] snapshot envelope applied to a
//! socket — an 8-byte magic (`FASTSRV1`), a `u32` protocol version, a `u64`
//! payload length, a `u64` FNV-1a payload checksum, then the payload, all
//! little-endian (see [`bin::write_envelope`]; a unit test pins the
//! byte-for-byte equivalence). Reusing the snapshot container means the
//! wire format inherits the same damage detection the on-disk caches
//! already trust: truncation, version skew, and bit rot each surface as a
//! distinct [`FrameError`], never as a mis-decoded message.
//!
//! The length field is validated against [`MAX_FRAME`] *before* the payload
//! is read, so a hostile or corrupt length claim costs a rejected header,
//! not an allocation.
//!
//! # Error discipline
//!
//! [`read_frame`] never panics and never returns a partially-decoded
//! message. Every failure mode is a typed [`FrameError`]; the server
//! answers decodable-but-damaged traffic with
//! [`Response::Rejected`]`(`[`RejectReason::BadFrame`]`)` and closes the
//! connection, so a fuzzer sees a typed reject or a clean close — never a
//! hang and never a crash.
//!
//! # Counters
//!
//! Cache and solver counters travel as core's own record,
//! [`StagedCacheStats`] (op, sim and fuse tiers plus the exact solver),
//! through the codec next to that type, the way [`FidelityReport`] and
//! [`CompletedScenario`] travel. The protocol declares no counter types.

use std::io::{self, Read, Write};

use fast_core::{CompletedScenario, FidelityReport, JobSpec, StagedCacheStats};
use serde::bin::{self, Decode, DecodeError, Encode, Reader, Writer};

/// Frame magic: the protocol's on-wire name.
pub const MAGIC: [u8; 8] = *b"FASTSRV1";

/// Protocol version; both sides must agree exactly. Version 2 added the
/// multi-fidelity fields: [`JobEvent::Round::full_evals`] and
/// [`JobEvent::ScenarioFinished::fidelity`]. Version 3 added the per-job
/// exact-solver counters (warm-start hit rate, branch-and-bound node
/// counts, simplex pivots). Version 4 dropped the fuse-only `cache`
/// counters beside `staged` (they repeated `staged.fuse`) and carries
/// core's [`StagedCacheStats`] record itself.
pub const VERSION: u32 = 4;

/// Hard ceiling on a frame payload. A header claiming more is rejected
/// before any payload byte is read or allocated.
pub const MAX_FRAME: u64 = 16 * 1024 * 1024;

/// Byte length of the frame header ([`bin::ENVELOPE_HEADER_LEN`]).
pub const HEADER_LEN: usize = bin::ENVELOPE_HEADER_LEN;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Submit a study job. The server journals the spec durably *before*
    /// acknowledging, so an accepted job survives any later crash.
    Submit {
        /// What to run: a scenario matrix plus its sweep configuration.
        spec: JobSpec,
        /// `true` keeps the connection open streaming [`JobEvent`]s until
        /// the job's [`Response::Done`]; `false` returns after
        /// [`Response::Accepted`].
        watch: bool,
    },
    /// Attach to an existing job's event stream (finished jobs answer with
    /// an immediate [`Response::Done`] replayed from the journal).
    Watch {
        /// The job to watch.
        id: u64,
    },
    /// One-shot state query for a job.
    Status {
        /// The job to query.
        id: u64,
    },
    /// List every journaled job and its state.
    List,
    /// Drain the queue and exit: no new submissions are accepted, running
    /// and queued jobs finish, then the server responds
    /// [`Response::ShuttingDown`] and exits 0.
    Shutdown,
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Ping => w.put_u8(0),
            Request::Submit { spec, watch } => {
                w.put_u8(1);
                spec.encode(w);
                watch.encode(w);
            }
            Request::Watch { id } => {
                w.put_u8(2);
                w.put_u64(*id);
            }
            Request::Status { id } => {
                w.put_u8(3);
                w.put_u64(*id);
            }
            Request::List => w.put_u8(4),
            Request::Shutdown => w.put_u8(5),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => Request::Ping,
            1 => Request::Submit { spec: Decode::decode(r)?, watch: Decode::decode(r)? },
            2 => Request::Watch { id: r.get_u64()? },
            3 => Request::Status { id: r.get_u64()? },
            4 => Request::List,
            5 => Request::Shutdown,
            tag => {
                return Err(DecodeError { offset: 0, what: format!("invalid Request tag {tag}") })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted but not yet started; `position` is its place in the FIFO
    /// queue (0 = next to run).
    Queued {
        /// Jobs ahead of it.
        position: usize,
    },
    /// A worker is running it right now.
    Running,
    /// Finished; its result is journaled.
    Done,
    /// Its journal entry cannot be read back.
    Damaged {
        /// What the journal reported.
        what: String,
    },
}

impl Encode for JobPhase {
    fn encode(&self, w: &mut Writer) {
        match self {
            JobPhase::Queued { position } => {
                w.put_u8(0);
                position.encode(w);
            }
            JobPhase::Running => w.put_u8(1),
            JobPhase::Done => w.put_u8(2),
            JobPhase::Damaged { what } => {
                w.put_u8(3);
                what.encode(w);
            }
        }
    }
}

impl Decode for JobPhase {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => JobPhase::Queued { position: Decode::decode(r)? },
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Damaged { what: Decode::decode(r)? },
            tag => {
                return Err(DecodeError { offset: 0, what: format!("invalid JobPhase tag {tag}") })
            }
        })
    }
}

/// Why the server refused a request. Every refusal is typed — a client can
/// distinguish "your bytes were damaged" from "the queue is full" without
/// string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The frame failed validation (truncation, version skew, oversized
    /// length claim, checksum mismatch, undecodable payload). The
    /// connection is closed after this reply.
    BadFrame {
        /// The [`FrameError`] rendered for transport.
        what: String,
    },
    /// Admission control: the FIFO queue is at capacity. Resubmit later.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// No journaled job has this id.
    UnknownJob {
        /// The id asked for.
        id: u64,
    },
    /// The spec is structurally invalid (e.g. an empty matrix axis).
    BadSpec {
        /// What is wrong with it.
        what: String,
    },
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The job's journal entry exists but cannot be read back (damaged
    /// spec or result file).
    Damaged {
        /// What the journal reported.
        what: String,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::BadFrame { what } => write!(f, "bad frame: {what}"),
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::UnknownJob { id } => write!(f, "unknown job {id}"),
            RejectReason::BadSpec { what } => write!(f, "bad spec: {what}"),
            RejectReason::ShuttingDown => write!(f, "server is shutting down"),
            RejectReason::Damaged { what } => write!(f, "journal entry damaged: {what}"),
        }
    }
}

impl Encode for RejectReason {
    fn encode(&self, w: &mut Writer) {
        match self {
            RejectReason::BadFrame { what } => {
                w.put_u8(0);
                what.encode(w);
            }
            RejectReason::QueueFull { capacity } => {
                w.put_u8(1);
                capacity.encode(w);
            }
            RejectReason::UnknownJob { id } => {
                w.put_u8(2);
                w.put_u64(*id);
            }
            RejectReason::BadSpec { what } => {
                w.put_u8(3);
                what.encode(w);
            }
            RejectReason::ShuttingDown => w.put_u8(4),
            RejectReason::Damaged { what } => {
                w.put_u8(5);
                what.encode(w);
            }
        }
    }
}

impl Decode for RejectReason {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => RejectReason::BadFrame { what: Decode::decode(r)? },
            1 => RejectReason::QueueFull { capacity: Decode::decode(r)? },
            2 => RejectReason::UnknownJob { id: r.get_u64()? },
            3 => RejectReason::BadSpec { what: Decode::decode(r)? },
            4 => RejectReason::ShuttingDown,
            5 => RejectReason::Damaged { what: Decode::decode(r)? },
            tag => {
                return Err(DecodeError {
                    offset: 0,
                    what: format!("invalid RejectReason tag {tag}"),
                })
            }
        })
    }
}

/// A progress event streamed to watchers while a job runs — the wire form
/// of the sweep's [`fast_core::SweepEvent`] stream plus serve-side
/// lifecycle markers.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job entered the FIFO queue at `position`.
    Queued {
        /// Jobs ahead of it at admission time.
        position: usize,
    },
    /// A worker picked the job up. `resumed` is `true` when a checkpoint
    /// from a previous (killed) server run was found in its job directory.
    Started {
        /// Whether a prior checkpoint is being resumed.
        resumed: bool,
    },
    /// A scenario's Pareto study is starting.
    ScenarioStarted {
        /// 0-based position in the job's scenario list.
        index: usize,
        /// Scenarios in the job.
        total: usize,
        /// `"{domain}/{budget}/{objective}"`.
        name: String,
    },
    /// A study round finished.
    Round {
        /// Position of the running scenario.
        index: usize,
        /// The running scenario's name.
        name: String,
        /// Trials evaluated so far.
        trials_done: usize,
        /// The scenario's trial budget.
        total_trials: usize,
        /// Best objective so far (`None` while all-invalid).
        best_objective: Option<f64>,
        /// Size of the non-dominated set so far.
        frontier_size: usize,
        /// Trials fully simulated so far — `Some` iff the job runs with
        /// [`fast_core::Fidelity::Screened`], where it lags `trials_done`
        /// by the surrogate-screened-out count.
        full_evals: Option<usize>,
    },
    /// A scenario finished; counts plus the cache traffic seen while it ran.
    ScenarioFinished {
        /// Position in the job's scenario list.
        index: usize,
        /// The finished scenario's name.
        name: String,
        /// Its non-dominated set size.
        frontier_size: usize,
        /// Best objective value observed.
        best_objective: Option<f64>,
        /// Safe-search rejections in its study.
        invalid_trials: usize,
        /// Per-stage traffic: the delta of the daemon's shared evaluator
        /// counters across this scenario. Jobs running at the same time
        /// (`--max-inflight` above 1) add their lookups to it too.
        staged: StagedCacheStats,
        /// Surrogate-screening accounting (full-sim count, screened-out
        /// count, surrogate-vs-true rank correlations) — `Some` iff the
        /// job ran with [`fast_core::Fidelity::Screened`].
        fidelity: Option<FidelityReport>,
    },
    /// A warning the evaluation stack raised while this job ran (e.g. a
    /// cache snapshot degraded to cold), captured via the
    /// [`fast_core::warn`] sink.
    Warning {
        /// The warning line, as the stack rendered it.
        line: String,
    },
}

impl Encode for JobEvent {
    fn encode(&self, w: &mut Writer) {
        match self {
            JobEvent::Queued { position } => {
                w.put_u8(0);
                position.encode(w);
            }
            JobEvent::Started { resumed } => {
                w.put_u8(1);
                resumed.encode(w);
            }
            JobEvent::ScenarioStarted { index, total, name } => {
                w.put_u8(2);
                index.encode(w);
                total.encode(w);
                name.encode(w);
            }
            JobEvent::Round {
                index,
                name,
                trials_done,
                total_trials,
                best_objective,
                frontier_size,
                full_evals,
            } => {
                w.put_u8(3);
                index.encode(w);
                name.encode(w);
                trials_done.encode(w);
                total_trials.encode(w);
                best_objective.encode(w);
                frontier_size.encode(w);
                full_evals.encode(w);
            }
            JobEvent::ScenarioFinished {
                index,
                name,
                frontier_size,
                best_objective,
                invalid_trials,
                staged,
                fidelity,
            } => {
                w.put_u8(4);
                index.encode(w);
                name.encode(w);
                frontier_size.encode(w);
                best_objective.encode(w);
                invalid_trials.encode(w);
                staged.encode(w);
                fidelity.encode(w);
            }
            JobEvent::Warning { line } => {
                w.put_u8(5);
                line.encode(w);
            }
        }
    }
}

impl Decode for JobEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => JobEvent::Queued { position: Decode::decode(r)? },
            1 => JobEvent::Started { resumed: Decode::decode(r)? },
            2 => JobEvent::ScenarioStarted {
                index: Decode::decode(r)?,
                total: Decode::decode(r)?,
                name: Decode::decode(r)?,
            },
            3 => JobEvent::Round {
                index: Decode::decode(r)?,
                name: Decode::decode(r)?,
                trials_done: Decode::decode(r)?,
                total_trials: Decode::decode(r)?,
                best_objective: Decode::decode(r)?,
                frontier_size: Decode::decode(r)?,
                full_evals: Decode::decode(r)?,
            },
            4 => JobEvent::ScenarioFinished {
                index: Decode::decode(r)?,
                name: Decode::decode(r)?,
                frontier_size: Decode::decode(r)?,
                best_objective: Decode::decode(r)?,
                invalid_trials: Decode::decode(r)?,
                staged: Decode::decode(r)?,
                fidelity: Decode::decode(r)?,
            },
            5 => JobEvent::Warning { line: Decode::decode(r)? },
            tag => {
                return Err(DecodeError { offset: 0, what: format!("invalid JobEvent tag {tag}") })
            }
        })
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The job was journaled and queued.
    Accepted {
        /// Its durable id (stable across server restarts).
        id: u64,
        /// Its place in the FIFO queue at admission (0 = next to run).
        position: usize,
    },
    /// The request was refused; see [`RejectReason`].
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// A streamed progress event for a watched job.
    Event {
        /// The job it belongs to.
        id: u64,
        /// What happened.
        event: JobEvent,
    },
    /// A watched job finished; the full result, bit-identical to what a
    /// single-process sweep of the same spec would produce.
    Done {
        /// The finished job.
        id: u64,
        /// Per-scenario records in matrix order.
        scenarios: Vec<CompletedScenario>,
        /// Per-stage traffic: the delta of the daemon's shared evaluator
        /// counters across the whole job, so it includes the lookups of
        /// jobs running at the same time (`--max-inflight` above 1). Zero
        /// when the result was replayed from the journal.
        staged: StagedCacheStats,
    },
    /// Answer to [`Request::Status`].
    JobStatus {
        /// The queried job.
        id: u64,
        /// Where it is.
        phase: JobPhase,
    },
    /// Answer to [`Request::List`]: every journaled job, id-ascending.
    Jobs {
        /// `(id, phase)` pairs.
        jobs: Vec<(u64, JobPhase)>,
    },
    /// Answer to [`Request::Shutdown`], sent after the queue drained.
    ShuttingDown,
}

impl Encode for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Pong => w.put_u8(0),
            Response::Accepted { id, position } => {
                w.put_u8(1);
                w.put_u64(*id);
                position.encode(w);
            }
            Response::Rejected { reason } => {
                w.put_u8(2);
                reason.encode(w);
            }
            Response::Event { id, event } => {
                w.put_u8(3);
                w.put_u64(*id);
                event.encode(w);
            }
            Response::Done { id, scenarios, staged } => {
                w.put_u8(4);
                w.put_u64(*id);
                scenarios.encode(w);
                staged.encode(w);
            }
            Response::JobStatus { id, phase } => {
                w.put_u8(5);
                w.put_u64(*id);
                phase.encode(w);
            }
            Response::Jobs { jobs } => {
                w.put_u8(6);
                jobs.encode(w);
            }
            Response::ShuttingDown => w.put_u8(7),
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.get_u8()? {
            0 => Response::Pong,
            1 => Response::Accepted { id: r.get_u64()?, position: Decode::decode(r)? },
            2 => Response::Rejected { reason: Decode::decode(r)? },
            3 => Response::Event { id: r.get_u64()?, event: Decode::decode(r)? },
            4 => Response::Done {
                id: r.get_u64()?,
                scenarios: Decode::decode(r)?,
                staged: Decode::decode(r)?,
            },
            5 => Response::JobStatus { id: r.get_u64()?, phase: Decode::decode(r)? },
            6 => Response::Jobs { jobs: Decode::decode(r)? },
            7 => Response::ShuttingDown,
            tag => {
                return Err(DecodeError { offset: 0, what: format!("invalid Response tag {tag}") })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be read. Every connection-terminating condition is
/// one of these — [`read_frame`] never panics and never blocks forever on a
/// stream with a read timeout set.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-frame (a partial header or payload).
    Truncated {
        /// Bytes the frame needed.
        wanted: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The stream's read timeout elapsed.
    TimedOut,
    /// The first 8 bytes were not [`MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: [u8; 8],
    },
    /// The header carried a different protocol version.
    VersionSkew {
        /// The peer's version.
        got: u32,
        /// Ours ([`VERSION`]).
        want: u32,
    },
    /// The header claimed a payload larger than [`MAX_FRAME`]; nothing
    /// past the header was read.
    Oversized {
        /// The claimed payload length.
        claimed: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// The payload arrived but failed its checksum or did not decode as
    /// the expected message (bit flips, trailing garbage).
    Corrupt {
        /// What exactly failed.
        what: String,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { wanted, got } => {
                write!(f, "truncated frame: wanted {wanted} bytes, got {got}")
            }
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            FrameError::VersionSkew { got, want } => {
                write!(f, "protocol version {got}, expected {want}")
            }
            FrameError::Oversized { claimed, max } => {
                write!(f, "frame claims {claimed} payload bytes, limit is {max}")
            }
            FrameError::Corrupt { what } => write!(f, "corrupt frame: {what}"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    fn from_io(e: io::Error) -> FrameError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
            _ => FrameError::Io(e),
        }
    }
}

/// Encodes `msg` and writes it as one frame.
///
/// # Errors
/// Propagates stream write failures.
pub fn write_frame(stream: &mut impl Write, msg: &impl Encode) -> io::Result<()> {
    let mut w = Writer::new();
    msg.encode(&mut w);
    let frame = bin::write_envelope(MAGIC, VERSION, &w.into_bytes());
    stream.write_all(&frame)?;
    stream.flush()
}

/// Reads exactly `buf.len()` bytes. `read_so_far` distinguishes a clean
/// close at a frame boundary ([`FrameError::Closed`]) from mid-frame
/// truncation.
fn read_full(
    stream: &mut impl Read,
    buf: &mut [u8],
    frame_bytes_before: usize,
    frame_total: usize,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if frame_bytes_before + filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated {
                        wanted: frame_total,
                        got: frame_bytes_before + filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::from_io(e)),
        }
    }
    Ok(())
}

/// Reads one frame and decodes its payload as `T`.
///
/// The header is parsed field-by-field so each failure mode maps to its own
/// [`FrameError`]; the payload length is checked against [`MAX_FRAME`]
/// before any payload byte is read.
///
/// # Errors
/// See [`FrameError`] — this is the complete taxonomy; no variant panics.
pub fn read_frame<T: Decode>(stream: &mut impl Read) -> Result<T, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(stream, &mut header, 0, HEADER_LEN)?;

    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[..8]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(FrameError::VersionSkew { got: version, want: VERSION });
    }
    let len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { claimed: len, max: MAX_FRAME });
    }
    let checksum = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));

    let payload_len = usize::try_from(len).expect("len <= MAX_FRAME fits usize");
    let mut payload = vec![0u8; payload_len];
    read_full(stream, &mut payload, HEADER_LEN, HEADER_LEN + payload_len)?;

    let computed = bin::fnv1a(&payload);
    if computed != checksum {
        return Err(FrameError::Corrupt {
            what: format!(
                "checksum mismatch over {payload_len} payload bytes (stored {checksum:#018x}, \
                 computed {computed:#018x})"
            ),
        });
    }

    let mut r = Reader::new(&payload);
    let msg = T::decode(&mut r).map_err(|e| FrameError::Corrupt {
        what: format!("payload byte {}: {}", e.offset, e.what),
    })?;
    if !r.is_done() {
        return Err(FrameError::Corrupt {
            what: format!("{} trailing bytes after message", r.remaining()),
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_core::{
        BudgetLevel, CacheStats, Fidelity, Objective, OptimizerKind, ScenarioMatrix, SolverStats,
        SurrogateTier, SweepConfig,
    };
    use fast_models::WorkloadDomain;

    fn sample_spec() -> JobSpec {
        JobSpec {
            name: "smoke".to_string(),
            matrix: ScenarioMatrix {
                budgets: vec![BudgetLevel::scaled(1.0)],
                objectives: vec![Objective::Qps],
                domains: vec![WorkloadDomain::by_name("EfficientNet-B0").expect("registry name")],
            },
            config: SweepConfig {
                trials: 8,
                optimizer: OptimizerKind::Random,
                seed: 7,
                batch: 4,
                seeds: Vec::new(),
                fidelity: Fidelity::Screened {
                    keep_fraction: 0.25,
                    min_full: 2,
                    tier: SurrogateTier::S1,
                },
            },
        }
    }

    /// Counters `first, first + 1, …, first + 10` in field order, so a
    /// codec that swaps two fields cannot round-trip.
    fn distinct_staged(first: u64) -> StagedCacheStats {
        let n = |i: u64| first + i;
        StagedCacheStats {
            op: CacheStats { hits: n(0), misses: n(1) },
            sim: CacheStats { hits: n(2), misses: n(3) },
            fuse: CacheStats { hits: n(4), misses: n(5) },
            solver: SolverStats {
                warm_hits: n(6),
                warm_misses: n(7),
                warm_nodes: n(8),
                cold_nodes: n(9),
                lp_pivots: n(10),
            },
        }
    }

    fn frame_of(msg: &impl Encode) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).expect("Vec<u8> never fails to write");
        buf
    }

    #[test]
    fn frames_are_exactly_the_bin_envelope() {
        let msg = Request::Ping;
        let mut w = Writer::new();
        msg.encode(&mut w);
        let payload = w.into_bytes();
        assert_eq!(frame_of(&msg), bin::write_envelope(MAGIC, VERSION, &payload));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Submit { spec: sample_spec(), watch: true },
            Request::Watch { id: 3 },
            Request::Status { id: 9 },
            Request::List,
            Request::Shutdown,
        ];
        for req in reqs {
            let buf = frame_of(&req);
            let back: Request = read_frame(&mut buf.as_slice()).expect("clean frame");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong,
            Response::Accepted { id: 1, position: 0 },
            Response::Rejected { reason: RejectReason::QueueFull { capacity: 4 } },
            Response::Event {
                id: 1,
                event: JobEvent::Round {
                    index: 0,
                    name: "d/1.00x/qps".to_string(),
                    trials_done: 8,
                    total_trials: 32,
                    best_objective: Some(123.5),
                    frontier_size: 3,
                    full_evals: None,
                },
            },
            Response::Event {
                id: 4,
                event: JobEvent::Round {
                    index: 1,
                    name: "d/1.00x/qps".to_string(),
                    trials_done: 16,
                    total_trials: 32,
                    best_objective: Some(123.5),
                    frontier_size: 3,
                    full_evals: Some(5),
                },
            },
            Response::Event {
                id: 4,
                event: JobEvent::ScenarioFinished {
                    index: 1,
                    name: "d/1.00x/qps".to_string(),
                    frontier_size: 3,
                    best_objective: Some(123.5),
                    invalid_trials: 2,
                    staged: distinct_staged(1),
                    fidelity: Some(fast_core::FidelityReport {
                        tier: SurrogateTier::S0,
                        keep_fraction: 0.25,
                        min_full: 2,
                        full_evals: 9,
                        screened_out: 23,
                        pairs: 9,
                        spearman: Some(0.9),
                        kendall: Some(0.8),
                    }),
                },
            },
            Response::Done { id: 1, scenarios: Vec::new(), staged: distinct_staged(4) },
            Response::JobStatus { id: 2, phase: JobPhase::Queued { position: 1 } },
            Response::Jobs {
                jobs: vec![(1, JobPhase::Done), (2, JobPhase::Damaged { what: "x".into() })],
            },
            Response::ShuttingDown,
        ];
        for resp in resps {
            let buf = frame_of(&resp);
            let back: Response = read_frame(&mut buf.as_slice()).expect("clean frame");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn clean_eof_at_frame_boundary_is_closed() {
        let empty: &[u8] = &[];
        match read_frame::<Request>(&mut { empty }) {
            Err(FrameError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_at_every_cut_point() {
        let full = frame_of(&Request::Submit { spec: sample_spec(), watch: false });
        // Cut inside the header and inside the payload.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 1, full.len() - 1] {
            let mut short = &full[..cut];
            match read_frame::<Request>(&mut short) {
                Err(FrameError::Truncated { wanted, got }) => {
                    assert_eq!(got, cut);
                    assert!(wanted > cut, "wanted {wanted} should exceed the {cut} sent");
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut w = Writer::new();
        Request::Ping.encode(&mut w);
        let buf = bin::write_envelope(MAGIC, VERSION + 1, &w.into_bytes());
        match read_frame::<Request>(&mut buf.as_slice()) {
            Err(FrameError::VersionSkew { got, want }) => {
                assert_eq!(got, VERSION + 1);
                assert_eq!(want, VERSION);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = frame_of(&Request::Ping);
        buf[0] ^= 0xff;
        match read_frame::<Request>(&mut buf.as_slice()) {
            Err(FrameError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_claim_is_rejected_from_the_header_alone() {
        // A header claiming 2^40 payload bytes, followed by nothing: the
        // reader must reject it without waiting for (or allocating) the
        // claimed payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_frame::<Request>(&mut buf.as_slice()) {
            Err(FrameError::Oversized { claimed, max }) => {
                assert_eq!(claimed, 1u64 << 40);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected_never_misread() {
        let req = Request::Submit { spec: sample_spec(), watch: true };
        let clean = frame_of(&req);
        for i in 0..clean.len() {
            let mut bent = clean.clone();
            bent[i] ^= 0x01;
            match read_frame::<Request>(&mut bent.as_slice()) {
                Err(_) => {}
                // A flip in the payload *could* in principle still decode —
                // but then the checksum must have caught it first, so
                // reaching Ok means the frame was untouched semantically,
                // which a 1-bit XOR cannot be.
                Ok(back) => panic!("flip at byte {i} decoded as {back:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_inside_the_payload_is_corrupt() {
        let mut w = Writer::new();
        Request::Ping.encode(&mut w);
        let mut payload = w.into_bytes();
        payload.push(0xEE);
        let buf = bin::write_envelope(MAGIC, VERSION, &payload);
        match read_frame::<Request>(&mut buf.as_slice()) {
            Err(FrameError::Corrupt { what }) => assert!(what.contains("trailing")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
