//! # fast-serve — search as a service
//!
//! A crash-safe job server for the FAST stack: clients submit declarative
//! study requests (a [`fast_core::ScenarioMatrix`] plus a
//! [`fast_core::SweepConfig`], together a [`fast_core::JobSpec`]) over a
//! TCP or Unix socket; the daemon runs them as Pareto sweeps against **one
//! process-wide warm evaluation cache**, streams incremental
//! frontier/round events back, and journals everything so that a
//! `kill -9` at any instant loses no accepted work — a restarted server
//! resumes every in-flight job and finishes it **bit-identically**.
//!
//! The crate splits along the obvious seams:
//!
//! * [`protocol`] — the framed wire format (`FASTSRV1`), message types,
//!   and the typed [`protocol::FrameError`] taxonomy. Damaged traffic is
//!   rejected, never mis-read.
//! * [`net`] — the transport-erased socket layer (`tcp:HOST:PORT` /
//!   `unix:PATH`).
//! * [`server`] — admission control, the FIFO queue, worker threads,
//!   event fan-out, per-job warning capture, and journal replay.
//! * [`client`] — a thin blocking client used by `fast-serve-client` and
//!   the test battery.
//!
//! Correctness leans entirely on contracts the lower layers already
//! guarantee: the determinism contract (same spec ⇒ same study, whatever
//! the cache temperature), the [`fast_core::Checkpointer`]'s append-only
//! cache files (whose torn tails a resume drops), and the
//! [`fast_core::JobJournal`]'s atomic spec/result records. The server adds no state of its own that needs to survive a
//! crash — the journal directory *is* the server's durable state.

pub mod client;
pub mod net;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, JobOutcome};
/// The per-stage counters on the wire, under their pre-v4 name.
pub use fast_core::StagedCacheStats as StagedTraffic;
pub use net::{Conn, ListenAddr, Listener};
pub use protocol::{
    read_frame, write_frame, FrameError, JobEvent, JobPhase, RejectReason, Request, Response,
    MAGIC, MAX_FRAME, VERSION,
};
pub use server::{serve, ServerConfig};
