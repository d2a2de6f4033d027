//! A blocking client for the `fast-serve` protocol: dial, submit, watch,
//! and collect a job's full outcome.
//!
//! The client is deliberately thin — one request, one read, no hidden
//! state machine — so tests can also speak the protocol by hand (or
//! deliberately mis-speak it) against the same [`crate::net::Conn`].

use std::io;
use std::time::Duration;

use fast_core::{CompletedScenario, StagedCacheStats};

use crate::net::{Conn, ListenAddr};
use crate::protocol::{
    read_frame, write_frame, FrameError, JobEvent, RejectReason, Request, Response,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing layer failed.
    Frame(FrameError),
    /// The server refused the request with a typed reason.
    Rejected(RejectReason),
    /// The server answered with a response the call did not expect.
    Unexpected(String),
    /// Dialing or socket setup failed.
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Rejected(r) => write!(f, "rejected: {r}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Everything a watched job produced, assembled from its event stream.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's durable id.
    pub id: u64,
    /// Per-scenario records in matrix order — bit-identical to a
    /// single-process sweep of the same spec.
    pub scenarios: Vec<CompletedScenario>,
    /// Per-stage traffic: the delta of the daemon's shared evaluator
    /// counters across the job, so it includes the lookups of jobs running
    /// at the same time (`--max-inflight` above 1). Zero when the result
    /// was replayed from the journal.
    pub staged: StagedCacheStats,
    /// Every event streamed while watching, in arrival order.
    pub events: Vec<JobEvent>,
    /// The [`JobEvent::Warning`] lines, extracted for convenience.
    pub warnings: Vec<String>,
}

/// A blocking connection to a `fast-serve` daemon.
#[derive(Debug)]
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Dials the daemon.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: &ListenAddr) -> io::Result<Client> {
        Ok(Client { conn: Conn::connect(addr)? })
    }

    /// Bounds how long a read waits (`None` = forever). Watching a long
    /// job needs either `None` or a bound beyond its round cadence.
    ///
    /// # Errors
    /// Propagates setsockopt failures.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(dur)
    }

    /// Sends one request without awaiting a response.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.conn, req)
    }

    /// Reads the next response frame.
    ///
    /// # Errors
    /// Propagates frame errors; see [`FrameError`].
    pub fn read_response(&mut self) -> Result<Response, FrameError> {
        read_frame(&mut self.conn)
    }

    /// One request, one response.
    ///
    /// # Errors
    /// Propagates write and frame failures.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req).map_err(|e| ClientError::Frame(FrameError::Io(e)))?;
        Ok(self.read_response()?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Fails unless the server answers [`Response::Pong`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submits a job; returns `(id, queue position)`.
    ///
    /// With `watch: true` the connection then streams events — follow up
    /// with [`Client::wait_done`].
    ///
    /// # Errors
    /// Typed rejection, frame damage, or an unexpected response.
    pub fn submit(
        &mut self,
        spec: &fast_core::JobSpec,
        watch: bool,
    ) -> Result<(u64, usize), ClientError> {
        let req = Request::Submit { spec: spec.clone(), watch };
        match self.request(&req)? {
            Response::Accepted { id, position } => Ok((id, position)),
            Response::Rejected { reason } => Err(ClientError::Rejected(reason)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Consumes the event stream of the most recent watched submission (or
    /// [`Request::Watch`]) until the job's terminal response.
    ///
    /// # Errors
    /// Typed rejection (the job's terminal state was a reject), frame
    /// damage, or an unexpected response.
    pub fn wait_done(&mut self, id: u64) -> Result<JobOutcome, ClientError> {
        let mut events = Vec::new();
        let mut warnings = Vec::new();
        loop {
            match self.read_response()? {
                Response::Event { id: ev_id, event } if ev_id == id => {
                    if let JobEvent::Warning { line } = &event {
                        warnings.push(line.clone());
                    }
                    events.push(event);
                }
                Response::Done { id: done_id, scenarios, staged } if done_id == id => {
                    return Ok(JobOutcome { id, scenarios, staged, events, warnings });
                }
                Response::Rejected { reason } => return Err(ClientError::Rejected(reason)),
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }

    /// Submit-and-watch in one call.
    ///
    /// # Errors
    /// As [`Client::submit`] and [`Client::wait_done`].
    pub fn run(&mut self, spec: &fast_core::JobSpec) -> Result<JobOutcome, ClientError> {
        let (id, _position) = self.submit(spec, true)?;
        self.wait_done(id)
    }

    /// Attaches to an existing job and waits for its result.
    ///
    /// # Errors
    /// As [`Client::wait_done`]; unknown ids surface as a typed rejection.
    pub fn watch(&mut self, id: u64) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Watch { id }).map_err(|e| ClientError::Frame(FrameError::Io(e)))?;
        self.wait_done(id)
    }

    /// Asks the server to drain and exit; resolves when it confirms.
    ///
    /// # Errors
    /// Fails unless the server answers [`Response::ShuttingDown`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
