//! Trace-replay load generator: one epoll client over real sockets.
//!
//! [`replay`] runs a [`Trace`] over `clients` connections from
//! `min(clients, available_parallelism)` threads. Every connection is
//! established — `Hello`/`HelloAck` included — before any thread starts;
//! each thread then owns an epoll instance and a share of the connections,
//! and sleeps in [`Epoll::wait`] until an answer arrives or its next send
//! is due. Two pacings, matching the two standard ways serving papers load
//! a system:
//!
//! - **Open loop** ([`LoadMode::Open`]): each request leaves at its trace
//!   arrival divided by the server's time scale, regardless of how fast
//!   answers come back. This is the paper's evaluation discipline —
//!   arrival pressure does not relent when the server slows down, so
//!   overload shows up as shed responses rather than as a silently
//!   throttled offered rate.
//! - **Closed loop** ([`LoadMode::Closed`]): each connection keeps a fixed
//!   window of requests outstanding and sends the next one only when an
//!   answer arrives. Offered load self-limits to the server's capacity;
//!   useful for measuring peak sustainable throughput.
//!
//! A connection storm — thousands of sockets held open at once — is a
//! replay too: a [`burst`] of `conns × k` requests that all arrive at 0,
//! with [`LoadGenConfig::hold`] keeping the connected pool idle before the
//! first send so the server's peak concurrency can be observed.
//!
//! Every answer goes through one accounting function into one
//! [`LoadGenReport`]. Latencies are taken from the server's
//! [`Frame::Response`] `latency_ns` field — dispatch → completion in
//! *virtual* time under the executor's serial-execution model — so
//! percentiles are meaningful at any time scale and immune to OS sleep
//! jitter on the loadgen side.

use crate::chaos::{ChaosConfig, FaultyStream, SplitMix64};
use crate::epoll::{Epoll, Event, Interest};
use crate::protocol::{
    read_frame, ErrorCode, Frame, FrameReader, FrameWriteBuf, Sub, WireVersion, CONN_ERROR_ID,
    DEFAULT_TENANT, MAX_BATCH,
};
use crate::tenants::weighted_tenant;
use arlo_trace::stats::Summary;
use arlo_trace::workload::{Request, Trace};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How clients drive load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Replay trace arrivals at `1/time_scale` of their spacing — the
    /// scale must match the server's [`crate::clock::VirtualClock`] scale
    /// so offered rate and simulated capacity line up.
    Open {
        /// Virtual-time speed-up shared with the server.
        time_scale: u32,
    },
    /// Keep `window` requests outstanding per connection; arrivals in the
    /// trace are ignored, only its lengths are replayed.
    Closed {
        /// Outstanding requests per connection (≥ 1).
        window: usize,
    },
}

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Driving discipline.
    pub mode: LoadMode,
    /// Coalesce up to this many submits into one
    /// [`Frame::BatchedSubmit`] (capped at [`MAX_BATCH`]; `1` sends plain
    /// [`Frame::Submit`]s). Open loop sends each chunk at its *last*
    /// member's arrival time, trading a bounded arrival-fidelity delay for
    /// framing/checksum amortization; closed loop coalesces the refills
    /// one readiness pass releases.
    pub submit_batch: usize,
    /// Per-tenant submit weights: request `id` is tagged with the tenant
    /// [`weighted_tenant`] assigns it, so an `N`-entry mix spreads the
    /// trace across `N` tenants deterministically (all-ones = round
    /// robin). Empty means every submit carries [`DEFAULT_TENANT`] — the
    /// pre-multi-tenant behavior.
    pub tenant_weights: Vec<u32>,
    /// How long the fully connected pool stays open and idle before the
    /// first send — the window in which a caller observes the server's
    /// peak concurrency. Zero by default.
    pub hold: Duration,
}

/// One silence window, for connects, handshakes and answers alike: a
/// client thread that has sent and heard nothing for this long stops, and
/// the answers it is still owed count as `lost` rather than hanging the
/// replay.
const SILENCE: Duration = Duration::from_secs(10);

impl LoadGenConfig {
    /// `clients` open-loop connections at the given time scale.
    pub fn open(clients: usize, time_scale: u32) -> Self {
        LoadGenConfig::new(clients, LoadMode::Open { time_scale })
    }

    /// `clients` closed-loop connections with `window` outstanding each.
    pub fn closed(clients: usize, window: usize) -> Self {
        LoadGenConfig::new(clients, LoadMode::Closed { window })
    }

    fn new(clients: usize, mode: LoadMode) -> Self {
        LoadGenConfig {
            clients,
            mode,
            submit_batch: 1,
            tenant_weights: Vec::new(),
            hold: Duration::ZERO,
        }
    }

    /// Coalesce submits into batches of up to `n`.
    pub fn with_submit_batch(mut self, n: usize) -> Self {
        self.submit_batch = n.clamp(1, MAX_BATCH);
        self
    }

    /// Spread submits across tenants by weight (see
    /// [`LoadGenConfig::tenant_weights`]). `vec![1; n]` is an even
    /// round-robin over `n` tenants.
    pub fn with_tenants(mut self, weights: Vec<u32>) -> Self {
        self.tenant_weights = weights;
        self
    }
}

/// Aggregate outcome of a replay, merged across all connections.
///
/// Conservation: every submit sent ends in exactly one of `ok`, `shed`,
/// `unserviceable`, `draining`, `failed`, `unknown_tenant` or `lost`, so
/// [`LoadGenReport::accounted`] equals `sent`. A connection that was
/// refused or never completed its handshake sends nothing.
#[derive(Debug, Clone, Default)]
pub struct LoadGenReport {
    /// Connections whose TCP connect succeeded (admission refusals
    /// included).
    pub connected: u64,
    /// Connections the server refused at admission ([`ErrorCode::Shed`]
    /// on the connection sentinel id, in place of the `HelloAck`).
    pub refused: u64,
    /// Connects or version checks that failed outright.
    pub connect_errors: u64,
    /// Submits queued to the wire.
    pub sent: u64,
    /// Successful [`Frame::Response`]s received.
    pub ok: u64,
    /// [`ErrorCode::Shed`] responses.
    pub shed: u64,
    /// [`ErrorCode::Unserviceable`] responses.
    pub unserviceable: u64,
    /// [`ErrorCode::Draining`] responses.
    pub draining: u64,
    /// [`ErrorCode::Failed`] responses.
    pub failed: u64,
    /// [`ErrorCode::UnknownTenant`] responses — submits tagged with a
    /// tenant the server has no engine for. Zero unless the configured
    /// mix names more tenants than the server registered.
    pub unknown_tenant: u64,
    /// Sent requests with *no* answer: their connection died, or the
    /// silence window expired first. Zero on a correct server.
    pub lost: u64,
    /// Virtual dispatch→completion latencies (ms) of the `ok` responses.
    pub latencies_ms: Vec<f64>,
    /// Real wall-clock duration of the replay, connects included.
    pub wall: Duration,
}

impl LoadGenReport {
    /// Summary statistics over the successful-response latencies.
    pub fn latency_summary(&self) -> Summary {
        Summary::from_samples(&self.latencies_ms)
    }

    /// Successful responses per *virtual* second ≈ `ok / (wall · scale)`.
    pub fn goodput_rps(&self, time_scale: u32) -> f64 {
        let virtual_secs = self.wall.as_secs_f64() * f64::from(time_scale);
        if virtual_secs <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / virtual_secs
    }

    /// Every answered or lost request, for zero-loss assertions:
    /// `ok + shed + unserviceable + draining + failed + unknown_tenant +
    /// lost == sent`.
    pub fn accounted(&self) -> u64 {
        self.ok
            + self.shed
            + self.unserviceable
            + self.draining
            + self.failed
            + self.unknown_tenant
            + self.lost
    }

    /// Count one frame the server sent; returns whether it answered a
    /// request.
    fn account(&mut self, frame: &Frame) -> bool {
        let counter = match frame {
            Frame::Response { latency_ns, .. } => {
                self.latencies_ms.push(*latency_ns as f64 / 1e6);
                &mut self.ok
            }
            // Connection-scoped verdicts (a protocol disconnect, a corrupt
            // frame) answer no request: on a disconnect the socket is about
            // to close and its unanswered requests surface as `lost`.
            Frame::Error {
                id: CONN_ERROR_ID, ..
            } => return false,
            Frame::Error { code, .. } => match code {
                ErrorCode::Shed => &mut self.shed,
                ErrorCode::Unserviceable => &mut self.unserviceable,
                ErrorCode::Draining => &mut self.draining,
                ErrorCode::UnknownTenant => &mut self.unknown_tenant,
                ErrorCode::Failed | ErrorCode::Protocol | ErrorCode::Corrupt => &mut self.failed,
            },
            // Stats frames and anything else are not request answers.
            _ => return false,
        };
        *counter += 1;
        true
    }

    fn merge(&mut self, other: LoadGenReport) {
        self.connected += other.connected;
        self.refused += other.refused;
        self.connect_errors += other.connect_errors;
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.unserviceable += other.unserviceable;
        self.draining += other.draining;
        self.failed += other.failed;
        self.unknown_tenant += other.unknown_tenant;
        self.lost += other.lost;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

/// Replay `trace` against the server at `addr` and merge every
/// connection's outcome. The trace is partitioned round-robin across
/// connections; ids stay globally unique. Errors only if a client thread
/// or its epoll instance cannot be created: refused and failed connections
/// are counted in the report.
pub fn replay(
    addr: SocketAddr,
    trace: &Trace,
    config: &LoadGenConfig,
) -> io::Result<LoadGenReport> {
    assert!(config.clients >= 1, "need at least one client");
    let started = Instant::now();
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(config.clients);
    let mut report = LoadGenReport::default();
    let mut shares: Vec<Vec<Conn>> = (0..threads).map(|_| Vec::new()).collect();
    for (c, part) in trace.partition(config.clients).into_iter().enumerate() {
        match connect(addr) {
            Handshake::Accepted(stream) => {
                report.connected += 1;
                shares[c % threads].push(Conn::new(stream, part));
            }
            Handshake::Refused => {
                report.connected += 1;
                report.refused += 1;
            }
            Handshake::Failed => report.connect_errors += 1,
        }
    }
    let go = Instant::now() + config.hold;
    let outcomes = std::thread::scope(|s| {
        let handles = shares
            .into_iter()
            .enumerate()
            .map(|(t, conns)| {
                std::thread::Builder::new()
                    .name(format!("arlo-loadgen-{t}"))
                    .spawn_scoped(s, move || Client::new(conns, config)?.run(go))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok::<_, io::Error>(
            handles
                .into_iter()
                .map(|h| h.join().expect("loadgen thread panicked"))
                .collect::<Vec<_>>(),
        )
    })?;
    for outcome in outcomes {
        report.merge(outcome?);
    }
    report.wall = started.elapsed();
    report.latencies_ms.sort_by(f64::total_cmp);
    Ok(report)
}

/// A storm's trace: `n` requests of `length` tokens, all arriving at 0.
/// Replayed open-loop it queues every request up front; closed-loop, each
/// connection's window paces it.
pub fn burst(n: usize, length: u32) -> Trace {
    let requests = (0..n as u64)
        .map(|id| Request {
            id,
            arrival: 0,
            length,
        })
        .collect();
    Trace::from_requests(requests, 0)
}

/// Wall-clock send deadline for a virtual arrival time, rounded **up** to
/// the next nanosecond. Truncating division (`arrival / scale`) rounded
/// every deadline *down*, so at high time scales whole runs of distinct
/// arrivals collapsed onto the same earlier instant and left the wire as
/// a burst — offered load arrived bunched instead of paced, front-loading
/// queue depth and overstating shed rates. Ceiling division keeps the
/// mapping monotone and never early: `deadline · scale ≥ arrival`.
fn pace_deadline(arrival_ns: u64, time_scale: u32) -> Duration {
    Duration::from_nanos(arrival_ns.div_ceil(u64::from(time_scale)))
}

/// How one connection attempt ended.
enum Handshake {
    /// Version check passed; the socket is non-blocking from here on.
    Accepted(TcpStream),
    /// Shard 0 answered with a typed [`ErrorCode::Shed`] in place of the
    /// `HelloAck`: the server is at its connection limit.
    Refused,
    /// The connect or the version check failed.
    Failed,
}

/// Connect and run the `Hello`/`HelloAck` version check while still
/// blocking — it must finish before request traffic — then switch the
/// socket to non-blocking.
fn connect(addr: SocketAddr) -> Handshake {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, SILENCE) else {
        return Handshake::Failed;
    };
    let _ = stream.set_nodelay(true);
    let hello = Frame::Hello {
        max_version: WireVersion::MAX.byte(),
    };
    let ack = stream
        .set_read_timeout(Some(SILENCE))
        .and_then(|()| hello.write_to(&mut stream))
        .map(|()| read_frame(&mut stream));
    match ack {
        Ok(Ok(Some(Frame::HelloAck { .. }))) if stream.set_nonblocking(true).is_ok() => {
            Handshake::Accepted(stream)
        }
        Ok(Ok(Some(Frame::Error {
            id: CONN_ERROR_ID,
            code: ErrorCode::Shed,
        }))) => Handshake::Refused,
        _ => Handshake::Failed,
    }
}

/// One client connection: its share of the trace, a non-blocking socket,
/// incremental reassembly in and buffered writes out.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    wbuf: FrameWriteBuf,
    part: Trace,
    /// `part`'s requests before `sent` are queued to the wire; those in
    /// `sent..staged` leave at the next flush.
    sent: usize,
    staged: usize,
    /// Requests sent whose answers have not arrived.
    pending: u64,
    interest: Interest,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, part: Trace) -> Self {
        Conn {
            stream,
            frames: FrameReader::new(),
            wbuf: FrameWriteBuf::new(),
            part,
            sent: 0,
            staged: 0,
            pending: 0,
            interest: Interest::READ,
            dead: false,
        }
    }

    /// Encode the staged requests — as [`Frame::Submit`]s, or in
    /// [`Frame::BatchedSubmit`] chunks of up to `submit_batch` — and write
    /// what the socket takes. Returns how many requests left.
    fn flush(&mut self, config: &LoadGenConfig, report: &mut LoadGenReport) -> io::Result<u64> {
        let batch = config.submit_batch.clamp(1, MAX_BATCH);
        for chunk in self.part.requests()[self.sent..self.staged].chunks(batch) {
            let tenant = |id| weighted_tenant(id, &config.tenant_weights);
            let frame = match chunk {
                [r] if batch == 1 => Frame::Submit {
                    id: r.id,
                    length: r.length,
                    tenant: tenant(r.id),
                },
                _ => Frame::BatchedSubmit {
                    subs: chunk
                        .iter()
                        .map(|r| Sub {
                            id: r.id,
                            length: r.length,
                            tenant: tenant(r.id),
                        })
                        .collect(),
                },
            };
            self.wbuf.push(&frame, frame.dialect());
        }
        let queued = (self.staged - self.sent) as u64;
        self.sent = self.staged;
        self.pending += queued;
        report.sent += queued;
        while !self.wbuf.is_empty() {
            match self.wbuf.write_some(&mut self.stream) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(queued)
    }

    /// Account every answer the socket holds, until it would block. In
    /// closed loop each answer stages one refill. Returns the answers read.
    fn read(&mut self, mode: LoadMode, report: &mut LoadGenReport) -> io::Result<u64> {
        let mut answers = 0;
        loop {
            // Answers from a correct server never fail to decode; junk
            // ends the connection.
            while let Some(frame) = self
                .frames
                .next_frame()
                .map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?
            {
                if report.account(&frame) {
                    answers += 1;
                    self.pending = self.pending.saturating_sub(1);
                    if matches!(mode, LoadMode::Closed { .. }) && self.staged < self.part.len() {
                        self.staged += 1;
                    }
                }
            }
            match self.frames.fill(&mut self.stream) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(answers),
                Err(e) => return Err(e),
            }
        }
    }
}

/// One client thread: an epoll instance over its share of the
/// connections, and the thread's part of the report.
struct Client<'a> {
    config: &'a LoadGenConfig,
    epoll: Epoll,
    conns: Vec<Conn>,
    report: LoadGenReport,
    /// Last send or answer; the silence window runs from here.
    last_io: Instant,
}

impl<'a> Client<'a> {
    fn new(conns: Vec<Conn>, config: &'a LoadGenConfig) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        for (token, conn) in conns.iter().enumerate() {
            epoll.add(&conn.stream, token as u64, Interest::READ)?;
        }
        Ok(Client {
            config,
            epoll,
            conns,
            report: LoadGenReport::default(),
            last_io: Instant::now(),
        })
    }

    /// Wait until `go`, then send and account until every answer is in or
    /// the silence window expires.
    fn run(mut self, go: Instant) -> io::Result<LoadGenReport> {
        // Open loop: one arrival-ordered send schedule for the whole
        // thread, `(due, conn, staged end)` per chunk, each chunk due at its
        // last member's arrival. Closed loop: stage each connection's
        // first window.
        let mut schedule = Vec::new();
        let mut touched = Vec::new();
        let batch = self.config.submit_batch.clamp(1, MAX_BATCH);
        for (i, conn) in self.conns.iter_mut().enumerate() {
            match self.config.mode {
                LoadMode::Open { time_scale } => {
                    assert!(time_scale >= 1, "time scale must be >= 1");
                    let mut end = 0;
                    for chunk in conn.part.requests().chunks(batch) {
                        end += chunk.len();
                        let last = chunk.last().expect("chunks are non-empty");
                        schedule.push((pace_deadline(last.arrival, time_scale), i, end));
                    }
                }
                LoadMode::Closed { window } => {
                    assert!(window >= 1, "closed-loop window must be >= 1");
                    conn.staged = window.min(conn.part.len());
                    touched.push(i);
                }
            }
        }
        schedule.sort_by_key(|&(due, _, _)| due);

        std::thread::sleep(go.saturating_duration_since(Instant::now()));
        let start = Instant::now();
        self.last_io = start;
        let mut next = 0;
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Sends first: stage everything due, then flush each connection
            // once, so chunks due together share a write. Only then read
            // the answers the last wait reported, so a due send never waits
            // behind another connection's answers.
            let now = start.elapsed();
            while let Some(&(_, i, end)) = schedule.get(next).filter(|&&(due, ..)| due <= now) {
                let conn = &mut self.conns[i];
                if conn.staged == conn.sent {
                    touched.push(i);
                }
                conn.staged = end;
                next += 1;
            }
            for i in std::mem::take(&mut touched) {
                self.pump(i, false);
            }
            for ev in &events {
                self.pump(ev.token as usize, ev.readable || ev.closed);
            }

            let owed = self.report.sent.saturating_sub(self.report.accounted());
            let silence = (owed > 0)
                .then(|| (self.last_io + SILENCE).saturating_duration_since(Instant::now()));
            let head = schedule
                .get(next)
                .map(|&(due, ..)| due.saturating_sub(start.elapsed()));
            if silence == Some(Duration::ZERO) {
                break;
            }
            let Some(wait) = silence.into_iter().chain(head).min() else {
                break;
            };
            self.epoll.wait(&mut events, Some(wait))?;
        }
        // Every answer is in, or the silence window expired: whatever is
        // still owed is lost.
        for conn in &self.conns {
            self.report.lost += conn.pending;
        }
        Ok(self.report)
    }

    /// Drive connection `i`: account its answers if `readable`, flush what
    /// is staged, and keep epoll interest in step with the write buffer.
    /// A connection that fails loses what it is still owed.
    fn pump(&mut self, i: usize, readable: bool) {
        let conn = &mut self.conns[i];
        if conn.dead {
            return;
        }
        let report = &mut self.report;
        let moved = if readable {
            conn.read(self.config.mode, report)
        } else {
            Ok(0)
        }
        .and_then(|answers| Ok(answers + conn.flush(self.config, report)?));
        match moved {
            Ok(moved) => {
                if moved > 0 {
                    self.last_io = Instant::now();
                }
                let desired = Interest {
                    readable: true,
                    writable: !conn.wbuf.is_empty(),
                };
                if desired != conn.interest
                    && self.epoll.modify(&conn.stream, i as u64, desired).is_ok()
                {
                    conn.interest = desired;
                }
            }
            Err(_) => {
                conn.dead = true;
                let _ = self.epoll.delete(&conn.stream);
                report.lost += conn.pending;
                conn.pending = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos replay: fault-injected clients with reconnect, retry, and
// per-request terminal-state conservation.
// ---------------------------------------------------------------------------

/// Configuration for [`chaos_replay`]: fault-injected clients that retry
/// through failures instead of giving up.
#[derive(Debug, Clone)]
pub struct ChaosReplayConfig {
    /// Concurrent client connections (each drives its trace partition one
    /// request at a time, so terminal states are exact).
    pub clients: usize,
    /// Fault recipe applied to every client-side stream. Each (re)connect
    /// draws a fresh deterministic plan from the recipe, numbered by a
    /// global connection counter, so a run is reproducible from the seed.
    pub chaos: ChaosConfig,
    /// Attempts per request (first try included) before the client gives
    /// up and records the request as exhausted.
    pub max_attempts: u32,
    /// How long one attempt waits for its answer before the client drops
    /// the connection (so a late answer can never be double-counted) and
    /// retries.
    pub attempt_timeout: Duration,
    /// Base of the jittered exponential reconnect/retry backoff.
    pub backoff_base: Duration,
}

impl ChaosReplayConfig {
    /// `clients` chaos clients under `chaos`, with defaults tuned for
    /// accelerated loopback runs.
    pub fn new(clients: usize, chaos: ChaosConfig) -> Self {
        ChaosReplayConfig {
            clients,
            chaos,
            max_attempts: 6,
            attempt_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(2),
        }
    }
}

/// Outcome of a [`chaos_replay`], merged across clients.
///
/// Conservation invariant (checked by [`ChaosReport::conserved`]): every
/// request in the trace terminates in **exactly one** of `ok`,
/// `unserviceable`, `draining`, or `exhausted` — a request that vanished
/// without a terminal state would break the sum, so zero silent loss is
/// an equality, not an absence of evidence.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Unique requests driven (the trace length).
    pub requests: u64,
    /// Requests that got a successful response (possibly after retries).
    pub ok: u64,
    /// Requests no runtime could ever serve (terminal on first answer —
    /// retrying cannot change the fleet's compiled maximum length).
    pub unserviceable: u64,
    /// Requests refused because the server was draining (terminal: the
    /// server is going away).
    pub draining: u64,
    /// Requests abandoned after `max_attempts` tries.
    pub exhausted: u64,
    /// Extra attempts beyond each request's first.
    pub retries: u64,
    /// Connections (re)established, including each client's first.
    pub connects: u64,
    /// Retryable [`ErrorCode::Corrupt`] verdicts received: frames the
    /// server refused by checksum and invited the client to resend.
    pub corrupt_signals: u64,
    /// Virtual dispatch→completion latencies (ms) of the `ok` responses
    /// (final successful attempt only).
    pub latencies_ms: Vec<f64>,
    /// Real wall-clock duration of the replay.
    pub wall: Duration,
}

impl ChaosReport {
    /// The zero-loss conservation check: `ok + unserviceable + draining +
    /// exhausted == requests`.
    pub fn conserved(&self) -> bool {
        self.ok + self.unserviceable + self.draining + self.exhausted == self.requests
    }

    /// Summary statistics over the successful-response latencies.
    pub fn latency_summary(&self) -> Summary {
        Summary::from_samples(&self.latencies_ms)
    }

    fn merge(&mut self, other: ChaosReport) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.unserviceable += other.unserviceable;
        self.draining += other.draining;
        self.exhausted += other.exhausted;
        self.retries += other.retries;
        self.connects += other.connects;
        self.corrupt_signals += other.corrupt_signals;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

/// Replay `trace` against `addr` through fault-injected connections,
/// retrying each request until it reaches a terminal state or its attempt
/// budget runs out. Never returns an error for network trouble — that is
/// the point — only for thread-spawn failure.
pub fn chaos_replay(
    addr: SocketAddr,
    trace: &Trace,
    config: &ChaosReplayConfig,
) -> io::Result<ChaosReport> {
    assert!(config.clients >= 1, "need at least one client");
    assert!(config.max_attempts >= 1, "need at least one attempt");
    let parts = trace.partition(config.clients);
    let conn_counter = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for (client_idx, part) in parts.into_iter().enumerate() {
        let config = config.clone();
        let conn_counter = Arc::clone(&conn_counter);
        handles.push(
            std::thread::Builder::new()
                .name("arlo-chaosgen".into())
                .spawn(move || {
                    chaos_client(addr, &part, &config, client_idx as u64, &conn_counter)
                })?,
        );
    }
    let mut report = ChaosReport::default();
    for handle in handles {
        report.merge(handle.join().expect("chaos client panicked"));
    }
    report.wall = started.elapsed();
    report.latencies_ms.sort_by(f64::total_cmp);
    Ok(report)
}

/// One live chaos connection: the fault-wrapped stream plus its
/// incremental frame reassembler (client side of the same machinery the
/// server uses, so client decoding survives fragmentation too).
struct ChaosConn {
    stream: FaultyStream<TcpStream>,
    frames: FrameReader,
}

/// How one attempt at one request ended.
enum Attempt {
    /// Response received; virtual latency in nanoseconds.
    Ok(u64),
    /// Terminal refusal: retrying is pointless.
    Terminal(ErrorCode),
    /// Transient failure (fault, timeout, shed, failed execution): retry
    /// with backoff. `true` means the connection must be replaced.
    Retry { reconnect: bool },
    /// The server answered [`ErrorCode::Corrupt`] — a checksummed frame
    /// failed verification in flight. The connection is fine (the stream
    /// resyncs exactly); resend on the same socket.
    Corrupt,
}

fn chaos_client(
    addr: SocketAddr,
    part: &Trace,
    config: &ChaosReplayConfig,
    client_idx: u64,
    conn_counter: &AtomicU64,
) -> ChaosReport {
    let mut report = ChaosReport {
        requests: part.len() as u64,
        ..ChaosReport::default()
    };
    // Backoff jitter gets its own deterministic stream, decorrelated from
    // the fault plans by the client index.
    let mut rng = SplitMix64::new(
        config
            .chaos
            .seed
            .wrapping_add(client_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut conn: Option<ChaosConn> = None;
    for r in part.requests() {
        let mut attempts: u32 = 0;
        loop {
            if attempts >= config.max_attempts {
                report.exhausted += 1;
                break;
            }
            if attempts > 0 {
                report.retries += 1;
                backoff(&mut rng, config.backoff_base, attempts);
            }
            attempts += 1;
            if conn.is_none() {
                match connect_chaos(addr, config, conn_counter) {
                    Some(c) => {
                        report.connects += 1;
                        conn = Some(c);
                    }
                    None => continue, // burn an attempt, back off, retry
                }
            }
            let c = conn.as_mut().expect("connected above");
            match drive_attempt(c, r.id, r.length, config) {
                Attempt::Ok(latency_ns) => {
                    report.ok += 1;
                    report.latencies_ms.push(latency_ns as f64 / 1e6);
                    break;
                }
                Attempt::Terminal(ErrorCode::Unserviceable) => {
                    report.unserviceable += 1;
                    break;
                }
                Attempt::Terminal(_) => {
                    report.draining += 1;
                    break;
                }
                Attempt::Retry { reconnect } => {
                    if reconnect {
                        conn = None;
                    }
                }
                Attempt::Corrupt => {
                    report.corrupt_signals += 1;
                }
            }
        }
    }
    report
}

/// Establish one fault-wrapped connection; `None` if even the TCP connect
/// failed (the caller backs off and retries).
///
/// The `Hello`/`HelloAck` exchange runs *through the faulty stream* —
/// chaos may eat or mangle either frame, in which case the handshake times
/// out and the whole connection is retried (a connect that cannot even
/// complete the version check is not worth keeping).
fn connect_chaos(
    addr: SocketAddr,
    config: &ChaosReplayConfig,
    conn_counter: &AtomicU64,
) -> Option<ChaosConn> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    // Short socket timeout: the attempt deadline is enforced in
    // `drive_attempt`, and a fine poll keeps injected stalls from pinning
    // the client past it.
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok()?;
    let plan = config
        .chaos
        .plan_for(conn_counter.fetch_add(1, Ordering::SeqCst));
    let mut conn = ChaosConn {
        stream: FaultyStream::new(stream, plan),
        frames: FrameReader::new(),
    };
    Frame::Hello {
        max_version: WireVersion::MAX.byte(),
    }
    .write_to(&mut conn.stream)
    .ok()?;
    let deadline = Instant::now() + config.attempt_timeout;
    loop {
        loop {
            match conn.frames.next_frame() {
                Ok(Some(Frame::HelloAck { .. })) => return Some(conn),
                Ok(Some(_)) => {} // stray frames ahead of the ack
                Ok(None) => break,
                // A mangled ack is skippable but will never be resent:
                // this path ends at the deadline with a fresh connection.
                Err(e) if e.resynchronizable() => {}
                Err(_) => return None,
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        match conn.frames.fill(&mut conn.stream) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return None,
        }
    }
}

/// Send one submit and wait for *its* answer through the faulty stream.
///
/// Any path that might leave the request's answer in flight (timeout,
/// fatal decode desync, I/O failure) demands a reconnect, so a stale
/// answer from a previous attempt can never arrive on the connection used
/// by the next one — that discipline is what makes `ok` count *requests*
/// rather than responses.
fn drive_attempt(
    conn: &mut ChaosConn,
    id: u64,
    length: u32,
    config: &ChaosReplayConfig,
) -> Attempt {
    if (Frame::Submit {
        id,
        length,
        tenant: DEFAULT_TENANT,
    })
    .write_to(&mut conn.stream)
    .is_err()
    {
        return Attempt::Retry { reconnect: true };
    }
    let deadline = Instant::now() + config.attempt_timeout;
    loop {
        // Drain everything decodable before touching the socket again.
        loop {
            match conn.frames.next_frame() {
                // A Response that decodes has survived its CRC32C, so the
                // latency it carries is what the server wrote.
                Ok(Some(Frame::Response {
                    id: rid,
                    latency_ns,
                    ..
                })) if rid == id => return Attempt::Ok(latency_ns),
                Ok(Some(Frame::Error { id: rid, code })) if rid == id => {
                    return match code {
                        // Refusals that cannot change on retry (an unknown
                        // tenant stays unknown no matter how often asked —
                        // unreachable here since chaos clients submit as
                        // the default tenant, which always exists).
                        ErrorCode::Unserviceable
                        | ErrorCode::Draining
                        | ErrorCode::UnknownTenant => Attempt::Terminal(code),
                        // Load shedding and failed executions are
                        // transient by design; retry on the same socket.
                        _ => Attempt::Retry { reconnect: false },
                    };
                }
                Ok(Some(Frame::Error {
                    id: rid,
                    code: ErrorCode::Corrupt,
                })) if rid == CONN_ERROR_ID => {
                    // The server checksummed away a mangled frame — very
                    // possibly our submit — and says "resend". The stream
                    // itself resynchronized exactly, so the same socket
                    // stays in service.
                    return Attempt::Corrupt;
                }
                Ok(Some(Frame::Error { id: rid, code })) if rid == CONN_ERROR_ID => {
                    // Connection-scoped verdict: admission refusal or a
                    // protocol disconnect. Either way this socket is done.
                    let _ = code;
                    return Attempt::Retry { reconnect: true };
                }
                Ok(Some(_)) => {} // stats, or an answer to a dead attempt
                Ok(None) => break,
                Err(e) if e.resynchronizable() => {
                    // A corrupted frame was skipped; our answer may have
                    // been inside it. Keep waiting until the deadline.
                }
                Err(_) => return Attempt::Retry { reconnect: true },
            }
        }
        if Instant::now() >= deadline {
            return Attempt::Retry { reconnect: true };
        }
        match conn.frames.fill(&mut conn.stream) {
            Ok(0) => return Attempt::Retry { reconnect: true },
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return Attempt::Retry { reconnect: true },
        }
    }
}

/// Sleep a jittered exponential backoff: `base · 2^(attempt-1) · U[0.5,1.5)`,
/// capped at 100 ms so accelerated runs never stall on recovery.
fn backoff(rng: &mut SplitMix64, base: Duration, attempt: u32) {
    let exp = 1u32 << attempt.saturating_sub(1).min(6);
    let jitter = 0.5 + rng.next_f64();
    let wait = base.mul_f64(f64::from(exp) * jitter);
    std::thread::sleep(wait.min(Duration::from_millis(100)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_deadline_is_never_early() {
        // The contract that fixes arrival bunching: scaling the wall
        // deadline back up must never undershoot the virtual arrival.
        for scale in [1u32, 7, 100, 1000] {
            for arrival in [0u64, 1, 999, 1000, 1001, 123_456_789] {
                let due = pace_deadline(arrival, scale);
                assert!(
                    due.as_nanos() as u64 * u64::from(scale) >= arrival,
                    "deadline {due:?} early for arrival {arrival} at scale {scale}"
                );
            }
        }
    }

    #[test]
    fn pace_deadline_is_monotone_and_unbunched_at_high_scale() {
        // Regression for the truncating division: arrivals 1ms apart at
        // time_scale=1000 used to collapse onto the *floor* of their
        // window; with ceiling division the mapping stays monotone and
        // distinct arrivals a full scale-quantum apart stay distinct.
        let scale = 1000u32;
        let arrivals: Vec<u64> = (0..50).map(|i| i * 1_000_000).collect(); // 1ms spacing
        let deadlines: Vec<Duration> = arrivals.iter().map(|&a| pace_deadline(a, scale)).collect();
        for pair in deadlines.windows(2) {
            assert!(pair[0] < pair[1], "bunched: {pair:?}");
        }
        // And the old bug, pinned: truncation said "send at 0" for an
        // arrival just shy of one quantum; ceiling says one quantum.
        assert_eq!(pace_deadline(999, 1000), Duration::from_nanos(1));
        assert_eq!(pace_deadline(1000, 1000), Duration::from_nanos(1));
        assert_eq!(pace_deadline(1001, 1000), Duration::from_nanos(2));
    }

    #[test]
    fn tenant_tagging_is_exactly_once_with_no_phantom_shares() {
        // Every request id maps to exactly one tenant, and over any full
        // weight cycle each tenant receives exactly its weighted share —
        // nothing double-tagged, nothing dropped, wherever in id-space the
        // cycle starts (partitioned traces hand clients arbitrary ids).
        let weights = [3u32, 1, 2];
        let cycle: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        for start in [0u64, cycle, 600, u64::MAX - cycle] {
            let mut counts = [0u64; 3];
            for id in start..start + cycle {
                counts[weighted_tenant(id, &weights) as usize] += 1;
            }
            assert_eq!(counts, [3, 1, 2], "cycle starting at {start}");
        }
        // Empty mix: everything belongs to the default tenant.
        assert_eq!(weighted_tenant(12_345, &[]), DEFAULT_TENANT);
    }

    #[test]
    fn report_accounts_unknown_tenant_answers() {
        let report = LoadGenReport {
            sent: 10,
            ok: 5,
            shed: 2,
            unknown_tenant: 3,
            ..LoadGenReport::default()
        };
        assert_eq!(report.accounted(), report.sent);
    }

    #[test]
    fn connection_verdicts_answer_no_request() {
        let mut report = LoadGenReport::default();
        let error = |id, code| Frame::Error { id, code };
        assert!(report.account(&error(7, ErrorCode::Shed)));
        assert!(report.account(&error(8, ErrorCode::Failed)));
        assert!(!report.account(&error(CONN_ERROR_ID, ErrorCode::Corrupt)));
        assert!(!report.account(&error(CONN_ERROR_ID, ErrorCode::Protocol)));
        assert_eq!((report.shed, report.failed), (1, 1), "{report:?}");
    }
}
