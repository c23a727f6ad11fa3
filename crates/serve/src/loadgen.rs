//! Trace-replay load generator: N client threads over real sockets.
//!
//! Two driving disciplines, matching the two standard ways serving papers
//! load a system:
//!
//! - **Open loop** ([`LoadMode::Open`]): each client replays its partition
//!   of the trace at the trace's own arrival times (divided by the server's
//!   time scale), regardless of how fast responses come back. This is the
//!   paper's evaluation discipline — arrival pressure does not relent when
//!   the server slows down, so overload shows up as shed responses rather
//!   than as a silently throttled offered rate.
//! - **Closed loop** ([`LoadMode::Closed`]): each client keeps a fixed
//!   window of requests outstanding and sends the next one only when a
//!   response arrives. Offered load self-limits to the server's capacity;
//!   useful for measuring peak sustainable throughput.
//!
//! Latencies are taken from the server's [`Frame::Response`] `latency_ns`
//! field — dispatch → completion in *virtual* time under the executor's
//! serial-execution model — so percentiles are meaningful at any time
//! scale and immune to OS sleep jitter on the loadgen side.

use crate::chaos::{ChaosConfig, FaultyStream, SplitMix64};
use crate::epoll::{Epoll, Interest};
use crate::protocol::{
    client_handshake, read_frame, ErrorCode, Frame, FrameReader, FrameWriteBuf, ReadFrameError,
    Sub, WireVersion, CONN_ERROR_ID, DEFAULT_TENANT, MAX_BATCH,
};
use crate::tenants::weighted_tenant;
use arlo_trace::stats::Summary;
use arlo_trace::workload::Trace;
use parking_lot::Mutex;
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
    /// Keep `window` requests outstanding per client; arrivals in the
    /// trace are ignored, only its lengths are replayed.
    Closed {
        /// Outstanding requests per client (≥ 1).
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
    /// Socket read timeout: a client that hears nothing for this long
    /// counts its unanswered requests as lost rather than hanging.
    pub read_timeout: Duration,
    /// Coalesce up to this many submits into one
    /// [`Frame::BatchedSubmit`] (capped at [`MAX_BATCH`]; `1` disables).
    /// Open-loop batching sends each chunk at its *last* member's arrival
    /// time, trading a bounded arrival-fidelity delay for
    /// framing/checksum amortization.
    pub submit_batch: usize,
    /// Per-tenant submit weights: request `id` is tagged with the tenant
    /// [`weighted_tenant`] assigns it, so an `N`-entry mix spreads the
    /// trace across `N` tenants deterministically (all-ones = round
    /// robin). Empty means every submit carries [`DEFAULT_TENANT`] — the
    /// pre-multi-tenant behavior.
    pub tenant_weights: Vec<u32>,
}

impl LoadGenConfig {
    /// `clients` open-loop connections at the given time scale.
    pub fn open(clients: usize, time_scale: u32) -> Self {
        LoadGenConfig {
            clients,
            mode: LoadMode::Open { time_scale },
            read_timeout: Duration::from_secs(10),
            submit_batch: 1,
            tenant_weights: Vec::new(),
        }
    }

    /// `clients` closed-loop connections with `window` outstanding each.
    pub fn closed(clients: usize, window: usize) -> Self {
        LoadGenConfig {
            clients,
            mode: LoadMode::Closed { window },
            read_timeout: Duration::from_secs(10),
            submit_batch: 1,
            tenant_weights: Vec::new(),
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

/// Aggregate outcome of a replay, merged across all clients.
#[derive(Debug, Clone, Default)]
pub struct LoadGenReport {
    /// Submit frames written to the wire.
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
    /// Sent requests that received *no* answer before the read timeout —
    /// zero on a correct server.
    pub lost: u64,
    /// Virtual dispatch→completion latencies (ms) of the `ok` responses.
    pub latencies_ms: Vec<f64>,
    /// Real wall-clock duration of the replay.
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

    fn merge(&mut self, other: ClientOutcome) {
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

#[derive(Debug, Default)]
struct ClientOutcome {
    sent: u64,
    ok: u64,
    shed: u64,
    unserviceable: u64,
    draining: u64,
    failed: u64,
    unknown_tenant: u64,
    lost: u64,
    latencies_ms: Vec<f64>,
}

/// Shared tally a client's reader thread writes into.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    unserviceable: AtomicU64,
    draining: AtomicU64,
    failed: AtomicU64,
    unknown_tenant: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
}

impl Tally {
    fn answered(&self) -> u64 {
        self.ok.load(Ordering::SeqCst)
            + self.shed.load(Ordering::SeqCst)
            + self.unserviceable.load(Ordering::SeqCst)
            + self.draining.load(Ordering::SeqCst)
            + self.failed.load(Ordering::SeqCst)
            + self.unknown_tenant.load(Ordering::SeqCst)
    }

    fn record(&self, frame: &Frame) {
        match frame {
            Frame::Response { latency_ns, .. } => {
                self.latencies_ns.lock().push(*latency_ns);
                self.ok.fetch_add(1, Ordering::SeqCst);
            }
            // Protocol and Corrupt errors are connection-level (sentinel
            // id), not the answer to any request: Protocol means the
            // server is about to hang up, Corrupt means one frame was
            // mangled in flight and should be retried by clients that do
            // retries (this plain replayer just keeps waiting — its
            // unanswered requests surface as `lost`).
            Frame::Error {
                code: ErrorCode::Protocol | ErrorCode::Corrupt,
                ..
            } => {}
            Frame::Error { code, .. } => {
                let counter = match code {
                    ErrorCode::Shed => &self.shed,
                    ErrorCode::Unserviceable => &self.unserviceable,
                    ErrorCode::Draining => &self.draining,
                    ErrorCode::UnknownTenant => &self.unknown_tenant,
                    ErrorCode::Failed | ErrorCode::Protocol | ErrorCode::Corrupt => &self.failed,
                };
                counter.fetch_add(1, Ordering::SeqCst);
            }
            // Stats frames (from an interleaved stats probe) and anything
            // else are not request answers.
            _ => {}
        }
    }

    fn into_outcome(self, sent: u64) -> ClientOutcome {
        ClientOutcome {
            sent,
            ok: self.ok.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            unserviceable: self.unserviceable.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            unknown_tenant: self.unknown_tenant.load(Ordering::SeqCst),
            lost: sent.saturating_sub(self.answered()),
            latencies_ms: self
                .latencies_ns
                .into_inner()
                .into_iter()
                .map(|ns| ns as f64 / 1e6)
                .collect(),
        }
    }
}

/// Replay `trace` against the server at `addr` and merge every client's
/// outcome. The trace is partitioned round-robin across clients; ids stay
/// globally unique.
pub fn replay(
    addr: SocketAddr,
    trace: &Trace,
    config: &LoadGenConfig,
) -> io::Result<LoadGenReport> {
    assert!(config.clients >= 1, "need at least one client");
    let parts = trace.partition(config.clients);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for part in parts {
        let config = config.clone();
        handles.push(
            std::thread::Builder::new()
                .name("arlo-loadgen".into())
                .spawn(move || run_client(addr, &part, &config))?,
        );
    }
    let mut report = LoadGenReport::default();
    let mut first_err: Option<io::Error> = None;
    for handle in handles {
        match handle.join().expect("loadgen client panicked") {
            Ok(outcome) => report.merge(outcome),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.wall = started.elapsed();
    report.latencies_ms.sort_by(f64::total_cmp);
    Ok(report)
}

fn run_client(addr: SocketAddr, part: &Trace, config: &LoadGenConfig) -> io::Result<ClientOutcome> {
    match config.mode {
        LoadMode::Open { time_scale } => open_client(addr, part, time_scale, config),
        LoadMode::Closed { window } => closed_client(addr, part, window, config),
    }
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

/// Read frames until `expected` answers arrive, EOF, or the read timeout.
fn reader_until(stream: &mut TcpStream, tally: &Tally, expected: &AtomicU64) {
    loop {
        match read_frame(stream) {
            Ok(Some(frame)) => {
                tally.record(&frame);
                let want = expected.load(Ordering::SeqCst);
                if want != u64::MAX && tally.answered() >= want {
                    return;
                }
            }
            Ok(None) => return,
            // Timeout, reset, or protocol junk: stop and let the tally's
            // unanswered remainder surface as `lost`.
            Err(ReadFrameError::Io(_) | ReadFrameError::Decode(_)) => return,
        }
    }
}

fn open_client(
    addr: SocketAddr,
    part: &Trace,
    time_scale: u32,
    config: &LoadGenConfig,
) -> io::Result<ClientOutcome> {
    assert!(time_scale >= 1, "time scale must be >= 1");
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(config.read_timeout))?;
    // Before the reader thread exists, so the handshake's blocking read
    // cannot race request traffic.
    client_handshake(&mut stream)?;
    let mut reader = stream.try_clone()?;

    let tally = Arc::new(Tally::default());
    // u64::MAX = "total not known yet": the reader keeps going until the
    // writer finishes and publishes the real count.
    let expected = Arc::new(AtomicU64::new(u64::MAX));
    let reader_thread = {
        let tally = Arc::clone(&tally);
        let expected = Arc::clone(&expected);
        std::thread::Builder::new()
            .name("arlo-loadgen-rd".into())
            .spawn(move || reader_until(&mut reader, &tally, &expected))?
    };

    let mut writer = stream;
    let start = Instant::now();
    let mut sent: u64 = 0;
    let batch = config.submit_batch.clamp(1, MAX_BATCH);
    if batch > 1 {
        // Batched replay: chunks of up to `batch` requests leave as one
        // BatchedSubmit frame at the chunk's last arrival time — one
        // header, one checksum, one syscall for the whole chunk.
        for chunk in part.requests().chunks(batch) {
            let due = pace_deadline(
                chunk.last().expect("chunks are non-empty").arrival,
                time_scale,
            );
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                if wait > Duration::from_micros(100) {
                    std::thread::sleep(wait);
                }
            }
            let subs: Vec<Sub> = chunk
                .iter()
                .map(|r| Sub {
                    id: r.id,
                    length: r.length,
                    tenant: weighted_tenant(r.id, &config.tenant_weights),
                })
                .collect();
            sent += subs.len() as u64;
            Frame::BatchedSubmit { subs }.write_to(&mut writer)?;
        }
    } else {
        for r in part.requests() {
            let due = pace_deadline(r.arrival, time_scale);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                if wait > Duration::from_micros(100) {
                    std::thread::sleep(wait);
                }
            }
            Frame::Submit {
                id: r.id,
                length: r.length,
                tenant: weighted_tenant(r.id, &config.tenant_weights),
            }
            .write_to(&mut writer)?;
            sent += 1;
        }
    }
    expected.store(sent, Ordering::SeqCst);
    // The reader exits on its own: answer count reached, or read timeout.
    reader_thread.join().expect("loadgen reader panicked");
    let tally = Arc::try_unwrap(tally).ok().expect("reader joined");
    Ok(tally.into_outcome(sent))
}

fn closed_client(
    addr: SocketAddr,
    part: &Trace,
    window: usize,
    config: &LoadGenConfig,
) -> io::Result<ClientOutcome> {
    assert!(window >= 1, "closed-loop window must be >= 1");
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(config.read_timeout))?;
    client_handshake(&mut stream)?;

    let tally = Tally::default();
    let mut sent: u64 = 0;
    let mut next = part.requests().iter();
    // Prime the window, then one-for-one: each answer releases one send.
    // With batching the priming window leaves as BatchedSubmit chunks;
    // the steady state is one-at-a-time by nature.
    let batch = config.submit_batch.clamp(1, MAX_BATCH);
    if batch > 1 {
        let prime: Vec<_> = next.by_ref().take(window).collect();
        for chunk in prime.chunks(batch) {
            let subs: Vec<Sub> = chunk
                .iter()
                .map(|r| Sub {
                    id: r.id,
                    length: r.length,
                    tenant: weighted_tenant(r.id, &config.tenant_weights),
                })
                .collect();
            sent += subs.len() as u64;
            Frame::BatchedSubmit { subs }.write_to(&mut stream)?;
        }
    } else {
        for r in next.by_ref().take(window) {
            Frame::Submit {
                id: r.id,
                length: r.length,
                tenant: weighted_tenant(r.id, &config.tenant_weights),
            }
            .write_to(&mut stream)?;
            sent += 1;
        }
    }
    while tally.answered() < sent {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                tally.record(&frame);
                if let Some(r) = next.next() {
                    Frame::Submit {
                        id: r.id,
                        length: r.length,
                        tenant: weighted_tenant(r.id, &config.tenant_weights),
                    }
                    .write_to(&mut stream)?;
                    sent += 1;
                }
            }
            Ok(None) => break,
            Err(ReadFrameError::Io(_) | ReadFrameError::Decode(_)) => break,
        }
    }
    Ok(tally.into_outcome(sent))
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

// ---------------------------------------------------------------------------
// Connection storm: an epoll-based client pool that holds tens of
// thousands of concurrent connections from a handful of threads.
// ---------------------------------------------------------------------------

/// Configuration for [`connection_storm`].
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Concurrent connections to establish and hold.
    pub conns: usize,
    /// Client threads sharing the connections (each owns one epoll).
    pub threads: usize,
    /// Submits sent per connection once every thread has connected.
    pub submits_per_conn: u32,
    /// Request length for every submit.
    pub length: u32,
    /// How long to hold the fully-connected pool open *before* the first
    /// submit — the window in which the caller can observe peak
    /// concurrency on the server.
    pub hold: Duration,
    /// Per-connection TCP connect timeout.
    pub connect_timeout: Duration,
    /// Wall budget for the submit/answer phase; unanswered submits at the
    /// deadline count as `lost`.
    pub deadline: Duration,
    /// Closed-loop window: at most this many submits in flight per
    /// connection; each accounted answer refills one. `0` (the default)
    /// keeps the legacy open-loop behavior of queueing every submit up
    /// front — which at 10⁶-request scales turns the run into a pure
    /// queue-drain instead of a serving loop. The id scheme is identical in
    /// both modes (`conn_base + k` in submission order).
    pub window: u32,
}

impl StormConfig {
    /// `conns` connections with defaults sized for loopback runs.
    pub fn new(conns: usize) -> Self {
        StormConfig {
            conns,
            threads: 4,
            submits_per_conn: 1,
            length: 64,
            hold: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(10),
            deadline: Duration::from_secs(60),
            window: 0,
        }
    }

    /// Switch to closed-loop submission with `window` in-flight per
    /// connection (0 restores open-loop queue-everything).
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }
}

/// Outcome of a [`connection_storm`], merged across threads.
///
/// Conservation invariant (checked by [`StormReport::conserved`]): every
/// submit written terminates in exactly one of `ok`, `shed`,
/// `unserviceable`, `draining`, `failed`, or `lost`.
#[derive(Debug, Clone, Default)]
pub struct StormReport {
    /// Connections successfully established (admission refusals included —
    /// the TCP connect itself succeeded).
    pub connected: u64,
    /// Connections the server refused at admission
    /// ([`ErrorCode::Shed`] on the connection sentinel id, in place of the
    /// `HelloAck`).
    pub refused: u64,
    /// TCP connects that failed outright.
    pub connect_errors: u64,
    /// Submit frames queued to the wire.
    pub submitted: u64,
    /// Successful responses.
    pub ok: u64,
    /// [`ErrorCode::Shed`] answers.
    pub shed: u64,
    /// [`ErrorCode::Unserviceable`] answers.
    pub unserviceable: u64,
    /// [`ErrorCode::Draining`] answers.
    pub draining: u64,
    /// [`ErrorCode::Failed`] answers.
    pub failed: u64,
    /// Submits with no answer by the deadline (or whose connection died).
    pub lost: u64,
    /// Real wall-clock duration, connect phase included.
    pub wall: Duration,
}

impl StormReport {
    /// The zero-loss conservation check over everything submitted.
    pub fn conserved(&self) -> bool {
        self.ok + self.shed + self.unserviceable + self.draining + self.failed + self.lost
            == self.submitted
    }

    fn merge(&mut self, other: StormReport) {
        self.connected += other.connected;
        self.refused += other.refused;
        self.connect_errors += other.connect_errors;
        self.submitted += other.submitted;
        self.ok += other.ok;
        self.shed += other.shed;
        self.unserviceable += other.unserviceable;
        self.draining += other.draining;
        self.failed += other.failed;
        self.lost += other.lost;
    }
}

/// One stormed connection: non-blocking socket, incremental reassembly in,
/// buffered writes out. Sockets stay open until *every* connection in the
/// pool has finished, so concurrency is sustained, not just peaked.
struct StormConn {
    stream: TcpStream,
    frames: FrameReader,
    wbuf: FrameWriteBuf,
    /// Submits queued or written whose answers are still outstanding.
    pending: u64,
    /// First request id of this connection's contiguous id block.
    id_base: u64,
    /// Next k to submit (ids are `id_base + k`); `quota` is the total.
    next_k: u64,
    quota: u64,
    /// Request length for refills (closed-loop mode).
    length: u32,
    /// Submits queued during the current readiness pass, awaiting a
    /// [`Frame::BatchedSubmit`] flush.
    refills: Vec<Sub>,
    interest: Interest,
    dead: bool,
}

impl StormConn {
    /// Queue one more submit if the quota allows; returns whether one was
    /// queued. The closed-loop refill path — called per accounted answer.
    /// The submit is staged in [`StormConn::refills`] so everything queued
    /// during one readiness pass coalesces into one batched frame;
    /// [`StormConn::flush_refills`] turns the stage into wire bytes.
    fn refill_one(&mut self, report: &mut StormReport) -> bool {
        if self.next_k >= self.quota {
            return false;
        }
        self.refills.push(Sub {
            id: self.id_base + self.next_k,
            length: self.length,
            tenant: DEFAULT_TENANT,
        });
        self.next_k += 1;
        self.pending += 1;
        report.submitted += 1;
        true
    }

    /// Move staged refills into the write buffer as
    /// [`Frame::BatchedSubmit`] chunks of up to [`MAX_BATCH`]: one header,
    /// one checksum per chunk instead of per submit.
    fn flush_refills(&mut self) {
        while !self.refills.is_empty() {
            let n = self.refills.len().min(MAX_BATCH);
            let subs: Vec<Sub> = self.refills.drain(..n).collect();
            self.wbuf
                .push(&Frame::BatchedSubmit { subs }, WireVersion::V2);
        }
    }
}

/// Open `config.conns` connections against `addr` from
/// `config.threads` epoll-driven threads, hold them all concurrently,
/// push `submits_per_conn` requests down each, and account every answer.
/// Each connection does the `Hello`/`HelloAck` version check while still
/// blocking, and every submit leaves in a [`Frame::BatchedSubmit`]: the
/// submits staged during one readiness pass share one frame, so a deep
/// window amortizes framing the way batched replay does.
///
/// Unlike [`replay`] (two OS threads per connection), the storm costs one
/// fd per connection and a fixed handful of threads, which is what makes
/// a 10k-connection client fit in the same process limits as the server
/// it is aimed at.
pub fn connection_storm(addr: SocketAddr, config: &StormConfig) -> io::Result<StormReport> {
    assert!(config.conns >= 1, "need at least one connection");
    let threads = config.threads.clamp(1, config.conns);
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        // Split `conns` across threads; ids are globally unique.
        let share = config.conns / threads + usize::from(t < config.conns % threads);
        let first_conn: usize = (0..t)
            .map(|u| config.conns / threads + usize::from(u < config.conns % threads))
            .sum();
        let config = config.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(
            std::thread::Builder::new()
                .name(format!("arlo-storm-{t}"))
                .spawn(move || storm_worker(addr, &config, first_conn, share, &barrier))?,
        );
    }
    let mut report = StormReport::default();
    let mut first_err: Option<io::Error> = None;
    for handle in handles {
        match handle.join().expect("storm worker panicked") {
            Ok(part) => report.merge(part),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.wall = started.elapsed();
    Ok(report)
}

fn storm_worker(
    addr: SocketAddr,
    config: &StormConfig,
    first_conn: usize,
    share: usize,
    barrier: &std::sync::Barrier,
) -> io::Result<StormReport> {
    let mut report = StormReport::default();
    let epoll = Epoll::new()?;
    let mut conns: Vec<Option<StormConn>> = Vec::with_capacity(share);

    // Phase 1: connect everything (blocking — including the version
    // check, which must finish before request traffic — then flip
    // non-blocking).
    for i in 0..share {
        match TcpStream::connect_timeout(&addr, config.connect_timeout) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                stream.set_read_timeout(Some(config.connect_timeout))?;
                let hello = Frame::Hello {
                    max_version: WireVersion::MAX.byte(),
                }
                .write_to(&mut stream);
                match hello
                    .map_err(ReadFrameError::Io)
                    .and_then(|()| read_frame(&mut stream))
                {
                    Ok(Some(Frame::HelloAck { .. })) => {}
                    // Shard 0 answers an over-limit connection with a
                    // typed Shed before reading anything.
                    Ok(Some(Frame::Error {
                        id: CONN_ERROR_ID,
                        code: ErrorCode::Shed,
                    })) => {
                        report.connected += 1;
                        report.refused += 1;
                        conns.push(None);
                        continue;
                    }
                    _ => {
                        // A connection that cannot even complete the
                        // version check is indistinguishable from one that
                        // never connected.
                        report.connect_errors += 1;
                        conns.push(None);
                        continue;
                    }
                }
                stream.set_nonblocking(true)?;
                epoll.add(&stream, i as u64, Interest::READ)?;
                report.connected += 1;
                conns.push(Some(StormConn {
                    stream,
                    frames: FrameReader::new(),
                    wbuf: FrameWriteBuf::new(),
                    pending: 0,
                    id_base: ((first_conn + i) as u64) * u64::from(config.submits_per_conn),
                    next_k: 0,
                    quota: u64::from(config.submits_per_conn),
                    length: config.length,
                    refills: Vec::new(),
                    interest: Interest::READ,
                    dead: false,
                }));
            }
            Err(_) => {
                report.connect_errors += 1;
                conns.push(None);
            }
        }
    }

    // Phase 2: every thread fully connected; hold the pool open so the
    // caller can observe sustained concurrency server-side.
    barrier.wait();
    std::thread::sleep(config.hold);

    // Phase 3: queue the initial submits — everything (open loop,
    // `window == 0`) or the first window's worth (closed loop; each
    // accounted answer refills one) — then pump readiness until all
    // answers arrive or the deadline passes.
    let initial = if config.window == 0 {
        u64::from(config.submits_per_conn)
    } else {
        u64::from(config.window).min(u64::from(config.submits_per_conn))
    };
    for slot in conns.iter_mut() {
        let Some(conn) = slot.as_mut() else { continue };
        for _ in 0..initial {
            conn.refill_one(&mut report);
        }
    }
    let deadline = Instant::now() + config.deadline;
    let mut events = Vec::new();
    let mut open: usize = conns.iter().flatten().filter(|c| c.pending > 0).count();
    // First write pass (no EPOLLOUT arrives for a socket we never asked
    // about): push what fits, arm write interest for the rest.
    for (i, slot) in conns.iter_mut().enumerate() {
        if let Some(conn) = slot.as_mut() {
            drive_storm_conn(conn, &epoll, i as u64, &mut report, &mut open);
        }
    }
    while open > 0 && Instant::now() < deadline {
        let timeout = deadline
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(100));
        let _ = epoll.wait(&mut events, Some(timeout));
        for token in events.iter().map(|ev| ev.token as usize) {
            if let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) {
                drive_storm_conn(conn, &epoll, token as u64, &mut report, &mut open);
            }
        }
    }
    // Deadline: whatever never got an answer is lost, by definition.
    for conn in conns.iter().flatten() {
        if !conn.dead {
            report.lost += conn.pending;
        }
    }
    Ok(report)
}

/// Pump one stormed connection: flush queued submits, decode and account
/// every answer, and keep epoll interest in sync with what is pending.
fn drive_storm_conn(
    conn: &mut StormConn,
    epoll: &Epoll,
    token: u64,
    report: &mut StormReport,
    open: &mut usize,
) {
    if conn.dead {
        return;
    }
    let had_pending = conn.pending > 0;
    // Writes first: submits still queued locally cannot be answered. Any
    // refills staged since the last pass batch into the buffer now.
    conn.flush_refills();
    while !conn.wbuf.is_empty() {
        match conn.wbuf.write_some(&mut conn.stream) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                storm_conn_died(conn, epoll, report, open, had_pending);
                return;
            }
        }
    }
    // Reads: drain everything decodable, then the socket until WouldBlock.
    loop {
        loop {
            match conn.frames.next_frame() {
                Ok(Some(frame)) => storm_account(conn, &frame, report),
                Ok(None) => break,
                // Answers from a correct server never fail to decode;
                // treat any junk as a dead connection.
                Err(_) => {
                    storm_conn_died(conn, epoll, report, open, had_pending);
                    return;
                }
            }
        }
        match conn.frames.fill(&mut conn.stream) {
            Ok(0) => {
                storm_conn_died(conn, epoll, report, open, had_pending);
                return;
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                storm_conn_died(conn, epoll, report, open, had_pending);
                return;
            }
        }
    }
    // Closed-loop refills were queued during the read pass above — the
    // whole pass coalesces into one BatchedSubmit here. Flush now
    // rather than waiting for an EPOLLOUT round-trip (loopback is almost
    // always writable — the interest arm below is only the
    // genuinely-backpressured fallback).
    conn.flush_refills();
    while !conn.wbuf.is_empty() {
        match conn.wbuf.write_some(&mut conn.stream) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                storm_conn_died(conn, epoll, report, open, had_pending);
                return;
            }
        }
    }
    if had_pending && conn.pending == 0 {
        *open -= 1;
    }
    let desired = Interest {
        readable: true,
        writable: !conn.wbuf.is_empty(),
    };
    if desired != conn.interest && epoll.modify(&conn.stream, token, desired).is_ok() {
        conn.interest = desired;
    }
}

fn storm_account(conn: &mut StormConn, frame: &Frame, report: &mut StormReport) {
    match frame {
        Frame::Response { .. } => {
            report.ok += 1;
            conn.pending = conn.pending.saturating_sub(1);
            conn.refill_one(report);
        }
        // Connection-scoped verdicts (a protocol disconnect, a corrupt
        // frame): not the answer to any submit. On a disconnect the socket
        // is about to close; EOF handling accounts the pending rest.
        Frame::Error {
            id: CONN_ERROR_ID, ..
        } => {}
        Frame::Error { code, .. } => {
            let counter = match code {
                ErrorCode::Shed => &mut report.shed,
                ErrorCode::Unserviceable => &mut report.unserviceable,
                ErrorCode::Draining => &mut report.draining,
                _ => &mut report.failed,
            };
            *counter += 1;
            conn.pending = conn.pending.saturating_sub(1);
            conn.refill_one(report);
        }
        _ => {}
    }
}

fn storm_conn_died(
    conn: &mut StormConn,
    epoll: &Epoll,
    report: &mut StormReport,
    open: &mut usize,
    had_pending: bool,
) {
    conn.dead = true;
    let _ = epoll.delete(&conn.stream);
    // Queued-but-unwritten submits are already in `pending`, so this one
    // line accounts everything the connection will never answer.
    report.lost += conn.pending;
    conn.pending = 0;
    if had_pending {
        *open -= 1;
    }
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
    fn storm_report_conservation() {
        let report = StormReport {
            submitted: 10,
            ok: 6,
            shed: 2,
            unserviceable: 1,
            draining: 1,
            ..StormReport::default()
        };
        assert!(report.conserved());
        let short = StormReport {
            submitted: 10,
            ok: 6,
            ..StormReport::default()
        };
        assert!(!short.conserved());
    }
}
