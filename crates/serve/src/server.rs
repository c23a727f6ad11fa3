//! The TCP front door over [`ArloEngine`].
//!
//! One connection plane (see `DESIGN.md` §12): accepted sockets live as
//! *non-blocking state machines* on [`ServeConfig::shards`] epoll
//! event-loop threads, which feed one batch scheduler. One box per OS
//! thread kind:
//!
//! ```text
//!   clients ──TCP──► shard 0 (listener) ──hand-off──► shard 1..N
//!                      │  each owns its conns and its executors' heaps:
//!                      │  FrameReader ◄─ nonblocking reads
//!                      │  FrameWriteBuf ─► nonblocking writes
//!                      │
//!                      ├─ run to completion: place ─► engine.submit ─►
//!                      │  executor ─► due now: completes inline
//!                      ├─ due later: parked in the executor's heap,
//!                      │  fired when this shard's epoll_wait times out
//!                      │
//!                      ◄── bounded outbound queues ◄── responses from other threads
//!                      │
//!                      └─ shard 0 only, when due: the planner's health
//!                         ticks + reallocation, or the coordinator's re-grants
//! ```
//!
//! The shards are the only threads a server spawns. A shard is the only
//! thread that places a request, and executor `i`'s deadline heap belongs
//! to shard `i % shards`, which sleeps no longer than until the heap's
//! head, fires what is ripe and writes the answers out itself. Otherwise
//! a shard wakes for socket readiness, for its eventfd [`Waker`] — another
//! thread queued a frame on one of its connections, doomed one, or parked
//! a deadline ahead of one of its heaps — for the planner's next tick or
//! pass (shard 0), or once per sweep interval (idle reaping, write-stall
//! dooming). A connection costs no thread. Every socket read and write goes straight
//! to the socket: network faults are injected on the client side of the
//! wire ([`crate::chaos::FaultyStream`]).
//!
//! Backpressure and failure are explicit end to end:
//!
//! - A submit the SLO-class gate or the engine refuses is answered with a
//!   typed [`ErrorCode::Shed`] (or [`ErrorCode::Unserviceable`]) frame,
//!   never a stall.
//! - Every response travels through a **bounded per-connection outbound
//!   queue** drained by the connection's shard with non-blocking writes,
//!   so a stalled or slow client can never block a placing thread or the
//!   executor's completion path. A full queue (or a write stalled past
//!   `write_timeout`) dooms only that connection — a typed disconnect, not
//!   shared-fate backpressure. A shard catching up on ripe deadlines fires
//!   them in slices of half a queue, writing out between slices, so it
//!   cannot outrun a client that is reading.
//! - The shard's periodic sweep **reaps idle connections**: a half-open or
//!   silent socket is closed after `idle_timeout`.
//! - Malformed frames with an intact header are *skipped* and charged
//!   against a per-connection **weighted error budget** (see
//!   [`ErrorBudget`]): a v2 checksum failure costs a single point and is
//!   answered with a retryable [`ErrorCode::Corrupt`] frame, well-framed
//!   garbage costs more, and good frames earn points back — so escalation
//!   to a connection-level [`ErrorCode::Protocol`] disconnect requires
//!   *sustained* corruption, not one noisy burst. Losing framing entirely
//!   (bad magic/version, absurd length) disconnects immediately.
//! - One data dialect: every frame leaves at its [`Frame::dialect`] (v2,
//!   checksummed; the v1 bootstrap only for [`Frame::HelloAck`]), so a
//!   connection keeps no version state. A [`Frame::Hello`] offering v2 or
//!   newer earns a `HelloAck`, an older one a typed [`ErrorCode::Protocol`]
//!   disconnect, and a v1 data frame is framing lost like bad magic.
//! - Shard 0 enforces `max_conns` at accept: beyond it, a new connection
//!   is answered with a single [`ErrorCode::Shed`] frame and closed. An
//!   accept error other than `WouldBlock` (out of file descriptors, say)
//!   mutes the listener until the next sweep instead of spinning on it.
//! - A panicking executor completion callback is caught on the thread that
//!   ran it; the in-flight batch is re-accounted as failed through
//!   [`ArloEngine::report_batch`] and every member's client is answered
//!   with [`ErrorCode::Failed`], so drain can never deadlock on a poisoned
//!   callback. A placement that panics on a shard is caught behind the
//!   same boundary ([`Executor::recover`]): that one request is answered
//!   `Failed` and the shard carries on.
//!
//! Graceful drain closes the listener, refuses new submits with
//! [`ErrorCode::Draining`], flushes every outstanding execution *and*
//! every queued response frame, then closes connections and joins all
//! threads.

use crate::chaos::{ComponentChaos, ComponentChaosPlan};
use crate::clock::VirtualClock;
use crate::epoll::{Epoll, Interest, Waker, WAKER_TOKEN};
use crate::executor::{CompletedBatch, Executor, Job};
use crate::protocol::{
    DecodeError, ErrorBudget, ErrorCode, Frame, FrameReader, FrameWriteBuf, StatsPayload,
    WireVersion, CONN_ERROR_ID, FILL_CHUNK, FRAME_ERROR_BUDGET, UNKNOWN_TENANT_COST,
};
use crate::registry::StripedMap;
use crate::supervisor::{SupervisedCtx, Supervisor, SupervisorEvent};
use crate::tenants::{BoundedLog, RegrantEvent, ShardedTenantWindow, SloClass, TenantSpec};
use arlo_core::engine::{ArloEngine, ReplacementPlan};
use arlo_core::multistream::{PoolCoordinator, StreamPlan};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::latency::JitterSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_trace::Nanos;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// GPUs handed to the Runtime Scheduler at every decision.
    pub gpus: u32,
    /// Virtual-time speed-up; 1 for production, 50–200 for tests/benches.
    pub time_scale: u32,
    /// Base of the SLO-class admission caps: a `Standard` tenant may hold
    /// 3/4 of this many requests outstanding, a `Batch` tenant 1/2, before
    /// its submits shed ([`SloClass::admit_limit`]). `Interactive` is
    /// ungated.
    pub queue_capacity: usize,
    /// Real-time cap on waiting for outstanding work during drain.
    pub drain_timeout: Duration,
    /// Fault injection: fail one in `n` executions (reported through
    /// [`ArloEngine::report_batch`] and answered with
    /// [`ErrorCode::Failed`]). `None` disables injection.
    pub fail_one_in: Option<u64>,
    /// Chaos injection: panic the executor's completion callback whenever a
    /// batch contains a request id hitting one-in-`n` — exercises the
    /// executor's catch/re-account path on the shard that completes the
    /// batch. `None` disables injection.
    pub panic_one_in: Option<u64>,
    /// Batch coalescing policy for the executor. The default —
    /// greedy [`BatchSpec::SINGLE`] — reproduces per-request execution
    /// exactly (the paper's batch-1 setting).
    pub batch: BatchPolicy,
    /// How often a shard sweeps its connections for idle, doomed, and
    /// write-stalled ones (and shard 0 re-arms a listener muted by an
    /// accept error) — also the longest it sleeps in `epoll_wait`, so the
    /// granularity at which those are noticed. A shard wakes earlier for
    /// its heaps' head and, on shard 0, for the planner's next tick or
    /// coordinator pass.
    pub sweep_interval: Duration,
    /// Real-time silence window after which a connection is reaped: no
    /// bytes from the client for this long closes the socket. Half-open
    /// sockets die here instead of leaking.
    pub idle_timeout: Duration,
    /// Bound of each connection's outbound response queue. A connection
    /// whose client stalls long enough to fill it is doomed (typed
    /// disconnect) rather than allowed to backpressure placement.
    pub outbound_queue: usize,
    /// How long a connection's socket may refuse bytes (a client that
    /// stopped reading) before the connection is doomed.
    pub write_timeout: Duration,
    /// Admission limit on concurrent connections: beyond it shard 0
    /// answers one [`ErrorCode::Shed`] frame and closes.
    pub max_conns: usize,
    /// Epoll event-loop threads (at least 1 is spawned), the server's only
    /// threads. Shard 0 accepts and assigns connections round-robin, and
    /// runs the planner between its waits; tenant `i`'s executor heap
    /// belongs to shard `i % shards`.
    /// [`ServeConfig::new`] computes it: half the available parallelism —
    /// the other half is left to clients — which is 1 on the 2-vCPU
    /// reference host, the only shape measured (`EXPERIMENTS.md`). The
    /// connection registry gets `max(8, shards)` stripes, so every shard
    /// owns a disjoint set of them.
    pub shards: usize,
    /// Multi-tenant only ([`Server::spawn_multi`]): virtual interval
    /// between coordinator passes — each pass drains the per-tenant demand
    /// windows, re-partitions the pool with
    /// [`PoolCoordinator::partition`], and applies any resulting
    /// re-grants.
    pub coordinator_interval: Nanos,
    /// Multi-tenant only: span of the sliding per-tenant demand window the
    /// coordinator plans over.
    pub coordinator_window: Nanos,
    /// Test-only in-process fault injection: a seeded
    /// [`ComponentChaos`] schedule targeting server components by name
    /// prefix (`shard`, `planner`), consulted on every shard heartbeat and
    /// at every planner wake on shard 0. `None` — the production setting —
    /// injects nothing.
    pub component_chaos: Option<ComponentChaos>,
    /// How long a component's heartbeat may freeze while unparked before
    /// [`Server::check_stalls`] flags it stalled.
    pub stall_grace: Duration,
}

impl ServeConfig {
    /// Defaults for a loopback deployment of `gpus` GPUs at real-time pace.
    pub fn new(gpus: u32) -> Self {
        ServeConfig {
            gpus,
            time_scale: 1,
            queue_capacity: 4096,
            drain_timeout: Duration::from_secs(30),
            fail_one_in: None,
            panic_one_in: None,
            batch: BatchPolicy::greedy(BatchSpec::SINGLE),
            sweep_interval: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(30),
            outbound_queue: 1024,
            write_timeout: Duration::from_secs(5),
            max_conns: 4096,
            shards: std::thread::available_parallelism().map_or(1, |n| (n.get() / 2).max(1)),
            coordinator_interval: arlo_trace::NANOS_PER_SEC,
            coordinator_window: 2 * arlo_trace::NANOS_PER_SEC,
            component_chaos: None,
            stall_grace: Duration::from_millis(500),
        }
    }

    /// Set the virtual-time speed-up factor.
    pub fn with_time_scale(mut self, scale: u32) -> Self {
        self.time_scale = scale;
        self
    }

    /// Set the executor's batch coalescing policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Set the coordinator's pass interval and demand-window span (both in
    /// virtual nanoseconds; multi-tenant servers only).
    pub fn with_coordinator(mut self, interval: Nanos, window: Nanos) -> Self {
        self.coordinator_interval = interval;
        self.coordinator_window = window;
        self
    }

    /// Enable seeded in-process component fault injection (tests).
    pub fn with_component_chaos(mut self, chaos: ComponentChaos) -> Self {
        self.component_chaos = Some(chaos);
        self
    }

    /// Set the stall check's grace window.
    pub fn with_stall_grace(mut self, grace: Duration) -> Self {
        self.stall_grace = grace;
        self
    }
}

/// The largest length any runtime in `profiles` can serve; 0 for an empty
/// family. Total on purpose: a zero-runtime engine (post-retirement or
/// misconfiguration) must surface as typed [`ErrorCode::Unserviceable`]
/// refusals, never as a server panic.
fn family_max_length(profiles: &[RuntimeProfile]) -> u32 {
    profiles.last().map_or(0, |p| p.max_length())
}

/// Typed refusal for a submit the engine would not place: lengths beyond
/// the family's reach — including *any* length when the family is empty —
/// are [`ErrorCode::Unserviceable`]; a serviceable length refused anyway
/// is load, i.e. [`ErrorCode::Shed`].
fn refusal_code(length: u32, max_length: u32) -> ErrorCode {
    if max_length == 0 || length > max_length {
        ErrorCode::Unserviceable
    } else {
        ErrorCode::Shed
    }
}

/// One tenant's counters at one moment: a row of [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name (from its [`TenantSpec`]).
    pub name: String,
    /// Admission tier.
    pub class: SloClass,
    /// The tenant's SLO in milliseconds.
    pub slo_ms: f64,
    /// Submit frames addressed to this tenant.
    pub submits: u64,
    /// Requests completed and answered with a response frame.
    pub served: u64,
    /// Requests refused by admission (class gate or engine) or during drain.
    pub shed: u64,
    /// Requests no runtime of this tenant's family could serve.
    pub unserviceable: u64,
    /// Execution failures (injected or recovered panics), answered `Failed`.
    pub failed: u64,
    /// Requests admitted and not yet answered (after a clean drain, 0).
    pub outstanding: u64,
    /// GPUs currently granted.
    pub granted_gpus: u32,
    /// The tenant engine's deployment generation.
    pub generation: u64,
}

impl TenantStats {
    /// Every submit in a terminal bucket or still outstanding. Conservation
    /// is `submits == accounted()`: the server-side twin of
    /// [`LoadGenReport::accounted`](crate::loadgen::LoadGenReport::accounted).
    pub fn accounted(&self) -> u64 {
        self.served + self.shed + self.unserviceable + self.failed + self.outstanding
    }
}

/// Every counter the server keeps, read at one moment: one row per tenant
/// plus the server-wide figures. [`Server::snapshot`] reads a running
/// server with relaxed loads, so it is approximate while requests are in
/// flight; [`Server::drain`] returns one taken after every thread is
/// joined, which is exact.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Indexed by tenant id (0 is the default tenant); see [`Snapshot::total`].
    pub tenants: Vec<TenantStats>,
    /// Replacement plans applied.
    pub reallocations: u64,
    /// Connections reaped for idling past [`ServeConfig::idle_timeout`].
    pub reaped_idle: u64,
    /// Connections doomed by a client that stopped reading (queue overflow or
    /// a write stalled past [`ServeConfig::write_timeout`]).
    pub slow_disconnects: u64,
    /// Connections closed with a typed [`ErrorCode::Protocol`] error.
    pub protocol_disconnects: u64,
    /// Frames refused for a checksum mismatch (answered [`ErrorCode::Corrupt`]).
    pub corrupt_frames: u64,
    /// Connections refused at [`ServeConfig::max_conns`].
    pub refused_conns: u64,
    /// Response frames dropped because their connection was gone, doomed or
    /// full: answers no client got.
    pub dropped_responses: u64,
    /// Submits naming a tenant this server does not host (answered
    /// [`ErrorCode::UnknownTenant`]): in no tenant row, so outside
    /// conservation.
    pub unknown_tenants: u64,
    /// Panics caught and re-accounted: completion callbacks and placements.
    pub panics_recovered: u64,
    /// Heartbeat stall episodes [`Server::check_stalls`] found.
    pub stalls_detected: u64,
    /// Components that died of a panic; the first started the drain.
    pub escalations: u64,
    /// The most recent component panics, stalls and escalations, oldest first.
    pub supervisor_events: Vec<SupervisorEvent>,
    /// The coordinator's most recent re-grants, oldest first.
    pub regrants: Vec<RegrantEvent>,
    /// Sealed batch sizes: entry `b-1` counts batches of `b` jobs.
    pub batch_occupancy: Vec<u64>,
    /// `(generation, runtime, instance)` coalescers the executors track —
    /// bounded across reallocations by the post-apply eviction.
    pub tracked_instances: usize,
    /// Cross-thread shard wake-ups (eventfd writes): a response, doom or
    /// undercutting deadline from a thread other than the owning shard.
    pub shard_notifies: u64,
    /// Connections registered.
    pub active_connections: usize,
    /// Whether a drain was requested: locally, by a client's
    /// [`Frame::Drain`], or by an escalation.
    pub draining: bool,
}

impl Snapshot {
    /// A server-wide request figure: one counter summed over the tenant
    /// rows, e.g. `total(|t| t.served)` or `total(TenantStats::accounted)`.
    pub fn total(&self, counter: impl Fn(&TenantStats) -> u64) -> u64 {
        self.tenants.iter().map(counter).sum()
    }

    /// The wire view a [`Frame::Stats`] carries. It predates tenancy: one
    /// generation (the default tenant's), and every refusal in `shed`.
    pub fn stats(&self) -> StatsPayload {
        StatsPayload {
            generation: self.tenants.first().map_or(0, |t| t.generation),
            served: self.total(|t| t.served),
            shed: self.total(|t| t.shed + t.unserviceable + t.failed),
            outstanding: self.total(|t| t.outstanding),
            reallocations: self.reallocations,
        }
    }
}

/// A connection's bounded outbound frame queue. Producers (`respond`)
/// push under the queue's own lock — *not* the registry stripe, which they
/// release before touching the queue — and the owning shard swaps the
/// backlog out into the connection's [`FrameWriteBuf`].
///
/// The `closed` latch is what makes that safe: `close_conn` sets it (and
/// drains the backlog) under this lock after deregistering the handle, so
/// a responder that resolved its route before the removal observes
/// `closed` here and balances the flush accounting itself. Exactly one
/// side counts each frame out — no frame can slip in behind a closed
/// connection's accounting.
struct Outbound {
    capacity: usize,
    queue: Mutex<OutboundQueue>,
}

impl Outbound {
    fn new(capacity: usize) -> Outbound {
        Outbound {
            capacity,
            queue: Mutex::new(OutboundQueue::default()),
        }
    }
}

#[derive(Default)]
struct OutboundQueue {
    frames: VecDeque<Frame>,
    closed: bool,
}

/// An accepted connection on its way from shard 0's accept to its shard.
struct IncomingConn {
    conn_id: u64,
    stream: TcpStream,
    outbound: Arc<Outbound>,
    doomed: Arc<AtomicBool>,
}

/// The cross-thread face of one epoll shard: how shard 0 hands it
/// connections and how `respond`/`doom`/`park`/`drain` nudge a sleeping
/// `epoll_wait`.
struct ShardHandle {
    /// The shard's index ([`ON_SHARD`] on its own thread).
    id: usize,
    waker: Waker,
    /// Connections whose outbound queue went non-empty or whose doom flag
    /// was freshly set.
    dirty: Mutex<Vec<u64>>,
    /// Accepted sockets awaiting adoption by the shard.
    incoming: Mutex<Vec<IncomingConn>>,
    /// `wake` calls so far ([`Snapshot::shard_notifies`]).
    notifies: AtomicU64,
}

impl ShardHandle {
    fn new(epoll: &Epoll, id: usize) -> io::Result<ShardHandle> {
        Ok(ShardHandle {
            id,
            waker: Waker::new(epoll)?,
            dirty: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            notifies: AtomicU64::new(0),
        })
    }

    /// Wake the shard from another thread.
    fn wake(&self) {
        self.notifies.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
    }

    fn notify(&self, conn_id: u64) {
        self.dirty.lock().push(conn_id);
        self.wake();
    }
}

thread_local! {
    /// The shard this thread runs, if it is one.
    static ON_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// This shard's own dirty list: connections whose outbound queue it
    /// made non-empty itself. It writes them out before it waits again, so
    /// they cost no eventfd write.
    static LOCAL_DIRTY: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The registry's view of a connection: what `respond` and `doom` need to
/// reach it from any thread.
struct ConnHandle {
    conn_id: u64,
    outbound: Arc<Outbound>,
    shard: Arc<ShardHandle>,
    doomed: Arc<AtomicBool>,
}

impl ConnHandle {
    /// Kill this connection: the owning shard, kicked by a waker
    /// notification, notices the flag and closes it. Returns true only for
    /// the transition (so dooming is counted once per connection).
    fn doom(&self) -> bool {
        let first = !self.doomed.swap(true, Ordering::SeqCst);
        self.shard.notify(self.conn_id);
        first
    }
}

/// One tenant stream's live server-side state: its engine, its SLO-class
/// admission gate, its streaming demand window, and its slice of the
/// accounting. Tenant id is the index into [`Shared::tenants`]; index 0 is
/// the default tenant.
struct Tenant {
    name: String,
    class: SloClass,
    slo_ms: f64,
    engine: ArloEngine,
    /// Largest length this tenant's runtime family can serve (0 when the
    /// family is empty — every submit is then unserviceable).
    max_length: u32,
    /// SLO-class admission gate: the most requests this tenant may hold
    /// outstanding before the class sheds. `None` — the `Interactive`
    /// tier — is ungated, reproducing single-tenant admission exactly.
    admit_limit: Option<u64>,
    /// GPUs currently granted by the coordinator (reporting; the engine's
    /// deployment is the authority on instance counts).
    granted: AtomicU32,
    /// Streaming per-tenant demand: offered arrivals the coordinator
    /// periodically plans into a [`StreamPlan`]. Lock-striped by
    /// connection id ([`ShardedTenantWindow`]) so the per-submit record
    /// on the hot path never funnels every connection through one mutex.
    /// `None` unless the server runs the coordinator.
    window: Option<ShardedTenantWindow>,
    /// The request counters. The server keeps no other copy: a
    /// server-wide figure is the sum over the tenants ([`Snapshot::total`]).
    submits: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    unserviceable: AtomicU64,
    failed: AtomicU64,
    outstanding: AtomicU64,
}

/// Everything the serving threads share.
///
/// # Atomic-ordering contract
///
/// Only a handful of the atomics here are **load-bearing for gates** and
/// keep `SeqCst`; everything else is a pure statistic and uses `Relaxed`:
///
/// - `outstanding` (per tenant): gates the tenant's SLO-class admission
///   limit *and*, summed over the tenants, drain's flush wait — an
///   increment must be globally visible before the submit it admits can
///   complete.
/// - `queued_frames`: gates drain's flush wait; incremented *before* the
///   send and decremented after delivery/drop, so it can never dip below
///   zero and wedge the wait.
/// - `draining` / `shutdown`: sequence the drain protocol across every
///   thread.
/// - `doomed` (per connection): a once-only `swap` — dooming must be
///   counted exactly once per connection.
///
/// Every other counter is a statistic, read only through [`Snapshot`]:
/// `Relaxed` increments, exact once the writing threads are joined — the
/// join is the happens-before edge [`Server::drain`]'s conservation law
/// rests on — and approximate in a [`Server::snapshot`] of a live server.
/// The request counters live only in the tenant rows, so a request
/// touches one set of them and a server-wide figure is their sum.
struct Shared {
    /// Tenant streams, indexed by wire tenant id. Never empty; index 0 is
    /// the default tenant.
    tenants: Vec<Tenant>,
    clock: Arc<VirtualClock>,
    fail_one_in: Option<u64>,
    panic_one_in: Option<u64>,
    draining: AtomicBool,
    /// Set once drain has flushed: the shards close up and return.
    shutdown: AtomicBool,
    reallocations: AtomicU64,
    /// Response frames enqueued on outbound queues and not yet written;
    /// drain flushes this to zero before closing sockets.
    queued_frames: AtomicU64,
    reaped_idle: AtomicU64,
    slow_disconnects: AtomicU64,
    protocol_disconnects: AtomicU64,
    corrupt_frames: AtomicU64,
    refused_conns: AtomicU64,
    /// Response frames dropped because their connection was gone or
    /// doomed (the client's loss — chaos clients retry).
    dropped_responses: AtomicU64,
    /// Submits addressed to tenants this server does not host (each
    /// answered with [`ErrorCode::UnknownTenant`]).
    unknown_tenants: AtomicU64,
    /// The coordinator's structured reallocation log (multi-tenant only),
    /// bounded to the most recent re-grants.
    regrants: Mutex<BoundedLog<RegrantEvent>>,
    /// The lock-striped connection registry: `respond` resolves routes
    /// under one stripe (never a process-global lock) and never holds the
    /// stripe across a socket/queue write. See [`StripedMap`].
    conns: StripedMap<ConnHandle>,
}

impl Shared {
    /// One stream per tenant, a clock starting at zero now, and zeroed
    /// accounting; demand windows only if the server `coordinate`s.
    fn new(
        tenants: Vec<(TenantSpec, ArloEngine)>,
        config: &ServeConfig,
        coordinate: bool,
    ) -> Shared {
        // Every shard gets its own disjoint set of stripes (see
        // `ServeConfig::shards`).
        let stripes = config.shards.max(8);
        let tenants = tenants
            .into_iter()
            .map(|(spec, engine)| Tenant {
                max_length: family_max_length(engine.profiles()),
                admit_limit: spec.class.admit_limit(config.queue_capacity),
                name: spec.name,
                class: spec.class,
                slo_ms: spec.slo_ms,
                granted: AtomicU32::new(engine.deployment().1.iter().sum()),
                engine,
                window: coordinate
                    .then(|| ShardedTenantWindow::new(config.coordinator_window, stripes)),
                submits: AtomicU64::new(0),
                served: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                unserviceable: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                outstanding: AtomicU64::new(0),
            })
            .collect();
        Shared {
            tenants,
            clock: Arc::new(VirtualClock::new(config.time_scale)),
            fail_one_in: config.fail_one_in,
            panic_one_in: config.panic_one_in,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            reallocations: AtomicU64::new(0),
            queued_frames: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            slow_disconnects: AtomicU64::new(0),
            protocol_disconnects: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            refused_conns: AtomicU64::new(0),
            dropped_responses: AtomicU64::new(0),
            unknown_tenants: AtomicU64::new(0),
            regrants: Mutex::new(BoundedLog::default()),
            conns: StripedMap::new(stripes),
        }
    }

    /// The tenant a wire tenant id addresses, if this server hosts it.
    fn tenant(&self, id: u32) -> Option<&Tenant> {
        self.tenants.get(id as usize)
    }

    /// The counters `Shared` holds, read now: the tenant rows and the
    /// connection plane's. [`Server::snapshot`] adds the executors', the
    /// supervisor's and the shards'.
    fn snapshot(&self) -> Snapshot {
        let relaxed = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        Snapshot {
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantStats {
                    name: t.name.clone(),
                    class: t.class,
                    slo_ms: t.slo_ms,
                    submits: relaxed(&t.submits),
                    served: relaxed(&t.served),
                    shed: relaxed(&t.shed),
                    unserviceable: relaxed(&t.unserviceable),
                    failed: relaxed(&t.failed),
                    outstanding: t.outstanding.load(Ordering::SeqCst),
                    granted_gpus: t.granted.load(Ordering::Relaxed),
                    generation: t.engine.deployment().0,
                })
                .collect(),
            reallocations: relaxed(&self.reallocations),
            reaped_idle: relaxed(&self.reaped_idle),
            slow_disconnects: relaxed(&self.slow_disconnects),
            protocol_disconnects: relaxed(&self.protocol_disconnects),
            corrupt_frames: relaxed(&self.corrupt_frames),
            refused_conns: relaxed(&self.refused_conns),
            dropped_responses: relaxed(&self.dropped_responses),
            unknown_tenants: relaxed(&self.unknown_tenants),
            regrants: self.regrants.lock().to_vec(),
            active_connections: self.conns.len(),
            draining: self.draining.load(Ordering::Relaxed),
            ..Snapshot::default()
        }
    }

    /// Enqueue a frame on a connection's bounded outbound queue. Never
    /// blocks: a vanished connection drops the frame, and a *full* queue —
    /// a client that stopped reading while responses kept coming — dooms
    /// the connection (typed disconnect) instead of stalling the caller.
    /// This is the only way frames reach sockets, so no thread placing or
    /// completing a request can ever block on a slow client.
    ///
    /// Locking discipline: the registry stripe is held only long enough to
    /// clone the handle's two `Arc`s; the actual queue push happens
    /// **after the stripe is released**, so a responder never holds any
    /// registry lock across a queue write. The close race this opens — a
    /// shard tearing the connection down between our lookup and our push —
    /// is handled by the outbound queue's own `closed` latch (see
    /// [`Outbound`]).
    ///
    /// The shard is notified (a `dirty` push and an eventfd write) only by
    /// the push that takes the queue from empty to non-empty. That loses
    /// no frame:
    ///
    /// - A frame pushed onto a non-empty queue sits behind one whose
    ///   pusher found the queue empty and notifies after releasing the
    ///   lock. The drive that notification causes takes the queue lock
    ///   after it, and so after both pushes — had any drive emptied the
    ///   queue in between, the later pusher would have found it empty and
    ///   notified itself.
    /// - A queue the shard itself leaves non-empty (the socket refused
    ///   bytes) is re-driven without any notification: by `EPOLLOUT` or by
    ///   the sweep (see [`FramedConn::desired_interest`], [`sweep`]).
    /// - A connection is driven once when its shard adopts it, so a frame
    ///   queued before adoption is not stranded behind a notification the
    ///   shard could not yet match to a connection.
    /// - A push by the connection's own shard — answering a request it
    ///   placed, or firing a heap it owns — notifies nobody: it goes on that
    ///   shard's [`LOCAL_DIRTY`] list, which the shard drives before it
    ///   waits again (see [`fire_heaps`]).
    fn respond(&self, conn_id: u64, frame: &Frame) {
        let route = self.conns.with(conn_id, |handle| {
            handle.map(|h| (Arc::clone(&h.outbound), Arc::clone(&h.shard)))
        });
        let Some((outbound, shard)) = route else {
            self.dropped_responses.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Count the frame *before* queueing it: the shard decrements after
        // writing, so incrementing afterwards could race the counter below
        // zero (u64 wrap) and wedge drain's flush wait.
        self.queued_frames.fetch_add(1, Ordering::SeqCst);
        enum Push {
            First,
            Behind,
            Overflowed,
            Closed,
        }
        let outcome = {
            let mut queue = outbound.queue.lock();
            if queue.closed {
                Push::Closed
            } else if queue.frames.len() >= outbound.capacity {
                Push::Overflowed
            } else {
                let first = queue.frames.is_empty();
                queue.frames.push_back(frame.clone());
                if first {
                    Push::First
                } else {
                    Push::Behind
                }
            }
        };
        match outcome {
            Push::First if ON_SHARD.get() == Some(shard.id) => {
                LOCAL_DIRTY.with_borrow_mut(|dirty| dirty.push(conn_id));
            }
            Push::First => shard.notify(conn_id),
            Push::Behind => {}
            Push::Overflowed => {
                self.queued_frames.fetch_sub(1, Ordering::SeqCst);
                self.dropped_responses.fetch_add(1, Ordering::Relaxed);
                self.doom_conn(conn_id);
            }
            Push::Closed => {
                // close_conn won between our stripe lookup and this push;
                // it already drained the backlog, so balance our own frame
                // and move on.
                self.queued_frames.fetch_sub(1, Ordering::SeqCst);
                self.dropped_responses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Doom a connection by id (the overflow/stall path), re-acquiring its
    /// registry stripe. Rare by construction — the hot path never dooms —
    /// so the second stripe acquisition costs nothing in practice. A
    /// handle already deregistered is fine: the connection is mid-close.
    fn doom_conn(&self, conn_id: u64) {
        let first = self.conns.with(conn_id, |h| h.map(ConnHandle::doom));
        if first == Some(true) {
            self.slow_disconnects.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running serve instance. Obtain one with [`Server::spawn`] (single
/// tenant) or [`Server::spawn_multi`] (per-tenant engines plus the GPU
/// re-granting coordinator); stop it with [`Server::drain`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    drain_timeout: Duration,
    /// Logs component failures and checks their heartbeats.
    supervisor: Supervisor,
    /// One handle per shard.
    shard_handles: Vec<Arc<ShardHandle>>,
    /// One thread per shard, in shard order.
    shards: Vec<JoinHandle<()>>,
    /// One executor per tenant (its own per-instance clocks); executor
    /// `i`'s deadline heap belongs to shard `i % shards`.
    executors: Vec<Arc<Executor>>,
    /// Most jobs one slice of heap firing completes (half an outbound
    /// queue).
    fire_slice: usize,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and spawn the serving threads
    /// over `engine`. The engine's clock starts at zero now: virtual
    /// timestamps passed to it derive from a [`VirtualClock`] anchored in
    /// this call.
    ///
    /// Single-tenant: the engine becomes the default tenant (id 0,
    /// ungated `Interactive` admission), no coordinator runs, and the
    /// planner's ticks on shard 0 own periodic reallocation.
    pub fn spawn(engine: ArloEngine, addr: &str, config: ServeConfig) -> io::Result<Server> {
        let spec = TenantSpec::new("default", SloClass::Interactive, 0.0);
        Server::spawn_inner(vec![(spec, engine)], addr, config, false)
    }

    /// Bind `addr` and spawn a multi-tenant server: one engine and
    /// executor per tenant (wire tenant id = position in `tenants`; index
    /// 0 is the default tenant), plus the live coordinator pass, run on
    /// shard 0, that periodically re-partitions `config.gpus` across the
    /// tenant engines from their streaming demand windows. In this mode the
    /// coordinator pass is the **sole** caller of
    /// [`ArloEngine::apply_allocation`], so generation-successor ordering
    /// can never race.
    pub fn spawn_multi(
        tenants: Vec<(TenantSpec, ArloEngine)>,
        addr: &str,
        config: ServeConfig,
    ) -> io::Result<Server> {
        Server::spawn_inner(tenants, addr, config, true)
    }

    /// Multi-tenant serving with a *static* partition: per-tenant engines,
    /// wire routing, SLO-class admission, and accounting exactly as
    /// [`Server::spawn_multi`], but no re-granting coordinator — every
    /// tenant keeps its seed deployment for the server's lifetime (shard 0
    /// still health-ticks each engine). For deployments that pin
    /// capacity per tenant, and for controlled experiments that measure
    /// admission behavior at fixed capacity.
    pub fn spawn_multi_static(
        tenants: Vec<(TenantSpec, ArloEngine)>,
        addr: &str,
        config: ServeConfig,
    ) -> io::Result<Server> {
        Server::spawn_inner(tenants, addr, config, false)
    }

    fn spawn_inner(
        tenants: Vec<(TenantSpec, ArloEngine)>,
        addr: &str,
        config: ServeConfig,
        coordinate: bool,
    ) -> io::Result<Server> {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(tenants, &config, coordinate));

        // The shards' epoll sets first: the executors wake their heaps'
        // owners through these handles, and shard 0 listens.
        let shard_count = config.shards.max(1);
        let mut epolls = Vec::with_capacity(shard_count);
        let mut shard_handles = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let epoll = Epoll::new()?;
            shard_handles.push(Arc::new(ShardHandle::new(&epoll, id)?));
            epolls.push(epoll);
        }
        epolls[0].add(&listener, LISTENER_TOKEN, Interest::READ)?;

        // A component that dies fails fast into a conserving drain. Refusing
        // new work is all it takes — every admitted request is already
        // placed, so the normal drain flushes the rest — and waking shard 0
        // makes it close the listener now, not at its next sweep.
        let escalate = {
            let shared = Arc::clone(&shared);
            let listening = Arc::clone(&shard_handles[0]);
            move || {
                shared.draining.store(true, Ordering::SeqCst);
                listening.waker.wake();
            }
        };
        let supervisor =
            Supervisor::new(config.component_chaos.clone(), config.stall_grace, escalate);

        // One executor per tenant, its deadline heap fired by shard
        // `i % shards`. A park that undercuts the heap's head wakes that
        // shard — unless the shard parked it itself, and will read the new
        // head before it waits again. A panicking completion callback must
        // not lose its batch: the executor catches the panic and the
        // handler re-accounts every member as failed (engine report +
        // typed client error).
        let mut executors = Vec::with_capacity(shared.tenants.len());
        for (idx, tenant) in shared.tenants.iter().enumerate() {
            let on_done = {
                let shared = Arc::clone(&shared);
                Box::new(move |done: CompletedBatch| complete_batch(&shared, &done))
            };
            let owner = Arc::clone(&shard_handles[idx % shard_count]);
            let executor = Arc::new(Executor::serviced_by_caller(
                tenant.engine.profiles().to_vec(),
                Arc::clone(&shared.clock),
                JitterSpec::NONE,
                config.batch,
                on_done,
                Box::new(move || {
                    if ON_SHARD.get() != Some(owner.id) {
                        owner.wake();
                    }
                }),
            ));
            {
                let shared = Arc::clone(&shared);
                executor.set_panic_handler(Box::new(move |done| fail_batch(&shared, &done)));
            }
            executors.push(executor);
        }

        let fire_slice = (config.outbound_queue / 2).max(1);
        let mut front_door = Some(FrontDoor {
            listener,
            shards: shard_handles.clone(),
            next_conn_id: 0,
            max_conns: config.max_conns,
            outbound_queue: config.outbound_queue,
        });
        // Planner intervals in real time at the speed-up, never under 1 ms.
        let real = |interval: Nanos| {
            Duration::from_nanos((interval / Nanos::from(config.time_scale)).max(1_000_000))
        };
        let tick = real(TICK_INTERVAL);
        let pass = coordinate.then(|| real(config.coordinator_interval));
        let now = Instant::now();
        let mut planner = Some(Planner {
            chaos: supervisor.chaos_plan("planner"),
            supervisor: supervisor.clone(),
            tick,
            pass,
            reallocate: !coordinate && shared.tenants.len() == 1,
            gpus: config.gpus,
            next_tick: now + tick,
            next_pass: pass.map(|every| now + every),
        });
        let mut shards = Vec::with_capacity(shard_count);
        for (id, epoll) in epolls.into_iter().enumerate() {
            let shard_cfg = ShardConfig {
                sweep_interval: config.sweep_interval,
                idle_timeout: config.idle_timeout,
                write_timeout: config.write_timeout,
                fire_slice,
                executors: executors.clone(),
                heaps: (id..executors.len()).step_by(shard_count).collect(),
            };
            let spawned = {
                let shared = Arc::clone(&shared);
                let handle = Arc::clone(&shard_handles[id]);
                let door = front_door.take();
                let planner = planner.take();
                supervisor.spawn(&format!("shard-{id}"), move |ctx| {
                    shard_loop(&shared, &handle, &epoll, door, planner, &shard_cfg, ctx);
                })
            };
            match spawned {
                Ok(thread) => shards.push(thread),
                Err(e) => {
                    stop_threads(&shared, &shard_handles, shards);
                    return Err(e);
                }
            }
        }

        Ok(Server {
            shared,
            local_addr,
            drain_timeout: config.drain_timeout,
            supervisor,
            shard_handles,
            shards,
            executors,
            fire_slice,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Every counter, read now (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        let mut batch_occupancy: Vec<u64> = Vec::new();
        for executor in &self.executors {
            let histogram = executor.batch_occupancy();
            if histogram.len() > batch_occupancy.len() {
                batch_occupancy.resize(histogram.len(), 0);
            }
            for (slot, count) in batch_occupancy.iter_mut().zip(&histogram) {
                *slot += count;
            }
        }
        Snapshot {
            panics_recovered: self.executors.iter().map(|e| e.panics_recovered()).sum(),
            stalls_detected: self.supervisor.stalls_detected(),
            escalations: self.supervisor.escalations(),
            supervisor_events: self.supervisor.events(),
            batch_occupancy,
            tracked_instances: self.executors.iter().map(|e| e.tracked_instances()).sum(),
            shard_notifies: self
                .shard_handles
                .iter()
                .map(|h| h.notifies.load(Ordering::Relaxed))
                .sum(),
            ..self.shared.snapshot()
        }
    }

    /// The stall check: compare every shard's heartbeat with its reading
    /// at the previous call, and log a `Stalled` event for one frozen
    /// while unparked for at least [`ServeConfig::stall_grace`] — once per
    /// freeze episode (a wedged planner tick is shard 0's). No thread
    /// runs it; call it periodically (`arlo serve` does, every 50 ms).
    /// Returns the episodes this call found.
    pub fn check_stalls(&self) -> u64 {
        self.supervisor.check_stalls()
    }

    /// Graceful shutdown: stop accepting, refuse new submits with
    /// [`ErrorCode::Draining`], wait for every outstanding execution to
    /// complete **and** every queued response frame to flush (bounded by
    /// the configured drain timeout), then close all connections, join
    /// every thread, and return the final — exact — [`Snapshot`].
    pub fn drain(mut self) -> Snapshot {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        // Shard 0 closes its listener as soon as it sees the flag.
        for handle in &self.shard_handles {
            handle.waker.wake();
        }

        // Flush: every admitted request completes, and its response frame
        // leaves its outbound queue for the socket, before anything closes.
        // Live shards fire their own heaps; a shard that died left its
        // heaps to nobody, so this thread fires what is ripe there, a slice
        // per millisecond.
        let deadline = Instant::now() + self.drain_timeout;
        let outstanding = || -> u64 {
            let tenants = shared.tenants.iter();
            tenants.map(|t| t.outstanding.load(Ordering::SeqCst)).sum()
        };
        while (outstanding() > 0 || shared.queued_frames.load(Ordering::SeqCst) > 0)
            && Instant::now() < deadline
        {
            for (idx, executor) in self.executors.iter().enumerate() {
                if self.shards[idx % self.shards.len()].is_finished() {
                    executor.fire_ripe(self.fire_slice);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let shards = std::mem::take(&mut self.shards);
        stop_threads(shared, &self.shard_handles, shards);
        for executor in &self.executors {
            // Fires whatever the heap still holds (a drain that timed out).
            executor.finish();
        }
        self.snapshot()
    }
}

/// Executor completion callback, fired once per sealed batch: report one
/// amortized batch into the engine's health/load hooks, update counters,
/// answer every member's client.
fn complete_batch(shared: &Shared, done: &CompletedBatch) {
    // Chaos hook: a one-in-n completion panic, *before* any accounting, so
    // the executor's catch → fail_batch path re-accounts the whole batch
    // exactly once.
    if let Some(n) = shared.panic_one_in {
        if n > 0 && done.jobs.iter().any(|j| j.request_id % n == n - 1) {
            panic!("injected executor completion panic (one in {n})");
        }
    }
    let mut ok: u32 = 0;
    let mut failed: u32 = 0;
    for job in &done.jobs {
        let failing = shared
            .fail_one_in
            .is_some_and(|n| n > 0 && job.request_id % n == n - 1);
        if failing {
            failed += 1;
        } else {
            ok += 1;
        }
    }
    // One report per batch: the frontend releases the whole batch's load
    // under a single lock, and health sees the amortized per-request time
    // (batch-1 makes this exactly the historical per-request report).
    // Stale-generation reports return false; the engine acknowledges them
    // without touching the rebuilt frontend. Every job in a batch belongs
    // to one tenant — batches coalesce within a single tenant's executor.
    let tenant = &shared.tenants[done.jobs[0].tenant as usize];
    let observed_per_request = done.exec_ns as f64 / done.jobs.len() as f64;
    tenant.engine.report_batch(
        done.jobs[0].placement,
        ok,
        failed,
        done.finished_at,
        observed_per_request,
    );
    tenant.served.fetch_add(u64::from(ok), Ordering::Relaxed);
    tenant
        .failed
        .fetch_add(u64::from(failed), Ordering::Relaxed);
    for job in &done.jobs {
        let failing = shared
            .fail_one_in
            .is_some_and(|n| n > 0 && job.request_id % n == n - 1);
        let frame = if failing {
            Frame::Error {
                id: job.request_id,
                code: ErrorCode::Failed,
            }
        } else {
            Frame::Response {
                id: job.request_id,
                generation: job.placement.generation,
                runtime_idx: job.placement.runtime_idx as u16,
                instance_idx: job.placement.instance_idx as u16,
                latency_ns: done.finished_at.saturating_sub(job.submitted_at),
            }
        };
        shared.respond(job.conn_id, &frame);
    }
    tenant
        .outstanding
        .fetch_sub(done.jobs.len() as u64, Ordering::SeqCst);
}

/// Panic-recovery accounting: the completion callback died before touching
/// any counter (the injection point is its first statement, and a genuine
/// panic aborts the engine report), so account the whole batch as failed —
/// report it into the engine's health layer, answer every client with a
/// typed [`ErrorCode::Failed`], and release `outstanding` so drain
/// completes.
fn fail_batch(shared: &Shared, done: &CompletedBatch) {
    let tenant = &shared.tenants[done.jobs[0].tenant as usize];
    let observed_per_request = done.exec_ns as f64 / done.jobs.len() as f64;
    tenant.engine.report_batch(
        done.jobs[0].placement,
        0,
        done.jobs.len() as u32,
        done.finished_at,
        observed_per_request,
    );
    tenant
        .failed
        .fetch_add(done.jobs.len() as u64, Ordering::Relaxed);
    for job in &done.jobs {
        shared.respond(
            job.conn_id,
            &Frame::Error {
                id: job.request_id,
                code: ErrorCode::Failed,
            },
        );
    }
    tenant
        .outstanding
        .fetch_sub(done.jobs.len() as u64, Ordering::SeqCst);
}

/// Terminate one admitted request whose placement panicked (see
/// [`submit_one`]) as a typed failure: failure counters, outstanding
/// release, client answer — so the conservation law (`submits == served +
/// shed + unserviceable + failed + outstanding`) holds through a bad
/// placement too.
fn fail_admitted(shared: &Shared, tenant_id: u32, conn_id: u64, id: u64) {
    let tenant = &shared.tenants[tenant_id as usize];
    tenant.failed.fetch_add(1, Ordering::Relaxed);
    shared.respond(
        conn_id,
        &Frame::Error {
            id,
            code: ErrorCode::Failed,
        },
    );
    tenant.outstanding.fetch_sub(1, Ordering::SeqCst);
}

/// Place one admitted request that arrived at `now`: engine placement,
/// then execution, or a typed refusal.
fn place(
    shared: &Shared,
    tenant_id: u32,
    executor: &Executor,
    conn_id: u64,
    id: u64,
    length: u32,
    now: Nanos,
) {
    let tenant = &shared.tenants[tenant_id as usize];
    match tenant.engine.submit(length, now) {
        Some(placement) => executor.submit(Job {
            placement,
            request_id: id,
            conn_id,
            tenant: tenant_id,
            length,
            submitted_at: now,
        }),
        None => {
            // The admission layer refused: either nothing can ever serve
            // this length — including the degenerate zero-runtime family,
            // max_length 0 — or every candidate level is masked/empty
            // (overload, quarantine).
            let code = refusal_code(length, tenant.max_length);
            if code == ErrorCode::Unserviceable {
                tenant.unserviceable.fetch_add(1, Ordering::Relaxed);
            } else {
                tenant.shed.fetch_add(1, Ordering::Relaxed);
            }
            tenant.outstanding.fetch_sub(1, Ordering::SeqCst);
            shared.respond(conn_id, &Frame::Error { id, code });
        }
    }
}

/// Set `shutdown` and join the shards. Each is woken through its eventfd
/// so it sees the flag now rather than at its next timeout, and closes
/// every connection on the way out, balancing the flush counter for
/// anything undeliverable.
fn stop_threads(shared: &Shared, shard_handles: &[Arc<ShardHandle>], shards: Vec<JoinHandle<()>>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    for handle in shard_handles {
        handle.waker.wake();
    }
    for thread in shards {
        let _ = thread.join();
    }
}

/// Virtual interval between planner ticks (health + reallocation check).
const TICK_INTERVAL: Nanos = arlo_trace::NANOS_PER_SEC / 5;

/// The planner, which shard 0 carries like its listener: health ticks
/// (plus, single-tenant, the reallocation check) every tick, and the
/// coordinator's re-granting pass every coordinator interval. Intervals
/// count from the end of the work before them, so a pass delays shard 0's
/// connections by its own duration, never by a backlog of missed ticks.
struct Planner {
    /// Catches a panicking wake-up, logged under `planner`.
    supervisor: Supervisor,
    /// The `planner` component-chaos schedule, drawn once per wake-up.
    chaos: Option<ComponentChaosPlan>,
    /// Real time between health ticks.
    tick: Duration,
    /// Real time between coordinator passes, if this server re-grants GPUs
    /// (it is then the sole `apply_allocation` caller).
    pass: Option<Duration>,
    /// Single-tenant reallocation check at every tick.
    reallocate: bool,
    gpus: u32,
    next_tick: Instant,
    next_pass: Option<Instant>,
}

impl Planner {
    /// How long until the next tick or pass falls due.
    fn until_due(&self) -> Duration {
        let at = self.next_pass.unwrap_or(self.next_tick).min(self.next_tick);
        at.saturating_duration_since(Instant::now())
    }

    /// Run the tick and the pass if due, behind [`Supervisor::recover`]: a
    /// panicking wake-up is logged and the next one runs on schedule.
    fn run_due(&mut self, shared: &Shared, executors: &[Arc<Executor>]) {
        let woke = Instant::now();
        let tick = woke >= self.next_tick;
        let pass = self.next_pass.is_some_and(|at| woke >= at);
        if !tick && !pass {
            return;
        }
        self.supervisor.recover("planner", || {
            if let Some(chaos) = &mut self.chaos {
                chaos.on_beat();
            }
            if tick {
                health_tick(shared, executors, self.reallocate.then_some(self.gpus));
            }
            if pass {
                coordinate_once(shared, executors, self.gpus);
            }
        });
        let done = Instant::now();
        if tick {
            self.next_tick = done + self.tick;
        }
        if pass {
            self.next_pass = self.pass.map(|every| done + every);
        }
    }
}

/// Health-tick every tenant engine; single-tenant, also run the Runtime
/// Scheduler's reallocation check over `reallocate_gpus`. On a
/// multi-tenant server the coordinator pass is the sole `apply_allocation`
/// caller (generation plans must land in order).
fn health_tick(shared: &Shared, executors: &[Arc<Executor>], reallocate_gpus: Option<u32>) {
    let now = shared.clock.now();
    for tenant in &shared.tenants {
        tenant.engine.health_tick(now);
    }
    if let Some(gpus) = reallocate_gpus {
        let tenant = &shared.tenants[0];
        if let Some(replacement) = tenant.engine.maybe_reallocate(now, gpus) {
            // The executor's per-instance clocks for the new generation
            // start idle; the engine switches dispatch atomically.
            tenant.engine.apply_allocation(&replacement);
            // Evict superseded generations' coalescer state so the key map
            // stays bounded on long-running servers (keys still holding
            // unsealed jobs survive until their seal drains them).
            executors[0].prune_before(replacement.generation);
            shared.reallocations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The live GPU re-granting coordinator's pass (multi-tenant only): drain
/// each tenant's streaming demand window into a [`StreamPlan`],
/// re-partition the pool with [`PoolCoordinator::partition`], and apply
/// any per-tenant deployment changes via [`ArloEngine::apply_allocation`]
/// — appending one [`RegrantEvent`] to the bounded reallocation log per
/// pass that moved anything.
fn coordinate_once(shared: &Shared, executors: &[Arc<Executor>], total_gpus: u32) {
    let now = shared.clock.now();
    let plans: Vec<StreamPlan> = shared
        .tenants
        .iter()
        .map(|t| {
            let window = t.window.as_ref().expect("coordinator has windows");
            window.plan(&t.name, t.engine.profiles(), t.slo_ms, now)
        })
        .collect();
    // Infeasible pools (e.g. fewer GPUs than streams after backoff) leave
    // the current grants standing; the next pass retries.
    let Ok(part) = PoolCoordinator.partition(&plans, total_gpus) else {
        return;
    };
    let before: Vec<u32> = shared
        .tenants
        .iter()
        .map(|t| t.granted.load(Ordering::Relaxed))
        .collect();
    let mut changed = false;
    for (idx, tenant) in shared.tenants.iter().enumerate() {
        let (generation, current) = tenant.engine.deployment();
        let target = &part.allocations[idx];
        // Keep the reported grant in sync even when the deployment itself
        // is unchanged (the partition may re-state the same split).
        tenant.granted.store(part.gpus[idx], Ordering::Relaxed);
        if *target == current {
            continue;
        }
        let delta: Vec<i64> = target
            .iter()
            .zip(&current)
            .map(|(&t, &c)| i64::from(t) - i64::from(c))
            .collect();
        let plan = ReplacementPlan {
            generation: generation + 1,
            target: target.clone(),
            delta,
        };
        tenant.engine.apply_allocation(&plan);
        executors[idx].prune_before(plan.generation);
        shared.reallocations.fetch_add(1, Ordering::Relaxed);
        changed = true;
    }
    if changed {
        let after: Vec<u32> = shared
            .tenants
            .iter()
            .map(|t| t.granted.load(Ordering::Relaxed))
            .collect();
        shared
            .regrants
            .lock()
            .push(RegrantEvent::new(now, before, after, part.total_cost));
    }
}

/// The reserved epoll token of shard 0's listener. Connection ids count
/// up from 0 and never reach it; [`WAKER_TOKEN`] is `u64::MAX`.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Most connections shard 0 accepts per readiness pass, so a connect storm
/// cannot starve the connections it already serves (level-triggered epoll
/// reports the rest on the next pass).
const ACCEPT_BURST: usize = 64;

/// Shard 0's listening socket, registered in its epoll set under
/// [`LISTENER_TOKEN`], and the state of its accepts.
struct FrontDoor {
    listener: TcpListener,
    /// Every shard, in order: connections are assigned round-robin.
    shards: Vec<Arc<ShardHandle>>,
    next_conn_id: u64,
    max_conns: usize,
    outbound_queue: usize,
}

impl FrontDoor {
    /// Accept until `WouldBlock` (at most [`ACCEPT_BURST`]): refuse past
    /// `max_conns` with one typed `Shed` frame, publish each connection's
    /// [`ConnHandle`] (so `respond`/doom work at once), hand other shards
    /// theirs, and return shard 0's own to adopt. Any other accept error
    /// (`EMFILE`, say) mutes the listener ([`Interest::NONE`]) until the
    /// next sweep re-arms it: level-triggered readiness on a connection
    /// that cannot be accepted must not spin the shard.
    fn accept(&mut self, shared: &Shared, epoll: &Epoll) -> Vec<IncomingConn> {
        let mut own = Vec::new();
        for _ in 0..ACCEPT_BURST {
            let mut stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    let _ = epoll.modify(&self.listener, LISTENER_TOKEN, Interest::NONE);
                    break;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue; // dropped before anything was registered for it
            }
            let _ = stream.set_nodelay(true);
            if shared.conns.len() >= self.max_conns {
                // Admission limit: answer one typed Shed frame so the client
                // knows this was load, not a network fault, and close.
                // Fire-and-forget — the frame fits any fresh send buffer,
                // and a connector that does not take it just misses the
                // courtesy; it must never stall the shard.
                shared.refused_conns.fetch_add(1, Ordering::Relaxed);
                let refusal = Frame::Error {
                    id: CONN_ERROR_ID,
                    code: ErrorCode::Shed,
                };
                let _ = stream.write(&refusal.encode());
                continue;
            }
            let conn_id = self.next_conn_id;
            self.next_conn_id += 1;
            let shard = &self.shards[(conn_id as usize) % self.shards.len()];
            let outbound = Arc::new(Outbound::new(self.outbound_queue));
            let doomed = Arc::new(AtomicBool::new(false));
            shared.conns.insert(
                conn_id,
                ConnHandle {
                    conn_id,
                    outbound: Arc::clone(&outbound),
                    shard: Arc::clone(shard),
                    doomed: Arc::clone(&doomed),
                },
            );
            let inc = IncomingConn {
                conn_id,
                stream,
                outbound,
                doomed,
            };
            if shard.id == 0 {
                own.push(inc);
            } else {
                // That shard registers the socket with its epoll when it
                // adopts the connection.
                shard.incoming.lock().push(inc);
                shard.waker.wake();
            }
        }
        own
    }
}

/// Per-shard snapshot of the [`ServeConfig`] knobs a shard needs, plus the
/// tenants' executors it places on.
struct ShardConfig {
    sweep_interval: Duration,
    idle_timeout: Duration,
    write_timeout: Duration,
    /// Most jobs one slice of heap firing completes before the shard
    /// writes out the connections they answered.
    fire_slice: usize,
    /// One per tenant, indexed by tenant id.
    executors: Vec<Arc<Executor>>,
    /// The tenant ids whose executor heaps this shard fires (`i % shards`
    /// is this shard's index).
    heaps: Vec<usize>,
}

/// One connection's state machine on a shard: the incremental
/// [`FrameReader`] on the way in, the [`FrameWriteBuf`] fed from the
/// bounded outbound queue on the way out, plus doom/idle/stall state.
struct FramedConn {
    stream: TcpStream,
    frames: FrameReader,
    budget: ErrorBudget,
    outbound: Arc<Outbound>,
    /// Frames swapped out of `outbound` and about to be encoded; empty
    /// between drives. Trades places with the queue's own `VecDeque`, so
    /// neither side reallocates once both have grown to the burst size.
    swapped: VecDeque<Frame>,
    doomed: Arc<AtomicBool>,
    wbuf: FrameWriteBuf,
    last_activity: Instant,
    /// Interest currently registered with the shard's epoll.
    interest: Interest,
    /// When the current socket-level write stall began (`None` while
    /// writes make progress).
    write_blocked_since: Option<Instant>,
    /// Read side finished (EOF, protocol disconnect, idle reap): flush
    /// the remaining outbound frames, then close.
    closing: bool,
}

impl FramedConn {
    fn adopt(inc: IncomingConn) -> FramedConn {
        FramedConn {
            stream: inc.stream,
            frames: FrameReader::new(),
            budget: ErrorBudget::new(FRAME_ERROR_BUDGET),
            outbound: inc.outbound,
            swapped: VecDeque::new(),
            doomed: inc.doomed,
            wbuf: FrameWriteBuf::new(),
            last_activity: Instant::now(),
            interest: Interest::NONE,
            write_blocked_since: None,
            closing: false,
        }
    }

    fn has_pending_writes(&self) -> bool {
        !self.wbuf.is_empty() || !self.outbound.queue.lock().frames.is_empty()
    }

    /// The epoll interest this connection should be registered with right
    /// now: readable unless closing, writable only while a write is
    /// blocked with frames still to send.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing,
            // Cheapest test first: `has_pending_writes` takes the queue
            // lock, and writes are rarely blocked.
            writable: self.write_blocked_since.is_some() && self.has_pending_writes(),
        }
    }
}

/// Panic-conservation guard for one shard's owned connections. A shard's
/// live state machines cannot be re-attached, so when it dies — chaos
/// panic or bug — it escalates, and `Drop` runs the same close path
/// shutdown uses: every owned connection is deregistered and its queued
/// frames balanced out of the drain flush counter. Without this, a dead
/// shard's unflushable frames would wedge [`Server::drain`] against its
/// timeout.
struct ShardConns<'a> {
    shared: &'a Shared,
    epoll: &'a Epoll,
    conns: HashMap<u64, FramedConn>,
}

impl Drop for ShardConns<'_> {
    fn drop(&mut self) {
        for (conn_id, conn) in self.conns.drain() {
            close_conn(self.shared, self.epoll, conn_id, conn);
        }
    }
}

/// One epoll shard: accept (shard 0) and adopt connections, pump
/// readiness events through the per-connection state machines, fire its
/// executors' ripe deadlines, run the planner's due work (shard 0), sweep
/// for idle / doomed / stalled connections, and on shutdown (or panic —
/// see [`ShardConns`]) close everything owned, balancing the drain flush
/// counter for undeliverable frames. It sleeps until the earliest of its
/// next sweep, its heaps' next deadline and the planner's next tick or pass.
fn shard_loop(
    shared: &Shared,
    handle: &ShardHandle,
    epoll: &Epoll,
    mut door: Option<FrontDoor>,
    mut planner: Option<Planner>,
    cfg: &ShardConfig,
    ctx: &SupervisedCtx,
) {
    ON_SHARD.set(Some(handle.id));
    let mut owned = ShardConns {
        shared,
        epoll,
        conns: HashMap::new(),
    };
    let mut events = Vec::new();
    let mut last_sweep = Instant::now();
    let mut next_fire: Option<Nanos> = None;
    loop {
        let mut timeout = cfg.sweep_interval.saturating_sub(last_sweep.elapsed());
        if let Some(at) = next_fire {
            let clock = &shared.clock;
            timeout = timeout.min(clock.to_real(at.saturating_sub(clock.now())));
        }
        if let Some(planner) = &planner {
            timeout = timeout.min(planner.until_due());
        }
        ctx.park();
        // `Epoll::new` probed the syscall, so a failure here is a broken
        // epoll set: die loudly into the escalation rather than spin.
        epoll
            .wait(&mut events, Some(timeout))
            .expect("shard epoll wait failed");
        // Park, block, beat, work: everything below runs unparked, so a
        // wedge anywhere in this wake-up's work freezes the heartbeat where
        // the stall check looks. Also the chaos injection point — `owned`
        // is armed, so an induced panic here still closes every connection.
        ctx.beat();
        // Reset the eventfd *before* taking the lists it announces: a
        // notification landing after the takes then leaves it readable for
        // the next wait instead of being swallowed by this drain.
        if events.iter().any(|ev| ev.token == WAKER_TOKEN) {
            handle.waker.drain();
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // Bind the drained queue before iterating: a `for` loop keeps
            // temporaries in its iterator expression alive for the whole
            // body, and `close_conn` takes the shared registry lock.
            let orphaned = std::mem::take(&mut *handle.incoming.lock());
            for inc in orphaned {
                let conn_id = inc.conn_id;
                close_conn(shared, epoll, conn_id, FramedConn::adopt(inc));
            }
            // `owned` drops here, closing every adopted connection.
            return;
        }

        // Shard 0: stop listening once draining (dropping the listener
        // refuses new connects), else accept what is waiting.
        if shared.draining.load(Ordering::SeqCst) {
            if let Some(closed) = door.take() {
                let _ = epoll.delete(&closed.listener);
            }
        } else if let Some(door) = door.as_mut() {
            if events.iter().any(|ev| ev.token == LISTENER_TOKEN) {
                for inc in door.accept(shared, epoll) {
                    adopt(shared, epoll, &mut owned.conns, inc, cfg);
                }
            }
        }

        // Adopt connections shard 0 handed over. (Same guard-lifetime rule
        // as above: drain under the lock, iterate after it drops.)
        let adopted = std::mem::take(&mut *handle.incoming.lock());
        for inc in adopted {
            adopt(shared, epoll, &mut owned.conns, inc, cfg);
        }

        // Connections whose outbound queue another thread made non-empty,
        // or that were doomed. (Bound before the loop, so the `dirty` guard
        // is not held across `drive_conn`.)
        let dirty = std::mem::take(&mut *handle.dirty.lock());
        for conn_id in dirty {
            drive_conn(shared, epoll, &mut owned.conns, conn_id, cfg, false);
        }

        // Socket readiness.
        for &ev in &events {
            if ev.token == WAKER_TOKEN || ev.token == LISTENER_TOKEN {
                continue;
            }
            drive_conn(
                shared,
                epoll,
                &mut owned.conns,
                ev.token,
                cfg,
                ev.readable || ev.closed,
            );
        }

        // Deadlines, after every submit of this pass has parked its own:
        // the head read here is what the next wait sleeps until.
        next_fire = fire_heaps(shared, epoll, &mut owned.conns, cfg);

        // Shard 0: the planner's tick or coordinator pass, if due.
        if let Some(planner) = planner.as_mut() {
            planner.run_due(shared, &cfg.executors);
        }

        // Periodic sweep.
        if last_sweep.elapsed() >= cfg.sweep_interval {
            last_sweep = Instant::now();
            sweep(shared, epoll, &mut owned.conns, cfg);
            if let Some(door) = &door {
                // Listen again, should an accept error have muted it.
                let _ = epoll.modify(&door.listener, LISTENER_TOKEN, Interest::READ);
            }
        }
    }
}

/// Register an accepted connection with this shard's epoll and drive it
/// once — the adoption drive `Shared::respond`'s notify rule relies on.
fn adopt(
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<u64, FramedConn>,
    inc: IncomingConn,
    cfg: &ShardConfig,
) {
    let conn_id = inc.conn_id;
    let mut conn = FramedConn::adopt(inc);
    if epoll.add(&conn.stream, conn_id, Interest::READ).is_err() {
        close_conn(shared, epoll, conn_id, conn);
        return;
    }
    conn.interest = Interest::READ;
    conns.insert(conn_id, conn);
    drive_conn(shared, epoll, conns, conn_id, cfg, false);
}

/// Fire what is ripe in this shard's executor heaps, a slice of at most
/// [`ShardConfig::fire_slice`] jobs at a time, and after each slice write
/// out the connections this shard answered ([`LOCAL_DIRTY`]) — so a
/// backlog that ripened while the shard was away (a host stall, a drain)
/// reaches each connection's bounded outbound queue no faster than the
/// shard empties it into the socket. Returns the earliest deadline left.
fn fire_heaps(
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<u64, FramedConn>,
    cfg: &ShardConfig,
) -> Option<Nanos> {
    loop {
        let mut budget = cfg.fire_slice;
        let mut next: Option<Nanos> = None;
        for &idx in &cfg.heaps {
            let (fired, head) = cfg.executors[idx].fire_ripe(budget);
            budget = budget.saturating_sub(fired);
            next = next.into_iter().chain(head).min();
        }
        for conn_id in LOCAL_DIRTY.take() {
            drive_conn(shared, epoll, conns, conn_id, cfg, false);
        }
        if budget > 0 {
            return next;
        }
    }
}

/// Drive one connection's state machine: read if readable, then flush
/// writes, then close or refresh epoll interest as the new state demands.
/// The write always follows the read, so the answers the read pass
/// produced leave in the same drive.
fn drive_conn(
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<u64, FramedConn>,
    conn_id: u64,
    cfg: &ShardConfig,
    readable: bool,
) {
    let close = {
        let Some(conn) = conns.get_mut(&conn_id) else {
            return;
        };
        if conn.doomed.load(Ordering::SeqCst) {
            true
        } else {
            if readable && !conn.closing {
                drive_read(shared, conn, conn_id, &cfg.executors);
            }
            let alive = drive_write(shared, conn, cfg);
            if !alive || (conn.closing && !conn.has_pending_writes()) {
                true
            } else {
                let desired = conn.desired_interest();
                if desired != conn.interest && epoll.modify(&conn.stream, conn_id, desired).is_ok()
                {
                    conn.interest = desired;
                }
                false
            }
        }
    };
    if close {
        if let Some(conn) = conns.remove(&conn_id) {
            close_conn(shared, epoll, conn_id, conn);
        }
    }
}

/// Non-blocking read pump: decode everything buffered, fill from the
/// socket, repeat — until a fill comes back short of its chunk (the socket
/// is drained; level-triggered epoll re-reports anything left, so no
/// second `read` is spent on a `WouldBlock`), and at most four fills per
/// call so one
/// firehose connection cannot starve its shard. Sets `closing` on EOF,
/// protocol disconnect, or a hard error: queued responses still flush
/// before the close. `executors` (one per tenant) place what it decodes.
fn drive_read(shared: &Shared, conn: &mut FramedConn, conn_id: u64, executors: &[Arc<Executor>]) {
    let mut fills = 0;
    let mut drained = false;
    loop {
        loop {
            match conn.frames.next_frame() {
                Ok(Some(frame)) => {
                    conn.budget.credit();
                    if !handle_frame(shared, conn_id, &mut conn.budget, executors, &frame) {
                        conn.closing = true;
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) if conn.budget.charge(&e) => {
                    // Malformed but skippable, and within budget: the bad
                    // frame's bytes are consumed and the stream continues.
                    // A checksum mismatch additionally earns the client a
                    // retryable verdict — the line mangled the frame, so
                    // the server cannot know which request it carried, but
                    // it *can* say "resend whatever you have in flight".
                    if matches!(e, DecodeError::ChecksumMismatch { .. }) {
                        shared.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                        shared.respond(
                            conn_id,
                            &Frame::Error {
                                id: CONN_ERROR_ID,
                                code: ErrorCode::Corrupt,
                            },
                        );
                    }
                }
                Err(_) => {
                    // Budget exhausted or framing lost: typed disconnect.
                    shared.protocol_disconnects.fetch_add(1, Ordering::Relaxed);
                    shared.respond(
                        conn_id,
                        &Frame::Error {
                            id: CONN_ERROR_ID,
                            code: ErrorCode::Protocol,
                        },
                    );
                    conn.closing = true;
                    return;
                }
            }
        }
        if drained || fills >= 4 {
            return;
        }
        fills += 1;
        match conn.frames.fill(&mut conn.stream) {
            Ok(0) => {
                conn.closing = true;
                return;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                drained = n < FILL_CHUNK;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => {
                // Reset or broken pipe: stop reading, but still flush
                // queued responses before closing.
                conn.closing = true;
                return;
            }
        }
    }
}

/// Non-blocking write pump: refill the [`FrameWriteBuf`] from the bounded
/// outbound queue (the whole backlog in one coalesced buffer, each frame at
/// its dialect), write until empty or blocked. Returns `false` when the
/// connection doomed itself (write stall past the timeout, or a hard
/// error).
fn drive_write(shared: &Shared, conn: &mut FramedConn, cfg: &ShardConfig) -> bool {
    loop {
        if conn.wbuf.is_empty() {
            {
                // Swap, don't pop: responders contend on this lock, so it
                // is held for two pointer moves and the encoding below
                // runs outside it.
                let mut queue = conn.outbound.queue.lock();
                if queue.frames.is_empty() {
                    break;
                }
                std::mem::swap(&mut queue.frames, &mut conn.swapped);
            }
            for frame in conn.swapped.drain(..) {
                conn.wbuf.push(&frame, frame.dialect());
            }
        }
        match conn.wbuf.write_some(&mut conn.stream) {
            Ok(completed) => {
                if completed > 0 {
                    shared
                        .queued_frames
                        .fetch_sub(completed as u64, Ordering::SeqCst);
                }
                conn.write_blocked_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let since = *conn.write_blocked_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= cfg.write_timeout {
                    // The client stalled a write past the timeout: same
                    // fate as overflowing the queue.
                    if !conn.doomed.swap(true, Ordering::SeqCst) {
                        shared.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    return false;
                }
                return true; // EPOLLOUT (or the sweep) re-drives
            }
            Err(_) => {
                conn.doomed.store(true, Ordering::SeqCst);
                return false;
            }
        }
    }
    conn.write_blocked_since = None;
    true
}

/// Close one connection: deregister the public handle, then latch the
/// outbound queue `closed` under its own lock while draining it. `respond`
/// pushes under no registry lock — it resolves its route under a stripe,
/// releases it, then pushes under the queue lock — so the latch is what
/// closes the race: a responder that looked the
/// handle up before our removal observes `closed` at its push and
/// balances the flush counter for its own frame; every frame we drain
/// here we balance ourselves. Exactly one side accounts each frame.
fn close_conn(shared: &Shared, epoll: &Epoll, conn_id: u64, conn: FramedConn) {
    shared.conns.remove(conn_id);
    let _ = epoll.delete(&conn.stream);
    let leftover = {
        let mut queue = conn.outbound.queue.lock();
        queue.closed = true;
        let n = queue.frames.len() + conn.wbuf.pending_frames();
        queue.frames.clear();
        n
    };
    if leftover > 0 {
        shared
            .queued_frames
            .fetch_sub(leftover as u64, Ordering::SeqCst);
        shared
            .dropped_responses
            .fetch_add(leftover as u64, Ordering::Relaxed);
    }
}

/// Time-driven connection maintenance: idle reaping and write-stall
/// dooming.
fn sweep(shared: &Shared, epoll: &Epoll, conns: &mut HashMap<u64, FramedConn>, cfg: &ShardConfig) {
    let now = Instant::now();
    let mut due: Vec<(u64, bool)> = Vec::new();
    for (&conn_id, conn) in conns.iter() {
        let idle = !conn.closing && now.duration_since(conn.last_activity) >= cfg.idle_timeout;
        if conn.doomed.load(Ordering::SeqCst) || conn.write_blocked_since.is_some() || idle {
            due.push((conn_id, idle));
        }
    }
    for (conn_id, idle) in due {
        if idle {
            if let Some(conn) = conns.get_mut(&conn_id) {
                // Counted exactly once: `closing` guards re-entry.
                shared.reaped_idle.fetch_add(1, Ordering::Relaxed);
                conn.closing = true;
            }
        }
        drive_conn(shared, epoll, conns, conn_id, cfg, false);
    }
}

/// Admit one submit for a (validated) tenant and place it on this thread:
/// shed under drain, shed when the tenant's SLO class has its admission
/// share in flight, otherwise [`place`] it on the tenant's executor (one
/// per tenant in `executors`). Shared by [`Frame::Submit`] and every
/// sub-request of a [`Frame::BatchedSubmit`] — batching amortizes framing,
/// never accounting.
///
/// The placement runs behind the executor's panic boundary
/// ([`Executor::recover`]): if it panics, that one request is answered
/// [`ErrorCode::Failed`] through [`fail_admitted`] — treated as never
/// placed — and counted in `panics_recovered`, and the shard carries on.
fn submit_one(
    shared: &Shared,
    executors: &[Arc<Executor>],
    conn_id: u64,
    tenant_id: u32,
    id: u64,
    length: u32,
) {
    let tenant = &shared.tenants[tenant_id as usize]; // caller validated
    tenant.submits.fetch_add(1, Ordering::Relaxed);
    if shared.draining.load(Ordering::SeqCst) {
        tenant.shed.fetch_add(1, Ordering::Relaxed);
        shared.respond(
            conn_id,
            &Frame::Error {
                id,
                code: ErrorCode::Draining,
            },
        );
        return;
    }
    // One reading per request (not per frame), shared by the demand window
    // and the placement: arrival times feed the engine's demand windows
    // and the executor's virtual-time serialization, so a batched frame
    // must not batch time.
    let now = shared.clock.now();
    // Feed the coordinator's demand window, if it runs, with *offered*
    // load (shed submits included): the re-granting decision should see
    // what the tenant asked for, not just what the gate admitted. Striped
    // by connection id, so concurrent submitters hit disjoint locks.
    if let Some(window) = &tenant.window {
        window.record(conn_id, now, length.max(1));
    }
    // SLO-class admission gate: under overload, lower classes hit their
    // outstanding share and shed here — weighted shedding; Interactive is
    // never gated.
    if let Some(limit) = tenant.admit_limit {
        if tenant.outstanding.load(Ordering::SeqCst) >= limit {
            tenant.shed.fetch_add(1, Ordering::Relaxed);
            shared.respond(
                conn_id,
                &Frame::Error {
                    id,
                    code: ErrorCode::Shed,
                },
            );
            return;
        }
    }
    // `outstanding` covers every admitted request until its answer (a
    // batch parked in the deadline heap included), so drain flushes it.
    tenant.outstanding.fetch_add(1, Ordering::SeqCst);
    let executor = &executors[tenant_id as usize];
    if !executor.recover(|| place(shared, tenant_id, executor, conn_id, id, length, now)) {
        fail_admitted(shared, tenant_id, conn_id, id);
    }
}

/// Answer a submit addressed to a tenant this server does not host: a
/// typed [`ErrorCode::UnknownTenant`] per request, charged against the
/// connection's error budget at [`UNKNOWN_TENANT_COST`] (a peer bug, like
/// other malformed traffic — sustained spraying escalates to a
/// [`ErrorCode::Protocol`] disconnect). Returns `false` when the budget is
/// exhausted and the connection must close.
fn unknown_tenant(shared: &Shared, conn_id: u64, id: u64, budget: &mut ErrorBudget) -> bool {
    shared.unknown_tenants.fetch_add(1, Ordering::Relaxed);
    shared.respond(
        conn_id,
        &Frame::Error {
            id,
            code: ErrorCode::UnknownTenant,
        },
    );
    if budget.charge_points(UNKNOWN_TENANT_COST) {
        true
    } else {
        shared.protocol_disconnects.fetch_add(1, Ordering::Relaxed);
        shared.respond(
            conn_id,
            &Frame::Error {
                id: CONN_ERROR_ID,
                code: ErrorCode::Protocol,
            },
        );
        false
    }
}

/// React to one decoded frame; `false` means "close the connection".
fn handle_frame(
    shared: &Shared,
    conn_id: u64,
    budget: &mut ErrorBudget,
    executors: &[Arc<Executor>],
    frame: &Frame,
) -> bool {
    match *frame {
        Frame::Submit { id, length, tenant } => {
            if shared.tenant(tenant).is_none() {
                return unknown_tenant(shared, conn_id, id, budget);
            }
            submit_one(shared, executors, conn_id, tenant, id, length);
            true
        }
        Frame::BatchedSubmit { ref subs } => {
            // One frame, many admissions: every sub-request is answered
            // individually, exactly as if submitted alone — including
            // per-sub unknown-tenant errors. Exhausting the error budget
            // mid-batch closes the connection; the remaining subs die with
            // it (the client already has a terminal Protocol error).
            for sub in subs {
                if shared.tenant(sub.tenant).is_none() {
                    if !unknown_tenant(shared, conn_id, sub.id, budget) {
                        return false;
                    }
                    continue;
                }
                submit_one(shared, executors, conn_id, sub.tenant, sub.id, sub.length);
            }
            true
        }
        Frame::Hello { max_version } if max_version >= WireVersion::V2.byte() => {
            // A version check, not a negotiation: v2 is the one data
            // dialect, so it is the one answer. Nothing about the
            // connection changes.
            shared.respond(
                conn_id,
                &Frame::HelloAck {
                    version: WireVersion::V2.byte(),
                },
            );
            true
        }
        Frame::StatsRequest => {
            shared.respond(conn_id, &Frame::Stats(shared.snapshot().stats()));
            true
        }
        Frame::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.respond(conn_id, &Frame::Stats(shared.snapshot().stats()));
            true
        }
        // A client that cannot speak v2 (its `Hello` offers less) or that
        // sends server-only frames is violating the protocol; answer a
        // typed connection error and close.
        Frame::Hello { .. }
        | Frame::Response { .. }
        | Frame::Error { .. }
        | Frame::Stats(_)
        | Frame::HelloAck { .. } => {
            shared.protocol_disconnects.fetch_add(1, Ordering::Relaxed);
            shared.respond(
                conn_id,
                &Frame::Error {
                    id: CONN_ERROR_ID,
                    code: ErrorCode::Protocol,
                },
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::latency::CompiledRuntime;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::profile_runtimes;

    // --- Admission refusal typing (the zero-runtime / oversized split) ---

    #[test]
    fn empty_family_has_zero_max_length() {
        assert_eq!(family_max_length(&[]), 0);
    }

    #[test]
    fn family_max_length_is_last_profile() {
        let model = ModelSpec::bert_base();
        let rts = vec![
            CompiledRuntime::new_static(model.clone(), 64),
            CompiledRuntime::new_static(model, 512),
        ];
        let profiles = profile_runtimes(&rts, 150.0, 64);
        assert_eq!(family_max_length(&profiles), 512);
    }

    #[test]
    fn refusal_with_no_runtimes_is_unserviceable_not_a_panic() {
        // The regression: with zero live runtimes the old code did
        // `profiles().iter().map(max_length).max().expect(..)` and the
        // dispatch thread died, taking the whole server with it. Every
        // length must now classify as Unserviceable (permanent: no fleet
        // can ever serve it) rather than Shed (transient backpressure).
        for length in [1, 128, u32::MAX] {
            assert_eq!(refusal_code(length, 0), ErrorCode::Unserviceable);
        }
    }

    #[test]
    fn refusal_splits_transient_from_permanent() {
        assert_eq!(refusal_code(10, 512), ErrorCode::Shed);
        assert_eq!(refusal_code(512, 512), ErrorCode::Shed);
        assert_eq!(refusal_code(513, 512), ErrorCode::Unserviceable);
    }

    // --- The placement panic boundary ---

    #[test]
    fn a_panicking_inline_placement_is_one_failed_answer() {
        let model = ModelSpec::bert_base();
        let rts = vec![
            CompiledRuntime::new_static(model.clone(), 64),
            CompiledRuntime::new_static(model, 512),
        ];
        let profiles = profile_runtimes(&rts, 150.0, 64);
        // Every instance on the 512 runtime: the engine places there.
        let engine = ArloEngine::new(
            profiles.clone(),
            vec![0, 2],
            arlo_core::engine::EngineConfig::paper_default(150.0),
        );
        let config = ServeConfig::new(2);
        let spec = TenantSpec::new("default", SloClass::Interactive, 0.0);
        let shared = Shared::new(vec![(spec, engine)], &config, false);
        // An executor that knows only the 64 runtime: `Executor::submit`
        // indexes past its profiles for that placement and panics.
        let executor = Arc::new(Executor::serviced_by_caller(
            profiles[..1].to_vec(),
            Arc::clone(&shared.clock),
            JitterSpec::NONE,
            config.batch,
            Box::new(|_| {}),
            Box::new(|| {}),
        ));
        let epoll = Epoll::new().expect("epoll");
        let outbound = Arc::new(Outbound::new(8));
        let conn_id = 7;
        shared.conns.insert(
            conn_id,
            ConnHandle {
                conn_id,
                outbound: Arc::clone(&outbound),
                shard: Arc::new(ShardHandle::new(&epoll, 0).expect("waker")),
                doomed: Arc::new(AtomicBool::new(false)),
            },
        );
        submit_one(
            &shared,
            std::slice::from_ref(&executor),
            conn_id,
            0,
            42,
            100,
        );

        let answers: Vec<Frame> = outbound.queue.lock().frames.iter().cloned().collect();
        assert_eq!(
            answers,
            vec![Frame::Error {
                id: 42,
                code: ErrorCode::Failed
            }],
            "exactly one Failed answer"
        );
        assert_eq!(executor.panics_recovered(), 1);
        let tenant = &shared.tenants[0];
        assert_eq!(tenant.outstanding.load(Ordering::SeqCst), 0);
        assert_eq!(tenant.submits.load(Ordering::Relaxed), 1);
        assert_eq!(tenant.failed.load(Ordering::Relaxed), 1);
        let stats = shared.snapshot().stats();
        assert_eq!((stats.served, stats.shed, stats.outstanding), (0, 1, 0));
    }

    // --- Demand windows exist only where a coordinator reads them ---

    #[test]
    fn only_a_coordinating_server_records_demand() {
        let model = ModelSpec::bert_base();
        let profiles = profile_runtimes(&[CompiledRuntime::new_static(model, 512)], 150.0, 64);
        let config = ServeConfig::new(2);
        for coordinate in [false, true] {
            let engine = ArloEngine::new(
                profiles.clone(),
                vec![2],
                arlo_core::engine::EngineConfig::paper_default(150.0),
            );
            let spec = TenantSpec::new("default", SloClass::Interactive, 0.0);
            let shared = Shared::new(vec![(spec, engine)], &config, coordinate);
            let executor = Arc::new(Executor::serviced_by_caller(
                profiles.clone(),
                Arc::clone(&shared.clock),
                JitterSpec::NONE,
                config.batch,
                Box::new(|_| {}),
                Box::new(|| {}),
            ));
            for id in 0..100 {
                submit_one(&shared, std::slice::from_ref(&executor), 7, 0, id, 100);
            }
            let tenant = &shared.tenants[0];
            assert_eq!(tenant.submits.load(Ordering::Relaxed), 100);
            let samples = tenant.window.as_ref().map_or(0, ShardedTenantWindow::len);
            assert_eq!(
                samples,
                if coordinate { 100 } else { 0 },
                "coordinate: {coordinate}"
            );
        }
    }
}
