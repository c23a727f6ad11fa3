//! The TCP front door over [`ArloEngine`].
//!
//! One connection plane (see `DESIGN.md` §12): accepted sockets live as
//! *non-blocking state machines* on [`ServeConfig::shards`] epoll
//! event-loop threads, which feed one batch scheduler. One box per OS
//! thread kind:
//!
//! ```text
//!   clients ──TCP──► shard 0 (listener) ──inbox: adopt──► shard c % N
//!                      │  each owns its conns and its executors' heaps:
//!                      │  FrameReader ◄─ nonblocking reads, a slice at a time
//!                      │  FrameWriteBuf ─► nonblocking writes (the outbound queue)
//!                      │
//!                      ├─ run to completion: place ─► engine.submit ─►
//!                      │  executor ─► due now: completes inline
//!                      ├─ due later: parked in the executor's heap,
//!                      │  fired when this shard's epoll_wait times out
//!                      │
//!                      ◄── inbox: (conn, frame) ◄── every answer, from any thread
//!                      │
//!                      └─ shard 0 only, when due: the planner's health
//!                         ticks + reallocation, or the coordinator's re-grants
//! ```
//!
//! The shards are the only threads a server spawns. Connection `c`
//! belongs to shard `c % shards`, and only that shard touches it: every
//! answer, whichever thread produced it, is posted to the shard's one
//! inbox, which the shard empties into its connections' write buffers
//! after every read and every heap slice. A shard is the only thread that
//! places a request, and executor `i`'s deadline heap belongs to shard
//! `i % shards`, which sleeps no longer than until the heap's head (at
//! 1 ns timer slack, so it wakes at the head, not up to 50 µs past it),
//! fires what is ripe and writes the answers out itself. Otherwise a shard
//! wakes for socket readiness, for its eventfd [`Waker`] — another thread
//! posted to its empty inbox or parked a deadline ahead of one of its
//! heaps — for the planner's next tick or pass (shard 0), or once per sweep
//! interval (idle reaping, write-stall dooming). A connection costs no
//! thread.
//! Every socket read and write goes straight to the socket: network faults
//! are injected on the client side of the wire
//! ([`crate::chaos::FaultyStream`]).
//!
//! Backpressure and failure are explicit end to end:
//!
//! - A submit the SLO-class gate or the engine refuses is answered with a
//!   typed [`ErrorCode::Shed`] (or [`ErrorCode::Unserviceable`]) frame,
//!   never a stall.
//! - Every response ends in its connection's **bounded outbound queue**,
//!   the write buffer its shard drains with non-blocking writes, so a
//!   stalled or slow client can never block a placing thread or the
//!   executor's completion path. A full queue (or a write stalled past
//!   `write_timeout`) dooms only that connection — a typed disconnect, not
//!   shared-fate backpressure. A shard works in slices of half a queue,
//!   writing out between slices: it reads a connection a slice of answers
//!   at a time, reading on only while the queue has room for another, and
//!   fires ripe deadlines a slice at a time — so it outruns neither a
//!   client that reads after its burst nor one catching up on a backlog.
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
//! - Every panic the server catches goes through one boundary, counted in
//!   [`Snapshot::panics_recovered`] and logged `Panicked`. A panicking
//!   placement is its one request answered `Failed`, a completion its
//!   batch re-accounted as failed through [`ArloEngine::report_batch`], a
//!   planner wake-up skipped; the shard carries on, so drain never
//!   deadlocks on a poisoned callback. A panic that escapes a shard's loop
//!   kills the shard and escalates: the server starts draining.
//!
//! Graceful drain closes the listener, refuses new submits with
//! [`ErrorCode::Draining`], flushes every outstanding execution *and*
//! every queued response frame, then closes connections and joins all
//! threads.

use crate::chaos::{ComponentChaos, ComponentChaosPlan};
use crate::clock::VirtualClock;
use crate::epoll::{set_min_timer_slack, Epoll, Interest, Waker, WAKER_TOKEN};
use crate::executor::{CompletedBatch, Executor, Job};
use crate::protocol::{
    DecodeError, ErrorBudget, ErrorCode, Frame, FrameReader, FrameWriteBuf, StatsPayload,
    WireVersion, CONN_ERROR_ID, FILL_CHUNK, FRAME_ERROR_BUDGET, UNKNOWN_TENANT_COST,
};
use crate::tenants::{BoundedLog, RegrantEvent, ShardedTenantWindow, SloClass, TenantSpec};
use arlo_core::engine::ArloEngine;
use arlo_core::multistream::{PoolCoordinator, StreamPlan};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::latency::JitterSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_trace::workload::BuildWordHasher;
use arlo_trace::Nanos;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
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
    /// Chaos injection: panic the completion callback whenever a batch
    /// contains a request id hitting one-in-`n` — exercises the server's
    /// panic boundary and its failed-batch re-accounting on the thread that
    /// completes the batch. `None` disables injection.
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
    /// Bound of each connection's outbound queue: the answers its write
    /// buffer may hold unwritten. A connection whose client stalls long
    /// enough to fill it is doomed (typed disconnect) rather than allowed
    /// to backpressure placement. The shard reads a connection and fires
    /// its heaps in slices of half of it, writing out between slices, so a
    /// reading client never fills it.
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
    /// reference host, the only shape measured (`EXPERIMENTS.md`).
    /// Connection `c` belongs to shard `c % shards`.
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
    /// How long a shard's heartbeat may freeze while unparked before
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

/// Typed refusal for a submit the engine would not place: a runtime serves
/// `1..=max_length` tokens, so zero tokens, lengths beyond the family's
/// reach and *any* length when the family is empty are
/// [`ErrorCode::Unserviceable`]; a serviceable length refused anyway is
/// load, i.e. [`ErrorCode::Shed`].
fn refusal_code(length: u32, max_length: u32) -> ErrorCode {
    if (1..=max_length).contains(&length) {
        ErrorCode::Shed
    } else {
        ErrorCode::Unserviceable
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
    /// Panics caught, each logged once as `Panicked`: placements and
    /// completions (re-accounted as failed), planner wake-ups (skipped) and
    /// shard deaths (escalated).
    pub panics_recovered: u64,
    /// Heartbeat stall episodes [`Server::check_stalls`] found.
    pub stalls_detected: u64,
    /// Shards that died of a panic; the first started the drain.
    pub escalations: u64,
    /// The most recent panics, stalls and escalations, oldest first.
    pub supervisor_events: Vec<SupervisorEvent>,
    /// The coordinator's most recent re-grants, oldest first.
    pub regrants: Vec<RegrantEvent>,
    /// Sealed batch sizes: entry `b-1` counts batches of `b` jobs.
    pub batch_occupancy: Vec<u64>,
    /// `(generation, runtime, instance)` coalescers the executors track —
    /// bounded across reallocations by the post-apply eviction.
    pub tracked_instances: usize,
    /// Cross-thread shard wake-ups (eventfd writes): a response posted to
    /// an empty inbox, or an undercutting deadline, from a thread other
    /// than the owning shard.
    pub shard_notifies: u64,
    /// Connections accepted and not yet closed.
    pub active_connections: usize,
    /// Whether a drain was requested: locally, by a client's
    /// [`Frame::Drain`], or by an escalation.
    pub draining: bool,
}

/// What happened, to which component, when (ms since the server started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Milliseconds since the server was spawned.
    pub at_ms: u64,
    /// `shard-{i}` or `planner`.
    pub component: String,
    /// The event.
    pub kind: SupervisorEventKind,
}

/// The kinds of [`SupervisorEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEventKind {
    /// A panic caught by the server's boundary: in a placement, a
    /// completion or a planner wake-up (the component carries on), or one
    /// that ended a shard's loop (followed by `Escalated`).
    Panicked,
    /// A shard is alive but its heartbeat froze while unparked for longer
    /// than the stall grace.
    Stalled,
    /// A shard died of a panic; the first death started the drain.
    Escalated,
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
        wire_stats(&self.tenants, self.reallocations)
    }
}

/// The wire view of `rows` (see [`Snapshot::stats`]): the one place it is
/// mapped, for a snapshot's rows and for [`Shared::stats`]' unnamed ones.
fn wire_stats(
    rows: impl IntoIterator<Item = impl Borrow<TenantStats>>,
    reallocations: u64,
) -> StatsPayload {
    let mut stats = StatsPayload {
        reallocations,
        ..StatsPayload::default()
    };
    for (idx, row) in rows.into_iter().enumerate() {
        let row = row.borrow();
        if idx == 0 {
            stats.generation = row.generation;
        }
        stats.served += row.served;
        stats.shed += row.shed + row.unserviceable + row.failed;
        stats.outstanding += row.outstanding;
    }
    stats
}

/// What other threads leave for one shard: accepted connections to adopt
/// and answers for its connections. The shard takes both whole, under one
/// lock, whenever it empties its inbox.
#[derive(Default)]
struct Inbox {
    /// Sockets shard 0 accepted for this shard, by connection id.
    adopt: Vec<(u64, TcpStream)>,
    /// Answers to this shard's connections, in the order they were sent.
    frames: Vec<(u64, Frame)>,
    /// Latched by the shard as it closes up (see [`Shard`]): from then on
    /// a sender balances its own frame, so exactly one side counts each
    /// frame out of `queued_frames`.
    closed: bool,
}

/// One epoll shard's cross-thread face: its epoll set, the eventfd that
/// interrupts its wait, its inbox and its heartbeat. Another thread reaches
/// a shard only through these.
struct ShardHandle {
    /// `shard-{i}`: its thread is `arlo-shard-{i}`, and its panics, stalls
    /// and chaos schedule go by this name.
    name: String,
    epoll: Epoll,
    waker: Waker,
    inbox: Mutex<Inbox>,
    /// `wake` calls so far ([`Snapshot::shard_notifies`]).
    notifies: AtomicU64,
    /// Passes begun: bumped as each wait returns, so a count that stops
    /// moving while the shard is unparked is a wedged pass.
    beats: AtomicU64,
    /// Set across the wait and once the loop has ended (the [`Shard`]
    /// drop), so an idle or dead shard is never flagged stalled. Starts
    /// set: a shard that has not run yet is not stalled.
    parked: AtomicBool,
    /// Raised by the server's panic hook on this shard's thread and lowered
    /// by [`Shared::recover`] after its catch: a shard inside a panic is not
    /// stalled, however long the hook and the unwinding take. Shared with
    /// the thread's [`PANICKING`], which is how the hook finds it.
    panicking: Arc<AtomicBool>,
    /// [`Server::check_stalls`]'s last reading of `beats`, and when they
    /// last moved — `None` once this freeze is flagged, so an episode is
    /// flagged once, not once per check.
    watch: Mutex<(u64, Option<Instant>)>,
}

impl ShardHandle {
    fn new(id: usize) -> io::Result<ShardHandle> {
        let epoll = Epoll::new()?;
        let waker = Waker::new(&epoll)?;
        Ok(ShardHandle {
            name: format!("shard-{id}"),
            epoll,
            waker,
            inbox: Mutex::new(Inbox::default()),
            notifies: AtomicU64::new(0),
            beats: AtomicU64::new(0),
            parked: AtomicBool::new(true),
            panicking: Arc::default(),
            watch: Mutex::default(),
        })
    }

    /// Wake the shard from another thread.
    fn wake(&self) {
        self.notifies.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
    }

    /// Leave something in the inbox with `put`. `None` if the inbox is
    /// closed (`put` is dropped unrun), else whether this push found the
    /// inbox empty — and so owes the shard a wake-up unless it runs there.
    fn post(&self, put: impl FnOnce(&mut Inbox)) -> Option<bool> {
        let mut inbox = self.inbox.lock();
        if inbox.closed {
            return None;
        }
        let first = inbox.adopt.is_empty() && inbox.frames.is_empty();
        put(&mut inbox);
        Some(first)
    }
}

thread_local! {
    /// The shard this thread runs, if it is one.
    static ON_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// That shard's [`ShardHandle::panicking`] flag.
    static PANICKING: OnceCell<Arc<AtomicBool>> = const { OnceCell::new() };
}

/// Raise or lower the calling shard's `panicking` flag; off the shards, do
/// nothing.
fn flag_panicking(raised: bool) {
    // `try_with`: a panic while the thread's locals are torn down finds
    // no flag rather than a second panic.
    let _ = PANICKING.try_with(|flag| {
        if let Some(flag) = flag.get() {
            flag.store(raised, Ordering::Release);
        }
    });
}

/// Chain the process's panic hook, once: on a shard's thread, raise the
/// shard's `panicking` flag before the previous hook runs (with
/// `RUST_BACKTRACE` set, that hook alone can take tens of milliseconds).
fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flag_panicking(true);
            previous(info);
        }));
    });
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

impl Tenant {
    /// This tenant's counters, read now, under an empty name: reading them
    /// allocates nothing ([`Shared::snapshot`] adds the name).
    fn row(&self) -> TenantStats {
        let relaxed = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TenantStats {
            name: String::new(),
            class: self.class,
            slo_ms: self.slo_ms,
            submits: relaxed(&self.submits),
            served: relaxed(&self.served),
            shed: relaxed(&self.shed),
            unserviceable: relaxed(&self.unserviceable),
            failed: relaxed(&self.failed),
            outstanding: self.outstanding.load(Ordering::SeqCst),
            granted_gpus: self.granted.load(Ordering::Relaxed),
            generation: self.engine.generation(),
        }
    }
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
/// - `escalations`: its first increment latches the fail-fast drain, so
///   exactly one dying shard sets `draining`.
///
/// `connections` gates accept at [`ServeConfig::max_conns`] yet stays
/// `Relaxed`: a close shard 0 sees late refuses at most one connect more.
/// So does each shard's heartbeat (`beats`, `parked`): it publishes no
/// other data, and a stale read only delays a stall flag to a later check.
/// Its `panicking` flag is lowered with `Release` after a dying shard's
/// `Shard` drop has parked it, and the stall check loads the flag with
/// `Acquire` before `parked`: a check that sees the flag lowered sees the
/// dead shard parked.
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
    /// Response frames sent and not yet written — in an inbox or a write
    /// buffer; drain flushes this to zero before closing sockets.
    queued_frames: AtomicU64,
    reaped_idle: AtomicU64,
    slow_disconnects: AtomicU64,
    protocol_disconnects: AtomicU64,
    corrupt_frames: AtomicU64,
    refused_conns: AtomicU64,
    /// Response frames dropped because their connection was gone or
    /// doomed, or its write buffer full (the client's loss — chaos clients
    /// retry).
    dropped_responses: AtomicU64,
    /// Submits addressed to tenants this server does not host (each
    /// answered with [`ErrorCode::UnknownTenant`]).
    unknown_tenants: AtomicU64,
    /// The coordinator's structured reallocation log (multi-tenant only),
    /// bounded to the most recent re-grants.
    regrants: Mutex<BoundedLog<RegrantEvent>>,
    /// Panics, stalls and escalations, bounded to the most recent; the
    /// three counters below stay exact.
    events: Mutex<BoundedLog<SupervisorEvent>>,
    /// Panics caught by [`Shared::recover`].
    panics: AtomicU64,
    /// Stall episodes [`Server::check_stalls`] found.
    stalls: AtomicU64,
    /// Shards that died; the first latched the fail-fast drain.
    escalations: AtomicU64,
    /// When the server was spawned: events are timed from here.
    started: Instant,
    /// One per shard, in shard order: connection `c` belongs to shard
    /// `c % shards.len()`.
    shards: Vec<ShardHandle>,
    /// Connections accepted and not yet closed.
    connections: AtomicUsize,
}

impl Shared {
    /// One stream per tenant, a clock starting at zero now, zeroed
    /// accounting and one epoll set per shard; demand windows only if the
    /// server `coordinate`s.
    fn new(
        tenants: Vec<(TenantSpec, ArloEngine)>,
        config: &ServeConfig,
        coordinate: bool,
    ) -> io::Result<Shared> {
        let shards = (0..config.shards.max(1))
            .map(ShardHandle::new)
            .collect::<io::Result<Vec<_>>>()?;
        // Demand windows are striped by connection id, at least one stripe
        // per shard.
        let stripes = shards.len().max(8);
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
        Ok(Shared {
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
            events: Mutex::new(BoundedLog::default()),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            started: Instant::now(),
            shards,
            connections: AtomicUsize::new(0),
        })
    }

    /// The tenant a wire tenant id addresses, if this server hosts it.
    fn tenant(&self, id: u32) -> Option<&Tenant> {
        self.tenants.get(id as usize)
    }

    /// The counters `Shared` holds, read now: the tenant rows, the
    /// connection plane's, the shards' and the supervision counters.
    /// [`Server::snapshot`] adds the executors', the event log and the
    /// re-grant log.
    fn snapshot(&self) -> Snapshot {
        let relaxed = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        Snapshot {
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantStats {
                    name: t.name.clone(),
                    ..t.row()
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
            panics_recovered: relaxed(&self.panics),
            stalls_detected: relaxed(&self.stalls),
            escalations: self.escalations.load(Ordering::SeqCst),
            shard_notifies: self.shards.iter().map(|s| relaxed(&s.notifies)).sum(),
            active_connections: self.connections.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
            ..Snapshot::default()
        }
    }

    /// The wire `Stats` view, read straight from the counters: what
    /// `snapshot().stats()` gives, with no row collected and no name
    /// cloned. Every `StatsRequest` and `Drain` is answered with it.
    fn stats(&self) -> StatsPayload {
        let rows = self.tenants.iter().map(Tenant::row);
        wire_stats(rows, self.reallocations.load(Ordering::Relaxed))
    }

    /// Send a frame to a connection: push it into the inbox of the
    /// connection's shard, which puts it in the connection's write buffer
    /// (see [`Shard::empty_inbox`]). Never blocks on a client: a vanished
    /// connection drops the frame, and one whose client stopped reading is
    /// doomed by its shard instead of stalling the caller. This is the only
    /// way frames reach sockets, so no thread placing or completing a
    /// request can ever block on a slow client.
    ///
    /// The shard is woken only by a push that finds its inbox empty and
    /// comes from another thread. That loses no frame:
    ///
    /// - The shard takes its whole inbox at once, after resetting its
    ///   eventfd. A push onto a non-empty inbox sits behind one that woke
    ///   the shard or was made by it, and is taken with it; a push after
    ///   the take finds the inbox empty and wakes the shard again.
    /// - A push by the shard itself — answering a request it read, or
    ///   firing a heap it owns — wakes nobody: the shard empties its inbox
    ///   after every read and every heap slice, before it waits again.
    /// - A shard that has closed up latched its inbox `closed`: the sender
    ///   balances its own frame here.
    fn respond(&self, conn_id: u64, frame: &Frame) {
        let owner = conn_id as usize % self.shards.len();
        let shard = &self.shards[owner];
        // Count the frame *before* the shard can see it: the shard
        // decrements after writing, so incrementing afterwards could race
        // the counter below zero (u64 wrap) and wedge drain's flush wait.
        self.queued_frames.fetch_add(1, Ordering::SeqCst);
        match shard.post(|inbox| inbox.frames.push((conn_id, frame.clone()))) {
            None => self.drop_frames(1),
            Some(true) if ON_SHARD.get() != Some(owner) => shard.wake(),
            Some(_) => {}
        }
    }

    /// Balance `n` frames no client will get: out of the flush count, into
    /// `dropped_responses`.
    fn drop_frames(&self, n: usize) {
        if n > 0 {
            self.queued_frames.fetch_sub(n as u64, Ordering::SeqCst);
            self.dropped_responses
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// The server's one panic boundary: run `work` on the calling thread
    /// and catch a panic, counting it in `panics_recovered` and logging it
    /// `Panicked` under `component`. Returns whether `work` finished; on
    /// `false` the caller re-accounts whatever `work` was carrying.
    fn recover(&self, component: &str, work: impl FnOnce()) -> bool {
        let finished = catch_unwind(AssertUnwindSafe(work)).is_ok();
        if !finished {
            flag_panicking(false);
            self.panics.fetch_add(1, Ordering::Relaxed);
            self.log(component, SupervisorEventKind::Panicked);
        }
        finished
    }

    /// Append one event to the supervision log.
    fn log(&self, component: &str, kind: SupervisorEventKind) {
        let at_ms = self.started.elapsed().as_millis() as u64;
        self.events.lock().push(SupervisorEvent {
            at_ms,
            component: component.to_string(),
            kind,
        });
    }
}

/// A running serve instance. Obtain one with [`Server::spawn`] (single
/// tenant) or [`Server::spawn_multi`] (per-tenant engines plus the GPU
/// re-granting coordinator); stop it with [`Server::drain`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    drain_timeout: Duration,
    stall_grace: Duration,
    /// One thread per shard, in shard order.
    shards: Vec<JoinHandle<()>>,
    /// One executor per tenant (its own per-instance clocks); executor
    /// `i`'s deadline heap belongs to shard `i % shards`.
    executors: Vec<Arc<Executor>>,
    /// Most jobs one slice of heap firing completes (see
    /// [`ShardConfig::fire_slice`]).
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

    fn spawn_inner(
        tenants: Vec<(TenantSpec, ArloEngine)>,
        addr: &str,
        config: ServeConfig,
        coordinate: bool,
    ) -> io::Result<Server> {
        assert!(!tenants.is_empty(), "need at least one tenant");
        install_panic_hook();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // The shards' epoll sets come with `Shared`: the executors wake
        // their heaps' owners through them, and shard 0 listens.
        let shared = Arc::new(Shared::new(tenants, &config, coordinate)?);
        let shard_count = shared.shards.len();
        shared.shards[0]
            .epoll
            .add(&listener, LISTENER_TOKEN, Interest::READ)?;

        let executors: Vec<Arc<Executor>> = (0..shared.tenants.len())
            .map(|idx| Arc::new(tenant_executor(&shared, idx, config.batch)))
            .collect();

        let fire_slice = (config.outbound_queue / 2).max(1);
        let mut front_door = Some(FrontDoor {
            listener,
            next_conn_id: 0,
            max_conns: config.max_conns,
        });
        // Planner intervals in real time at the speed-up, never under 1 ms.
        let real = |interval: Nanos| {
            Duration::from_nanos((interval / Nanos::from(config.time_scale)).max(1_000_000))
        };
        let tick = real(TICK_INTERVAL);
        let pass = coordinate.then(|| real(config.coordinator_interval));
        let now = Instant::now();
        let chaos_plan = |name: &str| config.component_chaos.as_ref()?.plan_for(name);
        let mut planner = Some(Planner {
            chaos: chaos_plan("planner"),
            tick,
            pass,
            gpus: config.gpus,
            next_tick: now + tick,
            next_pass: pass.map(|every| now + every),
        });
        let mut shards = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let shard_cfg = ShardConfig {
                sweep_interval: config.sweep_interval,
                idle_timeout: config.idle_timeout,
                write_timeout: config.write_timeout,
                outbound_queue: config.outbound_queue,
                fire_slice,
                executors: executors.clone(),
                heaps: (id..executors.len()).step_by(shard_count).collect(),
            };
            let name = &shared.shards[id].name;
            let chaos = chaos_plan(name);
            let spawned = {
                let shared = Arc::clone(&shared);
                let door = front_door.take();
                let planner = planner.take();
                std::thread::Builder::new()
                    .name(format!("arlo-{name}"))
                    .spawn(move || run_shard(&shared, id, door, planner, &shard_cfg, chaos))
            };
            match spawned {
                Ok(thread) => shards.push(thread),
                Err(e) => {
                    stop_threads(&shared, shards);
                    return Err(e);
                }
            }
        }

        Ok(Server {
            shared,
            local_addr,
            drain_timeout: config.drain_timeout,
            stall_grace: config.stall_grace,
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
            supervisor_events: self.shared.events.lock().to_vec(),
            regrants: self.shared.regrants.lock().to_vec(),
            batch_occupancy,
            tracked_instances: self.executors.iter().map(|e| e.tracked_instances()).sum(),
            ..self.shared.snapshot()
        }
    }

    /// The stall check: compare every shard's heartbeat with its reading
    /// at the previous call, and log a `Stalled` event for one frozen
    /// while unparked, and not inside a panic, for at least
    /// [`ServeConfig::stall_grace`] — once per freeze episode (a wedged
    /// planner tick is shard 0's). No thread runs it; call it
    /// periodically (`arlo serve` does, every 50 ms).
    /// Returns the episodes this call found.
    pub fn check_stalls(&self) -> u64 {
        let now = Instant::now();
        let mut found = 0;
        for shard in &self.shared.shards {
            let beats = shard.beats.load(Ordering::Relaxed);
            let (seen, since) = &mut *shard.watch.lock();
            if beats != *seen {
                (*seen, *since) = (beats, Some(now));
            } else if !shard.panicking.load(Ordering::Acquire)
                && !shard.parked.load(Ordering::Relaxed)
                && since.is_some_and(|at| now - at >= self.stall_grace)
            {
                *since = None;
                found += 1;
                self.shared.log(&shard.name, SupervisorEventKind::Stalled);
            }
        }
        self.shared.stalls.fetch_add(found, Ordering::Relaxed);
        found
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
        for shard in &shared.shards {
            shard.waker.wake();
        }

        // Flush: every admitted request completes, and its response frame
        // reaches the socket, before anything closes.
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
        stop_threads(shared, shards);
        for executor in &self.executors {
            // Fires whatever the heap still holds (a drain that timed out).
            executor.finish();
        }
        self.snapshot()
    }
}

/// Tenant `idx`'s executor, its deadline heap fired by shard
/// `idx % shards`. A park that undercuts the heap's head wakes that shard —
/// unless the shard parked it itself, and will read the new head before it
/// waits again. Each completion runs behind [`Shared::recover`], logged
/// under the shard that runs it (the heap's owner when the drain fires it
/// for a dead shard); one that panics is re-accounted as a failed batch.
fn tenant_executor(shared: &Arc<Shared>, idx: usize, batch: BatchPolicy) -> Executor {
    let owner = idx % shared.shards.len();
    let on_done = {
        let shared = Arc::clone(shared);
        Box::new(move |mut done: CompletedBatch| {
            let shard = &shared.shards[ON_SHARD.get().unwrap_or(owner)];
            if !shared.recover(&shard.name, || complete_batch(&shared, &mut done, false)) {
                complete_batch(&shared, &mut done, true);
            }
        })
    };
    let wake = {
        let shared = Arc::clone(shared);
        Box::new(move || {
            if ON_SHARD.get() != Some(owner) {
                shared.shards[owner].wake();
            }
        })
    };
    Executor::serviced_by_caller(
        shared.tenants[idx].engine.profiles().to_vec(),
        Arc::clone(&shared.clock),
        JitterSpec::NONE,
        batch,
        on_done,
        wake,
    )
}

/// Executor completion callback, fired once per sealed batch: report one
/// amortized batch into the engine's health/load hooks, update counters,
/// answer every member's client. Each job's fate is decided once, by
/// moving the failing jobs behind the rest, so the engine report — the
/// last step that can panic — still precedes every answer. With
/// `fail_all` — the panic boundary's re-run, after a first run that died
/// before any accounting (the chaos hook is its first statement; a genuine
/// panic aborts the engine report) — every job fails and the hook is skipped.
fn complete_batch(shared: &Shared, done: &mut CompletedBatch, fail_all: bool) {
    // Chaos hook: a one-in-n completion panic, *before* any accounting, so
    // the boundary's re-run accounts the whole batch exactly once.
    if let Some(n) = shared.panic_one_in.filter(|_| !fail_all) {
        if n > 0 && done.jobs.iter().any(|j| j.request_id % n == n - 1) {
            panic!("injected executor completion panic (one in {n})");
        }
    }
    let fails = |job: &Job| {
        let n = shared.fail_one_in.unwrap_or(0);
        fail_all || (n > 0 && job.request_id % n == n - 1)
    };
    let mut ok = 0;
    for i in 0..done.jobs.len() {
        if !fails(&done.jobs[i]) {
            done.jobs.swap(ok, i);
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
    let failed = done.jobs.len() - ok;
    tenant.engine.report_batch(
        done.jobs[0].placement,
        ok as u32,
        failed as u32,
        done.finished_at,
        observed_per_request,
    );
    tenant.served.fetch_add(ok as u64, Ordering::Relaxed);
    tenant.failed.fetch_add(failed as u64, Ordering::Relaxed);
    for (i, job) in done.jobs.iter().enumerate() {
        let frame = if i >= ok {
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
            // this length — zero tokens, or the degenerate zero-runtime
            // family, max_length 0 — or every candidate level is
            // masked/empty (overload, quarantine).
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
fn stop_threads(shared: &Shared, shards: Vec<JoinHandle<()>>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    for shard in &shared.shards {
        shard.waker.wake();
    }
    for thread in shards {
        let _ = thread.join();
    }
}

/// Virtual interval between planner ticks (health + reallocation check).
const TICK_INTERVAL: Nanos = arlo_trace::NANOS_PER_SEC / 5;

/// The planner, which shard 0 carries like its listener: health ticks
/// (plus, without a coordinator, the reallocation check) every tick, and
/// the coordinator's re-granting pass every coordinator interval. Intervals
/// count from the end of the work before them, so a pass delays shard 0's
/// connections by its own duration, never by a backlog of missed ticks.
struct Planner {
    /// The `planner` component-chaos schedule, drawn once per wake-up.
    chaos: Option<ComponentChaosPlan>,
    /// Real time between health ticks.
    tick: Duration,
    /// Real time between coordinator passes, if this server re-grants GPUs
    /// (it is then the sole `apply_allocation` caller); without passes,
    /// every tick runs the single tenant's reallocation check.
    pass: Option<Duration>,
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

    /// Run the tick and the pass if due, behind [`Shared::recover`]: a
    /// panicking wake-up is logged under `planner` and the next one runs on
    /// schedule.
    fn run_due(&mut self, shared: &Shared, executors: &[Arc<Executor>]) {
        let woke = Instant::now();
        let tick = woke >= self.next_tick;
        let pass = self.next_pass.is_some_and(|at| woke >= at);
        if !tick && !pass {
            return;
        }
        shared.recover("planner", || {
            if let Some(chaos) = &mut self.chaos {
                chaos.on_beat();
            }
            if tick {
                health_tick(shared, executors, self.pass.is_none().then_some(self.gpus));
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

/// Health-tick every tenant engine; without a coordinator (a
/// [`Server::spawn`] server, one tenant), also run the Runtime Scheduler's
/// reallocation check over `reallocate_gpus`. On a re-granting server the
/// coordinator pass is the sole `apply_allocation` caller (generation
/// plans must land in order).
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
        // Keep the reported grant in sync even when the deployment itself
        // is unchanged (the partition may re-state the same split).
        tenant.granted.store(part.gpus[idx], Ordering::Relaxed);
        let Some(plan) = tenant.engine.plan_for(&part.allocations[idx]) else {
            continue;
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
    next_conn_id: u64,
    max_conns: usize,
}

impl FrontDoor {
    /// Accept until `WouldBlock` (at most [`ACCEPT_BURST`]): refuse past
    /// `max_conns` with one typed `Shed` frame, count each connection it
    /// keeps, post another shard's into that shard's inbox, and return
    /// shard 0's own to adopt. Any other accept error (`EMFILE`, say)
    /// mutes the listener ([`Interest::NONE`]) until the next sweep re-arms
    /// it: level-triggered readiness on a connection that cannot be
    /// accepted must not spin the shard.
    fn accept(&mut self, shared: &Shared, epoll: &Epoll) -> Vec<(u64, TcpStream)> {
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
                continue; // dropped before anything was counted for it
            }
            let _ = stream.set_nodelay(true);
            if shared.connections.load(Ordering::Relaxed) >= self.max_conns {
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
            shared.connections.fetch_add(1, Ordering::Relaxed);
            let owner = conn_id as usize % shared.shards.len();
            if owner == 0 {
                own.push((conn_id, stream));
                continue;
            }
            // That shard registers the socket with its epoll when it
            // empties its inbox; one that has closed up drops it here.
            let shard = &shared.shards[owner];
            match shard.post(|inbox| inbox.adopt.push((conn_id, stream))) {
                None => _ = shared.connections.fetch_sub(1, Ordering::Relaxed),
                Some(true) => shard.waker.wake(),
                Some(false) => {}
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
    /// Most answers a connection's write buffer holds unwritten.
    outbound_queue: usize,
    /// Most answers one slice — of heap firing, or of one connection's
    /// reads — produces before the shard writes out the connections it
    /// answered: half of `outbound_queue`.
    fire_slice: usize,
    /// One per tenant, indexed by tenant id.
    executors: Vec<Arc<Executor>>,
    /// The tenant ids whose executor heaps this shard fires (`i % shards`
    /// is this shard's index).
    heaps: Vec<usize>,
}

/// One connection's state machine on its shard: the incremental
/// [`FrameReader`] on the way in, the [`FrameWriteBuf`] — the bounded
/// outbound queue — on the way out, plus doom/idle/stall state.
struct FramedConn {
    stream: TcpStream,
    frames: FrameReader,
    budget: ErrorBudget,
    wbuf: FrameWriteBuf,
    /// An answer found the write buffer full: the connection closes at its
    /// next settle.
    doomed: bool,
    /// Reading stopped at the end of a slice, or found no room for one:
    /// input may be left in `frames` that no readiness event announces.
    paused: bool,
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
    /// Whether the write buffer has room for the answers of another read
    /// slice, and the read side is open.
    fn reads(&self, cfg: &ShardConfig) -> bool {
        !self.closing && self.wbuf.pending_frames() + cfg.fire_slice <= cfg.outbound_queue
    }

    /// The epoll interest this connection should be registered with right
    /// now: readable while it reads; writable while the socket holds back
    /// frames (a write left some), or to come back to a paused read once
    /// there is room for it.
    fn desired_interest(&self, cfg: &ShardConfig) -> Interest {
        let reads = self.reads(cfg);
        Interest {
            readable: reads,
            writable: !self.wbuf.is_empty() || (self.paused && reads),
        }
    }
}

/// Most socket fills one drive of a connection makes, so one firehose
/// connection cannot starve its shard.
const DRIVE_FILLS: usize = 4;

/// One shard's own state, which no other thread touches: its connections'
/// state machines, by id. Dropping it closes the shard up — on shutdown,
/// or when the shard dies of a panic, whose live state machines cannot be
/// re-attached: the inbox latches `closed` and everything in it is
/// balanced out of the drain flush counter, then every connection closes,
/// balancing its unwritten frames. Without this, a dead shard's frames
/// would wedge [`Server::drain`] against its timeout.
struct Shard<'a> {
    shared: &'a Shared,
    handle: &'a ShardHandle,
    cfg: &'a ShardConfig,
    /// By connection id, which the front door numbers, not the client.
    conns: HashMap<u64, FramedConn, BuildWordHasher>,
    /// The inbox's frames, swapped out under its lock; empty between
    /// takes, so neither side reallocates once both have grown.
    taken: Vec<(u64, Frame)>,
    /// Connections the frames being delivered answer, to write out.
    touched: Vec<u64>,
}

impl Drop for Shard<'_> {
    fn drop(&mut self) {
        // Finished either way: a frozen heartbeat is not a stall. Parked
        // here, while still unwinding, so before `recover` lowers a dying
        // shard's `panicking` flag.
        self.handle.parked.store(true, Ordering::Relaxed);
        let (adopt, frames) = {
            let mut inbox = self.handle.inbox.lock();
            inbox.closed = true;
            (
                std::mem::take(&mut inbox.adopt),
                std::mem::take(&mut inbox.frames),
            )
        };
        self.shared
            .connections
            .fetch_sub(adopt.len(), Ordering::Relaxed);
        self.shared.drop_frames(frames.len());
        for (_, conn) in self.conns.drain() {
            close_conn(self.shared, &self.handle.epoll, conn);
        }
    }
}

impl Shard<'_> {
    /// Register a connection with this shard's epoll. Input already
    /// waiting is reported by the next wait, and no answer can precede
    /// its first read.
    fn adopt(&mut self, conn_id: u64, stream: TcpStream) {
        if self
            .handle
            .epoll
            .add(&stream, conn_id, Interest::READ)
            .is_err()
        {
            self.shared.connections.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let conn = FramedConn {
            stream,
            frames: FrameReader::new(),
            budget: ErrorBudget::new(FRAME_ERROR_BUDGET),
            wbuf: FrameWriteBuf::new(),
            doomed: false,
            paused: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
            write_blocked_since: None,
            closing: false,
        };
        self.conns.insert(conn_id, conn);
    }

    /// Take the whole inbox — other threads' and this shard's own posts —
    /// under one lock: adopt the connections handed over, encode each
    /// answer into its connection's write buffer, and write out every
    /// connection that got one. An answer to a connection that is gone is
    /// dropped; one that finds the write buffer full dooms the connection
    /// (a client that stopped reading while answers kept coming) rather
    /// than backpressure anyone.
    fn empty_inbox(&mut self) {
        let adopt = {
            let mut inbox = self.handle.inbox.lock();
            std::mem::swap(&mut inbox.frames, &mut self.taken);
            std::mem::take(&mut inbox.adopt)
        };
        for (conn_id, stream) in adopt {
            self.adopt(conn_id, stream);
        }
        for (conn_id, frame) in self.taken.drain(..) {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                self.shared.drop_frames(1);
                continue;
            };
            if !conn.doomed && conn.wbuf.pending_frames() < self.cfg.outbound_queue {
                conn.wbuf.push(&frame, frame.dialect());
            } else {
                if !std::mem::replace(&mut conn.doomed, true) {
                    self.shared.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.shared.drop_frames(1);
            }
            if self.touched.last() != Some(&conn_id) {
                self.touched.push(conn_id);
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &conn_id in &touched {
            self.settle(conn_id);
        }
        touched.clear();
        self.touched = touched;
    }

    /// Drive one connection: read it — when readable, or when a paused
    /// read has room again — a slice of [`ShardConfig::fire_slice`]
    /// answers at a time, emptying the inbox after each slice so its
    /// answers are written out before the next is read; then settle it.
    /// A client that sends a burst and reads only afterwards is thus paced
    /// by its own reads, never overflowed by answers to its own requests.
    fn drive(&mut self, conn_id: u64, readable: bool) {
        let mut fills = 0;
        while let Some(conn) = self.conns.get_mut(&conn_id) {
            if !(readable || conn.paused) {
                break;
            }
            if !conn.reads(self.cfg) {
                // No room for another slice's answers: the read is owed.
                conn.paused = !conn.closing;
                break;
            }
            let more = read_slice(self.shared, conn, conn_id, self.cfg, &mut fills);
            conn.paused = more;
            self.empty_inbox();
            if !more {
                break;
            }
        }
        self.settle(conn_id);
    }

    /// Write a connection out, then close it or refresh its epoll interest
    /// as its state demands.
    fn settle(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let alive = !conn.doomed && drive_write(self.shared, conn, self.cfg);
        if alive && !(conn.closing && conn.wbuf.is_empty()) {
            let desired = conn.desired_interest(self.cfg);
            if desired != conn.interest
                && self
                    .handle
                    .epoll
                    .modify(&conn.stream, conn_id, desired)
                    .is_ok()
            {
                conn.interest = desired;
            }
        } else if let Some(conn) = self.conns.remove(&conn_id) {
            close_conn(self.shared, &self.handle.epoll, conn);
        }
    }

    /// Fire what is ripe in this shard's executor heaps, a slice of at most
    /// [`ShardConfig::fire_slice`] jobs at a time, and after each slice
    /// empty the inbox — so a backlog that ripened while the shard was away
    /// (a host stall, a drain) reaches each connection's write buffer no
    /// faster than the shard writes it to the socket. Returns the earliest
    /// deadline left.
    fn fire_heaps(&mut self) -> Option<Nanos> {
        loop {
            let mut budget = self.cfg.fire_slice;
            let mut next: Option<Nanos> = None;
            for &idx in &self.cfg.heaps {
                let (fired, head) = self.cfg.executors[idx].fire_ripe(budget);
                budget = budget.saturating_sub(fired);
                next = next.into_iter().chain(head).min();
            }
            self.empty_inbox();
            if budget > 0 {
                return next;
            }
        }
    }

    /// Time-driven connection maintenance: idle reaping and write-stall
    /// dooming.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut due: Vec<(u64, bool)> = Vec::new();
        for (&conn_id, conn) in &self.conns {
            let idle =
                !conn.closing && now.duration_since(conn.last_activity) >= self.cfg.idle_timeout;
            if conn.write_blocked_since.is_some() || idle {
                due.push((conn_id, idle));
            }
        }
        for (conn_id, idle) in due {
            if idle {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    // Counted exactly once: `closing` guards re-entry.
                    self.shared.reaped_idle.fetch_add(1, Ordering::Relaxed);
                    conn.closing = true;
                }
            }
            self.drive(conn_id, false);
        }
    }
}

/// One epoll shard: accept (shard 0) and adopt connections, empty its
/// inbox, pump readiness events through the per-connection state machines,
/// sweep for idle and stalled connections, fire its executors' ripe
/// deadlines and run the planner's due work (shard 0); on shutdown (or
/// panic — see [`Shard`]) close everything it owns. It sleeps until the
/// earliest of its next sweep, its heaps' next deadline and the planner's
/// next tick or pass, and beats its heartbeat once per pass, drawing from
/// its `chaos` schedule there.
fn shard_loop(
    shared: &Shared,
    id: usize,
    mut door: Option<FrontDoor>,
    mut planner: Option<Planner>,
    cfg: &ShardConfig,
    mut chaos: Option<ComponentChaosPlan>,
) {
    ON_SHARD.set(Some(id));
    let handle = &shared.shards[id];
    let _ = PANICKING.with(|flag| flag.set(Arc::clone(&handle.panicking)));
    let epoll = &handle.epoll;
    let mut shard = Shard {
        shared,
        handle,
        cfg,
        conns: HashMap::default(),
        taken: Vec::new(),
        touched: Vec::new(),
    };
    let mut events = Vec::new();
    let mut last_sweep = Instant::now();
    let mut next_fire: Option<Nanos> = None;
    loop {
        let mut timeout = cfg.sweep_interval.saturating_sub(last_sweep.elapsed());
        if let Some(at) = next_fire {
            let clock = &shared.clock;
            timeout = timeout.min(clock.real_until(at, clock.now()));
        }
        if let Some(planner) = &planner {
            timeout = timeout.min(planner.until_due());
        }
        handle.parked.store(true, Ordering::Relaxed);
        // `Epoll::new` probed the syscall, so a failure here is a broken
        // epoll set: die loudly into the escalation rather than spin.
        epoll
            .wait(&mut events, Some(timeout))
            .expect("shard epoll wait failed");
        // Park, block, beat, work: everything below runs unparked, so a
        // wedge anywhere in this wake-up's work freezes the heartbeat where
        // the stall check looks. Also the chaos injection point — `shard`
        // is armed, so an induced panic here still closes up.
        handle.beats.fetch_add(1, Ordering::Relaxed);
        handle.parked.store(false, Ordering::Relaxed);
        if let Some(chaos) = &mut chaos {
            chaos.on_beat();
        }
        // Reset the eventfd *before* taking the inbox it announces: a post
        // landing after the take then leaves it readable for the next wait
        // instead of being swallowed by this one.
        if events.iter().any(|ev| ev.token == WAKER_TOKEN) {
            handle.waker.drain();
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // `shard` drops here, closing everything up.
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
                for (conn_id, stream) in door.accept(shared, epoll) {
                    shard.adopt(conn_id, stream);
                }
            }
        }

        // Connections handed over and answers other threads sent.
        shard.empty_inbox();

        // Socket readiness.
        for &ev in &events {
            if ev.token == WAKER_TOKEN || ev.token == LISTENER_TOKEN {
                continue;
            }
            shard.drive(ev.token, ev.readable || ev.closed);
        }

        // Periodic sweep.
        if last_sweep.elapsed() >= cfg.sweep_interval {
            last_sweep = Instant::now();
            shard.sweep();
            if let Some(door) = &door {
                // Listen again, should an accept error have muted it.
                let _ = epoll.modify(&door.listener, LISTENER_TOKEN, Interest::READ);
            }
        }

        // Deadlines, after every submit of this pass has parked its own:
        // the head read here is what the next wait sleeps until, and the
        // inbox is empty once it returns — nothing below posts or parks.
        next_fire = shard.fire_heaps();

        // Shard 0: the planner's tick or coordinator pass, if due.
        if let Some(planner) = planner.as_mut() {
            planner.run_due(shared, &cfg.executors);
        }
    }
}

/// Shard `id`'s thread: its loop behind [`Shared::recover`]. A panic that
/// escapes the loop kills the shard and escalates: logged `Escalated`, and
/// the first death fails the server fast into a conserving drain. Refusing
/// new work is all that takes — every admitted request is already placed,
/// so the normal drain flushes the rest — and waking shard 0 makes it
/// close the listener now, not at its next sweep.
fn run_shard(
    shared: &Shared,
    id: usize,
    door: Option<FrontDoor>,
    planner: Option<Planner>,
    cfg: &ShardConfig,
    chaos: Option<ComponentChaosPlan>,
) {
    // Wake at each deadline, not up to the default 50 µs slack after it:
    // at 100× that slack is 5 virtual ms on every timed wake. A refusal
    // costs only that precision.
    let _ = set_min_timer_slack();
    let shard = &shared.shards[id];
    let died = !shared.recover(&shard.name, || {
        shard_loop(shared, id, door, planner, cfg, chaos);
    });
    if died {
        shared.log(&shard.name, SupervisorEventKind::Escalated);
        if shared.escalations.fetch_add(1, Ordering::SeqCst) == 0 {
            shared.draining.store(true, Ordering::SeqCst);
            shared.shards[0].waker.wake();
        }
    }
}

/// Read one slice: decode what is buffered, filling from the socket when
/// it runs out, until the frames handled owe [`ShardConfig::fire_slice`]
/// answers (a [`Frame::BatchedSubmit`] one per sub). A fill that comes
/// back short of its chunk drained the socket (level-triggered epoll
/// re-reports anything left, so no `read` is spent on a `WouldBlock`),
/// and a drive makes at most [`DRIVE_FILLS`] fills (`fills` counts them
/// across its slices). Returns true when the slice ended with input
/// possibly left. Sets `closing` on EOF, protocol disconnect, or a hard
/// error: answers still flush before the close.
fn read_slice(
    shared: &Shared,
    conn: &mut FramedConn,
    conn_id: u64,
    cfg: &ShardConfig,
    fills: &mut usize,
) -> bool {
    let mut owed = 0;
    loop {
        loop {
            match conn.frames.next_frame() {
                Ok(Some(frame)) => {
                    conn.budget.credit();
                    if !handle_frame(shared, conn_id, &mut conn.budget, &cfg.executors, &frame) {
                        conn.closing = true;
                        return false;
                    }
                    owed += match &frame {
                        Frame::BatchedSubmit { subs } => subs.len(),
                        _ => 1,
                    };
                    if owed >= cfg.fire_slice {
                        return true;
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
                        owed += 1;
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
                    return false;
                }
            }
        }
        if *fills >= DRIVE_FILLS {
            return false;
        }
        match conn.frames.fill(&mut conn.stream) {
            Ok(0) => {
                conn.closing = true;
                return false;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                *fills = if n < FILL_CHUNK {
                    DRIVE_FILLS
                } else {
                    *fills + 1
                };
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(_) => {
                // Reset or broken pipe: stop reading, but still flush
                // queued responses before closing.
                conn.closing = true;
                return false;
            }
        }
    }
}

/// Non-blocking write pump: write the [`FrameWriteBuf`] until empty or
/// blocked. Returns `false` when the connection must close (write stall
/// past the timeout, or a hard error).
fn drive_write(shared: &Shared, conn: &mut FramedConn, cfg: &ShardConfig) -> bool {
    while !conn.wbuf.is_empty() {
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
                    // fate as overflowing the write buffer.
                    shared.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                return true; // EPOLLOUT (or the sweep) re-drives
            }
            Err(_) => return false,
        }
    }
    conn.write_blocked_since = None;
    true
}

/// Close one connection its shard has let go of: deregister the socket,
/// uncount it, and balance its unwritten frames.
fn close_conn(shared: &Shared, epoll: &Epoll, conn: FramedConn) {
    let _ = epoll.delete(&conn.stream);
    shared.connections.fetch_sub(1, Ordering::Relaxed);
    shared.drop_frames(conn.wbuf.pending_frames());
}

/// Admit one submit for a (validated) tenant and place it on this thread:
/// shed under drain, shed when the tenant's SLO class has its admission
/// share in flight, otherwise [`place`] it on the tenant's executor (one
/// per tenant in `executors`). Shared by [`Frame::Submit`] and every
/// sub-request of a [`Frame::BatchedSubmit`] — batching amortizes framing,
/// never accounting.
///
/// The placement runs behind the server's panic boundary
/// ([`Shared::recover`], logged under the connection's shard): if it
/// panics, that one request is answered [`ErrorCode::Failed`] through
/// [`fail_admitted`] — treated as never placed — and the shard carries on.
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
    let shard = &shared.shards[conn_id as usize % shared.shards.len()];
    if !shared.recover(&shard.name, || {
        place(shared, tenant_id, executor, conn_id, id, length, now);
    }) {
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
            shared.respond(conn_id, &Frame::Stats(shared.stats()));
            true
        }
        Frame::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.respond(conn_id, &Frame::Stats(shared.stats()));
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
    use crate::epoll::tests::own_timer_slack;
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
        assert_eq!(refusal_code(0, 512), ErrorCode::Unserviceable);
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
        let shared = Shared::new(vec![(spec, engine)], &config, false).expect("epoll");
        // An executor that knows only the 64 runtime: `Executor::submit`
        // indexes past its profiles for that placement and panics.
        let completed = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&completed);
        let executor = Arc::new(Executor::serviced_by_caller(
            profiles[..1].to_vec(),
            Arc::clone(&shared.clock),
            JitterSpec::NONE,
            config.batch,
            Box::new(move |batch| {
                counted.fetch_add(batch.jobs.len(), Ordering::SeqCst);
            }),
            Box::new(|| {}),
        ));
        let conn_id = 7;
        submit_one(
            &shared,
            std::slice::from_ref(&executor),
            conn_id,
            0,
            42,
            100,
        );

        let inbox = &shared.shards[conn_id as usize % shared.shards.len()].inbox;
        let answers: Vec<Frame> = inbox.lock().frames.iter().map(|(_, f)| f.clone()).collect();
        assert_eq!(
            answers,
            vec![Frame::Error {
                id: 42,
                code: ErrorCode::Failed
            }],
            "exactly one Failed answer"
        );
        assert_eq!(shared.snapshot().panics_recovered, 1);
        let events = shared.events.lock().to_vec();
        let logged: Vec<_> = events
            .iter()
            .map(|e| (e.component.as_str(), e.kind))
            .collect();
        let owner = format!("shard-{}", conn_id as usize % shared.shards.len());
        assert_eq!(logged, [(owner.as_str(), SupervisorEventKind::Panicked)]);
        let tenant = &shared.tenants[0];
        assert_eq!(tenant.outstanding.load(Ordering::SeqCst), 0);
        assert_eq!(tenant.submits.load(Ordering::Relaxed), 1);
        assert_eq!(tenant.failed.load(Ordering::Relaxed), 1);
        let stats = shared.snapshot().stats();
        assert_eq!((stats.served, stats.shed, stats.outstanding), (0, 1, 0));

        // The panic unwound through the executor's lock, which stays
        // usable: a placement the executor knows is accepted, the heap
        // fires, and the shutdown pass completes it.
        executor.submit(Job {
            placement: arlo_core::engine::Placement {
                generation: 0,
                runtime_idx: 0,
                instance_idx: 0,
            },
            request_id: 43,
            conn_id,
            tenant: 0,
            length: 32,
            submitted_at: shared.clock.now(),
        });
        executor.fire_ripe(usize::MAX);
        executor.finish();
        assert_eq!(completed.load(Ordering::SeqCst), 1);
    }

    /// Place 30 submits (ids 0..30) on a one-shard server's executor under
    /// `config` with `instances` instances, fire everything, and return the
    /// answers, the snapshot and the batch-size histogram.
    fn complete_thirty(config: ServeConfig, instances: u32) -> (Vec<Frame>, Snapshot, Vec<u64>) {
        let model = ModelSpec::bert_base();
        let profiles = profile_runtimes(&[CompiledRuntime::new_static(model, 512)], 150.0, 64);
        let engine = ArloEngine::new(
            profiles,
            vec![instances],
            arlo_core::engine::EngineConfig::paper_default(150.0),
        );
        let spec = TenantSpec::new("default", SloClass::Interactive, 0.0);
        let shared = Arc::new(Shared::new(vec![(spec, engine)], &config, false).expect("epoll"));
        let executor = Arc::new(tenant_executor(&shared, 0, config.batch));
        for id in 0..30 {
            submit_one(&shared, std::slice::from_ref(&executor), 7, 0, id, 100);
        }
        executor.finish();
        let answers = std::mem::take(&mut shared.shards[0].inbox.lock().frames);
        let answers = answers.into_iter().map(|(_, f)| f).collect();
        let snapshot = Snapshot {
            supervisor_events: shared.events.lock().to_vec(),
            ..shared.snapshot()
        };
        (answers, snapshot, executor.batch_occupancy())
    }

    /// Whether `answers` are exactly: `Failed` for the ids `fails` picks,
    /// `Response` for the rest, one each for ids 0..30.
    fn answered(answers: &[Frame], fails: impl Fn(u64) -> bool) -> bool {
        let mut ids: Vec<u64> = answers
            .iter()
            .map(|f| match *f {
                Frame::Error {
                    id,
                    code: ErrorCode::Failed,
                } if fails(id) => id,
                Frame::Response { id, .. } if !fails(id) => id,
                _ => u64::MAX,
            })
            .collect();
        ids.sort_unstable();
        ids == (0..30).collect::<Vec<u64>>()
    }

    /// One shard at 10 000×, then `edit`.
    fn fast_config(edit: impl FnOnce(&mut ServeConfig)) -> ServeConfig {
        let mut config = ServeConfig {
            shards: 1,
            ..ServeConfig::new(8).with_time_scale(10_000)
        };
        edit(&mut config);
        config
    }

    /// A panicking completion is caught by the same boundary and its batch
    /// re-accounted as failed: on a caller-serviced executor whose
    /// completions panic for one request id in three, 30 submits get 10
    /// `Failed` and 20 `Response` answers, each panic is counted and
    /// logged once, and the tenant row conserves.
    #[test]
    fn a_panicking_completion_is_one_failed_batch() {
        let config = fast_config(|c| c.panic_one_in = Some(3));
        let (answers, snapshot, _) = complete_thirty(config, 8);
        assert!(answered(&answers, |id| id % 3 == 2), "{answers:?}");
        assert_eq!(snapshot.panics_recovered, 10, "each panic counted once");
        let panicked = snapshot
            .supervisor_events
            .iter()
            .filter(|e| e.component == "shard-0" && e.kind == SupervisorEventKind::Panicked);
        assert_eq!(panicked.count(), 10, "each panic logged once");
        let tenant = &snapshot.tenants[0];
        assert_eq!((tenant.submits, tenant.served, tenant.failed), (30, 20, 10));
        assert_eq!(tenant.submits, tenant.accounted(), "{tenant:?}");
        assert_eq!(tenant.outstanding, 0);
    }

    /// Injected execution failures inside coalesced batches: each job's
    /// fate is its own, decided once — every fourth id answered `Failed`,
    /// the rest of its batch served.
    #[test]
    fn injected_failures_fail_only_their_own_jobs_in_a_batch() {
        let config = fast_config(|c| {
            c.fail_one_in = Some(4);
            // One instance, batches of up to 8 held open 1 virtual s
            // (100 µs real): the 30 submits coalesce into 8 + 8 + 8 + 6.
            c.batch = BatchPolicy {
                spec: BatchSpec {
                    max_batch: 8,
                    marginal_cost: 0.5,
                },
                max_wait_ns: arlo_trace::NANOS_PER_SEC,
            };
        });
        let (answers, snapshot, occupancy) = complete_thirty(config, 1);
        assert_eq!(occupancy.iter().sum::<u64>(), 4, "{occupancy:?}");
        assert!(answered(&answers, |id| id % 4 == 3), "{answers:?}");
        let tenant = &snapshot.tenants[0];
        assert_eq!(
            (tenant.served, tenant.failed, tenant.outstanding),
            (23, 7, 0)
        );
        assert_eq!(snapshot.panics_recovered, 0);
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
            let shared = Shared::new(vec![(spec, engine)], &config, coordinate).expect("epoll");
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

    // --- The shard inbox's latch: every frame is counted out once ---

    /// A one-tenant, one-shard `Shared`.
    fn one_shard() -> Shared {
        let model = ModelSpec::bert_base();
        let profiles = profile_runtimes(&[CompiledRuntime::new_static(model, 512)], 150.0, 64);
        let engine = ArloEngine::new(
            profiles,
            vec![2],
            arlo_core::engine::EngineConfig::paper_default(150.0),
        );
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::new(2)
        };
        let spec = TenantSpec::new("default", SloClass::Interactive, 0.0);
        Shared::new(vec![(spec, engine)], &config, false).expect("epoll")
    }

    /// `Shared::snapshot` does not clone the re-grant log: only
    /// `Server::snapshot` reads it.
    #[test]
    fn a_stats_snapshot_clones_no_regrant() {
        let shared = one_shard();
        shared
            .regrants
            .lock()
            .push(RegrantEvent::new(0, vec![1, 1], vec![2, 0], 0.0));
        assert!(shared.snapshot().regrants.is_empty());
        assert_eq!(shared.regrants.lock().to_vec().len(), 1);
    }

    /// The `Stats` answer read straight from the counters is the snapshot's
    /// wire view, every refusal in `shed`.
    #[test]
    fn stats_from_the_counters_equal_the_snapshots() {
        let shared = one_shard();
        let tenant = &shared.tenants[0];
        for (counter, n) in [
            (&tenant.submits, 20),
            (&tenant.served, 11),
            (&tenant.shed, 2),
            (&tenant.unserviceable, 3),
            (&tenant.failed, 4),
            (&tenant.outstanding, 5),
            (&shared.reallocations, 6),
        ] {
            counter.store(n, Ordering::SeqCst);
        }
        let stats = shared.stats();
        assert_eq!(stats, shared.snapshot().stats());
        assert_eq!(
            (
                stats.served,
                stats.shed,
                stats.outstanding,
                stats.reallocations
            ),
            (11, 9, 5, 6)
        );
    }

    fn answer(id: u64) -> Frame {
        Frame::Error {
            id,
            code: ErrorCode::Shed,
        }
    }

    #[test]
    fn an_answer_to_a_closed_inbox_is_balanced_by_its_sender() {
        let shared = one_shard();
        shared.shards[0].inbox.lock().closed = true;
        shared.respond(3, &answer(1));

        assert!(shared.shards[0].inbox.lock().frames.is_empty());
        assert_eq!(shared.queued_frames.load(Ordering::SeqCst), 0);
        assert_eq!(shared.snapshot().dropped_responses, 1);
    }

    /// A shard's settings for a shard driven by hand: no executors, and
    /// no sweep or reap within a test's run.
    fn idle_shard_config() -> ShardConfig {
        ShardConfig {
            sweep_interval: Duration::from_secs(60),
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            outbound_queue: 8,
            fire_slice: 4,
            executors: Vec::new(),
            heaps: Vec::new(),
        }
    }

    #[test]
    fn a_shard_thread_runs_at_min_timer_slack() {
        // Reading its own slack needs no capability, unlike reading
        // another thread's (`tests/thread_layout.rs`).
        let shared = one_shard();
        let cfg = idle_shard_config();
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.shards[0].waker.wake();
        let slack = std::thread::scope(|s| {
            s.spawn(|| {
                run_shard(&shared, 0, None, None, &cfg, None);
                own_timer_slack()
            })
            .join()
            .expect("the shard returns on shutdown")
        });
        assert_eq!(slack, 1);
    }

    #[test]
    fn an_answer_to_a_connection_its_shard_closed_is_dropped_on_delivery() {
        let shared = one_shard();
        let cfg = idle_shard_config();
        let mut shard = Shard {
            shared: &shared,
            handle: &shared.shards[0],
            cfg: &cfg,
            conns: HashMap::default(),
            taken: Vec::new(),
            touched: Vec::new(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let conn_id = 3;
        shared.connections.fetch_add(1, Ordering::Relaxed);
        shard.adopt(conn_id, stream);
        // The read side finished with nothing to write: it closes.
        shard.conns.get_mut(&conn_id).expect("adopted").closing = true;
        shard.settle(conn_id);
        assert!(shard.conns.is_empty());

        shared.respond(conn_id, &answer(1));
        assert_eq!(shared.queued_frames.load(Ordering::SeqCst), 1);
        shard.empty_inbox();

        assert_eq!(shared.queued_frames.load(Ordering::SeqCst), 0);
        let snapshot = shared.snapshot();
        assert_eq!(snapshot.dropped_responses, 1);
        assert_eq!(snapshot.active_connections, 0);
    }
}
