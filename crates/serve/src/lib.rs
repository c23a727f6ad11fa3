//! `arlo-serve`: the live network serving stack over
//! [`ArloEngine`](arlo_core::engine::ArloEngine).
//!
//! Where `arlo-sim` answers "what would Arlo do on this trace?" by
//! discrete-event simulation, this crate actually *serves*: real TCP
//! sockets, real OS threads, real backpressure — with the GPU fleet stood
//! in by the same calibrated latency model the simulator uses, driven in
//! scaled virtual time so multi-minute scenarios (including Runtime
//! Scheduler reallocation decisions) complete in test-sized wall clock.
//!
//! The stack, bottom to top:
//!
//! - [`protocol`] — a length-prefixed binary wire format with total
//!   (never-panicking) decoding, plus the incremental
//!   [`protocol::FrameReader`] that reassembles frames from arbitrary
//!   fragments and resyncs past malformed ones. One data dialect, v2: a
//!   CRC32C trailer on every frame (corruption becomes the typed,
//!   retryable `ChecksumMismatch`/`Corrupt` pair instead of a misparse)
//!   and the `BatchedSubmit` frame that amortizes framing over batches;
//!   the unchecksummed v1 framing survives only as the `Hello`/`HelloAck`
//!   version check.
//! - [`chaos`] — deterministic, seeded network-fault injection driven by
//!   a [`chaos::ChaosPlan`]: delays, partial I/O, bit corruption, abrupt
//!   resets, slowloris stalls — attachable on the client side
//!   ([`chaos::FaultyStream`], loadgen) and, via
//!   [`server::ServeConfig::server_chaos`], to the server's accepted
//!   sockets ([`chaos::NonBlockingChaos`]).
//! - [`clock`] — the [`clock::VirtualClock`] that anchors the engine's
//!   monotonic nanoseconds and scales them for accelerated runs.
//! - [`executor`] — charges each placed request its profiled execution
//!   cost on a per-instance serial clock and reports completion through
//!   the engine's health hooks: inline when the completion is already
//!   due, otherwise from one deadline heap serviced by one thread.
//! - [`epoll`] — a dependency-free, level-triggered epoll/eventfd wrapper
//!   over [`std::os::fd`], the readiness substrate for the server's
//!   connection shards (and the high-connection-count load generator).
//! - [`queue`] — a bounded MPMC queue with shutdown-aware wakeup. The
//!   server no longer uses it (its shards place every request
//!   themselves); the benchmark's layer walk and probes still link it.
//! - [`supervisor`] — the supervision tree: every long-lived server
//!   thread runs as a named, heartbeat-monitored component with a typed
//!   restart policy; panics restart within budget (state re-attached,
//!   mid-flight work re-accounted), stalls are detected, unrecoverable
//!   failures escalate to a fail-fast conserving drain. Seeded in-process
//!   fault injection via [`chaos::ComponentChaos`].
//! - [`registry`] — the lock-striped connection registry
//!   ([`registry::StripedMap`]) that replaced the process-global conns
//!   mutex on the response hot path.
//! - [`tenants`] — multi-tenant primitives: SLO classes (weighted
//!   admission under overload), tenant specs, the sliding per-tenant
//!   demand windows the GPU re-granting coordinator plans over, and the
//!   deterministic weighted tenant-tagging the load generator uses.
//! - [`server`] — the TCP server: an acceptor handing sockets to
//!   [`server::ServeConfig::shards`] epoll event loops that drive
//!   non-blocking per-connection state machines (a connection costs no
//!   thread) and run each decoded request to completion on the shard
//!   (refusals ⇒ explicit shed frames), a timer thread driving health
//!   ticks and periodic reallocation, and a graceful drain that flushes
//!   every outstanding request before closing.
//! - [`loadgen`] — open- and closed-loop trace replay over real sockets,
//!   for the `ext_serve` benchmark and the end-to-end tests, plus the
//!   epoll-based [`loadgen::connection_storm`] client pool that holds tens
//!   of thousands of concurrent connections from a handful of threads.

pub mod chaos;
pub mod clock;
pub mod epoll;
pub mod executor;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod supervisor;
pub mod tenants;

pub use chaos::{
    ChaosConfig, ChaosPlan, ComponentChaos, ComponentChaosPlan, FaultClass, FaultyStream,
    NonBlockingChaos,
};
pub use clock::VirtualClock;
pub use loadgen::{
    chaos_replay, connection_storm, replay, ChaosReplayConfig, ChaosReport, LoadGenConfig,
    LoadGenReport, LoadMode, StormConfig, StormReport,
};
pub use protocol::{ErrorBudget, ErrorCode, Frame, FrameWriteBuf, StatsPayload, Sub, WireVersion};
pub use queue::{BoundedQueue, PushError};
pub use registry::StripedMap;
pub use server::{DrainReport, ServeConfig, Server, TenantDrainReport, TenantStats};
pub use supervisor::{
    RestartPolicy, SupervisedCtx, Supervisor, SupervisorEvent, SupervisorEventKind,
};
pub use tenants::{RegrantEvent, ShardedTenantWindow, SloClass, TenantSpec, TenantWindow};
