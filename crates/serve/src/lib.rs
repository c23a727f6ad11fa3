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
//!   resets, slowloris stalls — attached on the client side of the wire
//!   ([`chaos::FaultyStream`], loadgen); the server's sockets carry no
//!   injection.
//! - [`clock`] — the [`clock::VirtualClock`] that anchors the engine's
//!   monotonic nanoseconds and scales them for accelerated runs.
//! - [`executor`] — charges each placed request its profiled execution
//!   cost on a per-instance serial clock and reports completion through
//!   the engine's health hooks: inline when the completion is already
//!   due, otherwise from a deadline heap that, in the server, the shard
//!   owning it fires.
//! - [`epoll`] — a dependency-free, level-triggered epoll/eventfd wrapper
//!   over [`std::os::fd`], the readiness substrate for the server's
//!   connection shards and of the load generator.
//! - [`queue`] — a bounded MPMC queue with shutdown-aware wakeup. No
//!   server path uses it (its shards place every request themselves); it
//!   stays for the benchmark's layer walk and probes, which link it.
//! - [`registry`] — a lock-striped map ([`registry::StripedMap`]), once
//!   the server's connection registry. No server path uses it (an answer
//!   reaches its connection through the shard's inbox); it stays for the
//!   benchmark's layer walk and probes, which link it.
//! - [`tenants`] — multi-tenant primitives: SLO classes (weighted
//!   admission under overload), tenant specs, the sliding per-tenant
//!   demand windows the GPU re-granting coordinator plans over, and the
//!   deterministic weighted tenant-tagging the load generator uses.
//! - [`server`] — the TCP server: [`server::ServeConfig::shards`] epoll
//!   event loops — shard 0 also owns the listener — that drive
//!   non-blocking per-connection state machines (a connection costs no
//!   thread, and only its shard touches it: every answer reaches it
//!   through the shard's inbox), run each decoded request to completion
//!   on the shard
//!   (refusals ⇒ explicit shed frames) and fire their executors'
//!   deadlines. They are its only threads: shard 0 also runs the planner's
//!   health ticks, periodic reallocation and GPU re-granting between its
//!   waits. A graceful drain flushes every outstanding request before
//!   closing. Every counter is read as one [`server::Snapshot`] (live, or
//!   exact from the drain). Supervision lives here too, with no thread of
//!   its own: each shard beats a heartbeat on its handle, which
//!   [`server::Server::check_stalls`] reads; every panic the server
//!   catches — a placement, a completion, a planner wake-up, a shard's
//!   whole loop — goes through one boundary and into one event log; and a
//!   shard that dies escalates to a fail-fast conserving drain. Seeded
//!   in-process fault injection via [`chaos::ComponentChaos`].
//! - [`loadgen`] — one epoll client, [`loadgen::replay`], that runs a
//!   trace over N connections from a few threads, open-loop (paced by
//!   arrival) or closed-loop (a window per connection), into one report —
//!   for the `ext_serve` benchmark, `arlo loadgen` and the end-to-end
//!   tests. A connection storm is a replay of a trace that arrives all at
//!   once. Beside it, [`loadgen::chaos_replay`]: fault-injected clients
//!   that retry every request to a terminal state.

pub mod chaos;
pub mod clock;
pub mod epoll;
pub mod executor;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod tenants;

pub use chaos::{
    ChaosConfig, ChaosPlan, ComponentChaos, ComponentChaosPlan, FaultClass, FaultyStream,
};
pub use clock::VirtualClock;
pub use loadgen::{
    chaos_replay, replay, ChaosReplayConfig, ChaosReport, LoadGenConfig, LoadGenReport, LoadMode,
};
pub use protocol::{ErrorBudget, ErrorCode, Frame, FrameWriteBuf, StatsPayload, Sub, WireVersion};
pub use queue::{BoundedQueue, PushError};
pub use registry::StripedMap;
pub use server::{
    ServeConfig, Server, Snapshot, SupervisorEvent, SupervisorEventKind, TenantStats,
};
pub use tenants::{RegrantEvent, ShardedTenantWindow, SloClass, TenantSpec, TenantWindow};
