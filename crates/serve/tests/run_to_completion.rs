//! Run to completion on the epoll shard: the shard that decodes a submit
//! places, executes and answers it itself, however many requests one
//! readiness pass brings and however many wait ahead of it on its
//! instance — no other thread places a request.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::ComponentChaos;
use arlo_serve::loadgen::{connection_storm, replay, LoadGenConfig, StormConfig};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
/// At 1000× every batch-1 execution is due the moment it seals, so a
/// placement on the shard also completes there.
const SCALE: u32 = 1_000;

fn engine() -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let n = profiles.len();
    let counts = vec![GPUS / n as u32 + 1; n];
    // Reallocation off: the fleet does not move under the counts.
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    ArloEngine::new(profiles, counts, cfg)
}

/// One shard, so every connection's answers are written by the thread
/// that decoded its submits.
fn config() -> ServeConfig {
    ServeConfig {
        time_scale: SCALE,
        queue_capacity: 8_192,
        tick_interval: NANOS_PER_SEC,
        drain_timeout: Duration::from_secs(60),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        shards: 1,
        ..ServeConfig::new(GPUS)
    }
}

fn assert_conserves(drain: &DrainReport) {
    assert_eq!(drain.outstanding_at_close, 0, "{drain:?}");
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "server-side conservation: {drain:?}"
    );
}

/// A one-connection stream of single `Submit`s, one in flight at a time:
/// every request is placed, executed and answered on the shard, so no
/// response ever notifies a shard.
#[test]
fn single_submit_stream_never_leaves_the_shard() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut rng = StdRng::seed_from_u64(61);
    let trace = TraceSpec::twitter_stable(400.0, 5.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::closed(1, 1)).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.ok, report.sent, "{report:?}");

    assert_eq!(server.shard_notifies(), 0);
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.served, report.sent, "{drain:?}");
}

/// A request queued behind a busy instance is answered by the shard that
/// placed it too. One instance fed by a closed loop of 8 in flight, so
/// most requests queue behind the ones ahead of it. Each is a full batch-1
/// batch and seals at push; at 2000× an execution spans 2.4 real µs, so
/// eight of them finish well inside the 100 µs due-now window and every
/// answer is written by the shard — none crosses from the flusher.
///
/// The loop, not a rate, sets the load: the instance is busy about a third
/// of the time on a 2-vCPU host. An open loop at that load is not
/// deterministic enough here: a host stall lets its backlog queue past the
/// due-now window.
#[test]
fn requests_queued_behind_a_busy_instance_never_leave_the_shard() {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let exec_ms = profiles.last().expect("a runtime").runtime.exec_ms(512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("a runtime") = 1;
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    let engine = ArloEngine::new(profiles, counts, cfg);
    let config = ServeConfig {
        time_scale: 2_000,
        ..config()
    };
    let server = Server::spawn(engine, "127.0.0.1:0", config).expect("bind loopback");

    let mut rng = StdRng::seed_from_u64(67);
    let trace = TraceSpec::twitter_stable(400.0, 5.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::closed(1, 8)).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.ok, report.sent, "{report:?}");
    // Waited at least half an execution for the instance.
    let queued = report
        .latencies_ms
        .iter()
        .filter(|&&ms| ms > 1.5 * exec_ms)
        .count();
    assert!(queued as u64 > report.sent / 4, "{queued} queued");

    assert_eq!(server.shard_notifies(), 0, "{queued} queued requests");
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.served, report.sent, "{drain:?}");
}

/// Two connections storming with a window of 512 — hundreds of submits
/// per readiness pass, all placed by the one shard — against `server`:
/// every request is answered `Ok`, nothing is shed, and both sides of the
/// wire conserve exactly. Returns the drain report.
fn deep_window_storm_is_served_in_full(server: Server) -> DrainReport {
    const CONNS: usize = 2;
    const SUBMITS: u32 = 4_096;
    let mut storm = StormConfig::new(CONNS).with_window(512);
    storm.threads = 2;
    storm.submits_per_conn = SUBMITS;
    storm.hold = Duration::from_millis(20);
    storm.deadline = Duration::from_secs(120);
    let report = connection_storm(server.local_addr(), &storm).expect("storm");
    let total = CONNS as u64 * u64::from(SUBMITS);
    assert_eq!(report.submitted, total, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.conserved(), "{report:?}");
    assert_eq!(report.shed, 0, "{report:?}");
    assert_eq!(report.ok, total, "{report:?}");

    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.shed, 0, "{drain:?}");
    assert_eq!(drain.served, total, "{drain:?}");
    drain
}

#[test]
fn deep_window_storm_is_served_on_the_shard_and_conserves() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    deep_window_storm_is_served_in_full(server);
}

/// No thread but the shard places a request, so component chaos aimed at
/// dispatch workers finds nothing to kill: the same deep-window storm under
/// a panic on every `dispatch*` beat is served in full, with no restart
/// and no escalation.
#[test]
fn dispatch_chaos_finds_no_component_under_a_deep_window_storm() {
    let cfg = config().with_component_chaos(ComponentChaos::panics("dispatch", 1, 67));
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let drain = deep_window_storm_is_served_in_full(server);
    assert_eq!(drain.supervisor_restarts, 0, "{drain:?}");
    assert_eq!(drain.escalations, 0, "{drain:?}");
}
