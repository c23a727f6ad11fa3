//! Run to completion on the epoll shard: the shard that decodes a submit
//! places, executes and answers it itself, however many requests one
//! readiness pass brings and however many wait ahead of it on its
//! instance — no other thread places a request — and the shard that owns
//! an executor's deadline heap fires what is due later and answers that
//! too.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{burst, replay, LoadGenConfig};
use arlo_serve::protocol::{read_frame, Frame, MAX_BATCH};
use arlo_serve::server::{ServeConfig, Server, Snapshot, TenantStats};
use arlo_serve::tenants::{SloClass, TenantSpec};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn assert_conserves(drain: &Snapshot) {
    assert_eq!(drain.total(|t| t.outstanding), 0, "{drain:?}");
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
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

    assert_eq!(server.snapshot().shard_notifies, 0);
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.total(|t| t.served), report.sent, "{drain:?}");
}

/// An engine with one instance of the largest runtime: every request
/// queues behind the ones ahead of it.
fn one_instance_engine() -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("a runtime") = 1;
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    ArloEngine::new(profiles, counts, cfg)
}

/// Work that is due later is answered by the shard too. At 10× one
/// execution spans ~490 real µs, past the 100 µs due-now window, so every
/// completion is parked in the executor's deadline heap — behind a busy
/// instance, from a closed loop of 8 — and fired by the shard that owns
/// the heap, which writes the answer itself: no response crosses threads.
#[test]
fn requests_queued_behind_a_busy_instance_never_leave_the_shard() {
    let config = ServeConfig {
        time_scale: 10,
        ..config()
    };
    let server =
        Server::spawn(one_instance_engine(), "127.0.0.1:0", config).expect("bind loopback");
    let mut rng = StdRng::seed_from_u64(67);
    let trace = TraceSpec::twitter_stable(400.0, 1.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::closed(1, 8)).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.ok, report.sent, "{report:?}");

    assert_eq!(server.snapshot().shard_notifies, 0);
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.total(|t| t.served), report.sent, "{drain:?}");
}

/// A 40 virtual-ms coalescing window at 100× (400 real µs), batches of up
/// to 8 — the `tenants_batched` shape.
fn windowed() -> BatchPolicy {
    BatchPolicy {
        spec: BatchSpec {
            max_batch: 8,
            marginal_cost: 0.6,
        },
        max_wait_ns: 40_000_000,
    }
}

/// The multi-tenant twin: three tenants, each batch held open for
/// stragglers, so partial batches seal from the deadline heaps — fired by
/// the one shard, which owns every tenant's heap and answers without a
/// cross-thread wake-up.
#[test]
fn windowed_tenant_seals_fire_on_the_shard() {
    let tenants = ["a", "b", "c"]
        .into_iter()
        .map(|name| {
            (
                TenantSpec::new(name, SloClass::Interactive, SLO_MS),
                engine(),
            )
        })
        .collect();
    let config = ServeConfig {
        time_scale: 100,
        batch: windowed(),
        ..config()
    };
    let server = Server::spawn_multi(tenants, "127.0.0.1:0", config).expect("bind loopback");
    let mut rng = StdRng::seed_from_u64(71);
    let trace = TraceSpec::twitter_stable(400.0, 5.0).generate(&mut rng);
    let load = LoadGenConfig::closed(1, 16).with_tenants(vec![1, 1, 1]);
    let report = replay(server.local_addr(), &trace, &load).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.ok, report.sent, "{report:?}");
    let occupancy = server.snapshot().batch_occupancy;
    assert!(
        occupancy.iter().skip(1).sum::<u64>() > 0,
        "no batch coalesced: {occupancy:?}"
    );

    assert_eq!(server.snapshot().shard_notifies, 0);
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.total(|t| t.served), report.sent, "{drain:?}");
}

/// The multi-shard rule: executor `i`'s deadline heap belongs to shard
/// `i % shards`. At two shards tenant 1's heap is shard 1's, yet the only
/// connection — the first accepted — lives on shard 0. Every request of
/// tenant 1 opens a batch window there, so shard 0 parks a seal in a heap
/// another shard owns and must wake it: shard 1 has no connection to wake
/// it, and its sweep is a minute away. Each answer arrives within a
/// fraction of a second.
#[test]
fn a_deadline_parked_from_another_shard_wakes_the_heaps_owner() {
    let tenants = ["zero", "one"]
        .into_iter()
        .map(|name| {
            (
                TenantSpec::new(name, SloClass::Interactive, SLO_MS),
                engine(),
            )
        })
        .collect();
    let config = ServeConfig {
        time_scale: 100,
        batch: windowed(),
        shards: 2,
        sweep_interval: Duration::from_secs(60),
        ..config()
    };
    let server = Server::spawn_multi_static(tenants, "127.0.0.1:0", config).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut slowest = Duration::ZERO;
    for id in 0..50 {
        let sent = Instant::now();
        Frame::Submit {
            id,
            length: 64,
            tenant: 1,
        }
        .write_to(&mut conn)
        .expect("submit");
        let answer = read_frame(&mut conn).expect("answered").expect("a frame");
        assert!(
            matches!(answer, Frame::Response { id: got, .. } if got == id),
            "{answer:?}"
        );
        slowest = slowest.max(sent.elapsed());
    }
    assert!(
        slowest < Duration::from_secs(1),
        "slowest answer {slowest:?}"
    );
    drop(conn);
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.tenants[1].served, 50, "{drain:?}");
}

/// Two connections storming with a window of 512 — hundreds of submits
/// per readiness pass, all placed by the one shard — against `server`:
/// every request is answered `Ok`, nothing is shed, and both sides of the
/// wire conserve exactly. Returns the drain report.
fn deep_window_storm_is_served_in_full(server: Server) -> Snapshot {
    const CONNS: usize = 2;
    const SUBMITS: u32 = 4_096;
    let storm = LoadGenConfig {
        hold: Duration::from_millis(20),
        ..LoadGenConfig::closed(CONNS, 512).with_submit_batch(MAX_BATCH)
    };
    let total = CONNS as u64 * u64::from(SUBMITS);
    let report = replay(server.local_addr(), &burst(total as usize, 64), &storm).expect("storm");
    assert_eq!(report.sent, total, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.shed, 0, "{report:?}");
    assert_eq!(report.ok, total, "{report:?}");

    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.total(|t| t.shed), 0, "{drain:?}");
    assert_eq!(drain.total(|t| t.served), total, "{drain:?}");
    drain
}

#[test]
fn deep_window_storm_is_served_on_the_shard_and_conserves() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    deep_window_storm_is_served_in_full(server);
}
