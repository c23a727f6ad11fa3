//! Run to completion on the epoll shard: the shard that decodes a submit
//! places, executes and answers it itself, and the dispatch queue only
//! carries what a readiness pass will not run inline.
//!
//! Each test reads the split from [`Server::hotpath_stats`]:
//! `inline_placements` (placed by a shard), `dispatch_pop_msgs` (spilled
//! to, and placed by, a dispatch worker) and `shard_notifies` (responses
//! that had to wake a shard from another thread).

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{connection_storm, replay, LoadGenConfig, StormConfig};
use arlo_serve::protocol::{client_handshake, read_frame, Frame, Sub, DEFAULT_TENANT};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
/// At 1000× every batch-1 execution is due the moment it seals, so an
/// inline placement also completes inline.
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
/// dispatch worker ever wakes and no response ever notifies a shard.
#[test]
fn single_submit_stream_never_leaves_the_shard() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut rng = StdRng::seed_from_u64(61);
    let trace = TraceSpec::twitter_stable(400.0, 5.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::closed(1, 1)).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.ok, report.sent, "{report:?}");

    let stats = server.hotpath_stats();
    assert_eq!(stats.dispatch_pop_batches, 0, "{stats:?}");
    assert_eq!(stats.shard_notifies, 0, "{stats:?}");
    assert_eq!(stats.inline_placements, report.sent, "{stats:?}");
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.served, report.sent, "{drain:?}");
}

/// A closed-loop storm with a window of 512 brings hundreds of submits per
/// readiness pass: the pass places its first few inline and spills the
/// rest, so the dispatch worker carries load — with exact conservation,
/// every admitted request placed on exactly one of the two paths, and
/// nothing shed.
#[test]
fn deep_window_spills_to_the_dispatch_worker_and_conserves() {
    const CONNS: usize = 2;
    const SUBMITS: u32 = 4_096;
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
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

    let stats = server.hotpath_stats();
    assert!(stats.dispatch_pop_msgs > 0, "nothing spilled: {stats:?}");
    assert_eq!(stats.dispatch_queue_full, 0, "{stats:?}");
    assert_eq!(
        stats.inline_placements + stats.dispatch_pop_msgs,
        total,
        "every request placed exactly once: {stats:?}"
    );
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.shed, 0, "{drain:?}");
    assert_eq!(drain.served, total, "{drain:?}");
}

fn batch(first_id: u64, n: usize) -> Frame {
    Frame::BatchedSubmit {
        subs: (0..n as u64)
            .map(|k| Sub {
                id: first_id + k,
                length: 64,
                tenant: DEFAULT_TENANT,
            })
            .collect(),
    }
}

/// Send `frames` in one write (so one readiness pass decodes them all) and
/// read back one answer per sub.
fn send_and_answer(conn: &mut TcpStream, frames: &[Frame]) {
    let bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    conn.write_all(&bytes).expect("write");
    let subs: usize = frames
        .iter()
        .map(|f| match f {
            Frame::BatchedSubmit { subs } => subs.len(),
            _ => unreachable!("batches only"),
        })
        .sum();
    for _ in 0..subs {
        match read_frame(conn).expect("read").expect("frame") {
            Frame::Response { .. } => {}
            other => panic!("non-Ok answer: {other:?}"),
        }
    }
}

/// A `BatchedSubmit` goes inline or spills as a whole. Two 40-sub frames
/// in one pass: the first fits the pass's room of 64 and runs inline, the
/// second no longer fits and spills entirely — not 24 inline and 16
/// spilled. A lone 100-sub frame spills; a lone 64-sub frame fits exactly.
#[test]
fn a_batched_submit_is_never_split_across_the_two_paths() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let _ = conn.set_nodelay(true);
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client_handshake(&mut conn).expect("handshake");
    let split = |server: &Server| {
        let stats = server.hotpath_stats();
        (stats.inline_placements, stats.dispatch_pop_msgs)
    };

    send_and_answer(&mut conn, &[batch(0, 40), batch(40, 40)]);
    assert_eq!(split(&server), (40, 40));
    send_and_answer(&mut conn, &[batch(80, 100)]);
    assert_eq!(split(&server), (40, 140));
    send_and_answer(&mut conn, &[batch(180, 64)]);
    assert_eq!(split(&server), (104, 140));

    drop(conn);
    let drain = server.drain();
    assert_conserves(&drain);
    assert_eq!(drain.served, 244, "{drain:?}");
}
