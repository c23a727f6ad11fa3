//! End-to-end serving over real loopback sockets.
//!
//! The big test drives 10k+ requests from four open-loop clients through
//! the full stack — wire protocol, epoll shards placing inline, executor,
//! engine completion reports, the timer-driven Runtime Scheduler — at 100×
//! virtual time, then drains. It asserts the properties the
//! stack exists to provide: every request answered exactly once, at least
//! one reallocation applied mid-run, and a clean drain with nothing
//! outstanding and every thread joined (drain blocks on the joins, so its
//! return *is* the proof).

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{replay, LoadGenConfig};
use arlo_serve::protocol::{
    client_handshake, read_frame, ErrorCode, Frame, Sub, WireVersion, CONN_ERROR_ID,
    DEFAULT_TENANT, MAGIC,
};
use arlo_serve::server::{ServeConfig, Server, TenantStats};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
const SCALE: u32 = 100;

/// An engine with a deliberately lopsided initial deployment (everything
/// but one GPU on the largest runtime) and a shortened decision period, so
/// the Runtime Scheduler provably reshapes the fleet mid-test.
fn engine() -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let n = profiles.len();
    let mut counts = vec![0u32; n];
    counts[0] = 1;
    counts[n - 1] = GPUS - 1;
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 3 * NANOS_PER_SEC; // virtual; 30 ms real at 100×
    cfg.sub_window = NANOS_PER_SEC / 2;
    ArloEngine::new(profiles, counts, cfg)
}

fn config() -> ServeConfig {
    ServeConfig {
        time_scale: SCALE,
        queue_capacity: 8192,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(GPUS)
    }
}

#[test]
fn ten_thousand_requests_with_reallocation_and_clean_drain() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(42);
    let trace = TraceSpec::twitter_stable(900.0, 12.0).generate(&mut rng);
    assert!(trace.len() >= 10_000, "trace too small: {}", trace.len());

    let report = replay(addr, &trace, &LoadGenConfig::open(4, SCALE)).expect("replay");

    // Exactly-once accounting: every submitted request got exactly one
    // answer — a response or a typed refusal, never silence.
    let live = server.snapshot();
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.lost, 0, "unanswered requests: {report:?}\n{live:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.draining, 0, "refused before drain began: {report:?}");
    assert!(
        report.ok >= report.sent / 2,
        "overload collapsed the run: {report:?}"
    );
    assert_eq!(report.ok as usize, report.latencies_ms.len());
    assert!(report
        .latencies_ms
        .iter()
        .all(|l| l.is_finite() && *l >= 0.0));

    // The lopsided start plus a 3-virtual-second decision period forces
    // the Runtime Scheduler to reshape the fleet during the run.
    assert!(
        live.reallocations >= 1,
        "no reallocation happened: {:?}",
        live.stats()
    );

    // Superseded generations' executor state is evicted after each
    // reallocation: the coalescer map stays bounded by the live fleet plus
    // at most one draining generation, however many plans were applied.
    assert!(
        live.tracked_instances <= 2 * GPUS as usize,
        "executor key map leaks across reallocations: {} entries after {} plans",
        live.tracked_instances,
        live.reallocations
    );

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.outstanding), 0, "drain left work behind");
    assert_eq!(drain.total(|t| t.served), report.ok);
    assert_eq!(
        drain.total(TenantStats::accounted),
        report.sent,
        "server-side accounting disagrees: {drain:?} vs {report:?}"
    );
    assert!(drain.reallocations >= 1);
    assert!(drain.tenants[0].generation >= 1);
}

#[test]
fn drain_protocol_refuses_new_work_and_flushes() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // A request before the drain is served normally.
    Frame::Submit {
        id: 1,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut conn)
    .unwrap();
    match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Response { id, .. } => assert_eq!(id, 1),
        other => panic!("expected a response, got {other:?}"),
    }

    // Stats on demand.
    Frame::StatsRequest.write_to(&mut conn).unwrap();
    match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Stats(s) => assert_eq!(s.served, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    // A client-initiated drain is acknowledged with a stats snapshot…
    Frame::Drain.write_to(&mut conn).unwrap();
    match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Stats(_) => {}
        other => panic!("expected drain ack, got {other:?}"),
    }
    assert!(server.snapshot().draining);

    // …after which submits are refused with a typed Draining error.
    Frame::Submit {
        id: 2,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut conn)
    .unwrap();
    match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Error { id, code } => {
            assert_eq!(id, 2);
            assert_eq!(code, ErrorCode::Draining);
        }
        other => panic!("expected a draining refusal, got {other:?}"),
    }

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.served), 1);
    assert_eq!(
        drain.total(|t| t.shed),
        1,
        "the refused submit counts as shed"
    );
    assert_eq!(drain.total(|t| t.outstanding), 0);
}

#[test]
fn injected_failures_are_answered_failed_and_accounted() {
    let mut cfg = config();
    cfg.fail_one_in = Some(4);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(7);
    let trace = TraceSpec::twitter_stable(300.0, 2.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::closed(2, 8)).expect("replay");

    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent);
    assert!(report.failed > 0, "fault injection produced no failures");
    assert!(report.ok > 0);

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.failed), report.failed);
    assert_eq!(drain.total(|t| t.outstanding), 0);
}

/// Read the typed `Protocol` verdict on the connection sentinel, then EOF.
fn expect_protocol_disconnect(conn: &mut TcpStream) {
    match read_frame(conn).expect("read verdict") {
        Some(Frame::Error { id, code }) => {
            assert_eq!(id, CONN_ERROR_ID);
            assert_eq!(code, ErrorCode::Protocol);
        }
        other => panic!("expected a Protocol disconnect, got {other:?}"),
    }
    assert!(
        matches!(read_frame(conn), Ok(None)),
        "connection not closed"
    );
}

#[test]
fn v1_submit_gets_a_protocol_disconnect_and_is_never_counted() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let addr = server.local_addr();

    // A pre-v2 client's Submit, encoded by hand: version byte 1, the old
    // 12-byte `id, length` payload, no trailer.
    let mut legacy = TcpStream::connect(addr).expect("connect");
    legacy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut v1_submit = MAGIC.to_vec();
    v1_submit.extend_from_slice(&[1, 1]); // version 1, type Submit
    v1_submit.extend_from_slice(&12u32.to_le_bytes());
    v1_submit.extend_from_slice(&7u64.to_le_bytes());
    v1_submit.extend_from_slice(&64u32.to_le_bytes());
    legacy.write_all(&v1_submit).unwrap();
    expect_protocol_disconnect(&mut legacy);

    // The server is unharmed: a v2 pool on it is served in full.
    let mut rng = StdRng::seed_from_u64(11);
    let trace = TraceSpec::twitter_stable(200.0, 3.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(2, SCALE)).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.ok, report.sent, "{report:?}");

    let drain = server.drain();
    assert_eq!(drain.protocol_disconnects, 1, "{drain:?}");
    assert_eq!(
        drain.total(|t| t.submits),
        report.sent,
        "the v1 submit was counted: {drain:?}"
    );
    assert_eq!(drain.total(|t| t.served), report.ok);
    assert_eq!(drain.total(|t| t.outstanding), 0);
}

#[test]
fn hello_is_a_version_check() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let connect = || {
        let conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn
    };

    // A client that can only speak v1 is turned away with a typed verdict.
    let mut old = connect();
    Frame::Hello { max_version: 1 }.write_to(&mut old).unwrap();
    expect_protocol_disconnect(&mut old);

    // A client from a future build is told v2, and served.
    let mut future = connect();
    Frame::Hello { max_version: 9 }
        .write_to(&mut future)
        .unwrap();
    assert_eq!(
        read_frame(&mut future).expect("read").expect("frame"),
        Frame::HelloAck { version: 2 }
    );
    Frame::Submit {
        id: 1,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut future)
    .unwrap();
    match read_frame(&mut future).expect("read").expect("frame") {
        Frame::Response { id, .. } => assert_eq!(id, 1),
        other => panic!("expected a response, got {other:?}"),
    }

    let drain = server.drain();
    assert_eq!(drain.protocol_disconnects, 1, "{drain:?}");
    assert_eq!(drain.total(|t| t.submits), 1, "{drain:?}");
    assert_eq!(drain.total(|t| t.served), 1, "{drain:?}");
}

#[test]
fn batched_submit_is_answered_per_sub_request() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let version = client_handshake(&mut conn).expect("handshake");
    assert_eq!(version, WireVersion::V2);

    let subs: Vec<Sub> = (0..32u64)
        .map(|i| Sub {
            id: 1000 + i,
            length: 16 + (i as u32 % 101),
            tenant: DEFAULT_TENANT,
        })
        .collect();
    let expected: std::collections::BTreeSet<u64> = subs.iter().map(|s| s.id).collect();
    Frame::BatchedSubmit { subs }
        .write_to_v(&mut conn, version)
        .unwrap();

    // One frame in, 32 individual answers out — every sub-request id
    // exactly once, all successful at these tiny lengths.
    let mut answered = std::collections::BTreeSet::new();
    for _ in 0..expected.len() {
        match read_frame(&mut conn).expect("read").expect("frame") {
            Frame::Response { id, .. } => {
                assert!(answered.insert(id), "duplicate answer for {id}");
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
    assert_eq!(answered, expected);

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.submits), 32);
    assert_eq!(drain.total(|t| t.served), 32);
    assert_eq!(drain.total(|t| t.outstanding), 0);
}

#[test]
fn oversized_lengths_are_unserviceable_not_fatal() {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // 512 is the largest compiled runtime; 100k tokens fits nothing.
    Frame::Submit {
        id: 9,
        length: 100_000,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut conn)
    .unwrap();
    match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Error { id, code } => {
            assert_eq!(id, 9);
            assert_eq!(code, ErrorCode::Unserviceable);
        }
        other => panic!("expected unserviceable, got {other:?}"),
    }

    // The connection survives and keeps serving.
    Frame::Submit {
        id: 10,
        length: 32,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut conn)
    .unwrap();
    match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Response { id, .. } => assert_eq!(id, 10),
        other => panic!("expected a response, got {other:?}"),
    }

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.unserviceable), 1);
    assert_eq!(drain.total(|t| t.served), 1);
}
