//! End-to-end tests of shard 0's admission and of connection scale:
//! refusals never stall accepting, a replay with more connections than
//! the server admits counts its refusals, and a few hundred concurrent
//! connections held by one storm replay conserve every submit. (Idle
//! reaping and doom-on-overflow live in `chaos_e2e`.)

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{burst, replay, LoadGenConfig};
use arlo_serve::protocol::{read_frame, ErrorCode, Frame, CONN_ERROR_ID, DEFAULT_TENANT};
use arlo_serve::server::{ServeConfig, Server, TenantStats};
use arlo_trace::NANOS_PER_SEC;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
const SCALE: u32 = 100;

fn engine() -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let n = profiles.len();
    let counts = vec![GPUS / n as u32 + 1; n];
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 10 * NANOS_PER_SEC;
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

/// Spin until `cond` holds or `within` elapses; true iff it held.
fn eventually(within: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// The acceptor regression: admission refusals are fire-and-forget. A
/// wave of refused connectors that never read — the peers that used to
/// hold the acceptor hostage for a 1-second write timeout each — must
/// neither delay admission of a healthy connection nor lose their typed
/// refusal frame.
#[test]
fn refusals_never_stall_the_epoll_acceptor() {
    const WAVE: usize = 20;
    let mut cfg = config();
    cfg.max_conns = 1;
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Occupy the only admission slot.
    let holder = TcpStream::connect(addr).expect("connect holder");
    let active = || server.snapshot().active_connections;
    assert!(
        eventually(Duration::from_secs(2), || active() == 1),
        "holder never registered"
    );

    // The wave: every one of these is refused, and none of them reads its
    // refusal yet. Under the old acceptor each write carried a 1 s
    // timeout; a single adversarial peer could stall admission for
    // everyone behind it in the backlog.
    let wave_started = Instant::now();
    let mut refused: Vec<TcpStream> = (0..WAVE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("refused connect {i}: {e}")))
        .collect();
    assert!(
        eventually(Duration::from_secs(5), || {
            server.snapshot().refused_conns >= WAVE as u64
        }),
        "acceptor refused {} of {WAVE}",
        server.snapshot().refused_conns
    );
    // Well under one old-style write timeout for the whole wave, let
    // alone one per connection.
    assert!(
        wave_started.elapsed() < Duration::from_secs(5),
        "refusal wave took {:?}",
        wave_started.elapsed()
    );

    // Free the slot; a healthy client gets in promptly even though the
    // wave's sockets still hold their unread refusals.
    drop(holder);
    assert!(
        eventually(Duration::from_secs(2), || active() == 0),
        "holder never deregistered"
    );
    let mut healthy = TcpStream::connect(addr).expect("healthy connect");
    let _ = healthy.set_nodelay(true);
    healthy
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    Frame::Submit {
        id: 7,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut healthy)
    .expect("submit");
    match read_frame(&mut healthy).expect("read answer") {
        Some(Frame::Response { id, .. }) => assert_eq!(id, 7),
        other => panic!("healthy client got {other:?}"),
    }

    // Fire-and-forget still delivers: every refused socket holds exactly
    // one typed Shed verdict followed by EOF.
    for (i, conn) in refused.iter_mut().enumerate() {
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match read_frame(conn).expect("read refusal") {
            Some(Frame::Error { id, code }) => {
                assert_eq!(id, CONN_ERROR_ID, "refusal {i}");
                assert_eq!(code, ErrorCode::Shed, "refusal {i}");
            }
            other => panic!("refused conn {i} got {other:?}"),
        }
        assert!(
            matches!(read_frame(conn), Ok(None)),
            "refused conn {i} not closed"
        );
    }

    drop(healthy);
    let drain = server.drain();
    assert_eq!(drain.refused_conns, WAVE as u64, "{drain:?}");
    assert_eq!(drain.total(|t| t.outstanding), 0, "{drain:?}");
}

/// A replay with more connections than the server admits: the refused
/// ones are counted and send nothing, and the admitted ones conserve.
#[test]
fn replay_counts_refused_connections_and_conserves_the_rest() {
    const CLIENTS: usize = 6;
    const ADMITTED: usize = 2;
    const PER_CONN: usize = 10;
    let mut cfg = config();
    cfg.max_conns = ADMITTED;
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let trace = burst(CLIENTS * PER_CONN, 64);
    let report = replay(
        server.local_addr(),
        &trace,
        &LoadGenConfig::open(CLIENTS, SCALE),
    )
    .expect("replay");

    assert_eq!(report.connected, CLIENTS as u64, "{report:?}");
    assert_eq!(report.refused, (CLIENTS - ADMITTED) as u64, "{report:?}");
    assert_eq!(report.connect_errors, 0, "{report:?}");
    assert_eq!(report.sent, (ADMITTED * PER_CONN) as u64, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");

    let drain = server.drain();
    assert_eq!(
        drain.refused_conns,
        (CLIENTS - ADMITTED) as u64,
        "{drain:?}"
    );
    assert_eq!(drain.total(|t| t.submits), report.sent, "{drain:?}");
    assert_eq!(drain.total(|t| t.outstanding), 0, "{drain:?}");
}

/// Smoke-scale run of the benchmark's connection-scaling cell: a few
/// hundred concurrent connections held open by one storm replay, every
/// submit conserved, nothing lost.
#[test]
fn storm_replay_conserves_at_smoke_scale() {
    const CONNS: usize = 400;
    let mut cfg = config();
    cfg.max_conns = CONNS + 64;
    cfg.idle_timeout = Duration::from_secs(60);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let storm = LoadGenConfig {
        hold: Duration::from_millis(300),
        ..LoadGenConfig::open(CONNS, SCALE)
    };
    let report = replay(addr, &burst(CONNS * 2, 64), &storm).expect("storm");

    assert_eq!(report.connect_errors, 0, "{report:?}");
    assert_eq!(report.connected, CONNS as u64, "{report:?}");
    assert_eq!(report.refused, 0, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.sent, (CONNS * 2) as u64, "{report:?}");
    assert!(report.ok > 0, "{report:?}");

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.outstanding), 0, "{drain:?}");
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
        "server-side conservation: {drain:?}"
    );
}
