//! End-to-end robustness tests: the server under deliberately hostile
//! clients and injected faults.
//!
//! Six properties, each the regression test for one hardening layer:
//!
//! 1. **Idle reaping** — a connection that never speaks is closed by its
//!    shard's sweep after the idle window and deregistered (the
//!    pre-hardening server blocked forever in `read_frame` on half-open
//!    sockets).
//! 2. **Slow-client isolation** — one client that stops reading
//!    mid-response-stream is doomed with a bounded delay while healthy
//!    connections' latencies stay within 2× of the same load without the
//!    stall; placement and executor completion never block on its socket,
//!    and the event loop keeps admitting and serving new connections.
//! 3. **Drain under chaos** — with fault-injected clients (every
//!    [`FaultClass`]: delays, partial I/O, corruption, resets, stalls), the
//!    client-side conservation invariant and the server-side drain
//!    equation both balance exactly, and no fault forges an
//!    `Unserviceable` verdict: nothing is silently lost on either side of
//!    the wire. A client's fault plan covers both directions of its
//!    connection, so the server both reads corrupted frames and has its
//!    answers corrupted on the way back.
//! 4. **Executor panic recovery** — an injected completion-callback panic
//!    is caught, the batch is re-accounted as failed (typed answers, engine
//!    report), and the drain still finishes clean.
//! 5. **Checksums end phantom terminal states** — under heavy corruption
//!    the pool records zero `unserviceable` verdicts: a bit-flipped frame
//!    can no longer decode into a well-formed refusal that kills a healthy
//!    request (the ~1.7% phantom-unserviceable rate the unchecksummed v1
//!    dialect had).
//! 6. **A paused reader loses nothing** — a client that stops reading
//!    until the server's send buffer is full, then resumes, gets every
//!    answer exactly once: frames queued behind a blocked socket are not
//!    announced to the shard one by one, so `EPOLLOUT` alone must bring
//!    the shard back to them.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::{ChaosConfig, FaultClass};
use arlo_serve::loadgen::{chaos_replay, replay, ChaosReplayConfig, LoadGenConfig, LoadGenReport};
use arlo_serve::protocol::{read_frame, Frame, FrameReader, WireVersion, DEFAULT_TENANT};
use arlo_serve::server::{ServeConfig, Server, Snapshot, TenantStats};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
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

/// The slow-client isolation test compares healthy latencies across runs,
/// so no other test of this file may load the host while it measures: it
/// holds this lock for writing, every other test for reading.
static HOST: RwLock<()> = RwLock::new(());

fn shared_host() -> RwLockReadGuard<'static, ()> {
    HOST.read().unwrap_or_else(PoisonError::into_inner)
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

#[test]
fn idle_connections_are_reaped() {
    let _host = shared_host();
    let mut cfg = config();
    cfg.sweep_interval = Duration::from_millis(25);
    cfg.idle_timeout = Duration::from_millis(250);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Two silent connections held open: peers that will never speak (the
    // TCP equivalent of a half-open socket — no bytes, no FIN).
    let held = TcpStream::connect(addr).expect("connect");
    let held2 = TcpStream::connect(addr).expect("connect");
    let active = || server.snapshot().active_connections;
    let reaped = || server.snapshot().reaped_idle;
    assert!(
        eventually(Duration::from_secs(2), || active() == 2),
        "connections never registered"
    );

    // Both idle out within the window (plus sweep slack)…
    assert!(
        eventually(Duration::from_secs(5), || reaped() >= 2),
        "idle connections were not reaped: {:?}",
        server.snapshot()
    );
    // …and are gone from the registry, not merely counted.
    assert!(
        eventually(Duration::from_secs(2), || active() == 0),
        "reaped connections still registered"
    );
    drop(held);
    drop(held2);

    let drain = server.drain();
    assert_eq!(drain.reaped_idle, 2);
    assert_eq!(drain.total(|t| t.outstanding), 0);
}

/// Drive the standard mix plus one bulk client; if `stall`, the bulk
/// client stops reading entirely, so its answers back up through the
/// kernel buffers into the server's bounded outbound queue.
///
/// The bulk requests are *unserviceable* (length beyond the compiled
/// maximum), so their answers are synthesized at placement on the shard
/// and never occupy the executor: the healthy connections' latencies then
/// measure only transport leakage — the hazard under test — not queueing
/// behind the flood's execution.
fn run_mix(stall: bool) -> (LoadGenReport, Snapshot, u64) {
    // Sized so the stalled client's answer backlog (21 B/error frame)
    // exceeds what the kernel can absorb for a never-reading peer (sndbuf
    // autotunes to at most 4 MB here, rcvbuf stays at its 128 KB initial
    // without reads, ~200k frames together), guaranteeing the writer
    // blocks and the bounded queue fills.
    const BULK: u64 = 400_000;
    // The default 1 024-frame outbound queue: a connection is read a
    // slice (half a queue) of answers at a time, so a reading client's own
    // burst never overflows it, while a stalled client's backlog (200k
    // frames ≫ queue + kernel buffers) overflows it once its writer blocks
    // on the dead socket.
    let mut cfg = config();
    cfg.write_timeout = Duration::from_millis(150);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let bulk = std::thread::spawn(move || {
        let conn = TcpStream::connect(addr).expect("connect");
        let _ = conn.set_nodelay(true);
        let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));

        // Well-behaved twin reads *concurrently with* the submit burst —
        // write-then-read would stall the answer stream during the write
        // phase exactly like the failure being tested. Raw discard reads:
        // consumption must outpace the server's error-frame storm, and
        // nothing in this test needs the twin to parse its answers.
        let reader = (!stall).then(|| {
            let mut conn = conn.try_clone().expect("clone");
            std::thread::spawn(move || {
                let mut sink = [0u8; 64 * 1024];
                let mut quiet = 0;
                loop {
                    match conn.read(&mut sink) {
                        Ok(0) => break,
                        Ok(_) => quiet = 0,
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            // Two silent timeout windows = stream is done.
                            quiet += 1;
                            if quiet >= 2 {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
        });

        let mut writer = conn;
        'burst: for chunk in 0..BULK / 2_000 {
            for i in chunk * 2_000..(chunk + 1) * 2_000 {
                let frame = Frame::Submit {
                    id: 10_000_000 + i,
                    length: 1_000_000, // beyond every compiled runtime
                    tenant: DEFAULT_TENANT,
                };
                if frame.write_to(&mut writer).is_err() {
                    break 'burst; // doomed mid-burst — expected when stalling
                }
            }
            // High but bounded offered rate (~2M req/s): the server's
            // answers are produced at the same pace, so a *reading* client
            // never legitimately overflows the outbound queue.
            std::thread::sleep(Duration::from_millis(1));
        }
        if stall {
            // Never read a byte: the server must doom this connection
            // rather than let its answers block anyone else.
            std::thread::sleep(Duration::from_secs(2));
        }
        if let Some(reader) = reader {
            reader.join().expect("bulk reader panicked");
        }
    });

    let mut rng = StdRng::seed_from_u64(11);
    let trace = TraceSpec::twitter_stable(600.0, 4.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(2, SCALE)).expect("replay");
    bulk.join().expect("bulk client panicked");

    // The event loop is still serving: a connection made now — after the
    // stalled one was doomed, when `stall` — is admitted and answered.
    let mut fresh = TcpStream::connect(addr).expect("connect");
    let _ = fresh.set_nodelay(true);
    fresh
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    Frame::Submit {
        id: 1,
        length: 64,
        tenant: DEFAULT_TENANT,
    }
    .write_to(&mut fresh)
    .expect("submit");
    match read_frame(&mut fresh).expect("read answer") {
        Some(Frame::Response { id, .. }) => assert_eq!(id, 1),
        other => panic!("fresh client got {other:?}"),
    }
    drop(fresh);

    let slow = server.snapshot().slow_disconnects;
    let drain = server.drain();
    (report, drain, slow)
}

#[test]
fn stalled_client_is_doomed_without_hurting_healthy_connections() {
    let _host = HOST.write().unwrap_or_else(PoisonError::into_inner);
    // Five runs of each, interleaved. A host hiccup of half a millisecond
    // is 50 virtual ms at this time scale and lifts one run's p98 —
    // stalled or not — to 2–5× the usual ~22 ms, so the 2× bound below is
    // on the medians: the systematic effect, not the jitter.
    let (mut base_p98s, mut p98s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (baseline, base_drain, _) = run_mix(false);
        assert_eq!(baseline.lost, 0, "baseline lost answers: {baseline:?}");
        assert_eq!(base_drain.slow_disconnects, 0, "baseline doomed someone");
        base_p98s.push(baseline.latency_summary().p98);

        let (report, drain, slow_disconnects) = run_mix(true);
        // The stalled connection was detected and doomed (queue overflow
        // or write timeout), not allowed to wedge the server.
        assert!(
            slow_disconnects >= 1,
            "stalled client was never disconnected: {drain:?}"
        );
        // Healthy connections: exactly-once answers.
        assert_eq!(report.lost, 0, "healthy clients lost answers: {report:?}");
        assert_eq!(report.accounted(), report.sent);
        // Server-side conservation still balances with a doomed
        // connection's answers discarded: every decoded submit is
        // accounted.
        assert_eq!(
            drain.total(|t| t.submits),
            drain.total(TenantStats::accounted),
            "server-side accounting leaked: {drain:?}"
        );
        assert_eq!(drain.total(|t| t.outstanding), 0);
        p98s.push(report.latency_summary().p98);
    }
    // Healthy p98 within 2× of the identical load without the stall. The
    // latencies are virtual dispatch→completion times, so a completion
    // path blocked on the stalled socket would show up here as inflation.
    let median = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let base_p98 = median(&base_p98s).max(1.0);
    let p98 = median(&p98s);
    assert!(
        p98 <= 2.0 * base_p98,
        "stall leaked into healthy latencies: median p98 {p98:.2} ms vs baseline {base_p98:.2} ms \
         (runs {p98s:.2?} vs {base_p98s:.2?})"
    );
}

/// The path where `respond` does *not* wake the shard: while the client is
/// not reading, the socket refuses bytes, the shard leaves the outbound
/// queue non-empty, and every further answer is pushed behind it without a
/// notification. Once every answer is queued nothing will ever notify
/// again, and the sweep is configured out of reach — only `EPOLLOUT` can
/// bring the shard back when the client resumes.
#[test]
fn paused_reader_gets_every_answer_exactly_once_when_it_resumes() {
    let _host = shared_host();
    // 21 B per error frame: 12.6 MB of answers against a send buffer that
    // autotunes to at most 4 MB plus a receive buffer that stays near its
    // 128 KB initial size while nobody reads.
    const N: u64 = 600_000;
    let mut cfg = config();
    cfg.outbound_queue = 2 * N as usize; // the backlog stays well under it
    cfg.write_timeout = Duration::from_secs(120); // and the pause well under this
    cfg.sweep_interval = Duration::from_secs(120);
    cfg.idle_timeout = Duration::from_secs(300);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let _ = conn.set_nodelay(true);
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let mut burst = Vec::new();
    for id in 0..N {
        // Unserviceable: answered at placement, by the connection's own
        // shard, one answer per id.
        Frame::Submit {
            id,
            length: 1_000_000,
            tenant: DEFAULT_TENANT,
        }
        .encode_into(WireVersion::V2, &mut burst);
        if burst.len() >= 64 * 1024 || id == N - 1 {
            conn.write_all(&burst).expect("submit burst");
            burst.clear();
        }
    }
    assert!(
        eventually(Duration::from_secs(30), || {
            let t = &server.snapshot().tenants[0];
            t.submits == N && t.outstanding == 0
        }),
        "server never finished answering: {:?}",
        server.snapshot().tenants[0]
    );

    // Resume. Every id is answered exactly once, by a typed refusal.
    let mut answers = vec![0u8; N as usize];
    let mut frames = FrameReader::new();
    let mut seen = 0;
    while seen < N {
        match frames.next_frame().expect("decode answer") {
            Some(Frame::Error { id, .. }) => {
                answers[id as usize] += 1;
                seen += 1;
            }
            Some(other) => panic!("expected a refusal, got {other:?}"),
            None => {
                let n = frames.fill(&mut conn).expect("read answers");
                assert!(n > 0, "server closed after {seen} of {N} answers");
            }
        }
    }
    assert!(
        answers.iter().all(|&n| n == 1),
        "{} ids unanswered, {} answered twice",
        answers.iter().filter(|&&n| n == 0).count(),
        answers.iter().filter(|&&n| n > 1).count()
    );
    drop(conn);

    let drain = server.drain();
    assert_eq!(drain.slow_disconnects, 0, "{drain:?}");
    assert_eq!(drain.total(|t| t.submits), N, "{drain:?}");
    assert_eq!(drain.total(|t| t.shed + t.unserviceable), N, "{drain:?}");
    assert_eq!(drain.total(|t| t.outstanding), 0, "{drain:?}");
}

/// Every fault class at intensity 0.5, plus a quiet cell (the chaos
/// machinery live but never firing), each against a fresh server.
#[test]
fn drain_under_chaos_conserves_every_request() {
    let _host = shared_host();
    let cells = std::iter::once((FaultClass::Delay, 0.0))
        .chain(FaultClass::ALL.into_iter().map(|class| (class, 0.5)));
    for (class, intensity) in cells {
        let cell = format!("{}@{intensity}", class.name());
        let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
        let addr = server.local_addr();

        let mut rng = StdRng::seed_from_u64(23);
        let trace = TraceSpec::twitter_stable(150.0, 2.0).generate(&mut rng);
        let mut cfg = ChaosReplayConfig::new(3, ChaosConfig::new(class, intensity, 1234));
        cfg.max_attempts = 8;
        cfg.attempt_timeout = Duration::from_millis(400);
        cfg.backoff_base = Duration::from_millis(1);
        let report = chaos_replay(addr, &trace, &cfg).expect("chaos replay");

        // Client side: every request reached exactly one terminal state,
        // and no fault forged a refusal through the checksum.
        assert!(
            report.conserved(),
            "{cell}: client conservation violated: {report:?}"
        );
        assert!(report.ok > 0, "{cell}: killed every request: {report:?}");
        assert_eq!(
            report.unserviceable, 0,
            "{cell}: a fault forged an Unserviceable verdict: {report:?}"
        );

        // Server side: the drain equation balances exactly — submits that
        // made it off the wire are all accounted, none stuck.
        let drain = server.drain();
        assert_eq!(
            drain.total(|t| t.outstanding),
            0,
            "{cell}: left work outstanding: {drain:?}"
        );
        assert_eq!(
            drain.total(|t| t.submits),
            drain.total(TenantStats::accounted),
            "{cell}: server conservation violated: {drain:?}"
        );
    }
}

#[test]
fn v2_checksums_eliminate_phantom_unserviceable_under_heavy_corruption() {
    let _host = shared_host();
    // The failure mode the checksummed dialect retired: at Corrupt@0.75 an
    // unchecksummed bit-flipped frame occasionally decoded as a well-formed
    // `Error { Unserviceable }`, terminally killing a healthy request
    // (~1.7% of the trace on the old v1 stack). With a CRC on every frame
    // each flip dies at the checksum, so the phantom rate is exactly zero.
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(23);
    let trace = TraceSpec::twitter_stable(150.0, 2.0).generate(&mut rng);
    let mut cfg = ChaosReplayConfig::new(3, ChaosConfig::new(FaultClass::Corrupt, 0.75, 1234));
    cfg.max_attempts = 8;
    cfg.attempt_timeout = Duration::from_millis(250);
    cfg.backoff_base = Duration::from_millis(1);
    let report = chaos_replay(addr, &trace, &cfg).expect("chaos replay");

    assert!(report.conserved(), "conservation violated: {report:?}");
    assert!(report.ok > 0, "corruption killed every request: {report:?}");
    assert_eq!(
        report.unserviceable, 0,
        "corruption forged an Unserviceable verdict through the checksum: {report:?}"
    );
    assert!(
        report.corrupt_signals > 0,
        "at 0.75 intensity the server should have checksummed away submits: {report:?}"
    );

    let drain = server.drain();
    assert_eq!(
        drain.total(|t| t.unserviceable),
        0,
        "a corrupted submit decoded into a real one: {drain:?}"
    );
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted)
    );
    assert_eq!(drain.total(|t| t.outstanding), 0);
}

#[test]
fn panicking_completion_is_recovered_and_drain_stays_clean() {
    let _host = shared_host();
    let mut cfg = config();
    cfg.panic_one_in = Some(64);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(5);
    let trace = TraceSpec::twitter_stable(500.0, 3.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(3, SCALE)).expect("replay");

    // Panics happened and were recovered; their batches came back as
    // typed failures, not silence.
    assert!(
        server.snapshot().panics_recovered >= 1,
        "injection produced no panics: {report:?}"
    );
    assert_eq!(report.lost, 0, "a panic swallowed answers: {report:?}");
    assert_eq!(report.accounted(), report.sent);
    assert!(report.failed > 0, "recovered batches not typed as failed");
    assert!(report.ok > 0);

    // The pool survived: drain completes with nothing outstanding (a dead
    // worker or an unaccounted batch would hang it until timeout).
    let drain = server.drain();
    assert!(drain.panics_recovered >= 1);
    assert_eq!(drain.total(|t| t.failed), report.failed);
    assert_eq!(drain.total(|t| t.outstanding), 0);
    assert_eq!(drain.total(TenantStats::accounted), report.sent);
}
