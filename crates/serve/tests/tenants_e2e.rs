//! End-to-end multi-tenant serving over real loopback sockets.
//!
//! Exercises the tenant layer the way a deployment would hit it: several
//! tenants with distinct SLO classes behind one front door, wire-level
//! tenant routing (tenant-tagged submits), the typed
//! unknown-tenant refusal and its error-budget escalation, SLO-class
//! admission ordering under a synchronized overload burst, and the live
//! GPU re-granting coordinator.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{replay, LoadGenConfig};
use arlo_serve::protocol::{
    client_handshake, read_frame, ErrorCode, Frame, WireVersion, CONN_ERROR_ID,
};
use arlo_serve::server::{ServeConfig, Server, TenantStats};
use arlo_serve::tenants::{SloClass, TenantSpec};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;

/// An engine seeded with `gpus` instances, everything on the largest
/// runtime — always a valid deployment (full length coverage), and a seed
/// the coordinator is free to reshape.
fn engine(gpus: u32) -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = gpus;
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 3 * NANOS_PER_SEC;
    cfg.sub_window = NANOS_PER_SEC / 2;
    ArloEngine::new(profiles, counts, cfg)
}

fn config(gpus: u32, time_scale: u32) -> ServeConfig {
    ServeConfig {
        time_scale,
        queue_capacity: 8192,
        tick_interval: NANOS_PER_SEC / 5,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(gpus)
    }
}

/// The per-tenant conservation law: every submit addressed to the tenant
/// terminated in exactly one bucket.
fn assert_conserved(t: &TenantStats) {
    assert_eq!(
        t.submits,
        t.accounted(),
        "tenant {} leaks requests: {t:?}",
        t.name
    );
}

/// Three tenants behind one front door, an even tenant mix, and full
/// conservation on both sides of the wire.
#[test]
fn three_tenants_route_and_conserve() {
    let tenants = vec![
        (
            TenantSpec::new("interactive", SloClass::Interactive, SLO_MS),
            engine(3),
        ),
        (
            TenantSpec::new("standard", SloClass::Standard, SLO_MS),
            engine(3),
        ),
        (
            TenantSpec::new("batch", SloClass::Batch, 3.0 * SLO_MS),
            engine(2),
        ),
    ];
    let server =
        Server::spawn_multi(tenants, "127.0.0.1:0", config(8, 100)).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(7);
    let trace = TraceSpec::twitter_stable(600.0, 8.0).generate(&mut rng);
    let report = replay(
        addr,
        &trace,
        &LoadGenConfig::open(4, 100).with_tenants(vec![1, 1, 1]),
    )
    .expect("replay");

    // Client side: exactly-once, nothing lost, no unknown tenants (the
    // mix names exactly the tenants the server registered).
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(
        report.lost,
        0,
        "unanswered requests: {report:?}\n{:?}",
        server.snapshot()
    );
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.unknown_tenant, 0, "{report:?}");

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.outstanding), 0, "drain left work behind");
    assert_eq!(drain.unknown_tenants, 0);
    assert_eq!(drain.tenants.len(), 3);

    // Server side: the global law and the per-tenant law (a server-wide
    // figure is the sum of the tenant rows, so none double-counts).
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
        "global conservation: {drain:?}"
    );
    let submits = drain.total(|t| t.submits);
    for t in &drain.tenants {
        assert_conserved(t);
        // Round-robin over three tenants: each saw roughly a third.
        assert!(t.submits >= submits / 6, "tenant {} starved: {t:?}", t.name);
    }
}

/// A submit naming a tenant the server never registered gets the typed
/// [`ErrorCode::UnknownTenant`] refusal — and a client that keeps doing it
/// burns its error budget and is disconnected with a Protocol verdict.
#[test]
fn unknown_tenant_is_typed_then_escalates_to_protocol_disconnect() {
    let tenants = vec![(
        TenantSpec::new("only", SloClass::Interactive, SLO_MS),
        engine(4),
    )];
    let server =
        Server::spawn_multi(tenants, "127.0.0.1:0", config(4, 100)).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let version = client_handshake(&mut conn).expect("handshake");
    assert_eq!(version, WireVersion::V2);

    // Hammer a tenant id that does not exist. Each offence is answered
    // with a typed UnknownTenant on the *request* id (the connection
    // survives), until the budget runs out and the server hangs up with a
    // Protocol verdict on the connection sentinel.
    let mut unknown = 0u64;
    let mut protocol = false;
    'hammer: for i in 0..200u64 {
        if (Frame::Submit {
            id: i,
            length: 64,
            tenant: 99,
        })
        .write_to_v(&mut conn, version)
        .is_err()
        {
            break; // server already hung up mid-burst
        }
        match read_frame(&mut conn) {
            Ok(Some(Frame::Error {
                id,
                code: ErrorCode::UnknownTenant,
            })) => {
                assert_ne!(id, CONN_ERROR_ID, "refusal must name the request");
                unknown += 1;
            }
            Ok(Some(Frame::Error {
                id: CONN_ERROR_ID,
                code: ErrorCode::Protocol,
            })) => {
                protocol = true;
                break 'hammer;
            }
            Ok(Some(other)) => panic!("unexpected frame {other:?}"),
            Ok(None) => break 'hammer, // EOF after the disconnect
            Err(e) => panic!("read failed: {e:?}"),
        }
    }
    assert!(unknown >= 1, "no typed UnknownTenant refusal seen");
    assert!(
        protocol,
        "budget never escalated after {unknown} unknown-tenant submits"
    );
    drop(conn);

    let drain = server.drain();
    assert!(drain.unknown_tenants >= unknown, "{drain:?}");
    assert!(drain.protocol_disconnects >= 1, "{drain:?}");
    // Unknown-tenant submits are refused *before* accounting: they must
    // not leak into any tenant's conservation law.
    assert_eq!(drain.total(|t| t.submits), 0, "{drain:?}");
    for t in &drain.tenants {
        assert_conserved(t);
    }
}

/// Flood one tenant with `n` submits on a single v2 connection, then read
/// every answer. Returns (ok, shed).
fn flood(addr: std::net::SocketAddr, tenant: u32, n: u64) -> (u64, u64) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let version = client_handshake(&mut conn).expect("handshake");
    for i in 0..n {
        Frame::Submit {
            id: u64::from(tenant) * 1_000_000 + i,
            length: 384,
            tenant,
        }
        .write_to_v(&mut conn, version)
        .expect("submit");
    }
    let (mut ok, mut shed) = (0u64, 0u64);
    for _ in 0..n {
        match read_frame(&mut conn).expect("read").expect("frame") {
            Frame::Response { .. } => ok += 1,
            Frame::Error {
                code: ErrorCode::Shed,
                ..
            } => shed += 1,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    (ok, shed)
}

/// The live and the final views of one set of counters agree. At
/// quiescence — every answer read, nothing outstanding — the `Stats` frame
/// a client reads over the wire is exactly the wire view of
/// `Server::snapshot()`, and the tenant rows `drain()` returns are exactly
/// those of that last live snapshot. One shard, so every completion's
/// accounting is done before the shard reads the next frame, and a static
/// partition, so no re-grant moves a row in between.
#[test]
fn wire_stats_live_snapshot_and_drain_agree_at_quiescence() {
    let tenants = vec![
        (
            TenantSpec::new("interactive", SloClass::Interactive, SLO_MS),
            engine(2),
        ),
        (
            TenantSpec::new("batch", SloClass::Batch, 3.0 * SLO_MS),
            engine(2),
        ),
    ];
    let cfg = ServeConfig {
        queue_capacity: 64,
        shards: 1,
        ..config(4, 20)
    };
    let server = Server::spawn_multi_static(tenants, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    let (ok_interactive, _) = flood(addr, 0, 100);
    let (ok_batch, _) = flood(addr, 1, 100);
    assert!(ok_interactive > 0 && ok_batch > 0);

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::StatsRequest.write_to(&mut conn).unwrap();
    let wire = match read_frame(&mut conn).expect("read").expect("frame") {
        Frame::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let live = server.snapshot();
    assert_eq!(live.total(|t| t.outstanding), 0, "not quiescent: {live:?}");
    assert_eq!(live.total(|t| t.submits), 200, "{live:?}");
    assert_eq!(wire, live.stats(), "wire vs live: {live:?}");
    drop(conn);

    let drain = server.drain();
    assert_eq!(drain.tenants, live.tenants, "drain vs live");
    assert_eq!(drain.stats(), wire, "drain vs wire");
}

/// Under identical bursts, admission sheds in SLO-class order. The only
/// thing that differs between the three tenants is the class gate —
/// Interactive ungated (it sheds only if the engine refuses), Standard
/// capped at 3/4 of `queue_capacity` outstanding, Batch at half — so shed
/// counts must order Interactive ≤ Standard ≤ Batch, strictly between the
/// extremes.
#[test]
fn slo_classes_shed_in_order_under_overload() {
    let tenants = vec![
        (
            TenantSpec::new("interactive", SloClass::Interactive, SLO_MS),
            engine(2),
        ),
        (
            TenantSpec::new("standard", SloClass::Standard, SLO_MS),
            engine(2),
        ),
        (
            TenantSpec::new("batch", SloClass::Batch, 3.0 * SLO_MS),
            engine(2),
        ),
    ];
    // A small queue makes the class gates bite at burst sizes a test can
    // afford: Standard admits 48 outstanding, Batch 32, Interactive all.
    let cfg = ServeConfig {
        queue_capacity: 64,
        ..config(6, 20)
    };
    let server = Server::spawn_multi(tenants, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Identical 200-submit bursts, one tenant at a time: each burst lands
    // far faster than two instances can drain, so outstanding rushes past
    // every finite admission limit.
    let n = 200u64;
    let (ok_interactive, shed_interactive) = flood(addr, 0, n);
    let (ok_standard, shed_standard) = flood(addr, 1, n);
    let (ok_batch, shed_batch) = flood(addr, 2, n);

    assert!(
        shed_batch > 0,
        "Batch never hit its admission limit under a {n}-deep burst"
    );
    assert!(
        shed_interactive <= shed_standard && shed_standard <= shed_batch,
        "class shed order inverted: interactive {shed_interactive} / standard {shed_standard} / \
         batch {shed_batch}"
    );
    assert!(
        shed_interactive < shed_batch,
        "the gates never separated the extremes: interactive {shed_interactive} vs batch \
         {shed_batch}"
    );
    assert!(
        ok_interactive > ok_batch,
        "attainment order inverted: interactive {ok_interactive} vs batch {ok_batch}"
    );
    assert!(ok_interactive >= ok_standard && ok_standard >= ok_batch);

    let drain = server.drain();
    for t in &drain.tenants {
        assert_conserved(t);
    }
    assert_eq!(drain.tenants[0].shed, shed_interactive);
    assert_eq!(drain.tenants[1].shed, shed_standard);
    assert_eq!(drain.tenants[2].shed, shed_batch);
}

/// Skewed demand makes the coordinator move GPUs between live engines:
/// the loaded tenant ends with more GPUs than the idle one, at least one
/// structured re-grant is logged, and conservation survives the moves.
#[test]
fn coordinator_regrants_gpus_live() {
    let tenants = vec![
        (
            TenantSpec::new("busy", SloClass::Interactive, SLO_MS),
            engine(4),
        ),
        (
            TenantSpec::new("idle", SloClass::Standard, SLO_MS),
            engine(4),
        ),
    ];
    // Re-partition every virtual second. The demand window outlives the
    // replay (30 virtual seconds against a 10-second trace) so the final
    // pass before drain still sees the skew — a window shorter than the
    // idle tail would let the last pass re-grant on an all-zero tie.
    let cfg = config(8, 100).with_coordinator(NANOS_PER_SEC, 30 * NANOS_PER_SEC);
    let server = Server::spawn_multi(tenants, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // All demand on tenant 0 (empty mix = default tenant): the idle
    // tenant's window plans at zero demand, so the partition should
    // collapse its grant toward the Eq. 7 floor and hand the rest over.
    let mut rng = StdRng::seed_from_u64(23);
    let trace = TraceSpec::twitter_stable(900.0, 10.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(4, 100)).expect("replay");
    let live = server.snapshot();
    assert_eq!(report.lost, 0, "{report:?}\n{live:?}");

    let regrants = live.regrants;
    assert!(
        !regrants.is_empty(),
        "coordinator never re-granted under fully skewed demand"
    );
    // Every logged event conserves the pool; at least one of them moved
    // GPUs *between* tenants (events with moved_gpus == 0 are pure
    // reshapes — a tenant's inner allocation changed under an unchanged
    // grant — and legitimate).
    for ev in &regrants {
        assert_eq!(
            ev.gpus_before.iter().sum::<u32>(),
            ev.gpus_after.iter().sum::<u32>(),
            "re-grant leaked GPUs: {ev:?}"
        );
    }
    assert!(
        regrants.iter().any(|ev| ev.moved_gpus >= 1),
        "no re-grant ever moved a GPU between tenants: {regrants:?}"
    );

    let drain = server.drain();
    assert_eq!(drain.total(|t| t.outstanding), 0);
    for t in &drain.tenants {
        assert_conserved(t);
    }
    let busy = &drain.tenants[0];
    let idle = &drain.tenants[1];
    assert!(
        busy.granted_gpus > idle.granted_gpus,
        "GPUs never followed the load: busy {} vs idle {}",
        busy.granted_gpus,
        idle.granted_gpus
    );
    assert_eq!(busy.granted_gpus + idle.granted_gpus, 8, "pool leaked");
}

/// Shutdown is an event for the threads that sleep between ticks, too: at
/// time scale 1 the timer sleeps 200 ms and the coordinator 1 s between
/// passes, and an idle drain must not wait either of them out.
#[test]
fn idle_drain_does_not_wait_out_the_timer_or_the_coordinator() {
    let tenants = vec![
        (
            TenantSpec::new("interactive", SloClass::Interactive, SLO_MS),
            engine(2),
        ),
        (TenantSpec::new("batch", SloClass::Batch, SLO_MS), engine(2)),
    ];
    let server = Server::spawn_multi(tenants, "127.0.0.1:0", config(4, 1)).expect("bind loopback");
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let drain = server.drain();
    let took = started.elapsed();
    assert_eq!(drain.total(|t| t.submits), 0, "{drain:?}");
    assert!(
        took < Duration::from_millis(100),
        "idle drain took {took:?}"
    );
}
