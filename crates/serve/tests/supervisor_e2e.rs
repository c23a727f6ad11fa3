//! End-to-end supervision: component chaos against a live server.
//!
//! Every long-lived server thread runs as a supervised component; these
//! tests inject deterministic panics and stalls into named components
//! (timer, flusher, epoll shards) through real sockets
//! under real client load, and assert the two properties the supervision
//! tree exists for:
//!
//! 1. **Self-healing**: a panicked restartable component is respawned
//!    within its budget, re-attaches to surviving state, and service
//!    resumes — observable from the outside, not just in counters.
//! 2. **Conservation**: no request is ever silently lost across a panic,
//!    a restart, or an escalation. Mid-flight work is re-accounted as
//!    `Failed`, so `ok + shed + unserviceable + draining + failed` stays
//!    exactly equal to everything submitted, on both sides of the wire.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::ComponentChaos;
use arlo_serve::loadgen::{connection_storm, replay, LoadGenConfig, StormConfig};
use arlo_serve::protocol::{read_frame, Frame};
use arlo_serve::server::{DrainReport, ServeConfig, Server};
use arlo_serve::supervisor::SupervisorEventKind;
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;

fn engine(gpus: u32) -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = gpus;
    ArloEngine::new(profiles, counts, EngineConfig::paper_default(SLO_MS))
}

/// Baseline config: fast ticks (the timer beats every ~2 ms of real
/// time), quick restarts, and a budget high enough that recovery tests
/// never trip escalation by accident.
fn config(gpus: u32, time_scale: u32) -> ServeConfig {
    ServeConfig {
        time_scale,
        queue_capacity: 8192,
        tick_interval: NANOS_PER_SEC / 5,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(gpus)
    }
    .with_restart_policy(Duration::from_millis(1), 10_000)
}

fn assert_server_conserves(drain: &DrainReport) {
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "server leaks requests: {drain:?}"
    );
    assert_eq!(drain.outstanding_at_close, 0, "drain left work behind");
    for t in &drain.tenants {
        assert_eq!(
            t.submits,
            t.served + t.shed + t.unserviceable + t.failed + t.outstanding_at_close,
            "tenant {} leaks requests: {t:?}",
            t.name
        );
    }
}

/// Poll `cond` until it holds or `what` times out.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Under supervision a panicked timer is respawned within one backoff and
/// resumes the work it owns: periodic reallocation still lands *after* a
/// recorded death and restart (unsupervised, a dead timer stops
/// reallocating silently and forever), and the structured event log
/// records both.
#[test]
fn supervised_timer_restarts_and_resumes_reallocating() {
    // A lopsided deployment (everything but one GPU on the largest
    // runtime) and a 3-virtual-second decision period (30 ms real at
    // 100×): short-request load gives the Runtime Scheduler a standing
    // reason to reshape the fleet at its next decision.
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    counts[0] = 1;
    *counts.last_mut().expect("non-empty") = 7;
    let mut engine_cfg = EngineConfig::paper_default(SLO_MS);
    engine_cfg.allocation_period = 3 * NANOS_PER_SEC;
    engine_cfg.sub_window = NANOS_PER_SEC / 2;
    let engine = ArloEngine::new(profiles, counts, engine_cfg);
    // One beat in 4 panics: the timer keeps dying and keeps coming back,
    // doing real work between deaths.
    let cfg = config(8, 100).with_component_chaos(ComponentChaos::panics("timer", 4, 11));
    let server = Server::spawn(engine, "127.0.0.1:0", cfg).expect("bind loopback");

    // No demand yet, so nothing has been decided: whatever reallocation
    // follows is the work of a restarted incarnation.
    wait_for("a timer restart", || server.supervisor_restarts() >= 1);
    let at_restart = server.reallocations();
    let mut rng = StdRng::seed_from_u64(59);
    let trace = TraceSpec::twitter_stable(900.0, 12.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::open(4, 100)).expect("replay");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    wait_for("the restarted timer to reallocate", || {
        server.reallocations() > at_restart
    });

    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component == "timer" && e.kind == SupervisorEventKind::Panicked),
        "no recorded timer panic: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.component == "timer"
                && matches!(e.kind, SupervisorEventKind::Restarted { .. })),
        "no recorded timer restart: {events:?}"
    );
    let drain = server.drain();
    assert!(drain.supervisor_restarts >= 1, "{drain:?}");
    assert_server_conserves(&drain);
}

/// A component that cannot stay up — every beat panics — exhausts its
/// restart budget and escalates: the hook runs exactly once, flips the
/// server into a fail-fast drain (new submits refused as `Draining`,
/// admitted work still answered), and the final drain is clean and
/// conserving instead of a wedge. The timer beats every 2 ms of real time
/// here, so its three deaths land while the replay is running.
#[test]
fn budget_exhaustion_escalates_to_a_clean_conserving_drain() {
    let cfg = config(4, 100)
        .with_component_chaos(ComponentChaos::panics("timer", 1, 19))
        .with_restart_policy(Duration::from_millis(1), 2);
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(23);
    let trace = TraceSpec::twitter_stable(200.0, 4.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(2, 100)).expect("replay");

    // Every submit was still answered: served before the escalation, or
    // refused Draining after it.
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");

    wait_for("escalation", || server.escalations() >= 1);
    assert!(server.is_escalated());
    assert!(server.is_draining(), "escalation drains fail-fast");
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == SupervisorEventKind::Escalated),
        "{events:?}"
    );
    let drain = server.drain();
    assert!(drain.escalations >= 1, "{drain:?}");
    assert_server_conserves(&drain);
}

/// An epoll shard is an [`arlo_serve::supervisor::RestartPolicy::Escalate`]
/// component: its panic dooms every connection it owns (closed by the
/// drop guard, never leaked) and fails the whole server fast into a clean
/// conserving drain. Clients on the dead shard see EOF, not silence.
#[test]
fn epoll_shard_panic_escalates_and_drains_clean() {
    let cfg = ServeConfig {
        shards: 1,
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("shard", 10, 29));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Drive submits until the shard dies under us; every write/read error
    // is the expected EOF from the doomed connection.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for id in 0..200u64 {
        let sent = Frame::Submit {
            id,
            length: 64,
            tenant: 0,
        }
        .write_to(&mut conn)
        .is_ok();
        if !sent {
            break;
        }
        match read_frame(&mut conn) {
            Ok(Some(_)) => {}
            _ => break,
        }
        if server.escalations() >= 1 {
            break;
        }
    }
    wait_for("shard escalation", || server.escalations() >= 1);
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component.starts_with("shard") && e.kind == SupervisorEventKind::Panicked),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == SupervisorEventKind::Escalated),
        "{events:?}"
    );
    drop(conn);
    let drain = server.drain();
    assert!(drain.escalations >= 1, "{drain:?}");
    assert_server_conserves(&drain);
}

/// The flusher panics while batches are held open for stragglers: their
/// seal deadlines sit in the executor's heap, not in the dead thread, so
/// the restarted incarnation seals every held batch and every answer
/// still arrives.
#[test]
fn flusher_restart_keeps_seal_deadlines_and_loses_nothing() {
    let cfg = ServeConfig {
        // A real coalescing window so the flusher owns live deadlines:
        // 50 virtual ms at 100× is 0.5 ms real.
        batch: BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            max_wait_ns: 50_000_000,
        },
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("flusher", 5, 31));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(37);
    let trace = TraceSpec::twitter_stable(400.0, 6.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::closed(4, 8)).expect("replay");
    assert_eq!(
        report.lost, 0,
        "a lost flush deadline strands answers: {report:?}"
    );
    assert_eq!(report.accounted(), report.sent, "{report:?}");

    assert!(server.supervisor_restarts() >= 1, "flusher never died");
    let events = server.supervisor_events();
    assert!(
        events.iter().any(|e| e.component.starts_with("flusher")
            && matches!(e.kind, SupervisorEventKind::Restarted { .. })),
        "{events:?}"
    );
    assert_server_conserves(&server.drain());
}

/// The flusher dies while *completions* are parked in the executor's
/// deadline heap. At 10× a 4.86 virtual-ms execution spans 486 µs of real
/// time — past the 100 µs "due now" rule — so no batch completes inline:
/// every answer of this run sits in the heap until the flusher fires it,
/// and the closed loop stalls the moment one is lost. The heap outlives
/// the thread, so each restarted incarnation fires what its predecessor
/// left and every request is answered `Ok`.
#[test]
fn flusher_panic_with_parked_completions_loses_nothing() {
    let cfg = config(4, 10).with_component_chaos(ComponentChaos::panics("flusher", 5, 47));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");

    let mut rng = StdRng::seed_from_u64(53);
    let trace = TraceSpec::twitter_stable(400.0, 6.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::closed(4, 8)).expect("replay");
    assert_eq!(report.sent, trace.len() as u64);
    assert_eq!(report.lost, 0, "heap entry lost: {report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(
        report.ok, report.sent,
        "a flusher death must not fail parked work: {report:?}"
    );

    assert!(server.supervisor_restarts() >= 1, "flusher never died");
    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_eq!(drain.served, report.sent, "{drain:?}");
}

/// A flusher given up on under load strands nothing. With a restart budget
/// of 0 the flusher's first death escalates, and it dies on its first
/// wake-up after start-up — a wake-up that only an entry parked in its
/// heap causes — so the server escalates with seals and completions parked
/// and no thread left to fire them. `drain` fires them itself: every
/// admitted request is answered, none is lost to the client, and the
/// drain takes nowhere near its timeout (it used to wait the timeout out,
/// then fire the heap into closed connections).
#[test]
fn a_flusher_given_up_on_under_load_strands_nothing() {
    // A schedule for `flusher-0` that survives the start-up beat and
    // panics on the next one.
    let seed = (0..)
        .find(|&seed| {
            let plan = ComponentChaos::panics("flusher", 2, seed)
                .plan_for("flusher-0", 0)
                .expect("targeted");
            !plan.panics_within(1) && plan.panics_within(2)
        })
        .expect("a seed");
    let drain_timeout = Duration::from_secs(5);
    let cfg = ServeConfig {
        // A coalescing window, so a partial batch parks its seal: 50
        // virtual ms at 100× is 0.5 ms real.
        batch: BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            max_wait_ns: 50_000_000,
        },
        drain_timeout,
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("flusher", 2, seed))
    .with_restart_policy(Duration::from_millis(1), 0);
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // One closed-loop client whose window holds the whole trace: every
    // request is sent up front, so none is sent while the drain closes
    // connections, and the client waits for every answer.
    let mut rng = StdRng::seed_from_u64(71);
    let trace = TraceSpec::twitter_stable(400.0, 0.5).generate(&mut rng);
    let mut load = LoadGenConfig::closed(1, trace.len());
    load.read_timeout = Duration::from_secs(60);
    let client = std::thread::spawn(move || replay(addr, &trace, &load));

    wait_for("the flusher to be given up on", || {
        server.escalations() >= 1
    });
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component == "flusher-0" && e.kind == SupervisorEventKind::Escalated),
        "{events:?}"
    );
    let started = Instant::now();
    let drain = server.drain();
    let took = started.elapsed();
    let report = client.join().expect("client").expect("replay");

    assert_eq!(report.lost, 0, "answers stranded in the heap: {report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert!(report.ok > 0, "nothing was admitted before the escalation");
    assert_server_conserves(&drain);
    assert!(
        took < drain_timeout / 5,
        "drain took {took:?} of its {drain_timeout:?}"
    );
}

/// `Server::drain` with completions still parked in the heap: at time
/// scale 1, 100 requests queue 25 deep on 4 instances — ~120 ms of real
/// execution ahead of them when drain begins. Drain waits the heap out;
/// every admitted request is answered `Ok`, none `Draining` or `Failed`.
#[test]
fn drain_answers_parked_completions_ok() {
    const N: u64 = 100;
    let server = Server::spawn(engine(4), "127.0.0.1:0", config(4, 1)).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for id in 0..N {
        Frame::Submit {
            id,
            length: 64,
            tenant: 0,
        }
        .write_to(&mut conn)
        .expect("submit");
    }
    wait_for("every submit to be admitted", || {
        server.tenant_stats()[0].submits == N
    });
    let reader = std::thread::spawn(move || {
        (0..N)
            .map(|_| read_frame(&mut conn).expect("read").expect("frame"))
            .filter(|f| matches!(f, Frame::Response { .. }))
            .count() as u64
    });
    let drain = server.drain();
    assert_eq!(reader.join().unwrap(), N, "non-Ok answers");
    assert_server_conserves(&drain);
    assert_eq!(drain.served, N, "{drain:?}");
    assert_eq!(drain.failed + drain.shed, 0, "{drain:?}");
}

/// Stall detection: a component that freezes (sleeps unparked past the
/// stall grace) without dying is reported as `Stalled` — one event per
/// episode, no restart (the thread is alive; killing it would lose state).
#[test]
fn stalled_timer_is_detected_not_restarted() {
    let cfg = config(4, 100)
        .with_component_chaos(ComponentChaos::stalls("timer", 2, 100, 41))
        .with_stall_grace(Duration::from_millis(10));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");

    wait_for("a stall detection", || server.stalls_detected() >= 1);
    assert_eq!(server.supervisor_restarts(), 0, "stalls are not panics");
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component == "timer" && e.kind == SupervisorEventKind::Stalled),
        "{events:?}"
    );
    assert_server_conserves(&server.drain());
}

/// The storm speaks `BatchedSubmit`: a closed-loop window storm batches
/// its refills, every connection passes the version check, and nothing is
/// lost.
#[test]
fn v2_window_storm_batches_refills_and_conserves() {
    let server = Server::spawn(engine(4), "127.0.0.1:0", config(4, 100)).expect("bind loopback");
    let storm = StormConfig {
        conns: 32,
        threads: 2,
        submits_per_conn: 24,
        hold: Duration::from_millis(10),
        ..StormConfig::new(32)
    }
    .with_window(4);
    let report = connection_storm(server.local_addr(), &storm).expect("storm");

    assert_eq!(report.connected, 32, "{report:?}");
    assert_eq!(
        report.connect_errors, 0,
        "a version check failed: {report:?}"
    );
    assert_eq!(report.submitted, 32 * 24, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.conserved(), "{report:?}");

    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_eq!(drain.submits, 32 * 24, "{drain:?}");
}

/// Component chaos against a supervised server under a v2 window storm:
/// the cross product the resilience bench sweeps, pinned here at its
/// hairiest single cell — flusher panics while batched refills are in
/// flight across two shards and a coalescing window keeps seal deadlines
/// in the flusher's heap — with both conservation laws exact.
#[test]
fn v2_storm_survives_flusher_panics_on_the_epoll_plane() {
    let cfg = ServeConfig {
        shards: 2,
        // 50 virtual ms at 100× is 0.5 ms real.
        batch: BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            max_wait_ns: 50_000_000,
        },
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("flusher", 3, 43));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let storm = StormConfig {
        conns: 16,
        threads: 2,
        submits_per_conn: 256,
        hold: Duration::from_millis(10),
        ..StormConfig::new(16)
    }
    .with_window(128);
    let report = connection_storm(server.local_addr(), &storm).expect("storm");

    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.conserved(), "{report:?}");
    assert!(server.supervisor_restarts() >= 1, "no flusher died");
    let mut err_budget: u64 = 0;
    err_budget += report.failed;
    assert!(
        report.ok + err_budget + report.shed + report.unserviceable + report.draining
            == report.submitted,
        "{report:?}"
    );
    assert_server_conserves(&server.drain());
}
