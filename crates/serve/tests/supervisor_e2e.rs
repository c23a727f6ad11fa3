//! End-to-end supervision: component chaos against a live server.
//!
//! The server's threads — the epoll shards — each beat a heartbeat on
//! their handle, and shard 0 runs the planner's job under a per-job
//! panic boundary; these tests inject deterministic panics and stalls into
//! them through real sockets under real client load, and assert what
//! supervision is for:
//!
//! 1. **Escalation, conserving.** A shard that dies fails the server fast
//!    into a drain, once, and the drain fires whatever the dead shard's
//!    deadline heaps still held: `submits == served + shed +
//!    unserviceable + failed`, nothing outstanding at close.
//! 2. **Per-job recovery.** A panicking planner job is logged and the
//!    next one runs: a single-tenant server's reallocation checks carry
//!    on, and so do a multi-tenant server's re-granting passes. Every
//!    panic the server caught is counted once and logged once.
//! 3. **Stall detection.** A shard frozen while unparked is flagged by the
//!    server's stall check; an idle, dying or dead shard never is; and a shard
//!    catching up after a stall never outruns a client that is reading.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::ComponentChaos;
use arlo_serve::loadgen::{burst, replay, LoadGenConfig};
use arlo_serve::protocol::{read_frame, Frame, MAX_BATCH};
use arlo_serve::server::{ServeConfig, Server, Snapshot, SupervisorEventKind, TenantStats};
use arlo_serve::tenants::{SloClass, TenantSpec};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;

fn engine(gpus: u32) -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = gpus;
    ArloEngine::new(profiles, counts, EngineConfig::paper_default(SLO_MS))
}

/// Baseline config: fast ticks (the planner ticks every ~2 ms of real
/// time at 100×).
fn config(gpus: u32, time_scale: u32) -> ServeConfig {
    ServeConfig {
        time_scale,
        queue_capacity: 8192,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(gpus)
    }
}

fn assert_server_conserves(drain: &Snapshot) {
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
        "server leaks requests: {drain:?}"
    );
    assert_eq!(drain.total(|t| t.outstanding), 0, "drain left work behind");
    for t in &drain.tenants {
        assert_eq!(
            t.submits,
            t.accounted(),
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

fn has_event(server: &Server, component: &str, kind: SupervisorEventKind) -> bool {
    count_events(&server.snapshot(), component, kind) > 0
}

fn count_events(snapshot: &Snapshot, component: &str, kind: SupervisorEventKind) -> usize {
    snapshot
        .supervisor_events
        .iter()
        .filter(|e| e.component.starts_with(component) && e.kind == kind)
        .count()
}

/// Every panic the server caught was counted once and logged once — read
/// from a drain, where both are exact.
fn assert_panics_counted_once(drain: &Snapshot) {
    assert!(drain.panics_recovered >= 1, "{drain:?}");
    assert_eq!(
        drain.panics_recovered as usize,
        count_events(drain, "", SupervisorEventKind::Panicked),
        "{drain:?}"
    );
}

/// Call the server's stall check every 2 ms while `load` runs, as `arlo
/// serve`'s main loop does (every 50 ms), and return what `load` returns.
fn with_stall_checks<T>(server: &Server, load: impl FnOnce() -> T) -> T {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                server.check_stalls();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let out = load();
        done.store(true, Ordering::SeqCst);
        out
    })
}

/// A panicking planner tick is caught and logged, and the ticks after it
/// still run: periodic reallocation lands *after* a recorded planner panic
/// (an uncaught one would end the planner, and with it every
/// reallocation), and nothing escalates.
#[test]
fn planner_tick_panic_is_caught_and_reallocation_still_happens() {
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
    // One tick in 4 panics: the planner keeps failing ticks and keeps
    // ticking, doing real work between failures.
    let cfg = config(8, 100).with_component_chaos(ComponentChaos::panics("planner", 4, 11));
    let server = Server::spawn(engine, "127.0.0.1:0", cfg).expect("bind loopback");

    // No demand yet, so nothing has been decided: whatever reallocation
    // follows comes from a tick after a caught panic.
    wait_for("a planner tick panic", || {
        has_event(&server, "planner", SupervisorEventKind::Panicked)
    });
    let at_panic = server.snapshot().reallocations;
    let mut rng = StdRng::seed_from_u64(59);
    let trace = TraceSpec::twitter_stable(900.0, 12.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::open(4, 100)).expect("replay");
    assert_eq!(report.lost, 0, "{report:?}\n{:?}", server.snapshot());
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    wait_for("the planner to reallocate after a panic", || {
        server.snapshot().reallocations > at_panic
    });

    let snapshot = server.snapshot();
    assert_eq!(snapshot.escalations, 0, "a caught tick panic escalated");
    assert!(!snapshot.draining);
    let drain = server.drain();
    assert!(drain.reallocations >= 1, "{drain:?}");
    assert_server_conserves(&drain);
    assert_panics_counted_once(&drain);
}

/// The coordinator's re-granting passes outlive a caught planner panic
/// too: on a re-granting server whose planner wake-ups panic one in
/// three, a re-grant is logged after the first recorded panic, the planner
/// panics again later (it outlived the first), nothing escalates, and
/// nothing is lost.
#[test]
fn coordinator_passes_go_on_after_a_caught_planner_panic() {
    let tenants = ["busy", "idle"]
        .into_iter()
        .map(|name| {
            (
                TenantSpec::new(name, SloClass::Interactive, SLO_MS),
                engine(4),
            )
        })
        .collect();
    let cfg = config(8, 100)
        .with_component_chaos(ComponentChaos::panics("planner", 3, 43))
        .with_coordinator(NANOS_PER_SEC, 30 * NANOS_PER_SEC);
    let server = Server::spawn_multi(tenants, "127.0.0.1:0", cfg).expect("bind loopback");

    wait_for("a planner panic", || {
        has_event(&server, "planner", SupervisorEventKind::Panicked)
    });
    let at_panic = server.snapshot().regrants.len();
    // All demand on the default tenant: the partition has a standing
    // reason to move GPUs to it at the next pass that runs.
    let mut rng = StdRng::seed_from_u64(61);
    let trace = TraceSpec::twitter_stable(900.0, 10.0).generate(&mut rng);
    let report = replay(server.local_addr(), &trace, &LoadGenConfig::open(4, 100)).expect("replay");
    assert_eq!(report.lost, 0, "{report:?}\n{:?}", server.snapshot());
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    wait_for("a re-grant after the panic", || {
        server.snapshot().regrants.len() > at_panic
    });
    wait_for("a second planner panic", || {
        count_events(&server.snapshot(), "planner", SupervisorEventKind::Panicked) >= 2
    });

    let snapshot = server.snapshot();
    assert_eq!(snapshot.escalations, 0, "a caught pass panic escalated");
    assert!(!snapshot.draining);
    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_panics_counted_once(&drain);
    assert_eq!(drain.total(|t| t.submits), report.sent, "{drain:?}");
}

/// An epoll shard that dies escalates: its panic dooms every connection
/// it owns (closed by the drop guard, never leaked) and fails the whole
/// server fast into a clean conserving drain. Clients on the dead shard
/// see EOF, not silence.
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
    let (mut sent, mut ok) = (0u64, 0u64);
    for id in 0..200u64 {
        let written = Frame::Submit {
            id,
            length: 64,
            tenant: 0,
        }
        .write_to(&mut conn)
        .is_ok();
        if !written {
            break;
        }
        sent += 1;
        match read_frame(&mut conn) {
            Ok(Some(Frame::Response { .. })) => ok += 1,
            Ok(Some(_)) => {}
            _ => break,
        }
        if server.snapshot().escalations >= 1 {
            break;
        }
    }
    wait_for("shard escalation", || server.snapshot().escalations >= 1);
    assert!(has_event(&server, "shard", SupervisorEventKind::Panicked));
    assert_eq!(
        count_events(&server.snapshot(), "shard", SupervisorEventKind::Escalated),
        1
    );
    assert!(server.snapshot().draining, "escalation drains fail-fast");
    assert!(ok > 0, "the shard died before serving anything");
    drop(conn);
    let drain = server.drain();
    assert_eq!(drain.escalations, 1, "{drain:?}");
    assert_server_conserves(&drain);
    // A submit still in the dead connection's socket never reached the
    // server; none was counted that the client did not send.
    assert!(drain.total(|t| t.submits) <= sent, "{drain:?}");
}

/// Escalation reaches the listener at once: when shard 1 dies, shard 0 —
/// idle, its next sweep a minute out — is woken to close the listener, so
/// a newcomer is refused rather than connected only to be told `Draining`.
#[test]
fn a_shard_death_closes_the_listener_at_once() {
    let cfg = ServeConfig {
        shards: 2,
        sweep_interval: Duration::from_secs(60),
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("shard-1", 1, 7));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    // Connections are assigned round-robin: the second is shard 1's, and
    // the pass that adopts it panics.
    let _first = TcpStream::connect(addr).expect("connect");
    let _second = TcpStream::connect(addr).expect("connect");
    wait_for("shard 1 to escalate", || server.snapshot().escalations >= 1);
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener outlived the escalation"
    );
    assert_server_conserves(&server.drain());
}

/// A `shard-0` panic schedule that survives the two passes a pipelined
/// burst costs the shard (accept, then read) plus one more, and panics
/// within the next five — while the burst's work is still parked.
fn shard_panic_after_the_burst() -> ComponentChaos {
    let seed = (0..)
        .find(|&seed| {
            let plan = ComponentChaos::panics("shard", 4, seed)
                .plan_for("shard-0")
                .expect("targeted");
            !plan.panics_within(3) && plan.panics_within(8)
        })
        .expect("a seed");
    ComponentChaos::panics("shard", 4, seed)
}

/// One client writes `n` submits in a single burst; the shard decodes and
/// places them all, parks what is due later in its heap, and dies a few
/// passes later. Nothing fires a dead shard's heap but the drain, which
/// must answer every parked request (into the closed connection: the
/// server still counts each one, once) well inside its timeout.
fn dead_shards_heap_is_fired_by_the_drain(cfg: ServeConfig, n: u64) {
    let drain_timeout = Duration::from_secs(10);
    let cfg = ServeConfig {
        shards: 1,
        drain_timeout,
        ..cfg
    }
    .with_component_chaos(shard_panic_after_the_burst());
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let burst: Vec<u8> = (0..n)
        .flat_map(|id| {
            Frame::Submit {
                id,
                length: 64,
                tenant: 0,
            }
            .encode()
        })
        .collect();
    conn.write_all(&burst).expect("burst");

    wait_for("the shard to die", || server.snapshot().escalations >= 1);
    assert!(has_event(
        &server,
        "shard-0",
        SupervisorEventKind::Escalated
    ));
    let stranded = server.snapshot().total(|t| t.outstanding);
    assert!(stranded > 0, "the dead shard's heap held nothing");
    let started = Instant::now();
    let drain = server.drain();
    let took = started.elapsed();
    assert_server_conserves(&drain);
    assert_eq!(drain.total(|t| t.submits), n, "{drain:?}");
    assert_eq!(
        drain.total(|t| t.served),
        n,
        "parked work failed: {drain:?}"
    );
    assert!(
        took < drain_timeout / 5,
        "drain took {took:?} of its {drain_timeout:?}"
    );
}

/// Parked completions: at time scale 1, 100 requests queue 25 deep on 4
/// instances — ~120 ms of execution, fired a few completions per shard
/// pass — when the shard dies.
#[test]
fn a_dead_shards_parked_completions_are_fired_by_the_drain() {
    dead_shards_heap_is_fired_by_the_drain(config(4, 1), 100);
}

/// Parked seals: every batch is held open for a second of stragglers that
/// never come, so the shard dies on one of its sweeps with each instance's
/// partial batch still waiting to seal.
#[test]
fn a_dead_shards_parked_seals_are_fired_by_the_drain() {
    let cfg = ServeConfig {
        batch: BatchPolicy {
            spec: BatchSpec {
                max_batch: 32,
                marginal_cost: 0.5,
            },
            max_wait_ns: NANOS_PER_SEC,
        },
        ..config(4, 1)
    };
    dead_shards_heap_is_fired_by_the_drain(cfg, 24);
}

/// `Server::drain` with completions still parked in the heap: at time
/// scale 1, 100 requests queue 25 deep on 4 instances — ~120 ms of real
/// execution ahead of them when drain begins. The shard fires its heap
/// through the drain; every admitted request is answered `Ok`, none
/// `Draining` or `Failed`.
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
        server.snapshot().tenants[0].submits == N
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
    assert_eq!(drain.total(|t| t.served), N, "{drain:?}");
    assert_eq!(drain.total(|t| t.failed + t.shed), 0, "{drain:?}");
}

/// Stall detection: a shard that freezes (sleeps unparked past the stall
/// grace) without dying is flagged `Stalled` by the server's stall check —
/// and only flagged: the thread is alive, and killing it would lose its
/// connections. A freeze is flagged once however often the check looks:
/// each is a 100 ms sleep, so checks every 2 ms flag no more of them than
/// fit in the time the test ran.
#[test]
fn stalled_shard_is_flagged_by_the_stall_check() {
    let started = Instant::now();
    let cfg = config(4, 100)
        .with_component_chaos(ComponentChaos::stalls("shard", 2, 100, 41))
        .with_stall_grace(Duration::from_millis(10));
    let shards = cfg.shards as u64;
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");

    wait_for("a stall detection", || {
        server.check_stalls();
        server.snapshot().stalls_detected >= 1
    });
    check_stalls_for(&server, 100);
    let snapshot = server.snapshot();
    let freezes = shards * (started.elapsed().as_millis() as u64 / 100 + 1);
    assert!(snapshot.stalls_detected <= freezes, "{snapshot:?}");
    let stalled = count_events(&snapshot, "shard", SupervisorEventKind::Stalled);
    assert_eq!(stalled as u64, snapshot.stalls_detected, "{snapshot:?}");
    assert!(has_event(&server, "shard-0", SupervisorEventKind::Stalled));
    assert_eq!(snapshot.escalations, 0, "stalls are not panics");
    assert_server_conserves(&server.drain());
}

/// Call the stall check every 2 ms for `checks` checks.
fn check_stalls_for(server: &Server, checks: usize) {
    for _ in 0..checks {
        server.check_stalls();
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A long intentional block — an idle shard's epoll wait — is not a
/// stall: two idle shards, checked every 2 ms for well over five stall
/// graces, are never flagged, and nothing at all is logged.
#[test]
fn idle_shards_are_never_stalled() {
    let grace = Duration::from_millis(20);
    let cfg = ServeConfig {
        shards: 2,
        sweep_interval: Duration::from_secs(60),
        ..config(4, 100)
    }
    .with_stall_grace(grace);
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let started = Instant::now();
    check_stalls_for(&server, 100);
    assert!(started.elapsed() >= 5 * grace);
    let snapshot = server.snapshot();
    assert_eq!(snapshot.stalls_detected, 0, "{snapshot:?}");
    assert!(snapshot.supervisor_events.is_empty(), "{snapshot:?}");
    assert_server_conserves(&server.drain());
}

/// A shard killed by chaos parks its heartbeat on the way out: each dead
/// shard is escalated exactly once and never flagged stalled, however long
/// the check keeps looking, the chaos touches only its target, and when
/// both shards die both are counted while the drain starts once. The
/// check starts once the shards are dead: dying takes as long as the panic
/// hook and the unwinding (a debug build capturing a `RUST_BACKTRACE`
/// spends tens of milliseconds there), and a shard not yet dead is alive.
#[test]
fn a_dead_shard_escalates_once_and_is_never_stalled() {
    let grace = Duration::from_millis(10);
    for (target, dead) in [
        ("shard-1", vec!["shard-1"]),
        ("shard", vec!["shard-0", "shard-1"]),
    ] {
        let cfg = ServeConfig {
            shards: 2,
            sweep_interval: Duration::from_millis(5),
            ..config(4, 100)
        }
        .with_component_chaos(ComponentChaos::panics(target, 1, 7))
        .with_stall_grace(grace);
        let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
        let deaths = dead.len() as u64;
        wait_for("the shards to die", || {
            server.snapshot().escalations == deaths
        });
        let died = Instant::now();
        check_stalls_for(&server, 50);
        assert!(died.elapsed() >= 5 * grace);
        let snapshot = server.snapshot();
        for shard in ["shard-0", "shard-1"] {
            let expected = usize::from(dead.contains(&shard));
            for kind in [
                SupervisorEventKind::Panicked,
                SupervisorEventKind::Escalated,
            ] {
                let logged = count_events(&snapshot, shard, kind);
                assert_eq!(logged, expected, "{target}: {shard} {kind:?}: {snapshot:?}");
            }
        }
        assert_eq!(
            snapshot.supervisor_events.len(),
            2 * dead.len(),
            "{snapshot:?}"
        );
        assert_eq!(snapshot.stalls_detected, 0, "{target}");
        assert!(snapshot.draining, "the first death started the drain");
        let drain = server.drain();
        assert_eq!(drain.escalations, deaths, "{drain:?}");
        assert_panics_counted_once(&drain);
        assert_server_conserves(&drain);
    }
}

/// How long a slow panic hook takes over a shard's death: longer than a
/// debug build capturing a `RUST_BACKTRACE` takes (40–75 ms).
const SLOW_HOOK: Duration = Duration::from_millis(120);

/// Chain a panic hook, once per test binary, that runs the previous hook
/// and then sleeps [`SLOW_HOOK`] on a chaos-injected shard death. The
/// server raises the dying shard's `panicking` flag in its own hook, which
/// runs before this sleep whichever of the two was installed first.
fn install_slow_shard_death_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            let message = info.payload().downcast_ref::<String>();
            if message.is_some_and(|m| m.contains("injected panic in component 'shard")) {
                std::thread::sleep(SLOW_HOOK);
            }
        }));
    });
}

/// A shard is not stalled while it dies: with a panic hook that takes
/// 120 ms and a 10 ms grace, checks every 2 ms from spawn through the
/// death and after it never flag the dying shard.
#[test]
fn a_dying_shard_is_never_stalled_while_its_panic_hook_runs() {
    install_slow_shard_death_hook();
    let grace = Duration::from_millis(10);
    let cfg = ServeConfig {
        shards: 2,
        sweep_interval: Duration::from_millis(5),
        ..config(4, 100)
    }
    .with_component_chaos(ComponentChaos::panics("shard-1", 1, 7))
    .with_stall_grace(grace);
    let spawned = Instant::now();
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    wait_for("shard 1 to die", || {
        server.check_stalls();
        server.snapshot().escalations == 1
    });
    assert!(
        spawned.elapsed() >= SLOW_HOOK,
        "the death outran the slow hook"
    );
    check_stalls_for(&server, 20);
    let snapshot = server.snapshot();
    assert_eq!(
        count_events(&snapshot, "shard-1", SupervisorEventKind::Stalled),
        0,
        "{snapshot:?}"
    );
    assert_eq!(snapshot.stalls_detected, 0, "{snapshot:?}");
    for kind in [
        SupervisorEventKind::Panicked,
        SupervisorEventKind::Escalated,
    ] {
        assert_eq!(
            count_events(&snapshot, "shard-1", kind),
            1,
            "{kind:?}: {snapshot:?}"
        );
    }
    let drain = server.drain();
    assert_panics_counted_once(&drain);
    assert_server_conserves(&drain);
}

/// A shard catching up after a stall does not outrun a reading client.
/// One connection queues 4 096 submits up front at the default 1 024-frame
/// outbound queue, and every shard pass stalls 200 ms. The shard reads the
/// burst, parks ~50 ms of completions on four instances, and stalls again:
/// every one of them ripens during the stall, four queues' worth. Fired in
/// one go they would overflow the queue and doom a client that is reading;
/// fired in slices of half a queue, with the socket written between
/// slices, every request is answered `Ok`.
#[test]
fn a_shard_catching_up_after_a_stall_never_dooms_a_reading_client() {
    const BURST: usize = 4_096;
    // No reallocation while the burst is in flight.
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = 4;
    let mut engine_cfg = EngineConfig::paper_default(SLO_MS);
    engine_cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    engine_cfg.sub_window = engine_cfg.allocation_period / 10;
    let engine = ArloEngine::new(profiles, counts, engine_cfg);
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
    .with_component_chaos(ComponentChaos::stalls("shard", 1, 200, 47))
    .with_stall_grace(Duration::from_millis(10));
    assert_eq!(cfg.outbound_queue, 1_024, "the default queue");
    let server = Server::spawn(engine, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    let report = with_stall_checks(&server, || {
        let storm = LoadGenConfig::open(1, 100).with_submit_batch(MAX_BATCH);
        replay(addr, &burst(BURST, 64), &storm).expect("replay")
    });

    assert_eq!(report.connect_errors, 0, "{report:?}");
    assert_eq!(report.sent, BURST as u64, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.lost, 0, "the catch-up outran the client: {report:?}");
    assert_eq!(report.ok, BURST as u64, "{report:?}");
    assert!(server.snapshot().stalls_detected >= 1, "no stall flagged");
    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_eq!(drain.slow_disconnects, 0, "{drain:?}");
    assert_eq!(drain.total(|t| t.submits), BURST as u64, "{drain:?}");
    assert_eq!(drain.total(|t| t.served), BURST as u64, "{drain:?}");
}

/// The storm speaks `BatchedSubmit`: a closed-loop window storm batches
/// its refills, every connection passes the version check, and nothing is
/// lost.
#[test]
fn v2_window_storm_batches_refills_and_conserves() {
    let server = Server::spawn(engine(4), "127.0.0.1:0", config(4, 100)).expect("bind loopback");
    let storm = LoadGenConfig {
        hold: Duration::from_millis(10),
        ..LoadGenConfig::closed(32, 4).with_submit_batch(MAX_BATCH)
    };
    let report = replay(server.local_addr(), &burst(32 * 24, 64), &storm).expect("storm");

    assert_eq!(report.connected, 32, "{report:?}");
    assert_eq!(
        report.connect_errors, 0,
        "a version check failed: {report:?}"
    );
    assert_eq!(report.sent, 32 * 24, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");

    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_eq!(drain.total(|t| t.submits), 32 * 24, "{drain:?}");
}

/// Component chaos against a v2 window storm on two shards: batched
/// refills in flight across both, a coalescing window keeping seal
/// deadlines in the shards' heaps, and planner ticks panicking throughout
/// — with zero loss and both conservation laws exact.
#[test]
fn v2_storm_survives_planner_panics_on_two_shards() {
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
    .with_component_chaos(ComponentChaos::panics("planner", 3, 43));
    let server = Server::spawn(engine(4), "127.0.0.1:0", cfg).expect("bind loopback");
    let storm = LoadGenConfig {
        hold: Duration::from_millis(10),
        ..LoadGenConfig::closed(16, 128).with_submit_batch(MAX_BATCH)
    };
    let report = replay(server.local_addr(), &burst(16 * 256, 64), &storm).expect("storm");

    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.accounted(), report.sent, "{report:?}");
    assert_eq!(report.ok, report.sent, "{report:?}");
    wait_for("a planner tick panic", || {
        has_event(&server, "planner", SupervisorEventKind::Panicked)
    });
    assert_eq!(server.snapshot().escalations, 0);
    let drain = server.drain();
    assert_server_conserves(&drain);
    assert_panics_counted_once(&drain);
}
