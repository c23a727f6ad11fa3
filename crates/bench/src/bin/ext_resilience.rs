//! **Extension** — supervision resilience benchmark: seeded component
//! chaos against the server's threads — the epoll shards — and the planner
//! shard 0 runs between its waits, under v2 storm load.
//!
//! Four cells:
//!
//! - **shard/panic**: a shard dies under a closed-loop storm. It must
//!   escalate into the fail-fast drain, and the drain must come out clean
//!   and conserving — nothing outstanding at close, `submits == served +
//!   shed + unserviceable + failed` on the server, every client submit
//!   accounted for (answers in flight on the dead shard's connections are
//!   `lost` to the client, which sees EOF).
//! - **shard/stall**: a shard freezes while unparked, again and again; the
//!   server's stall check (polled here as `arlo serve` polls it) must flag
//!   it, with zero loss and exact conservation on both sides of the wire.
//! - **planner/panic**: planner ticks panic on shard 0 under the
//!   multi-tenant coordinator; each panic is caught at its tick, shard 0
//!   serves on and the planner ticks on, nothing escalates, nothing is
//!   lost.
//! - **shard/burst**: one connection queues 4 096 submits up front, at the
//!   default 1 024-frame outbound queue, and every shard pass stalls long
//!   enough for all of its parked completions to ripen. The shard must
//!   catch up without outrunning the reading client: zero
//!   `slow_disconnects`, zero lost.
//!
//! Load is the **window storm**: a closed-loop replay of a trace that
//! arrives all at once, whose refills leave as checksummed `BatchedSubmit`
//! frames, so the sweep doubles as an integration test of the batched
//! replay path. The closed-loop cells' storm runs in a re-exec'd child
//! process ([`ReplayChild`]), keeping client fds and CPU out of the server
//! process; the burst cell's open-loop storm runs in this one.
//!
//! `EXT_RESILIENCE_SMOKE=1` shrinks the per-cell request count for CI.
//!
//! Writes `results/BENCH_resilience.json`.

use arlo_bench::{json_f64, print_table, report_counts, run_replay_child, write_json, ReplayChild};
use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::ComponentChaos;
use arlo_serve::loadgen::{burst, replay, LoadGenConfig, LoadGenReport};
use arlo_serve::protocol::MAX_BATCH;
use arlo_serve::server::{ServeConfig, Server, Snapshot, TenantStats};
use arlo_serve::supervisor::SupervisorEventKind;
use arlo_serve::tenants::{SloClass, TenantSpec};
use arlo_trace::NANOS_PER_SEC;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 4;
const SCALE: u32 = 100;
const CONNS: usize = 8;
const WINDOW: usize = 8;
const FULL_TOTAL: u64 = 10_000;
const SMOKE_TOTAL: u64 = 1_600;
/// The burst cell's one connection: four outbound queues' worth of
/// submits, all up front.
const BURST: usize = 4_096;

fn smoke() -> bool {
    std::env::var("EXT_RESILIENCE_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn profiles() -> Vec<RuntimeProfile> {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    profile_runtimes(&family.compile(), SLO_MS, 512)
}

fn engine() -> ArloEngine {
    let profiles = profiles();
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = GPUS;
    let mut cfg = EngineConfig::paper_default(SLO_MS);
    cfg.allocation_period = 100_000 * NANOS_PER_SEC;
    cfg.sub_window = cfg.allocation_period / 10;
    ArloEngine::new(profiles, counts, cfg)
}

/// Every cell's server: two shards (fixed, not the host-derived default,
/// so cells stay comparable with the recorded ones), a 10 ms stall grace,
/// and a coalescing window, so the shards' heaps hold seal deadlines as
/// well as completions.
fn serve_config(chaos: ComponentChaos) -> ServeConfig {
    let mut cfg = ServeConfig {
        time_scale: SCALE,
        queue_capacity: 8_192,
        drain_timeout: Duration::from_secs(60),
        batch: BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            // 50 virtual ms at 100× = 0.5 ms real.
            max_wait_ns: 50_000_000,
        },
        shards: 2,
        ..ServeConfig::new(GPUS)
    }
    .with_component_chaos(chaos)
    .with_stall_grace(Duration::from_millis(10));
    cfg.max_conns = CONNS + 64;
    cfg
}

/// Start the window storm against `addr` in a child process:
/// `submits_per_conn` on each of [`CONNS`] connections, [`WINDOW`] in
/// flight per connection, refills in `BatchedSubmit` frames.
fn spawn_storm(addr: SocketAddr, submits_per_conn: u64) -> ReplayChild {
    let storm = LoadGenConfig::closed(CONNS, WINDOW).with_submit_batch(MAX_BATCH);
    ReplayChild::spawn(addr, CONNS * submits_per_conn as usize, &storm)
}

struct Cell {
    component: &'static str,
    fault: &'static str,
    report: LoadGenReport,
    panics: u64,
    stalls: u64,
    escalations: u64,
    slow_disconnects: u64,
    events: usize,
    wall_s: f64,
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

/// Poll `cond` every 2 ms; fail the cell if it does not hold within 30 s.
fn wait_until(tag: &str, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "{tag}: {what} never happened");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A chaos seed, from `base` on, under which `shard-0` survives its first
/// `calm` beats — start-up, the storm's connects and handshakes — and
/// panics within the next `calm`, under load.
fn shard_panic_seed(base: u64, one_in: u64, calm: u64) -> u64 {
    (0..)
        .map(|k| base ^ k)
        .find(|&seed| {
            let plan = ComponentChaos::panics("shard-0", one_in, seed)
                .plan_for("shard-0")
                .expect("targeted");
            !plan.panics_within(calm) && plan.panics_within(2 * calm)
        })
        .expect("a seed")
}

/// Count `component`'s events of `kind` in the server's log.
fn count_events(server: &Server, component: &str, kind: SupervisorEventKind) -> u64 {
    server
        .snapshot()
        .supervisor_events
        .iter()
        .filter(|e| e.component.starts_with(component) && e.kind == kind)
        .count() as u64
}

/// Drain `server` and check the server-side law every cell shares: a
/// clean drain, and every submit in exactly one terminal bucket.
fn drain_conserving(tag: &str, server: Server) -> Snapshot {
    let drain = server.drain();
    assert_eq!(
        drain.total(|t| t.outstanding),
        0,
        "{tag}: wedged drain: {drain:?}"
    );
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
        "{tag}: server-side conservation: {drain:?}"
    );
    drain
}

/// Client-side law: every connection up, every submit written reached
/// exactly one terminal outcome.
fn assert_client_conserves(tag: &str, report: &LoadGenReport, sent: u64) {
    assert_eq!(report.connect_errors, 0, "{tag}: {report:?}");
    assert_eq!(report.accounted(), report.sent, "{tag}: {report:?}");
    assert_eq!(report.sent, sent, "{tag}: {report:?}");
}

/// `shard/panic`: `shard-0` dies under the closed-loop storm and escalates.
/// The harness then drains at once, as `arlo serve` does when it sees the
/// server draining: the drain must fire what the dead shard's heap held —
/// answers that shard 1's live connections are waiting for — and come out
/// clean.
fn shard_panic_cell(total: u64) -> Cell {
    let tag = "shard/panic";
    let seed = shard_panic_seed(0xA510 ^ arlo_seed(tag), 20, 20);
    let cfg = serve_config(ComponentChaos::panics("shard-0", 20, seed));
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let started = Instant::now();
    let child = spawn_storm(server.local_addr(), total / CONNS as u64);
    wait_until(tag, "escalation", || server.snapshot().draining);
    assert_eq!(
        count_events(&server, "shard-0", SupervisorEventKind::Escalated),
        1,
        "{tag}"
    );
    let live = server.snapshot();
    let (stalls, events) = (live.stalls_detected, live.supervisor_events.len());
    let drain = drain_conserving(tag, server);
    assert_eq!(drain.escalations, 1, "{tag}: {drain:?}");
    let report = child.report();
    let wall_s = started.elapsed().as_secs_f64();
    // The dead shard's clients stop refilling at EOF; everything they did
    // submit is accounted for, `lost` included.
    assert_eq!(report.connect_errors, 0, "{tag}: {report:?}");
    assert_eq!(report.accounted(), report.sent, "{tag}: {report:?}");
    assert!(report.ok > 0, "{tag}: died before serving: {report:?}");
    // Submits still in a dead connection's socket never reached the server.
    assert!(
        drain.total(|t| t.submits) <= report.sent,
        "{tag}: wire vs drain"
    );
    Cell {
        component: "shard",
        fault: "panic",
        report,
        panics: 1,
        stalls,
        escalations: drain.escalations,
        slow_disconnects: drain.slow_disconnects,
        events,
        wall_s,
    }
}

/// `shard/stall`: a shard freezes for 60 ms on one pass in three against a
/// 10 ms grace, under the closed-loop storm; the stall check must flag it,
/// and nothing may be lost.
fn shard_stall_cell(total: u64) -> Cell {
    let tag = "shard/stall";
    let chaos = ComponentChaos::stalls("shard", 3, 60, 0xA510 ^ arlo_seed(tag));
    let server =
        Server::spawn(engine(), "127.0.0.1:0", serve_config(chaos)).expect("bind loopback");
    let submits_per_conn = total / CONNS as u64;
    let started = Instant::now();
    let report = with_stall_checks(&server, || {
        spawn_storm(server.local_addr(), submits_per_conn).report()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let submitted = submits_per_conn * CONNS as u64;
    assert_client_conserves(tag, &report, submitted);
    assert_eq!(
        report.lost, 0,
        "{tag}: stalls must never lose answers: {report:?}"
    );
    let live = server.snapshot();
    assert!(
        live.stalls_detected >= 1,
        "{tag}: frozen heartbeat never flagged"
    );
    assert_eq!(live.escalations, 0, "{tag}: a stall is not a death");
    let (stalls, events) = (live.stalls_detected, live.supervisor_events.len());
    let drain = drain_conserving(tag, server);
    assert_eq!(
        drain.total(|t| t.submits),
        submitted,
        "{tag}: wire vs drain"
    );
    Cell {
        component: "shard",
        fault: "stall",
        report,
        panics: 0,
        stalls,
        escalations: 0,
        slow_disconnects: drain.slow_disconnects,
        events,
        wall_s,
    }
}

/// `planner/panic`: one planner tick in three panics on shard 0 while the
/// multi-tenant coordinator re-plans every 2 ms of real time; every panic
/// is caught at its tick, and shard 0 and the planner carry on.
fn planner_panic_cell(total: u64) -> Cell {
    let tag = "planner/panic";
    let chaos = ComponentChaos::panics("planner", 3, 0xA510 ^ arlo_seed(tag));
    let cfg = serve_config(chaos).with_coordinator(NANOS_PER_SEC / 5, 30 * NANOS_PER_SEC);
    let tenant = TenantSpec::new("bench", SloClass::Interactive, SLO_MS);
    let server =
        Server::spawn_multi(vec![(tenant, engine())], "127.0.0.1:0", cfg).expect("bind loopback");
    let submits_per_conn = total / CONNS as u64;
    let started = Instant::now();
    let report = spawn_storm(server.local_addr(), submits_per_conn).report();
    let wall_s = started.elapsed().as_secs_f64();
    let submitted = submits_per_conn * CONNS as u64;
    assert_client_conserves(tag, &report, submitted);
    assert_eq!(report.lost, 0, "{tag}: {report:?}");
    // More than one panic: the planner outlived the first.
    wait_until(tag, "a second planner panic", || {
        count_events(&server, "planner", SupervisorEventKind::Panicked) >= 2
    });
    let panics = count_events(&server, "planner", SupervisorEventKind::Panicked);
    let live = server.snapshot();
    assert_eq!(live.escalations, 0, "{tag}: a tick panic escalated");
    let (stalls, events) = (live.stalls_detected, live.supervisor_events.len());
    let drain = drain_conserving(tag, server);
    assert_eq!(
        drain.total(|t| t.submits),
        submitted,
        "{tag}: wire vs drain"
    );
    Cell {
        component: "planner",
        fault: "panic",
        report,
        panics,
        stalls,
        escalations: 0,
        slow_disconnects: drain.slow_disconnects,
        events,
        wall_s,
    }
}

/// `shard/burst`: one connection queues [`BURST`] submits up front at the
/// default outbound queue, and every shard pass stalls 200 ms. The shard
/// reads the burst, parks ~50 ms of completions on four instances, and
/// stalls again: every one of them ripens during the stall, far more than
/// the 1 024 frames the connection's queue holds. Fired in one go they
/// would overflow it and doom a client that is reading; fired in slices of
/// half a queue with the socket written between slices, nothing is lost.
fn shard_burst_cell() -> Cell {
    let tag = "shard/burst";
    let chaos = ComponentChaos::stalls("shard", 1, 200, 0xA510 ^ arlo_seed(tag));
    let cfg = serve_config(chaos);
    assert_eq!(cfg.outbound_queue, 1_024, "{tag}: the default queue");
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    let started = Instant::now();
    let report = with_stall_checks(&server, || {
        let storm = LoadGenConfig::open(1, SCALE).with_submit_batch(MAX_BATCH);
        replay(addr, &burst(BURST, 64), &storm).expect("replay")
    });
    let wall_s = started.elapsed().as_secs_f64();
    assert_client_conserves(tag, &report, BURST as u64);
    assert_eq!(
        report.lost, 0,
        "{tag}: the catch-up outran the client: {report:?}"
    );
    assert_eq!(report.ok, BURST as u64, "{tag}: {report:?}");
    let live = server.snapshot();
    assert!(live.stalls_detected >= 1, "{tag}: no stall flagged");
    let (stalls, events) = (live.stalls_detected, live.supervisor_events.len());
    let drain = drain_conserving(tag, server);
    assert_eq!(drain.slow_disconnects, 0, "{tag}: {drain:?}");
    assert_eq!(drain.total(|t| t.served), BURST as u64, "{tag}: {drain:?}");
    Cell {
        component: "shard",
        fault: "burst",
        report,
        panics: 0,
        stalls,
        escalations: 0,
        slow_disconnects: drain.slow_disconnects,
        events,
        wall_s,
    }
}

/// Tiny deterministic tag hash so every cell's chaos schedule differs but
/// reproduces from the printed tag alone.
fn arlo_seed(tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn main() {
    if run_replay_child() {
        return;
    }
    let total = if smoke() { SMOKE_TOTAL } else { FULL_TOTAL };
    println!(
        "ext_resilience: {total} requests/cell, scale {SCALE}, {CONNS} conns, window {WINDOW}{}",
        if smoke() { " [smoke]" } else { "" }
    );

    let cells = [
        shard_panic_cell(total),
        shard_stall_cell(total),
        planner_panic_cell(total),
        shard_burst_cell(),
    ];

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.component.to_string(),
                c.fault.to_string(),
                format!("{}", c.report.ok),
                format!("{}", c.report.draining),
                format!("{}", c.report.lost),
                format!("{}", c.panics),
                format!("{}", c.stalls),
                format!("{}", c.escalations),
                format!("{}", c.slow_disconnects),
                format!("{:.1}", c.wall_s),
            ]
        })
        .collect();
    print_table(
        "supervision under component chaos",
        &[
            "component",
            "fault",
            "ok",
            "draining",
            "lost",
            "panics",
            "stalls",
            "escalations",
            "slow disc",
            "wall s",
        ],
        &rows,
    );
    println!(
        "all {} cells conserved exactly (client and server side)",
        cells.len()
    );

    let json = serde_json::json!({
        "config": {
            "requests_per_cell": total,
            "time_scale": SCALE,
            "conns": CONNS,
            "window": WINDOW,
            "wire": "v2",
            "burst": BURST,
            "smoke": smoke(),
        },
        "cells": cells.iter().map(|c| serde_json::json!({
            "component": c.component,
            "fault": c.fault,
            "counts": serde_json::Value::Object(
                report_counts(&c.report)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), serde_json::json!(v)))
                    .collect(),
            ),
            "panics": c.panics,
            "stalls_detected": c.stalls,
            "escalations": c.escalations,
            "slow_disconnects": c.slow_disconnects,
            "supervisor_events": c.events,
            "wall_s": json_f64(c.wall_s),
        })).collect::<Vec<_>>(),
    });
    write_json("BENCH_resilience", &json);
}
