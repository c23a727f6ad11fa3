//! **Extension** — supervision-tree resilience benchmark: seeded component
//! chaos against every supervised server thread, under closed-loop v2
//! storm load.
//!
//! The grid crosses the supervised component classes with the two fault
//! kinds:
//!
//! - **Restartable components** (`flusher`, `timer`, `coordinator`) ×
//!   {panic, stall}. Panic cells
//!   assert the component died at least once, was restarted within its
//!   budget, recovery was bounded (every `Panicked` is followed by a
//!   `Restarted` within [`RECOVERY_BOUND_MS`]), and **exact zero-loss
//!   conservation** held on both sides of the wire regardless:
//!   `ok + shed + unserviceable + draining + failed == submitted`, nothing
//!   lost, drain leaves zero outstanding. Stall cells assert the frozen
//!   heartbeat was detected (≥ 1 `Stalled` event) with no restart and the
//!   same conservation.
//! - **Escalation cells** (no load): a flusher whose every beat panics
//!   under a 2-restart budget — the supervisor must give up cleanly, run
//!   the fail-fast drain hook, and the final drain must conserve instead
//!   of wedging; and an acceptor first-beat panic — `Escalate` policy
//!   straight to a clean drain. Both fire at start-up: the flusher beats
//!   before its first wait, and the acceptor on its first poll.
//!
//! Load is the closed-loop **window storm**: refills leave as checksummed
//! `BatchedSubmit` frames, so the resilience sweep doubles as an
//! integration test of the batched replay path. The storm runs in a
//! re-exec'd child process, keeping client fds and CPU out of the server
//! process.
//!
//! `EXT_RESILIENCE_SMOKE=1` shrinks the per-cell request count for CI.
//!
//! Writes `results/BENCH_resilience.json`.

use arlo_bench::{json_f64, print_table, write_json};
use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::ComponentChaos;
use arlo_serve::loadgen::{connection_storm, StormConfig};
use arlo_serve::server::{ServeConfig, Server};
use arlo_serve::supervisor::{SupervisorEvent, SupervisorEventKind};
use arlo_trace::NANOS_PER_SEC;
use std::collections::HashMap;
use std::io::Read;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 4;
const SCALE: u32 = 100;
const CONNS: usize = 8;
const WINDOW: u32 = 8;
const FULL_TOTAL: u64 = 10_000;
const SMOKE_TOTAL: u64 = 1_600;
/// Every `Panicked` in a recovery cell must be answered by a `Restarted`
/// within this many milliseconds (configured backoff is 1 ms; the bound
/// absorbs monitor polling and scheduler noise, not retry storms).
const RECOVERY_BOUND_MS: u64 = 5_000;

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

/// Which fault a cell injects.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    Panic,
    Stall,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Stall => "stall",
        }
    }
}

/// One recovery-grid target: the component-name prefix the chaos recipe
/// aims at, plus per-component knobs.
#[derive(Clone, Copy)]
struct Target {
    prefix: &'static str,
    /// Spawn the server with the multi-tenant coordinator running (the
    /// `coordinator` component only exists then).
    coordinator: bool,
    /// Serve with a real coalescing window so the flusher owns deadlines.
    batch_window: bool,
}

const TARGETS: [Target; 3] = [
    Target {
        prefix: "flusher",
        coordinator: false,
        batch_window: true,
    },
    Target {
        prefix: "timer",
        coordinator: false,
        batch_window: false,
    },
    Target {
        prefix: "coordinator",
        coordinator: true,
        batch_window: false,
    },
];

fn serve_config(target: Target, chaos: ComponentChaos) -> ServeConfig {
    let batch = if target.batch_window {
        BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            // 50 virtual ms at 100× = 0.5 ms real.
            max_wait_ns: 50_000_000,
        }
    } else {
        BatchPolicy::greedy(BatchSpec::SINGLE)
    };
    let mut cfg = ServeConfig {
        time_scale: SCALE,
        queue_capacity: 8_192,
        tick_interval: NANOS_PER_SEC / 5,
        drain_timeout: Duration::from_secs(60),
        batch,
        // Fixed (not the host-derived default) so cells stay comparable
        // with the recorded ones.
        shards: 2,
        ..ServeConfig::new(GPUS)
    }
    .with_component_chaos(chaos)
    .with_restart_policy(Duration::from_millis(1), 10_000)
    .with_stall_grace(Duration::from_millis(10));
    if target.coordinator {
        // A fast coordinator pass (2 ms real) so its heartbeat is dense
        // enough for chaos to hit inside a bench-sized run.
        cfg = cfg.with_coordinator(NANOS_PER_SEC / 5, 30 * NANOS_PER_SEC);
    }
    cfg.max_conns = CONNS + 64;
    cfg
}

fn chaos_for(target: &Target, fault: Fault, seed: u64) -> ComponentChaos {
    match fault {
        // One beat in 3: the component keeps dying and keeps coming back,
        // doing real work between deaths.
        Fault::Panic => ComponentChaos::panics(target.prefix, 3, seed),
        // One beat in 3 freezes for 60 ms against a 10 ms stall grace.
        Fault::Stall => ComponentChaos::stalls(target.prefix, 3, 60, seed),
    }
}

/// Re-exec'd storm-client role (`ARLO_RESIL_ADDR` set): run the
/// closed-loop window storm and print one machine-readable line.
fn storm_child() {
    let addr: SocketAddr = std::env::var("ARLO_RESIL_ADDR")
        .expect("ARLO_RESIL_ADDR")
        .parse()
        .expect("resilience addr");
    let env_u64 = |key: &str, default: u64| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let mut cfg =
        StormConfig::new(env_u64("ARLO_RESIL_CONNS", CONNS as u64) as usize).with_window(WINDOW);
    cfg.threads = 2;
    cfg.submits_per_conn = env_u64("ARLO_RESIL_SUBMITS", 1) as u32;
    cfg.hold = Duration::from_millis(20);
    cfg.connect_timeout = Duration::from_secs(20);
    cfg.deadline = Duration::from_secs(env_u64("ARLO_RESIL_DEADLINE_S", 300));
    let started = Instant::now();
    let report = connection_storm(addr, &cfg).expect("connection storm");
    println!(
        "RESIL_RESULT connected={} refused={} connect_errors={} submitted={} ok={} \
         shed={} unserviceable={} draining={} failed={} lost={} conserved={} wall_ms={}",
        report.connected,
        report.refused,
        report.connect_errors,
        report.submitted,
        report.ok,
        report.shed,
        report.unserviceable,
        report.draining,
        report.failed,
        report.lost,
        u64::from(report.conserved()),
        started.elapsed().as_millis(),
    );
}

/// Drive one storm child against `addr` and parse its result line.
fn run_storm(addr: SocketAddr, submits_per_conn: u64) -> HashMap<String, u64> {
    let mut child = Command::new(std::env::current_exe().expect("current_exe"))
        .env("ARLO_RESIL_ADDR", addr.to_string())
        .env("ARLO_RESIL_CONNS", CONNS.to_string())
        .env("ARLO_RESIL_SUBMITS", submits_per_conn.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn storm child");
    let status = child.wait().expect("wait storm child");
    assert!(status.success(), "storm child failed: {status}");
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("child stdout")
        .read_to_string(&mut out)
        .expect("read child stdout");
    let line = out
        .lines()
        .find(|l| l.starts_with("RESIL_RESULT"))
        .unwrap_or_else(|| panic!("no RESIL_RESULT in child output:\n{out}"));
    line.split_whitespace()
        .skip(1)
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("k=v pair");
            (k.to_string(), v.parse().expect("numeric count"))
        })
        .collect()
}

/// Longest Panicked→Restarted gap (ms) over the answered pairs in the
/// event log. A trailing unanswered panic is normal — chaos keeps firing
/// and the snapshot can land mid-restart — so only completed cycles are
/// bounded; that at least one restart happened is asserted separately.
fn worst_recovery_ms(events: &[SupervisorEvent]) -> u64 {
    let mut worst: u64 = 0;
    let mut open: HashMap<&str, u64> = HashMap::new();
    for ev in events {
        match ev.kind {
            SupervisorEventKind::Panicked => {
                open.entry(ev.component.as_str()).or_insert(ev.at_ms);
            }
            SupervisorEventKind::Restarted { .. } => {
                if let Some(at) = open.remove(ev.component.as_str()) {
                    worst = worst.max(ev.at_ms.saturating_sub(at));
                }
            }
            _ => {}
        }
    }
    worst
}

struct Cell {
    component: &'static str,
    fault: &'static str,
    counts: HashMap<String, u64>,
    restarts: u64,
    stalls: u64,
    escalations: u64,
    events: usize,
    recovery_ms: u64,
    wall_s: f64,
}

/// One recovery cell: chaos against `target`, closed-loop v2 storm load,
/// conservation and recovery asserted.
fn run_recovery_cell(target: Target, fault: Fault, total: u64) -> Cell {
    let tag = format!("{}/{}", target.prefix, fault.name());
    let seed = 0xA510 ^ arlo_seed(&tag);
    let cfg = serve_config(target, chaos_for(&target, fault, seed));
    let server = if target.coordinator {
        Server::spawn_multi(
            vec![(
                arlo_serve::tenants::TenantSpec::new(
                    "bench",
                    arlo_serve::tenants::SloClass::Interactive,
                    SLO_MS,
                ),
                engine(),
            )],
            "127.0.0.1:0",
            cfg,
        )
        .expect("bind loopback")
    } else {
        Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback")
    };
    let addr = server.local_addr();
    let submits_per_conn = total / CONNS as u64;
    let started = Instant::now();
    let counts = run_storm(addr, submits_per_conn);
    let wall_s = started.elapsed().as_secs_f64();
    let g = |k: &str| counts[k];

    // Client-side conservation: every submit written reached exactly one
    // terminal outcome; zero loss even while the target kept faulting.
    assert_eq!(g("connect_errors"), 0, "{tag}: {counts:?}");
    assert_eq!(g("connected"), CONNS as u64, "{tag}: {counts:?}");
    assert_eq!(
        g("lost"),
        0,
        "{tag}: faults must never lose answers: {counts:?}"
    );
    assert_eq!(g("conserved"), 1, "{tag}: {counts:?}");
    assert_eq!(g("submitted"), submits_per_conn * CONNS as u64, "{tag}");

    // The fault actually landed, and was recorded structurally.
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.component.starts_with(target.prefix)),
        "{tag}: no supervisor event for the target: {events:?}"
    );
    let recovery_ms = match fault {
        Fault::Panic => {
            assert!(
                server.supervisor_restarts() >= 1,
                "{tag}: target never restarted"
            );
            let worst = worst_recovery_ms(&events);
            assert!(
                worst <= RECOVERY_BOUND_MS,
                "{tag}: recovery took {worst} ms (> {RECOVERY_BOUND_MS})"
            );
            worst
        }
        Fault::Stall => {
            assert!(
                server.stalls_detected() >= 1,
                "{tag}: frozen heartbeat never detected"
            );
            assert_eq!(
                server.supervisor_restarts(),
                0,
                "{tag}: stalls are detected, not preempted"
            );
            0
        }
    };

    // Server-side conservation: the drain flushes everything, restart
    // re-accounting included.
    let (restarts, stalls, escalations) = (
        server.supervisor_restarts(),
        server.stalls_detected(),
        server.escalations(),
    );
    assert_eq!(escalations, 0, "{tag}: recovery cell escalated");
    let n_events = events.len();
    let drain = server.drain();
    assert_eq!(drain.outstanding_at_close, 0, "{tag}: {drain:?}");
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "{tag}: server-side conservation: {drain:?}"
    );
    assert_eq!(drain.submits, g("submitted"), "{tag}: wire vs drain");

    Cell {
        component: target.prefix,
        fault: fault.name(),
        counts,
        restarts,
        stalls,
        escalations,
        events: n_events,
        recovery_ms,
        wall_s,
    }
}

/// One escalation cell: a fault the supervisor must *not* absorb — give
/// up, run the fail-fast drain, conserve, never wedge. No load: both
/// faults fire at start-up, and once the server drains nothing accepts.
fn run_escalation_cell(kind: &'static str) -> Cell {
    let tag = format!("{kind}/escalate");
    let seed = 0xE5CA ^ arlo_seed(&tag);
    let target = TARGETS[0]; // the flusher's config: a coalescing window on
    let chaos = match kind {
        // Every flusher beat panics, the first one before any wait; two
        // respawns also die instantly.
        "flusher-budget" => ComponentChaos::panics("flusher", 1, seed),
        // The acceptor is an Escalate component: first beat, straight to
        // the fail-fast drain.
        "accept" => ComponentChaos::panics("accept", 1, seed),
        _ => unreachable!("unknown escalation kind"),
    };
    let cfg = serve_config(target, chaos).with_restart_policy(Duration::from_millis(1), 2);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let started = Instant::now();

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.escalations() == 0 {
        assert!(Instant::now() < deadline, "{tag}: escalation never fired");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.is_escalated(), "{tag}");
    assert!(
        server.is_draining(),
        "{tag}: escalation must fail fast into drain"
    );
    let events = server.supervisor_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == SupervisorEventKind::Escalated),
        "{tag}: {events:?}"
    );
    let (restarts, stalls, escalations) = (
        server.supervisor_restarts(),
        server.stalls_detected(),
        server.escalations(),
    );
    let n_events = events.len();
    let wall_s = started.elapsed().as_secs_f64();
    // The non-negotiable: an escalated server still drains clean.
    let drain = server.drain();
    assert_eq!(
        drain.outstanding_at_close, 0,
        "{tag}: wedged drain: {drain:?}"
    );
    assert_eq!(
        drain.submits,
        drain.served + drain.shed + drain.unserviceable + drain.failed,
        "{tag}: {drain:?}"
    );
    assert!(drain.escalations >= 1, "{tag}: {drain:?}");

    Cell {
        component: kind,
        fault: "escalate",
        counts: HashMap::new(),
        restarts,
        stalls,
        escalations,
        events: n_events,
        recovery_ms: 0,
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
    if std::env::var_os("ARLO_RESIL_ADDR").is_some() {
        storm_child();
        return;
    }
    let total = if smoke() { SMOKE_TOTAL } else { FULL_TOTAL };
    println!(
        "ext_resilience: {total} requests/cell, scale {SCALE}, {CONNS} conns, window {WINDOW}{}",
        if smoke() { " [smoke]" } else { "" }
    );

    let mut cells = Vec::new();
    for target in TARGETS {
        for fault in [Fault::Panic, Fault::Stall] {
            cells.push(run_recovery_cell(target, fault, total));
        }
    }
    cells.push(run_escalation_cell("flusher-budget"));
    cells.push(run_escalation_cell("accept"));

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.component.to_string(),
                c.fault.to_string(),
                format!("{}", c.counts.get("ok").copied().unwrap_or(0)),
                format!("{}", c.counts.get("failed").copied().unwrap_or(0)),
                format!("{}", c.restarts),
                format!("{}", c.stalls),
                format!("{}", c.escalations),
                format!("{}", c.recovery_ms),
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
            "failed",
            "restarts",
            "stalls",
            "escalations",
            "worst rec ms",
            "wall s",
        ],
        &rows,
    );
    println!(
        "all {} cells conserved exactly (client and server side), zero lost",
        cells.len()
    );

    let json = serde_json::json!({
        "config": {
            "requests_per_cell": total,
            "time_scale": SCALE,
            "conns": CONNS,
            "window": WINDOW,
            "wire": "v2",
            "recovery_bound_ms": RECOVERY_BOUND_MS,
            "smoke": smoke(),
        },
        "cells": cells.iter().map(|c| serde_json::json!({
            "component": c.component,
            "fault": c.fault,
            "counts": serde_json::Value::Object(
                c.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
                    .collect(),
            ),
            "supervisor_restarts": c.restarts,
            "stalls_detected": c.stalls,
            "escalations": c.escalations,
            "supervisor_events": c.events,
            "worst_recovery_ms": c.recovery_ms,
            "wall_s": json_f64(c.wall_s),
        })).collect::<Vec<_>>(),
    });
    write_json("BENCH_resilience", &json);
}
