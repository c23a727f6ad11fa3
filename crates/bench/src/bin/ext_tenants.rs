//! **Extension** — multi-tenant serving benchmark: per-tenant engines,
//! SLO-class admission, and the live GPU re-granting coordinator. Two
//! experiments sharing one tenant set (`interactive` / `standard` /
//! `batch`):
//!
//! * **admission (static partition)** — a [`Server::spawn_multi_static`]
//!   deployment pins 3 GPUs per tenant, and every tenant offers the same
//!   too-hot trace (one seed, identical arrivals). With symmetric
//!   engines and pinned grants, the admission tier is the only
//!   difference between the cells, so the sheds must order strictly by
//!   class (interactive < standard < batch) and the interactive tenant
//!   must land a measurably larger fraction of its offered load than
//!   batch. (The gate also keeps the *admitted* batch work fresh — its
//!   queue is half the interactive tenant's — so within-SLO attainment
//!   of the survivors is reported, not asserted; goodput fraction is the
//!   class signal.)
//! * **shifting mix (live coordinator)** — a [`Server::spawn_multi`]
//!   deployment runs an interactive-heavy phase and then a batch-heavy
//!   phase; grant vectors are sampled every few milliseconds while the
//!   load is in flight, and the coordinator must be *seen* moving the
//!   pool toward whichever tenant is hot. Every logged re-grant must
//!   conserve the pool exactly, and at least one must move a GPU.
//!
//! Each (phase × tenant) cell replays its own trace through a dedicated
//! loadgen pinned to that tenant (a single-slot `--tenant-mix`), so the
//! client-side conservation law (`accounted == sent`, `lost == 0`) holds
//! *per tenant per phase*, and each server's per-tenant drain rows must
//! equal the summed client sends exactly. Results — per-cell outcomes,
//! grant snapshots, and the full re-grant timeline — go to
//! `results/BENCH_tenants.json`.
//!
//! All three tenants share one SLO target so the class gates are the
//! only asymmetry: with distinct per-tenant SLOs the pool partition
//! grants the looser-SLO stream more GPUs under equal demand (its cost
//! curve is cheaper to buy down), which confounds the admission-order
//! comparison. Distinct-SLO tenants are exercised end-to-end in
//! `crates/serve/tests/tenants_e2e.rs`.
//!
//! `EXT_TENANTS_SMOKE=1` shrinks the phase length for CI; the structure
//! and the assertions are unchanged.

use arlo_bench::{json_f64, print_table, write_json};
use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::loadgen::{replay, LoadGenConfig, LoadGenReport};
use arlo_serve::server::{ServeConfig, Server, Snapshot, TenantStats};
use arlo_serve::tenants::{RegrantEvent, SloClass, TenantSpec};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GPUS: u32 = 9;
/// Time scale for the shifting-mix experiment: fast enough that two
/// phases and a dozen coordinator passes fit in a fraction of a second.
const SHIFT_SCALE: u32 = 100;
/// Time scale for the admission experiment. Deliberately lower: a real
/// scheduling stall of `t` costs `t × scale` of virtual service, and the
/// admission assertions compare shed counts whose margins are the gaps
/// between the class gates — less amplification keeps the gaps legible
/// on a loaded box.
const ADMIT_SCALE: u32 = 20;
const CLIENTS: usize = 2;
const SLO_MS: f64 = 250.0;

/// The three tenants: name and admission tier.
const TENANTS: [(&str, SloClass); 3] = [
    ("interactive", SloClass::Interactive),
    ("standard", SloClass::Standard),
    ("batch", SloClass::Batch),
];

/// Every tenant offers the same too-hot trace in the admission
/// experiment.
const OVERLOAD_RPS: f64 = 900.0;

/// Offered load per tenant (requests/s) in the shifting-mix experiment.
/// The hot tenant's minimum-GPU need stays inside the pool: demand that
/// only fits after infeasibility backoff sits on a solver knife-edge
/// where the grant can flip away from the hot tenant.
const SHIFT_PHASES: [(&str, [f64; 3]); 2] = [
    ("interactive-heavy", [550.0, 200.0, 80.0]),
    ("batch-heavy", [80.0, 200.0, 700.0]),
];

/// An engine seeded with `gpus` instances on the largest runtime — always
/// a valid deployment, and a seed the coordinator is free to reshape.
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

fn tenants() -> Vec<(TenantSpec, ArloEngine)> {
    TENANTS
        .iter()
        .map(|&(name, class)| {
            (
                TenantSpec::new(name, class, SLO_MS),
                engine(GPUS / TENANTS.len() as u32),
            )
        })
        .collect()
}

fn config(time_scale: u32) -> ServeConfig {
    ServeConfig {
        time_scale,
        // Small enough that the overload phase drives outstanding work
        // through the class gates (standard refuses at 1536 outstanding,
        // batch at 1024; interactive is ungated); the 512-request gap
        // between tiers is the assertion margin.
        queue_capacity: 2048,
        // The overload phase answers in bursts (gate refusals are
        // synchronous); don't let a momentary client-reader stall trip
        // the slow-client doom on a loaded CI box.
        outbound_queue: 16 * 1024,
        drain_timeout: std::time::Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(GPUS)
    }
    // Re-partition every virtual second from a three-second demand window:
    // short enough that each phase's mix purges the previous phase's
    // arrivals well before the phase ends, long enough to smooth the
    // arrival jitter. (The static-partition server ignores the interval —
    // it spawns no coordinator.)
    .with_coordinator(NANOS_PER_SEC, 3 * NANOS_PER_SEC)
}

/// A loadgen mix that pins every request to tenant `idx`.
fn pinned_mix(idx: usize) -> Vec<u32> {
    let mut weights = vec![0u32; TENANTS.len()];
    weights[idx] = 1;
    weights
}

struct Cell {
    tenant: &'static str,
    report: LoadGenReport,
}

impl Cell {
    /// Fraction of *offered* requests answered OK within the SLO — a shed
    /// or late answer is a miss against the denominator.
    fn attainment(&self) -> f64 {
        let within = self
            .report
            .latencies_ms
            .iter()
            .filter(|&&l| l <= SLO_MS)
            .count() as f64;
        within / self.report.sent.max(1) as f64
    }

    fn ok_frac(&self) -> f64 {
        self.report.ok as f64 / self.report.sent.max(1) as f64
    }
}

struct Phase {
    name: &'static str,
    rates: [f64; 3],
    cells: Vec<Cell>,
    /// Grant vectors sampled every few milliseconds while the phase's
    /// replays were in flight. Assertions about "GPUs followed the load"
    /// quantify over these live samples: a single end-of-phase snapshot
    /// can land after the demand window has drained (replay teardown on a
    /// slow run), where a zero-demand pass re-grants on a cost tie.
    grant_samples: Vec<Vec<u32>>,
}

impl Phase {
    fn grants_after(&self) -> &[u32] {
        self.grant_samples.last().expect("sampled at least once")
    }

    /// Did any live sample satisfy `pred`?
    fn saw(&self, pred: impl Fn(&[u32]) -> bool) -> bool {
        self.grant_samples.iter().any(|g| pred(g))
    }
}

/// Run one phase: three concurrent pinned replays against `server`, each
/// tenant at its phase rate, with grants sampled throughout.
fn run_phase(
    server: &Server,
    time_scale: u32,
    name: &'static str,
    rates: [f64; 3],
    secs: f64,
    seed: u64,
) -> Phase {
    let addr = server.local_addr();
    let traces: Vec<_> = rates
        .iter()
        .map(|&rate| {
            // One seed per phase, shared by all tenants: at equal rates
            // the traces are *identical*, so the class gates are the only
            // difference between tenants.
            let mut rng = StdRng::seed_from_u64(seed);
            TraceSpec::twitter_stable(rate, secs).generate(&mut rng)
        })
        .collect();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (reports, grant_samples): (Vec<LoadGenReport>, Vec<Vec<u32>>) =
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut samples = Vec::new();
                loop {
                    samples.push(
                        server
                            .snapshot()
                            .tenants
                            .iter()
                            .map(|t| t.granted_gpus)
                            .collect::<Vec<u32>>(),
                    );
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return samples;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            });
            let handles: Vec<_> = traces
                .iter()
                .enumerate()
                .map(|(i, trace)| {
                    scope.spawn(move || {
                        let cfg =
                            LoadGenConfig::open(CLIENTS, time_scale).with_tenants(pinned_mix(i));
                        replay(addr, trace, &cfg).expect("replay")
                    })
                })
                .collect();
            // Collect every join before unwrapping: propagating a replay
            // panic with `stop` unset would leave the sampler spinning and
            // the scope joining it forever.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let samples = sampler.join().expect("sampler panicked");
            let reports = joined
                .into_iter()
                .map(|r| r.expect("loadgen panicked"))
                .collect();
            (reports, samples)
        });
    let cells: Vec<Cell> = reports
        .into_iter()
        .zip(TENANTS.iter())
        .zip(traces.iter())
        .map(|((report, &(tenant, _)), trace)| {
            assert_eq!(
                report.sent,
                trace.len() as u64,
                "{name}/{tenant}: loadgen under-sent"
            );
            assert_eq!(
                report.lost, 0,
                "{name}/{tenant}: unanswered requests: {report:?}"
            );
            assert_eq!(
                report.accounted(),
                report.sent,
                "{name}/{tenant}: client conservation violated: {report:?}"
            );
            assert_eq!(
                report.unknown_tenant, 0,
                "{name}/{tenant}: pinned mix hit an unregistered tenant"
            );
            Cell { tenant, report }
        })
        .collect();
    Phase {
        name,
        rates,
        cells,
        grant_samples,
    }
}

fn tenant_index(name: &str) -> usize {
    TENANTS
        .iter()
        .position(|&(n, _)| n == name)
        .expect("known tenant")
}

/// Server-side conservation for one drained server whose tenants saw
/// exactly the given per-tenant client sends.
fn assert_server_conserved(drain: &Snapshot, offered: &[u64]) {
    assert_eq!(drain.total(|t| t.outstanding), 0, "drain left work");
    assert_eq!(drain.unknown_tenants, 0);
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
        "global conservation violated: {drain:?}"
    );
    for (t, &sent) in drain.tenants.iter().zip(offered) {
        assert_eq!(
            t.submits,
            t.accounted(),
            "tenant {} leaks requests: {t:?}",
            t.name
        );
        assert_eq!(
            t.submits, sent,
            "tenant {} saw {} submits for {} client sends",
            t.name, t.submits, sent
        );
    }
}

fn drain_json(drain: &Snapshot) -> serde_json::Value {
    serde_json::json!({
        "submits": drain.total(|t| t.submits),
        "served": drain.total(|t| t.served),
        "shed": drain.total(|t| t.shed),
        "unserviceable": drain.total(|t| t.unserviceable),
        "failed": drain.total(|t| t.failed),
        "unknown_tenants": drain.unknown_tenants,
        "tenants": drain.tenants.iter().map(|t| serde_json::json!({
            "name": t.name,
            "class": t.class.name(),
            "submits": t.submits,
            "served": t.served,
            "shed": t.shed,
            "granted_gpus": t.granted_gpus,
            "generation": t.generation,
        })).collect::<Vec<_>>(),
    })
}

fn phase_json(phase: &Phase) -> serde_json::Value {
    serde_json::json!({
        "name": phase.name,
        "rates_rps": phase.rates.to_vec(),
        "grants_after": phase.grants_after(),
        "cells": phase.cells.iter().map(|c| {
            let s = c.report.latency_summary();
            serde_json::json!({
                "tenant": c.tenant,
                "sent": c.report.sent,
                "ok": c.report.ok,
                "shed": c.report.shed,
                "unserviceable": c.report.unserviceable,
                "draining": c.report.draining,
                "failed": c.report.failed,
                "lost": c.report.lost,
                "attainment": json_f64(c.attainment()),
                "ok_frac": json_f64(c.ok_frac()),
                "latency_p50_ms": json_f64(s.p50),
                "latency_p98_ms": json_f64(s.p98),
            })
        }).collect::<Vec<_>>(),
    })
}

fn table_rows(rows: &mut Vec<Vec<String>>, phase: &Phase) {
    for (i, cell) in phase.cells.iter().enumerate() {
        let s = cell.report.latency_summary();
        rows.push(vec![
            format!("{}/{}", phase.name, cell.tenant),
            format!("{:.0}", phase.rates[i]),
            format!("{}", cell.report.sent),
            format!("{}", cell.report.ok),
            format!("{}", cell.report.shed),
            format!("{:.3}", cell.attainment()),
            format!("{:.2}", s.p98),
            format!("{}", phase.grants_after()[i]),
        ]);
    }
}

fn run_experiments(admit_secs: f64, shift_secs: f64) -> serde_json::Value {
    let (interactive, standard, batch) = (
        tenant_index("interactive"),
        tenant_index("standard"),
        tenant_index("batch"),
    );

    // --- experiment 1: SLO-class admission at a static partition -----------
    let server = Server::spawn_multi_static(tenants(), "127.0.0.1:0", config(ADMIT_SCALE))
        .expect("bind loopback");
    let overload = run_phase(
        &server,
        ADMIT_SCALE,
        "overload",
        [OVERLOAD_RPS; 3],
        admit_secs,
        0xA110,
    );
    let admission_drain = server.drain();

    let even = GPUS / TENANTS.len() as u32;
    assert!(
        overload
            .grant_samples
            .iter()
            .all(|g| g.iter().all(|&x| x == even)),
        "static partition drifted: {:?}",
        overload.grant_samples
    );
    let shed = |i: usize| overload.cells[i].report.shed;
    // Identical traces, identical engines, pinned symmetric grants: the
    // only difference between the three overload cells is the admission
    // tier, so the sheds must order strictly by class.
    assert!(
        shed(interactive) < shed(standard) && shed(standard) < shed(batch),
        "overload sheds out of class order: {:?}",
        [shed(interactive), shed(standard), shed(batch)]
    );
    assert!(
        overload.cells[interactive].ok_frac() > overload.cells[batch].ok_frac(),
        "interactive landed no more of its offered load than batch: {:.3} vs {:.3}",
        overload.cells[interactive].ok_frac(),
        overload.cells[batch].ok_frac()
    );
    let offered: Vec<u64> = overload.cells.iter().map(|c| c.report.sent).collect();
    assert_server_conserved(&admission_drain, &offered);

    // --- experiment 2: the live coordinator chases a shifting mix ----------
    let server =
        Server::spawn_multi(tenants(), "127.0.0.1:0", config(SHIFT_SCALE)).expect("bind loopback");
    let mut shift_phases = Vec::new();
    for (i, &(name, rates)) in SHIFT_PHASES.iter().enumerate() {
        shift_phases.push(run_phase(
            &server,
            SHIFT_SCALE,
            name,
            rates,
            shift_secs,
            0xA111 + i as u64,
        ));
    }
    let regrants: Vec<RegrantEvent> = server.snapshot().regrants;
    let shifting_drain = server.drain();

    assert!(!regrants.is_empty(), "coordinator never re-granted");
    for ev in &regrants {
        assert_eq!(
            ev.gpus_after.iter().sum::<u32>(),
            GPUS,
            "re-grant leaked GPUs: {ev:?}"
        );
    }
    assert!(
        regrants.iter().any(|ev| ev.moved_gpus >= 1),
        "every re-grant was a no-op reshape"
    );
    assert!(
        shift_phases[0].saw(|g| g[interactive] > g[batch]),
        "GPUs never followed the interactive-heavy mix: {:?}",
        shift_phases[0].grant_samples
    );
    assert!(
        shift_phases[1].saw(|g| g[batch] > g[interactive]),
        "GPUs never followed the batch-heavy mix: {:?}",
        shift_phases[1].grant_samples
    );
    let offered: Vec<u64> = (0..TENANTS.len())
        .map(|i| shift_phases.iter().map(|p| p.cells[i].report.sent).sum())
        .collect();
    assert_server_conserved(&shifting_drain, &offered);

    // --- report ------------------------------------------------------------
    let mut rows = Vec::new();
    table_rows(&mut rows, &overload);
    for phase in &shift_phases {
        table_rows(&mut rows, phase);
    }
    print_table(
        "admission (static grants) + shifting mix (live coordinator)",
        &[
            "phase/tenant",
            "rate",
            "sent",
            "ok",
            "shed",
            "attain",
            "p98",
            "gpus",
        ],
        &rows,
    );
    println!(
        "  {} re-grants, {} moved at least one GPU\n",
        regrants.len(),
        regrants.iter().filter(|ev| ev.moved_gpus >= 1).count()
    );
    let timeline: Vec<_> = regrants
        .iter()
        .map(|ev| {
            serde_json::json!({
                "at_virtual_s": json_f64(ev.at as f64 / NANOS_PER_SEC as f64),
                "gpus_before": ev.gpus_before,
                "gpus_after": ev.gpus_after,
                "moved_gpus": ev.moved_gpus,
                "total_cost": json_f64(ev.total_cost),
            })
        })
        .collect();

    serde_json::json!({
        "admission": {
            "phase": phase_json(&overload),
            "server": drain_json(&admission_drain),
        },
        "shifting": {
            "phases": shift_phases.iter().map(phase_json).collect::<Vec<_>>(),
            "regrants": timeline,
            "server": drain_json(&shifting_drain),
        },
    })
}

fn main() {
    let smoke = std::env::var("EXT_TENANTS_SMOKE").is_ok_and(|v| v == "1");
    // Smoke mode only shortens the shifting phases: the admission phase is
    // already brief in wall time (ADMIT_SCALE is low), and it needs the
    // full eight virtual seconds for the overload excess to pile past the
    // deepest class gate — a shorter phase sheds nothing anywhere and the
    // ordering assertion has no signal.
    let admit_secs = 8.0;
    let shift_secs = if smoke { 4.0 } else { 8.0 };
    let experiments = run_experiments(admit_secs, shift_secs);
    write_json(
        "BENCH_tenants",
        &serde_json::json!({
            "smoke": smoke,
            "gpus": GPUS,
            "admit_time_scale": ADMIT_SCALE,
            "shift_time_scale": SHIFT_SCALE,
            "clients_per_tenant": CLIENTS,
            "admit_phase_secs": json_f64(admit_secs),
            "shift_phase_secs": json_f64(shift_secs),
            "slo_ms": json_f64(SLO_MS),
            "overload_rps": json_f64(OVERLOAD_RPS),
            "tenants": TENANTS.iter().map(|&(n, c)| serde_json::json!({
                "name": n, "class": c.name(),
            })).collect::<Vec<_>>(),
            "shift_phases": SHIFT_PHASES.iter().map(|&(n, r)| serde_json::json!({
                "name": n, "rates_rps": r.to_vec(),
            })).collect::<Vec<_>>(),
            "experiments": experiments,
        }),
    );
}
