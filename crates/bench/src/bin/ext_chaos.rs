//! **Extension** — chaos benchmark: the serving stack under injected
//! network faults, with zero-loss accounting asserted in every cell.
//!
//! Two families of cells, written to `results/BENCH_chaos.json`:
//!
//! * **fault grid** — every [`FaultClass`] at each grid intensity, plus a
//!   quiet (intensity 0) baseline, replayed by retrying chaos clients
//!   whose fault plans cover both directions of each connection (the
//!   server reads corrupted frames and its answers are corrupted on the
//!   way back; its own sockets carry no injection). Each cell asserts
//!   the client-side conservation invariant (`ok + unserviceable +
//!   draining + exhausted == requests` — a request that vanished without a
//!   terminal state breaks the equality), the server-side drain equation
//!   (`submits == served + shed + unserviceable + failed`), and zero
//!   `unserviceable` verdicts: with a CRC32C trailer on every frame, a
//!   bit-flip can no longer forge a well-formed terminal refusal (the
//!   unchecksummed v1 dialect showed ~1.7% phantom-unserviceable verdicts
//!   at corrupt@0.75 before it was retired). The recorded columns show
//!   *degradation*, not loss: retries, reconnects, exhausted requests,
//!   corrupt resend signals, and the p98 inflation over the quiet
//!   baseline.
//! * **slow-client isolation** — the same healthy load twice, once with a
//!   bulk client that stops reading mid-response-storm. The stalled
//!   connection must be doomed (bounded outbound queue / write timeout)
//!   and the healthy connections' p98 must stay within 2× of the
//!   stall-free run.
//!
//! `EXT_CHAOS_SMOKE=1` shrinks the grid and trace for CI: two classes,
//! one intensity, a short trace — same invariants, small wall clock.

use arlo_bench::{json_f64, print_table, write_json};
use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::chaos::{ChaosConfig, FaultClass};
use arlo_serve::loadgen::{chaos_replay, replay, ChaosReplayConfig, LoadGenConfig};
use arlo_serve::protocol::{Frame, DEFAULT_TENANT};
use arlo_serve::server::{ServeConfig, Server, Snapshot, TenantStats};
use arlo_trace::workload::{Trace, TraceSpec};
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 8;
const SCALE: u32 = 100;
const CLIENTS: usize = 3;
const CHAOS_SEED: u64 = 1234;
/// Healthy-latency envelope while one connection stalls (same bound as
/// the regression test).
const ISOLATION_TOL: f64 = 2.0;

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
        tick_interval: NANOS_PER_SEC / 5,
        drain_timeout: Duration::from_secs(30),
        batch: BatchPolicy::greedy(BatchSpec::SINGLE),
        ..ServeConfig::new(GPUS)
    }
}

struct GridCell {
    label: String,
    class: FaultClass,
    intensity: f64,
    report: arlo_serve::loadgen::ChaosReport,
    drain: Snapshot,
}

/// One grid cell: spawn a fresh server, replay `trace` through retrying
/// chaos clients under `(class, intensity)`, assert both conservation
/// equations and that corruption never forged an `Unserviceable` verdict
/// through the checksum, return the measurements.
fn run_grid_cell(trace: &Trace, class: FaultClass, intensity: f64) -> GridCell {
    let server = Server::spawn(engine(), "127.0.0.1:0", config()).expect("bind loopback");
    let mut cfg = ChaosReplayConfig::new(CLIENTS, ChaosConfig::new(class, intensity, CHAOS_SEED));
    cfg.max_attempts = 8;
    cfg.attempt_timeout = Duration::from_millis(400);
    cfg.backoff_base = Duration::from_millis(1);
    let report = chaos_replay(server.local_addr(), trace, &cfg).expect("chaos replay");
    let drain = server.drain();

    let cell = format!("{}@{intensity}", class.name());
    assert!(
        report.conserved(),
        "{cell}: client conservation violated: {report:?}"
    );
    assert!(report.ok > 0, "{cell}: every request died: {report:?}");
    assert_eq!(
        drain.total(|t| t.submits),
        drain.total(TenantStats::accounted),
        "{cell}: server conservation violated: {drain:?}"
    );
    assert_eq!(
        drain.total(|t| t.outstanding),
        0,
        "{cell}: drain left work behind: {drain:?}"
    );
    assert_eq!(
        report.unserviceable, 0,
        "{cell}: corruption forged an Unserviceable verdict through the checksum: {report:?}"
    );
    GridCell {
        label: cell,
        class,
        intensity,
        report,
        drain,
    }
}

/// The healthy mix with (`stall` = true) or without a bulk client that
/// stops reading mid-stream. Mirrors the regression test's design: the
/// bulk requests are unserviceable (answered at placement, no executor
/// occupancy), their 21-byte error-frame backlog exceeds what
/// the kernel absorbs for a never-reading peer (~200k frames), and the
/// healthy load sits below saturation so its p98 measures transport
/// leakage, not queueing behind the flood.
fn run_isolation(stall: bool) -> (arlo_serve::loadgen::LoadGenReport, Snapshot, u64) {
    const BULK: u64 = 400_000;
    let mut cfg = config();
    cfg.outbound_queue = 16 * 1024;
    cfg.write_timeout = Duration::from_millis(150);
    let server = Server::spawn(engine(), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    let bulk = std::thread::spawn(move || {
        let conn = TcpStream::connect(addr).expect("connect");
        let _ = conn.set_nodelay(true);
        let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
        // Well-behaved twin: raw discard reads, concurrent with the burst.
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
                    break 'burst;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if stall {
            std::thread::sleep(Duration::from_secs(2));
        }
        if let Some(reader) = reader {
            reader.join().expect("bulk reader panicked");
        }
    });

    let mut rng = StdRng::seed_from_u64(11);
    let trace = TraceSpec::twitter_stable(250.0, 6.0).generate(&mut rng);
    let report = replay(addr, &trace, &LoadGenConfig::open(2, SCALE)).expect("replay");
    bulk.join().expect("bulk client panicked");

    let slow = server.snapshot().slow_disconnects;
    let drain = server.drain();
    (report, drain, slow)
}

fn main() {
    let smoke = std::env::var("EXT_CHAOS_SMOKE").is_ok_and(|v| v == "1");
    let (classes, intensities, spec): (&[FaultClass], &[f64], TraceSpec) = if smoke {
        (
            &[FaultClass::Corrupt, FaultClass::Reset],
            &[0.5],
            TraceSpec::twitter_stable(150.0, 2.0),
        )
    } else {
        (
            &FaultClass::ALL,
            &[0.25, 0.75],
            TraceSpec::twitter_stable(250.0, 8.0),
        )
    };
    let trace = spec.generate(&mut StdRng::seed_from_u64(4242));

    // Quiet baseline first: the degradation reference. Intensity 0 means
    // the chaos machinery is live (same client, same retry budget) but
    // never fires.
    let baseline = run_grid_cell(&trace, FaultClass::Delay, 0.0);
    let base_p98 = baseline.report.latency_summary().p98.max(1.0);

    let mut cells = vec![baseline];
    for &class in classes {
        for &intensity in intensities {
            cells.push(run_grid_cell(&trace, class, intensity));
        }
    }

    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    for cell in &cells {
        let s = cell.report.latency_summary();
        let p98_x = s.p98 / base_p98;
        rows.push(vec![
            cell.label.clone(),
            format!("{}", cell.report.requests),
            format!("{}", cell.report.ok),
            format!("{}", cell.report.unserviceable),
            format!("{}", cell.report.exhausted),
            format!("{}", cell.report.retries),
            format!("{}", cell.report.corrupt_signals),
            format!("{}", cell.drain.protocol_disconnects),
            format!("{:.2}", s.p98),
            format!("{p98_x:.2}x"),
        ]);
        json_cells.push(serde_json::json!({
            "class": cell.class.name(),
            "intensity": json_f64(cell.intensity),
            "requests": cell.report.requests,
            "ok": cell.report.ok,
            "unserviceable": cell.report.unserviceable,
            "draining": cell.report.draining,
            "exhausted": cell.report.exhausted,
            "retries": cell.report.retries,
            "connects": cell.report.connects,
            "corrupt_signals": cell.report.corrupt_signals,
            "conserved": cell.report.conserved(),
            "latency_mean_ms": json_f64(s.mean),
            "latency_p50_ms": json_f64(s.p50),
            "latency_p98_ms": json_f64(s.p98),
            "latency_p99_ms": json_f64(s.p99),
            "p98_over_baseline": json_f64(p98_x),
            "server": {
                "submits": cell.drain.total(|t| t.submits),
                "served": cell.drain.total(|t| t.served),
                "shed": cell.drain.total(|t| t.shed),
                "unserviceable": cell.drain.total(|t| t.unserviceable),
                "failed": cell.drain.total(|t| t.failed),
                "protocol_disconnects": cell.drain.protocol_disconnects,
                "slow_disconnects": cell.drain.slow_disconnects,
                "corrupt_frames": cell.drain.corrupt_frames,
                // The committed schema's name for the drain's `outstanding`.
                "outstanding_at_close": cell.drain.total(|t| t.outstanding),
            },
            "wall_secs": json_f64(cell.report.wall.as_secs_f64()),
        }));
    }
    print_table(
        "fault grid: retrying clients, conservation asserted per cell",
        &[
            "cell",
            "requests",
            "ok",
            "unserv",
            "exhausted",
            "retries",
            "corrupt-sig",
            "proto-dc",
            "p98",
            "p98/base",
        ],
        &rows,
    );

    // Slow-client isolation: healthy latency with and without one stalled
    // bulk connection. Three runs per variant, median p98: one run's p98
    // is ~100 µs of real queueing at this time scale — scheduling noise —
    // and the 2× bound is on the systematic effect, not the jitter.
    let mut base_runs = Vec::new();
    let mut stall_runs = Vec::new();
    for _ in 0..3 {
        base_runs.push(run_isolation(false));
        stall_runs.push(run_isolation(true));
    }
    let median_p98 = |runs: &[(arlo_serve::loadgen::LoadGenReport, Snapshot, u64)]| {
        let mut p98s: Vec<f64> = runs
            .iter()
            .map(|(r, _, _)| r.latency_summary().p98)
            .collect();
        p98s.sort_by(f64::total_cmp);
        p98s[p98s.len() / 2]
    };
    let healthy_base_p98 = median_p98(&base_runs).max(1.0);
    let healthy_stall_p98 = median_p98(&stall_runs);
    for (report, drain, _) in &base_runs {
        assert_eq!(report.lost, 0, "isolation baseline lost answers");
        assert_eq!(
            drain.slow_disconnects, 0,
            "isolation baseline doomed a reading client"
        );
    }
    for (report, drain, slow) in &stall_runs {
        assert_eq!(report.lost, 0, "healthy clients lost answers");
        assert!(
            *slow >= 1,
            "stalled client was never disconnected: {drain:?}"
        );
    }
    let (iso_base, iso_base_drain, _) = base_runs.swap_remove(0);
    let (iso_stall, iso_stall_drain, slow_disconnects) = stall_runs.swap_remove(0);
    print_table(
        "slow-client isolation: healthy p98 with one stalled connection",
        &["cell", "ok", "p98", "slow-dc"],
        &[
            vec![
                "no-stall".into(),
                format!("{}", iso_base.ok),
                format!("{healthy_base_p98:.2}"),
                format!("{}", iso_base_drain.slow_disconnects),
            ],
            vec![
                "stall".into(),
                format!("{}", iso_stall.ok),
                format!("{healthy_stall_p98:.2}"),
                format!("{}", iso_stall_drain.slow_disconnects),
            ],
        ],
    );
    assert!(
        healthy_stall_p98 <= ISOLATION_TOL * healthy_base_p98,
        "stall leaked into healthy latencies: median p98 {healthy_stall_p98:.2} ms \
         vs baseline {healthy_base_p98:.2} ms"
    );

    write_json(
        "BENCH_chaos",
        &serde_json::json!({
            "smoke": smoke,
            "slo_ms": SLO_MS,
            "gpus": GPUS,
            "time_scale": SCALE,
            "clients": CLIENTS,
            "chaos_seed": CHAOS_SEED,
            "trace_requests": trace.len(),
            "grid": json_cells,
            "isolation": {
                "tolerance": ISOLATION_TOL,
                "baseline_p98_ms": json_f64(healthy_base_p98),
                "stall_p98_ms": json_f64(healthy_stall_p98),
                "p98_over_baseline": json_f64(healthy_stall_p98 / healthy_base_p98),
                "baseline_ok": iso_base.ok,
                "stall_ok": iso_stall.ok,
                "slow_disconnects": slow_disconnects,
                "baseline_lost": iso_base.lost,
                "stall_lost": iso_stall.lost,
            },
        }),
    );
}
