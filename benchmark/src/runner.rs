//! Runs one workload — untraced (end-to-end metrics over fresh-server
//! repetitions) or traced (a shorter live phase plus the layer walk, the
//! probes and the span file) — and folds the repetitions into a
//! [`WorkloadResult`].

use crate::child::server_binary;
use crate::live::{self, LiveRep, RepError};
use crate::micro;
use crate::report::{Series, WorkloadResult, E2E};
use crate::schedule::{self, Req};
use crate::sim::{self, SimRep};
use crate::stats::median;
use crate::walk;
use crate::workloads::{LiveWorkload, Load, SimWorkload, Workload, CONNS, REPS, SIM_REPS};
use serde_json::{json, Value};
use std::time::Instant;

/// Live repetitions of a traced run: enough for the `server.*` and
/// `loadgen.*` observations, short enough to leave room for the walk.
const TRACED_REPS: usize = 2;

/// Repetitions one run may repeat because the server hung up on the
/// generator before the run is given up.
const MAX_DISRUPTIONS: u64 = 3;

/// Decorated/plain child pairs of a traced simulator run.
const TRACED_SIM_PAIRS: usize = 3;

/// Seconds of the workload's stream the walk and the executor probe
/// replay.
const WALK_SECS: f64 = 1.0;

/// Rate the closed loop's stream is laid out at for the walk (its live
/// arrival times depend on the answers; the walk needs fixed ones).
const CLOSED_WALK_RPS: f64 = 300_000.0;

/// How a run is shaped.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run, split evenly over the repetitions.
    pub seconds: f64,
    /// Live repetitions ([`REPS`], or 1 for `--smoke`).
    pub reps: usize,
    /// Simulator repetitions ([`SIM_REPS`], or 1 for `--smoke`).
    pub sim_reps: usize,
    /// Warm-up before each live repetition's measured window.
    pub warm_s: f64,
    /// Where span files go.
    pub out_dir: String,
}

impl RunConfig {
    /// The standard shape: [`REPS`] repetitions with a 1 s warm-up.
    pub fn standard(seed: u64, seconds: f64) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            reps: REPS,
            sim_reps: SIM_REPS,
            warm_s: 1.0,
            out_dir: "benchmark/out".into(),
        }
    }

    /// `--smoke`: one repetition of one second, every check still on.
    pub fn smoke(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 1.0,
            reps: 1,
            sim_reps: 1,
            warm_s: 0.3,
            out_dir: "benchmark/out".into(),
        }
    }
}

/// The pinned constants of a workload, as stored in result files.
pub fn pinned(workload: &Workload, cfg: &RunConfig) -> Value {
    match workload {
        Workload::Live(w) => {
            let load = match w.load {
                Load::Open {
                    rate_rps,
                    frame_subs,
                } => {
                    json!({"loop": "open", "rate_rps": rate_rps, "requests_per_frame": frame_subs as u64})
                }
                Load::Closed { window } => {
                    json!({"loop": "closed", "window_per_connection": window as u64})
                }
            };
            json!({
                "load": load,
                "connections": CONNS as u64,
                "tenant_mix": w.tenant_mix.iter().map(|&x| u64::from(x)).collect::<Vec<u64>>(),
                "server_flags": w.server_args("<addr>").join(" "),
                "rtt_limit_us": w.rtt_limit_us,
                "repetitions": cfg.reps as u64,
                "warm_up_s": cfg.warm_s,
                "measured_s_per_repetition": cfg.seconds / cfg.reps as f64,
                "seed": cfg.seed,
            })
        }
        Workload::Sim(w) => json!({
            "system": "SystemSpec::arlo(bert_base)",
            "gpus": w.gpus,
            "slo_ms": crate::workloads::SLO_MS,
            "trace": "TraceSpec::twitter_bursty",
            "rate_rps": w.rate_rps,
            "requests_per_repetition": (w.rate_rps * sim_virtual_secs(w, cfg)) as u64,
            "repetitions": cfg.sim_reps as u64,
            "seed": cfg.seed,
        }),
    }
}

fn sim_virtual_secs(w: &SimWorkload, cfg: &RunConfig) -> f64 {
    w.virtual_secs_per_wall_sec * cfg.seconds / cfg.sim_reps as f64
}

/// Run `workload` once. A failed output check comes back as `Err`.
pub fn run_workload(
    workload: &Workload,
    cfg: &RunConfig,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut result = match (workload, traced) {
        (Workload::Live(w), false) => live_untraced(w, cfg)?,
        (Workload::Live(w), true) => live_traced(w, cfg, started)?,
        (Workload::Sim(w), false) => sim_untraced(w, cfg)?,
        (Workload::Sim(w), true) => sim_traced(w, cfg)?,
    };
    result.wall_s = started.elapsed().as_secs_f64();
    Ok(result)
}

fn live_result(w: &LiveWorkload, reps: &[LiveRep]) -> WorkloadResult {
    let column = |name: &str| -> Vec<f64> {
        reps.iter()
            .map(|r| match name {
                "setup_s" => r.setup_s,
                "rtt_p50_us" => r.rtt_p50_us,
                "rtt_p99_us" => r.rtt_p99_us,
                "goodput_rps" | "throughput_rps" => r.goodput_rps,
                "cpu_us_per_req" => r.cpu_us_per_req,
                "peak_rss_mb" => r.peak_rss_mb,
                "failed_share" => r.failed_share,
                other => unreachable!("{other} is not a live metric"),
            })
            .collect()
    };
    WorkloadResult {
        name: w.name,
        e2e: E2E
            .iter()
            .filter(|m| m.applies_to(w.name))
            .map(|m| Series {
                metric: m,
                reps: column(m.name),
            })
            .collect(),
        attempted: reps.iter().map(|r| r.sent).sum(),
        failed: reps.iter().map(|r| r.sent - r.ok).sum(),
        samples: reps.iter().map(|r| r.samples).collect(),
        steal_pct: reps.iter().map(|r| r.steal_pct).collect(),
        host_kernel_ms: reps.iter().map(|r| r.host_kernel_ms).collect(),
        valid: reps.iter().map(|r| r.valid).collect(),
        ..WorkloadResult::default()
    }
}

/// Run `count` live repetitions. A repetition the server hung up on is
/// repeated (same schedule), up to [`MAX_DISRUPTIONS`] times per run, and
/// each such event is reported on stderr and counted in the result; any
/// failed output check ends the run at once.
fn live_reps(
    w: &LiveWorkload,
    cfg: &RunConfig,
    count: usize,
    observe_server: bool,
) -> Result<(Vec<LiveRep>, u64), String> {
    let binary = server_binary()?;
    let measure_s = cfg.seconds / cfg.reps as f64;
    let mut reps = Vec::with_capacity(count);
    let mut disruptions = 0;
    while reps.len() < count {
        let rep = reps.len();
        match live::run_rep(
            &binary,
            w,
            cfg.seed,
            rep,
            cfg.warm_s,
            measure_s,
            observe_server,
        ) {
            Ok(r) => reps.push(r),
            Err(RepError::Disrupted(note)) if disruptions < MAX_DISRUPTIONS => {
                disruptions += 1;
                eprintln!("arlo-benchmark: repeating a disrupted repetition: {note}");
            }
            Err(RepError::Disrupted(note)) => {
                return Err(format!("{note} (and {disruptions} disruptions before it)"))
            }
            Err(RepError::Check(e)) => return Err(e),
        }
    }
    Ok((reps, disruptions))
}

fn live_untraced(w: &LiveWorkload, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let (reps, disruptions) = live_reps(w, cfg, cfg.reps, false)?;
    let mut result = live_result(w, &reps);
    result.disruptions = disruptions;
    Ok(result)
}

/// The stream the walk and the probes replay: the first [`WALK_SECS`] of
/// repetition 0's schedule; the closed loop's pool laid out at a fixed
/// nominal rate.
pub fn walk_stream(w: &LiveWorkload, seed: u64) -> Vec<Vec<Req>> {
    let mut conns = schedule::build(w, seed, 0, WALK_SECS);
    if let Load::Closed { .. } = w.load {
        let per_conn = (CLOSED_WALK_RPS * WALK_SECS) as usize / CONNS;
        let gap_ns = 1e9 * CONNS as f64 / CLOSED_WALK_RPS;
        for (c, reqs) in conns.iter_mut().enumerate() {
            reqs.truncate(per_conn);
            for (i, r) in reqs.iter_mut().enumerate() {
                r.due_ns = ((i as f64 + c as f64 / CONNS as f64) * gap_ns) as u64;
            }
        }
    }
    conns
}

fn live_traced(
    w: &LiveWorkload,
    cfg: &RunConfig,
    origin: Instant,
) -> Result<WorkloadResult, String> {
    let (reps, disruptions) = live_reps(w, cfg, TRACED_REPS.min(cfg.reps), true)?;
    let mut result = live_result(w, &reps);
    result.disruptions = disruptions;
    let mid = |f: fn(&LiveRep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());

    let stream = walk_stream(w, cfg.seed);
    let walked = walk::run(w, &stream, origin);
    let span_path = format!("{}/trace-{}.json", cfg.out_dir, w.name);
    walked.log.write(&span_path, w.name)?;
    let lengths: Vec<u32> = stream.iter().flatten().map(|r| r.length).collect();
    let probe_stream: Vec<Vec<Req>> = stream
        .iter()
        .map(|reqs| reqs.iter().filter(|r| r.tenant == 0).copied().collect())
        .collect();
    let probe = micro::executor_probe(w, &probe_stream, WALK_SECS)?;
    let replans = w.period_secs_effective() < 10_000;

    let mut layers: Vec<(&'static str, f64)> = walked.metrics.clone();
    layers.extend([
        ("protocol.crc32c_ns_per_kib", micro::crc32c_ns_per_kib()),
        ("queue.contended_ns", micro::queue_contended_ns()),
        (
            "engine.submit_contended_ns",
            micro::engine_submit_contended_ns(w, &lengths),
        ),
        (
            "engine.reallocate_ms",
            if replans {
                micro::engine_reallocate_ms(w, &stream)
            } else {
                0.0
            },
        ),
        ("executor.submit_ns", probe.submit_ns),
        ("executor.complete_lag_us_p50", probe.complete_lag_us_p50),
        ("executor.complete_lag_us_p99", probe.complete_lag_us_p99),
        (
            "server.ctx_switches_per_req",
            mid(|r| r.ctx_switches_per_req),
        ),
        ("server.threads", mid(|r| r.threads)),
        ("server.reallocations", mid(|r| r.reallocations)),
        ("server.shed", mid(|r| r.server_shed)),
        ("server.virt_latency_p50_ms", mid(|r| r.virt_latency_p50_ms)),
        ("loadgen.gen_lag_p99_us", mid(|r| r.gen_lag_p99_us)),
        (
            "loadgen.client_cpu_us_per_req",
            mid(|r| r.client_cpu_us_per_req),
        ),
        ("loadgen.rtt_p99_window_us", mid(|r| r.rtt_p99_window_us)),
        (
            "unattributed_us",
            mid(|r| r.rtt_p50_us) - walked.self_us_per_req,
        ),
        ("trace_overhead_pct", walked.trace_overhead_pct),
    ]);
    if replans {
        // The coordinator re-plans with the solver; single_* never do.
        layers.extend(solver_layers()?);
    }
    result.layers = in_table_order(layers);

    // The walk's own output checks.
    let batch = walked.counts.batched_requests as f64 / walked.counts.batches.max(1) as f64;
    if w.max_batch == 1 && batch != 1.0 {
        return Err(format!(
            "{}: batching.mean_batch is {batch}, must be exactly 1 at --max-batch 1",
            w.name
        ));
    }
    if w.max_batch > 1 && batch < 3.0 {
        return Err(format!(
            "{}: batching.mean_batch is {batch}, must be >= 3",
            w.name
        ));
    }
    if walked.counts.unplaced > 0 {
        return Err(format!(
            "{}: the walk's engine refused {} requests",
            w.name, walked.counts.unplaced
        ));
    }
    Ok(result)
}

fn solver_layers() -> Result<Vec<(&'static str, f64)>, String> {
    Ok(vec![
        ("solver.dp_solve_ms_50x8", micro::dp_solve_ms(50, 8, 9)?),
        ("solver.dp_solve_ms_200x12", micro::dp_solve_ms(200, 12, 5)?),
        (
            "solver.dp_solve_ms_1000x16",
            micro::dp_solve_ms(1000, 16, 3)?,
        ),
    ])
}

/// Every per-layer metric in table order; the ones `measured` lacks are 0
/// (the workload never enters that layer).
fn in_table_order(measured: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    crate::report::LAYERS
        .iter()
        .map(|l| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == l.name)
                .map_or(0.0, |&(_, v)| v);
            (l.name, value)
        })
        .collect()
}

fn sim_result(w: &SimWorkload, reps: &[SimRep]) -> Result<WorkloadResult, String> {
    // One seed, one trace: the simulator's outputs must repeat bit for bit.
    let outputs = |r: &SimRep| {
        (
            r.virt_mean_ms.to_bits(),
            r.virt_p50_ms.to_bits(),
            r.virt_p98_ms.to_bits(),
            r.virt_p99_ms.to_bits(),
            r.virt_window_p50_ms.to_bits(),
            r.slo_violation_share.to_bits(),
            r.records,
        )
    };
    if let Some(odd) = reps.iter().position(|r| outputs(r) != outputs(&reps[0])) {
        return Err(format!(
            "{}: repetition {odd} simulated different outputs than repetition 0 from the same \
             seed: {:?} vs {:?}",
            w.name, reps[odd], reps[0]
        ));
    }
    let column = |name: &str| -> Vec<f64> {
        reps.iter()
            .map(|r| match name {
                "setup_s" => r.setup_s,
                // No sockets here: the round trip is the simulated one
                // (queueing + execution + the 0.8 ms network overhead),
                // in virtual time, exact for a seed.
                "rtt_p50_us" => r.virt_window_p50_ms * 1e3,
                "goodput_rps" => r.goodput_rps(),
                "cpu_us_per_req" => r.cpu_us_per_req(),
                "peak_rss_mb" => r.peak_rss_mb,
                "failed_share" => r.failed_share(),
                "sim_req_per_s" => r.sim_req_per_s(),
                "virt_mean_ms" => r.virt_mean_ms,
                "virt_p98_ms" => r.virt_p98_ms,
                "slo_violation_share" => r.slo_violation_share,
                other => unreachable!("{other} is not a sim metric"),
            })
            .collect()
    };
    Ok(WorkloadResult {
        name: w.name,
        e2e: E2E
            .iter()
            .filter(|m| m.applies_to(w.name))
            .map(|m| Series {
                metric: m,
                reps: column(m.name),
            })
            .collect(),
        attempted: reps.iter().map(|r| r.requests).sum(),
        failed: reps
            .iter()
            .map(|r| r.requests - r.records.min(r.requests))
            .sum(),
        samples: reps.iter().map(|r| r.records as usize).collect(),
        steal_pct: reps.iter().map(|r| r.steal_pct).collect(),
        host_kernel_ms: reps.iter().map(|r| r.host_kernel_ms).collect(),
        valid: vec![true; reps.len()],
        ..WorkloadResult::default()
    })
}

fn sim_seed(w: &SimWorkload, cfg: &RunConfig) -> u64 {
    schedule::rep_seed(cfg.seed, w.name, 0)
}

fn sim_untraced(w: &SimWorkload, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let virtual_secs = sim_virtual_secs(w, cfg);
    let reps: Vec<SimRep> = (0..cfg.sim_reps)
        .map(|_| sim::run_rep(sim_seed(w, cfg), virtual_secs, None))
        .collect::<Result<_, _>>()?;
    sim_result(w, &reps)
}

fn sim_traced(w: &SimWorkload, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let virtual_secs = sim_virtual_secs(w, cfg);
    let span_path = format!("{}/trace-{}.json", cfg.out_dir, w.name);
    // Decorated and plain children alternate, so a host speed phase hits
    // both sides; every figure is a median over its side.
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    for _ in 0..TRACED_SIM_PAIRS.min(cfg.sim_reps) {
        traced.push(sim::run_rep(
            sim_seed(w, cfg),
            virtual_secs,
            Some(&span_path),
        )?);
        plain.push(sim::run_rep(sim_seed(w, cfg), virtual_secs, None)?);
    }
    let all: Vec<SimRep> = traced.iter().chain(&plain).cloned().collect();
    let mut result = sim_result(w, &all)?;
    let mid =
        |reps: &[SimRep], f: fn(&SimRep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    fn per_req(r: &SimRep, ns: f64) -> f64 {
        ns / r.requests.max(1) as f64
    }
    let plain_run_s = mid(&plain, |r| r.steady_run_s);
    let mut layers = vec![
        (
            "sim.dispatch_ns_per_req",
            mid(&traced, |r| per_req(r, r.dispatch_ns as f64)),
        ),
        (
            "sim.dispatch_calls",
            mid(&traced, |r| r.dispatch_calls as f64),
        ),
        (
            "sim.alloc_ms_per_call",
            mid(&traced, |r| {
                r.alloc_ns as f64 / 1e6 / r.alloc_calls.max(1) as f64
            }),
        ),
        ("sim.alloc_calls", mid(&traced, |r| r.alloc_calls as f64)),
        (
            "sim.driver_self_ns_per_req",
            mid(&traced, |r| {
                per_req(
                    r,
                    (r.run_s * 1e9 - (r.dispatch_ns + r.alloc_ns) as f64).max(0.0),
                )
            }),
        ),
        (
            "sim.buffered_requests",
            mid(&traced, |r| r.buffered_requests as f64),
        ),
        (
            "trace.generate_ns_per_req",
            mid(&all, |r| r.generate_ns_per_req),
        ),
        (
            "trace_overhead_pct",
            100.0 * (mid(&traced, |r| r.steady_run_s) - plain_run_s) / plain_run_s,
        ),
    ];
    layers.extend(solver_layers()?);
    result.layers = in_table_order(layers);
    Ok(result)
}

/// The whole result file for a set of workload runs.
pub fn result_file(cfg: &RunConfig, runs: &[(Workload, WorkloadResult)]) -> Value {
    let mut workloads = serde_json::Map::new();
    for (w, r) in runs {
        workloads.insert(w.name().to_string(), r.to_json(w.why(), pinned(w, cfg)));
    }
    json!({
        "schema": 1u64,
        "host": crate::procfs::fingerprint(),
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "workloads": Value::Object(workloads),
        "claim": Value::Null,
    })
}
