//! `arlo` — the command-line front door to the library.
//!
//! A dependency-free CLI (hand-rolled argument parsing, no clap) exposing
//! the workflows a downstream user reaches for first:
//!
//! ```text
//! arlo gen-trace   --rate 1500 --secs 30 [--bursty] [--seed 7] [--out trace.txt]
//! arlo analyze     --trace trace.txt
//! arlo simulate    --scheme arlo|st|dt|infaas --model bert-base|bert-large
//!                  --gpus 10 [--slo-ms 150] (--trace t.txt | --rate 1500 --secs 30)
//! arlo compare     --model bert-base --gpus 10 --rate 1500 --secs 30
//! arlo plan        --model bert-base --gpus 10 --rate 1500 --secs 30
//! arlo profile     --model bert-large [--slo-ms 450]
//! arlo serve       --model bert-base --gpus 8 [--addr 127.0.0.1:7077] [--time-scale 1]
//! arlo loadgen     --addr 127.0.0.1:7077 --rate 900 --secs 30 [--clients 4] [--drain]
//! ```

use arlo::prelude::*;
use arlo::serve::chaos::{ChaosConfig, FaultClass};
use arlo::serve::loadgen::{chaos_replay, replay, ChaosReplayConfig, LoadGenConfig};
use arlo::serve::protocol::{client_handshake, read_frame, Frame};
use arlo::serve::server::{ServeConfig, Server};
use arlo::serve::tenants::{parse_mix, SloClass, TenantSpec};
use arlo::trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "gen-trace" => cmd_gen_trace(&flags),
        "analyze" => cmd_analyze(&flags),
        "simulate" => cmd_simulate(&flags),
        "compare" => cmd_compare(&flags),
        "plan" => cmd_plan(&flags),
        "profile" => cmd_profile(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
arlo — serve Transformer LMs with dynamic input lengths (ICPP'24 reproduction)

USAGE:
  arlo gen-trace  --rate <req/s> --secs <s> [--bursty] [--seed <n>] [--out <file>]
  arlo analyze    --trace <file>
  arlo simulate   --scheme <arlo|st|dt|infaas> --model <bert-base|bert-large>
                  --gpus <n> [--slo-ms <ms>] (--trace <file> | --rate <r> --secs <s>)
                  [--bursty] [--seed <n>] [--csv <file>]
  arlo compare    --model <m> --gpus <n> [--slo-ms <ms>] --rate <r> --secs <s> [--bursty]
  arlo plan       --model <m> --gpus <n> [--slo-ms <ms>] --rate <r> --secs <s>
  arlo profile    --model <m> [--slo-ms <ms>]
  arlo serve      --model <m> --gpus <n> [--slo-ms <ms>] [--addr <ip:port>]
                  [--time-scale <x>] [--period-secs <s>]
                  [--tenants <name=class[:slo_ms],...>   class: interactive|standard|batch]
                  [--max-batch <n> [--marginal-cost <f>] [--max-wait-ms <ms>]]
                  (runs until a client sends a Drain frame, then flushes and exits)
  arlo loadgen    --addr <ip:port> (--trace <file> | --rate <r> --secs <s>) [--bursty]
                  [--seed <n>] [--clients <n>] [--time-scale <x>] [--submit-batch <n>]
                  [--tenants <n> [--tenant-mix <w:w:...>]]
                  [--closed [--window <n>]] [--drain]
                  [--chaos <delay|partial|corrupt|reset|stall>
                   [--chaos-intensity <0..1>] [--chaos-seed <n>] [--retries <n>]]";

type Flags = HashMap<String, String>;

fn parse(args: &[String]) -> Option<(String, Flags)> {
    let mut it = args.iter();
    let command = it.next()?.clone();
    let mut flags = Flags::new();
    let mut key: Option<String> = None;
    for arg in it {
        if let Some(stripped) = arg.strip_prefix("--") {
            if let Some(k) = key.take() {
                flags.insert(k, "true".into()); // boolean flag
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            flags.insert(k, arg.clone());
        } else {
            return None; // positional arguments are not used
        }
    }
    if let Some(k) = key {
        flags.insert(k, "true".into());
    }
    Some((command, flags))
}

/// The flags [`build_trace`] reads.
const TRACE_FLAGS: &[&str] = &["trace", "rate", "secs", "seed", "bursty"];

/// Reject any flag outside the `known` lists, before the command binds
/// anything: a typo, or a flag this version no longer has, fails loudly
/// instead of being ignored.
fn only(flags: &Flags, known: &[&[&str]]) -> Result<(), String> {
    let unknown = flags
        .keys()
        .filter(|k| !known.iter().any(|list| list.contains(&k.as_str())))
        .min();
    match unknown {
        Some(flag) => Err(format!("unknown flag --{flag}")),
        None => Ok(()),
    }
}

fn req<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<T, String> {
    req(flags, key)?
        .parse()
        .map_err(|_| format!("--{key} expects a number"))
}

fn num_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects a number")),
    }
}

fn model_of(flags: &Flags) -> Result<ModelSpec, String> {
    match req(flags, "model")? {
        "bert-base" => Ok(ModelSpec::bert_base()),
        "bert-large" => Ok(ModelSpec::bert_large()),
        "dolly" => Ok(ModelSpec::dolly()),
        other => Err(format!(
            "unknown model {other:?} (bert-base | bert-large | dolly)"
        )),
    }
}

fn default_slo(model: &ModelSpec) -> f64 {
    // The paper's per-model SLOs: 150 ms Bert-Base, 450 ms Bert-Large.
    if model.name.contains("large") || model.name.contains("dolly") {
        450.0
    } else {
        150.0
    }
}

fn build_trace(flags: &Flags) -> Result<Trace, String> {
    if let Some(path) = flags.get("trace") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let reader = std::io::BufReader::new(file);
        // `.csv` files use the interop format (arrival_seconds,length);
        // everything else the native v1 trace format.
        return if path.ends_with(".csv") {
            arlo::trace::io::read_csv_trace(reader).map_err(|e| e.to_string())
        } else {
            arlo::trace::io::read_trace(reader).map_err(|e| e.to_string())
        };
    }
    let rate: f64 = num(flags, "rate")?;
    let secs: f64 = num(flags, "secs")?;
    let seed: u64 = num_or(flags, "seed", 42)?;
    let spec = if flags.contains_key("bursty") {
        TraceSpec::twitter_bursty(rate, secs)
    } else {
        TraceSpec::twitter_stable(rate, secs)
    };
    Ok(spec.generate(&mut StdRng::seed_from_u64(seed)))
}

fn cmd_gen_trace(flags: &Flags) -> Result<(), String> {
    only(flags, &[TRACE_FLAGS, &["out"]])?;
    let trace = build_trace(flags)?;
    match flags.get("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            arlo::trace::io::write_trace(&trace, std::io::BufWriter::new(file))
                .map_err(|e| e.to_string())?;
            println!("wrote {} requests to {path}", trace.len());
        }
        None => {
            arlo::trace::io::write_trace(&trace, std::io::stdout().lock())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    only(flags, &[TRACE_FLAGS])?;
    let trace = build_trace(flags)?;
    let p = TraceProfile::of(&trace);
    println!("requests            {}", trace.len());
    println!("mean rate           {:.1} req/s", p.mean_rate);
    println!(
        "lengths             p50 {:.0} / p90 {:.0} / p98 {:.0} / max {:.0} tokens",
        p.lengths.p50, p.lengths.p90, p.lengths.p98, p.lengths.max
    );
    println!(
        "burstiness          dispersion {:.2} ({}), lag-1 autocorr {:.2}",
        p.dispersion,
        if p.dispersion > 1.5 {
            "bursty"
        } else {
            "Poisson-like"
        },
        p.arrival_ac1
    );
    println!(
        "length drift        cv {:.3}, lag-10 autocorr {:.2} ({})",
        p.drift_cv,
        p.drift_ac10,
        if p.drift_ac10 > 0.3 {
            "coherent drift — periodic reallocation pays"
        } else {
            "stationary"
        }
    );
    Ok(())
}

fn scheme_of(flags: &Flags, model: ModelSpec, gpus: u32, slo: f64) -> Result<SystemSpec, String> {
    match req(flags, "scheme")? {
        "arlo" => Ok(SystemSpec::arlo(model, gpus, slo)),
        "st" => Ok(SystemSpec::st(model, gpus, slo)),
        "dt" => Ok(SystemSpec::dt(model, gpus, slo)),
        "infaas" => Ok(SystemSpec::infaas(model, gpus, slo)),
        other => Err(format!(
            "unknown scheme {other:?} (arlo | st | dt | infaas)"
        )),
    }
}

fn print_report(name: &str, report: &arlo::sim::metrics::SimReport, slo: f64) {
    let s = report.latency_summary();
    println!(
        "{name:8} mean {:8.2} ms   p50 {:8.2}   p98 {:8.2}   p99 {:8.2}   SLO viol {:.2}%",
        s.mean,
        s.p50,
        s.p98,
        s.p99,
        report.slo_violation_rate(slo) * 100.0
    );
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    only(
        flags,
        &[TRACE_FLAGS, &["scheme", "model", "gpus", "slo-ms", "csv"]],
    )?;
    let model = model_of(flags)?;
    let gpus: u32 = num(flags, "gpus")?;
    let slo: f64 = num_or(flags, "slo-ms", default_slo(&model))?;
    let spec = scheme_of(flags, model, gpus, slo)?;
    let trace = build_trace(flags)?;
    println!(
        "simulating {} on {gpus} GPUs, SLO {slo} ms, {} requests…",
        spec.name,
        trace.len()
    );
    let report = spec.run(&trace);
    print_report(&spec.name, &report, slo);
    println!("requests per runtime: {:?}", report.per_runtime_counts());
    if let Some(path) = flags.get("csv") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        report
            .write_csv(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        println!("wrote per-request CSV to {path}");
    }
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    only(flags, &[TRACE_FLAGS, &["model", "gpus", "slo-ms"]])?;
    let model = model_of(flags)?;
    let gpus: u32 = num(flags, "gpus")?;
    let slo: f64 = num_or(flags, "slo-ms", default_slo(&model))?;
    let trace = build_trace(flags)?;
    println!(
        "comparing schemes on {gpus} GPUs, SLO {slo} ms, {} requests…",
        trace.len()
    );
    for spec in [
        SystemSpec::arlo(model.clone(), gpus, slo),
        SystemSpec::st(model.clone(), gpus, slo),
        SystemSpec::dt(model.clone(), gpus, slo),
        SystemSpec::infaas(model.clone(), gpus, slo),
    ] {
        let report = spec.run(&trace);
        print_report(&spec.name, &report, slo);
    }
    Ok(())
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    only(flags, &[TRACE_FLAGS, &["model", "gpus", "slo-ms"]])?;
    let model = model_of(flags)?;
    let gpus: u32 = num(flags, "gpus")?;
    let slo: f64 = num_or(flags, "slo-ms", default_slo(&model))?;
    let trace = build_trace(flags)?;
    let spec = SystemSpec::arlo(model, gpus, slo);
    let profiles = spec.build_profiles();
    let quantile = RuntimeSchedulerConfig::default().demand_quantile;
    let demand = SystemSpec::provisioning_demand(&profiles, &trace, slo, quantile);
    let alloc = spec.initial_allocation(&profiles, &trace);
    println!("runtime allocation plan ({gpus} GPUs, SLO {slo} ms):");
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "max_len", "exec ms", "Q (p95/SLO)", "GPUs"
    );
    for ((profile, q), n) in profiles.iter().zip(&demand).zip(&alloc) {
        println!(
            "{:>10} {:>10.2} {:>12.1} {:>10}",
            profile.max_length(),
            profile.exec_ms,
            q,
            n
        );
    }
    Ok(())
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    only(flags, &[&["model", "slo-ms"]])?;
    let model = model_of(flags)?;
    let slo: f64 = num_or(flags, "slo-ms", default_slo(&model))?;
    let set = RuntimeSet::natural(model.clone());
    let profiles = profile_runtimes(&set.compile(), slo, 512);
    println!(
        "{} — staircase step {} tokens, {} runtimes, SLO {slo} ms",
        model.name,
        detect_step(&model),
        profiles.len()
    );
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "max_len", "static ms", "dynamic ms", "capacity/SLO"
    );
    for p in &profiles {
        let len = p.max_length();
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>14}",
            len,
            model.static_latency_ms(len),
            model.dynamic_latency_ms(len),
            p.capacity_within_slo
        );
    }
    Ok(())
}

/// GPUs spread as evenly as possible across `n` runtimes, remainder to the
/// smallest (highest-demand) levels first.
fn even_allocation(gpus: u32, n: usize) -> Vec<u32> {
    let mut counts = vec![gpus / n as u32; n];
    for slot in counts.iter_mut().take(gpus as usize % n) {
        *slot += 1;
    }
    counts
}

/// Seed allocation for one engine: spread the share evenly, then make sure
/// the longest runtime keeps an instance (Eq. 7 — the engine refuses to
/// start without full length coverage). With multiple tenants the
/// coordinator re-grants from live demand within a period anyway, so the
/// seed only has to be valid, not optimal.
fn seed_allocation(share: u32, n: usize) -> Vec<u32> {
    let mut counts = even_allocation(share, n);
    if *counts.last().expect("non-empty") == 0 {
        let donor = counts.iter().position(|&c| c > 0).expect("share >= 1");
        counts[donor] -= 1;
        *counts.last_mut().expect("non-empty") += 1;
    }
    counts
}

/// Parse comma-separated `name=class[:slo_ms]` tenant declarations.
fn tenants_of(spec: &str, default_slo_ms: f64) -> Result<Vec<TenantSpec>, String> {
    let mut out = Vec::new();
    for item in spec.split(',') {
        let (name, rest) = item
            .split_once('=')
            .ok_or_else(|| format!("tenant `{item}` is not name=class[:slo_ms]"))?;
        if name.is_empty() {
            return Err(format!("tenant `{item}` has an empty name"));
        }
        let (class_name, slo_ms) = match rest.split_once(':') {
            Some((c, s)) => (
                c,
                s.parse::<f64>()
                    .map_err(|_| format!("tenant `{item}`: slo_ms expects a number"))?,
            ),
            None => (rest, default_slo_ms),
        };
        let class = SloClass::parse(class_name).ok_or_else(|| {
            format!("tenant `{item}`: unknown class (interactive | standard | batch)")
        })?;
        out.push(TenantSpec::new(name, class, slo_ms));
    }
    Ok(out)
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    only(
        flags,
        &[&[
            "model",
            "gpus",
            "slo-ms",
            "addr",
            "time-scale",
            "period-secs",
            "tenants",
            "max-batch",
            "marginal-cost",
            "max-wait-ms",
        ]],
    )?;
    let model = model_of(flags)?;
    let gpus: u32 = num(flags, "gpus")?;
    let slo: f64 = num_or(flags, "slo-ms", default_slo(&model))?;
    let addr = flags.get("addr").map_or("127.0.0.1:7077", String::as_str);
    let time_scale: u32 = num_or(flags, "time-scale", 1)?;
    let period_secs: u64 = num_or(flags, "period-secs", 120)?;
    let max_batch: u32 = num_or(flags, "max-batch", 1)?;
    let marginal_cost: f64 = num_or(flags, "marginal-cost", 0.6)?;
    let max_wait_ms: f64 = num_or(flags, "max-wait-ms", 0.0)?;
    if max_batch == 0 || !(0.0..=1.0).contains(&marginal_cost) || marginal_cost == 0.0 {
        return Err("--max-batch must be >= 1 and --marginal-cost in (0, 1]".into());
    }
    let batch = BatchPolicy {
        spec: BatchSpec {
            max_batch,
            marginal_cost,
        },
        max_wait_ns: (max_wait_ms * 1e6) as u64,
    };

    // Engines are built per SLO: profiles carry `capacity_within_slo`, so
    // tenants with different SLOs get differently-shaped staircases.
    let build_engine = |slo_ms: f64, share: u32| {
        let profiles = profile_runtimes(&RuntimeSet::natural(model.clone()).compile(), slo_ms, 512);
        let counts = seed_allocation(share, profiles.len());
        let mut cfg = EngineConfig::paper_default(slo_ms);
        cfg.allocation_period = period_secs.max(1) * NANOS_PER_SEC;
        cfg.sub_window = (cfg.allocation_period / 12).max(NANOS_PER_SEC / 2);
        ArloEngine::new(profiles, counts, cfg)
    };

    let serve_cfg = ServeConfig {
        time_scale,
        queue_capacity: 8192,
        drain_timeout: std::time::Duration::from_secs(60),
        batch,
        ..ServeConfig::new(gpus)
    };
    let shards = serve_cfg.shards;
    // `--tenants` switches on the multi-tenant registry: one engine per
    // tenant, GPUs seeded evenly, then live re-granting by the coordinator.
    let server = match flags.get("tenants") {
        Some(spec) => {
            let specs = tenants_of(spec, slo)?;
            let n = specs.len() as u32;
            if gpus < n {
                return Err(format!(
                    "--gpus {gpus} cannot seed {n} tenants (each needs at least one)"
                ));
            }
            let tenants: Vec<(TenantSpec, ArloEngine)> = specs
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let share = gpus / n + u32::from((i as u32) < gpus % n);
                    let engine = build_engine(t.slo_ms, share);
                    (t, engine)
                })
                .collect();
            for (t, engine) in &tenants {
                println!(
                    "tenant {:12} [{}] SLO {} ms, seeded {} GPUs",
                    t.name,
                    t.class.name(),
                    t.slo_ms,
                    engine.deployment().1.iter().sum::<u32>()
                );
            }
            Server::spawn_multi(tenants, addr, serve_cfg)
        }
        None => Server::spawn(build_engine(slo, gpus), addr, serve_cfg),
    }
    .map_err(|e| format!("serve on {addr}: {e}"))?;
    println!(
        "serving {} on {} — {gpus} GPUs, SLO {slo} ms, {time_scale}× virtual time, batch \
         {max_batch}, {shards} connection shard(s)",
        model.name,
        server.local_addr()
    );
    println!("(send a Drain frame — e.g. `arlo loadgen --drain` — to stop)");
    while !server.snapshot().draining {
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.check_stalls();
    }
    println!("drain requested; flushing outstanding work…");
    let report = server.drain();
    println!(
        "served {} / shed {} / unserviceable {} / failed {}; {} reallocations, final generation {}",
        report.total(|t| t.served),
        report.total(|t| t.shed),
        report.total(|t| t.unserviceable),
        report.total(|t| t.failed),
        report.reallocations,
        report.tenants[0].generation
    );
    for t in &report.tenants {
        println!(
            "  tenant {:12} [{}] served {} / shed {} / unserviceable {} / failed {} — \
             {} GPUs, generation {}",
            t.name,
            t.class.name(),
            t.served,
            t.shed,
            t.unserviceable,
            t.failed,
            t.granted_gpus,
            t.generation
        );
    }
    if report.unknown_tenants > 0 {
        println!(
            "  unknown-tenant submits refused: {}",
            report.unknown_tenants
        );
    }
    if !report.supervisor_events.is_empty() {
        println!(
            "supervision: {} stalls detected, {} escalations",
            report.stalls_detected, report.escalations
        );
        for ev in &report.supervisor_events {
            println!("  [{:>6} ms] {} — {:?}", ev.at_ms, ev.component, ev.kind);
        }
    }
    let outstanding = report.total(|t| t.outstanding);
    if outstanding > 0 {
        return Err(format!(
            "drain timed out with {outstanding} requests outstanding"
        ));
    }
    Ok(())
}

fn cmd_loadgen(flags: &Flags) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    only(
        flags,
        &[
            TRACE_FLAGS,
            &[
                "addr",
                "clients",
                "time-scale",
                "submit-batch",
                "tenants",
                "tenant-mix",
                "closed",
                "window",
                "drain",
                "chaos",
                "chaos-intensity",
                "chaos-seed",
                "retries",
            ],
        ],
    )?;
    let addr_str = req(flags, "addr")?;
    let addr = addr_str
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr_str}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr_str} resolves to no address"))?;
    let clients: usize = num_or(flags, "clients", 4)?;
    let time_scale: u32 = num_or(flags, "time-scale", 1)?;

    if flags.contains_key("chaos") {
        // Fault-injected replay: wrap every client stream in a seeded
        // FaultyStream and retry each request to a terminal state.
        let class_name = req(flags, "chaos")?;
        let class = FaultClass::parse(class_name).ok_or_else(|| {
            format!("unknown fault class `{class_name}` (delay, partial, corrupt, reset, stall)")
        })?;
        let intensity: f64 = num_or(flags, "chaos-intensity", 0.5)?;
        let seed: u64 = num_or(flags, "chaos-seed", 42)?;
        let trace = build_trace(flags)?;
        let mut config = ChaosReplayConfig::new(clients, ChaosConfig::new(class, intensity, seed));
        config.max_attempts = num_or(flags, "retries", 6)?;
        println!(
            "chaos-replaying {} requests against {addr}: {} @ intensity {intensity}, seed {seed}…",
            trace.len(),
            class.name()
        );
        let report = chaos_replay(addr, &trace, &config).map_err(|e| format!("replay: {e}"))?;
        let s = report.latency_summary();
        println!(
            "requests {} / ok {} / unserviceable {} / draining {} / exhausted {}  \
             (retries {}, connects {}, corrupt signals {})",
            report.requests,
            report.ok,
            report.unserviceable,
            report.draining,
            report.exhausted,
            report.retries,
            report.connects,
            report.corrupt_signals
        );
        println!(
            "latency (virtual): mean {:.2} ms  p50 {:.2}  p98 {:.2}  p99 {:.2}  max {:.2}",
            s.mean, s.p50, s.p98, s.p99, s.max
        );
        if report.conserved() {
            println!("conservation holds: every request reached exactly one terminal state");
        } else {
            return Err(format!("conservation VIOLATED: {report:?}"));
        }
    } else if flags.contains_key("trace") || flags.contains_key("rate") {
        let trace = build_trace(flags)?;
        // `--tenants N` round-robins submits across N tenants; a
        // `--tenant-mix w:w:...` replaces the even split with weights.
        let tenants: usize = num_or(flags, "tenants", 0)?;
        let weights = match flags.get("tenant-mix") {
            Some(mix) => parse_mix(mix).ok_or_else(|| {
                format!("bad --tenant-mix `{mix}` (colon-separated weights, at least one > 0)")
            })?,
            None if tenants > 0 => vec![1; tenants],
            None => Vec::new(),
        };
        if tenants > 0 && weights.len() != tenants {
            return Err(format!(
                "--tenant-mix names {} tenants but --tenants says {tenants}",
                weights.len()
            ));
        }
        let config = if flags.contains_key("closed") {
            LoadGenConfig::closed(clients, num_or(flags, "window", 16)?)
        } else {
            LoadGenConfig::open(clients, time_scale)
        }
        .with_submit_batch(num_or(flags, "submit-batch", 1)?)
        .with_tenants(weights);
        println!(
            "replaying {} requests against {addr} from {clients} connections…",
            trace.len()
        );
        let report = replay(addr, &trace, &config).map_err(|e| format!("replay: {e}"))?;
        let s = report.latency_summary();
        println!(
            "sent {} / ok {} / shed {} / unserviceable {} / draining {} / failed {} / \
             unknown-tenant {} / lost {}",
            report.sent,
            report.ok,
            report.shed,
            report.unserviceable,
            report.draining,
            report.failed,
            report.unknown_tenant,
            report.lost
        );
        println!(
            "latency (virtual): mean {:.2} ms  p50 {:.2}  p98 {:.2}  p99 {:.2}  max {:.2}",
            s.mean, s.p50, s.p98, s.p99, s.max
        );
        println!(
            "goodput {:.0} req/s over {:.2} s wall",
            report.goodput_rps(time_scale),
            report.wall.as_secs_f64()
        );
        if report.refused + report.connect_errors > 0 {
            return Err(format!(
                "{} of {clients} connections refused, {} failed to connect",
                report.refused, report.connect_errors
            ));
        }
    } else if !flags.contains_key("drain") {
        return Err("nothing to do: pass --rate/--secs, --trace, --chaos, or --drain".into());
    }

    if flags.contains_key("drain") {
        // Wait for the Stats acknowledgement: it is what tells a decoded
        // drain from a dropped socket.
        let ack = std::net::TcpStream::connect(addr).and_then(|mut conn| {
            conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
            client_handshake(&mut conn)?;
            Frame::Drain.write_to(&mut conn)?;
            Ok(read_frame(&mut conn))
        });
        match ack.map_err(|e| format!("drain {addr}: {e}"))? {
            Ok(Some(Frame::Stats(s))) => println!(
                "drain acknowledged by {addr}: served {} / shed {} / outstanding {}",
                s.served, s.shed, s.outstanding
            ),
            other => return Err(format!("drain {addr}: expected a Stats ack, got {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_booleans() {
        let args: Vec<String> = ["simulate", "--gpus", "10", "--bursty", "--rate", "1500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (cmd, flags) = parse(&args).expect("parses");
        assert_eq!(cmd, "simulate");
        assert_eq!(flags.get("gpus").map(String::as_str), Some("10"));
        assert_eq!(flags.get("bursty").map(String::as_str), Some("true"));
        assert_eq!(flags.get("rate").map(String::as_str), Some("1500"));
    }

    #[test]
    fn trailing_boolean_flag() {
        let args: Vec<String> = ["gen-trace", "--bursty"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, flags) = parse(&args).expect("parses");
        assert_eq!(flags.get("bursty").map(String::as_str), Some("true"));
    }

    #[test]
    fn rejects_positional_arguments() {
        let args: Vec<String> = ["simulate", "oops"].iter().map(|s| s.to_string()).collect();
        assert!(parse(&args).is_none());
    }

    #[test]
    fn numeric_flag_helpers() {
        let mut flags = Flags::new();
        flags.insert("gpus".into(), "8".into());
        assert_eq!(num::<u32>(&flags, "gpus").expect("ok"), 8);
        assert!(num::<u32>(&flags, "missing").is_err());
        assert_eq!(num_or::<f64>(&flags, "slo-ms", 150.0).expect("ok"), 150.0);
        flags.insert("bad".into(), "x".into());
        assert!(num::<u32>(&flags, "bad").is_err());
    }

    #[test]
    fn only_names_the_first_unknown_flag() {
        let mut flags = Flags::new();
        flags.insert("model".into(), "bert-base".into());
        assert!(only(&flags, &[&["model", "slo-ms"]]).is_ok());
        flags.insert("workers".into(), "8".into());
        flags.insert("front-door".into(), "epoll".into());
        assert_eq!(
            only(&flags, &[&["model", "slo-ms"]]),
            Err("unknown flag --front-door".to_string())
        );
        assert!(only(&flags, &[&["model"], &["workers", "front-door"]]).is_ok());
    }

    #[test]
    fn model_and_slo_defaults() {
        let mut flags = Flags::new();
        flags.insert("model".into(), "bert-large".into());
        let m = model_of(&flags).expect("known model");
        assert_eq!(default_slo(&m), 450.0);
        flags.insert("model".into(), "bert-base".into());
        assert_eq!(default_slo(&model_of(&flags).expect("ok")), 150.0);
        flags.insert("model".into(), "gpt-5".into());
        assert!(model_of(&flags).is_err());
    }
}
