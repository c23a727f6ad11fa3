//! The Arlo benchmark harness.
//!
//! ```text
//! arlo-benchmark [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
//!     every workload; prints each metric by name with unit and spread,
//!     writes a result file, exits non-zero if any output check failed
//! arlo-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload; last stdout line is the JSON result object
//! arlo-benchmark compare A.json B.json
//!     row per workload x metric; exits non-zero on a regression
//! arlo-benchmark spec
//!     BENCHMARK.json, generated from the metric and workload tables
//! ```
//!
//! `benchmark/run.sh` builds the server and this binary, then forwards its
//! arguments here.

mod child;
mod compare;
mod hostspeed;
mod live;
mod loadgen;
mod micro;
mod procfs;
mod report;
mod runner;
mod schedule;
mod sim;
mod span;
mod stats;
mod walk;
mod workloads;

use runner::RunConfig;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} expects a number, got `{v}`")),
            None => Ok(default),
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        Some("spec") => serde_json::to_string_pretty(&report::contract_spec())
            .map(|text| {
                println!("{text}");
                ExitCode::SUCCESS
            })
            .map_err(|e| e.to_string()),
        Some("sim-child") => sim_child_main(started, &Flags(args[1..].to_vec())),
        _ => {
            let flags = Flags(args);
            if flags.has("--workload") {
                one_workload(&flags)
            } else {
                all_workloads(&flags)
            }
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("arlo-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: arlo-benchmark compare <a.json> <b.json>".into());
    };
    Ok(if compare::run(a, b)? {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn sim_child_main(started: Instant, flags: &Flags) -> Result<ExitCode, String> {
    let Some(Workload::Sim(w)) = workloads::by_name("sim_largescale") else {
        return Err("sim_largescale is not defined".into());
    };
    let seed: u64 = flags.number("--seed", 1)?;
    let virtual_secs: f64 = flags.number("--virtual-secs", 100.0)?;
    sim::child_main(started, seed, &w, virtual_secs, flags.value("--spans"))?;
    Ok(ExitCode::SUCCESS)
}

/// Driver mode: one workload, the contract's one-line JSON result last.
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("--workload needs a name")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(Workload::name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed: u64 = flags.number("--seed", 1)?;
    let seconds: f64 = flags.number("--seconds", workloads::RUN_SECONDS as f64)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match flags.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let cfg = RunConfig::standard(seed, seconds);
    // A failed output check fails the command: no result line is printed
    // for a run whose outputs were wrong.
    let result = runner::run_workload(&workload, &cfg, traced)?;
    result.print();
    println!("{}", result.contract_line(traced, true));
    Ok(ExitCode::SUCCESS)
}

/// `run.sh` mode: every workload, human-readable, plus a result file.
fn all_workloads(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("--seed", 1)?;
    let cfg = if flags.has("--smoke") {
        RunConfig::smoke(seed)
    } else {
        RunConfig::standard(
            seed,
            flags.number("--seconds", workloads::RUN_SECONDS as f64)?,
        )
    };
    let traced = flags.has("--traced");
    let out = flags
        .value("--out")
        .map_or_else(|| format!("{}/result.json", cfg.out_dir), str::to_string);
    println!(
        "Arlo benchmark: seed {seed}, {} live repetition(s) x {:.1} s measured, {} simulator \
         repetition(s){}",
        cfg.reps,
        cfg.seconds / cfg.reps as f64,
        cfg.sim_reps,
        if traced { ", plus a traced run" } else { "" }
    );
    let mut runs = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for workload in workloads::all() {
        // Untraced first: end-to-end numbers are measured with tracing off.
        let mut merged = match runner::run_workload(&workload, &cfg, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAILED {}: {e}", workload.name());
                failures.push(e);
                continue;
            }
        };
        if traced {
            match runner::run_workload(&workload, &cfg, true) {
                Ok(t) => {
                    merged.layers = t.layers;
                    merged.wall_s += t.wall_s;
                }
                Err(e) => {
                    eprintln!("FAILED {} (traced): {e}", workload.name());
                    failures.push(e);
                }
            }
        }
        merged.print();
        if merged.failed > 0 {
            failures.push(format!(
                "{}: {} of {} requests were not answered Ok",
                merged.name, merged.failed, merged.attempted
            ));
        }
        runs.push((workload, merged));
    }
    let file = runner::result_file(&cfg, &runs);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("\nresult file: {out}");
    if failures.is_empty() {
        println!("all output checks passed");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("check failed: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}
