//! Bring your own trace: the workflow for running Arlo against *your*
//! production log instead of the synthetic Twitter calibration.
//!
//! 1. Export your request log as `arrival_seconds,length` CSV.
//! 2. Import it and check whether Arlo's workload assumptions hold
//!    (long-term-stable length mix, short-term fluctuation).
//! 3. Plan a deployment from the measured length histogram.
//! 4. Replay the trace through the planned deployment and compare schemes.
//!
//! This example writes a small synthetic "production log" to a temp file
//! first so it runs standalone; substitute your own path at step 2.
//!
//! ```sh
//! cargo run --release --example bring_your_own_trace
//! ```

use arlo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

fn main() {
    // 0. Fake a "production log" in the interop CSV format — a bimodal
    //    chat/search mix no preset in this crate generates.
    let csv_path = std::env::temp_dir().join("byot_log.csv");
    {
        let mut rng = StdRng::seed_from_u64(2024);
        let chat = TraceSpec {
            lengths: LengthSpec::LogNormal {
                mu: 3.4,
                sigma: 0.7,
                min: 1,
                max: 512,
            },
            arrivals: ArrivalSpec::Bursty { mean_rate: 900.0 },
            duration_secs: 60.0,
        }
        .generate(&mut rng);
        let rag = TraceSpec {
            lengths: LengthSpec::Pareto {
                min: 64,
                alpha: 1.4,
                max: 512,
            },
            arrivals: ArrivalSpec::Poisson { rate: 150.0 },
            duration_secs: 60.0,
        }
        .generate(&mut rng);
        let log = chat.merge(&rag);
        let mut f = std::fs::File::create(&csv_path).expect("create log");
        writeln!(f, "arrival_s,length").expect("write");
        for r in log.requests() {
            writeln!(f, "{:.6},{}", nanos_to_secs(r.arrival), r.length).expect("write");
        }
    }

    // 1. Import.
    let file = std::fs::File::open(&csv_path).expect("open log");
    let trace =
        arlo::trace::io::read_csv_trace(std::io::BufReader::new(file)).expect("parse CSV log");
    println!(
        "imported {} requests from {}",
        trace.len(),
        csv_path.display()
    );

    // 2. Validate Arlo's workload assumptions.
    let profile = TraceProfile::of(&trace);
    println!(
        "\nworkload check:\n  lengths        p50 {:.0} / p98 {:.0} / max {:.0}\n  \
         burstiness     dispersion {:.2}\n  length drift   cv {:.3}",
        profile.lengths.p50,
        profile.lengths.p98,
        profile.lengths.max,
        profile.dispersion,
        profile.drift_cv,
    );
    if profile.drift_cv > 0.3 {
        println!(
            "  WARNING: the length mix swings hard at second scale — expect the\n  \
             long-runtime bins to need generous quantile provisioning."
        );
    }

    // 3. Plan a deployment from the measured demand.
    let gpus = 8u32;
    let slo = 150.0;
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), gpus, slo);
    let profiles = spec.build_profiles();
    let quantile = RuntimeSchedulerConfig::default().demand_quantile;
    let demand = SystemSpec::provisioning_demand(&profiles, &trace, slo, quantile);
    let plan = spec.initial_allocation(&profiles, &trace);
    println!("\ndeployment plan ({gpus} GPUs, {slo} ms SLO):");
    for ((p, q), n) in profiles.iter().zip(&demand).zip(&plan) {
        println!(
            "  max_length {:>3}: demand {:>6.1} req/SLO → {n} instance(s)",
            p.max_length(),
            q
        );
    }

    // 4. Replay through every scheme.
    println!("\nreplay ({} requests):", trace.len());
    for s in [
        SystemSpec::arlo(ModelSpec::bert_base(), gpus, slo),
        SystemSpec::st(ModelSpec::bert_base(), gpus, slo),
        SystemSpec::dt(ModelSpec::bert_base(), gpus, slo),
    ] {
        let report = s.run(&trace);
        let sum = report.latency_summary();
        println!(
            "  {:5} mean {:>7.2} ms  p98 {:>8.2} ms  queueing {:>6.2} ms  viol {:.2}%",
            s.name,
            sum.mean,
            sum.p98,
            report.queueing_summary().mean,
            report.slo_violation_rate(slo) * 100.0
        );
    }
    std::fs::remove_file(&csv_path).ok();
}
