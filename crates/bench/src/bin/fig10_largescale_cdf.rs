//! **Fig. 10** — large-scale simulation, Twitter-Bursty.
//!
//! Paper: (a) Bert-Base at 8k req/s on 90 GPUs, (b) Bert-Large at 25k req/s
//! on 300 GPUs. Arlo reduces mean latency by 70.3%/98.1% vs ST, 24.1%/30.7%
//! vs DT and 31.3%/41.7% vs INFaaS; tails by up to 98.4%/26.0%/29.3%. The
//! 98.1% number corresponds to ST operating at the edge of stability —
//! under our calibration that regime is ~85–95% of ST's capacity, so rates
//! are scaled accordingly (see EXPERIMENTS.md).

use arlo_bench::{
    latency_row, print_table, reduction_pct, report_json, write_json, LATENCY_HEADERS,
};
use arlo_core::system::SystemSpec;
use arlo_runtime::models::ModelSpec;
use arlo_trace::workload::TraceSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_stream(
    tag: &str,
    model: ModelSpec,
    gpus: u32,
    rate: f64,
    slo_ms: f64,
    secs: f64,
    seed: u64,
) -> serde_json::Value {
    let trace = TraceSpec::twitter_bursty(rate, secs).generate(&mut StdRng::seed_from_u64(seed));
    let specs = [
        SystemSpec::arlo(model.clone(), gpus, slo_ms),
        SystemSpec::st(model.clone(), gpus, slo_ms),
        SystemSpec::dt(model.clone(), gpus, slo_ms),
        SystemSpec::infaas(model, gpus, slo_ms),
    ];
    // Discard a 30 s warm-up (standard DES practice): queues start empty,
    // the arrival process starts in an arbitrary modulation state, and the
    // first allocation period has no observed history.
    let warmup = arlo_trace::secs_to_nanos(30.0);
    let reports: Vec<_> = arlo_bench::run_schemes_parallel(&specs, &trace)
        .into_iter()
        .map(|(name, r)| (name, r.trimmed(warmup)))
        .collect();
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(name, r)| latency_row(name, r, slo_ms))
        .collect();
    print_table(
        &format!("Fig. 10 {tag} ({rate:.0} req/s, {gpus} GPUs, Twitter-Bursty)"),
        &LATENCY_HEADERS,
        &rows,
    );
    // `latency_summary` sorts every latency: take it once per scheme.
    let summaries: Vec<_> = reports.iter().map(|(_, r)| r.latency_summary()).collect();
    let mean = |i: usize| summaries[i].mean;
    let p98 = |i: usize| summaries[i].p98;
    println!(
        "mean reductions: vs ST {:.1}% (paper 70.3/98.1), vs DT {:.1}% (paper 24.1/30.7), \
         vs INFaaS {:.1}% (paper 31.3/41.7)",
        reduction_pct(mean(0), mean(1)),
        reduction_pct(mean(0), mean(2)),
        reduction_pct(mean(0), mean(3)),
    );
    println!(
        "p98 reductions:  vs ST {:.1}% (paper ≤98.4), vs DT {:.1}% (paper ≤26.0), \
         vs INFaaS {:.1}% (paper ≤29.3)",
        reduction_pct(p98(0), p98(1)),
        reduction_pct(p98(0), p98(2)),
        reduction_pct(p98(0), p98(3)),
    );
    let curves: Vec<arlo_bench::chart::Series> = reports
        .iter()
        .map(|(name, r)| {
            // Clip the x-axis at the p90 of the slowest scheme so the
            // meltdown tail does not flatten everyone else ("we truncate
            // the x axis to better display the data", Fig. 10 caption).
            arlo_bench::chart::Series::new(name.clone(), r.latency_cdf().curve(48))
        })
        .collect();
    let clip = summaries.iter().map(|s| s.p90).fold(0.0f64, f64::max);
    let clipped: Vec<arlo_bench::chart::Series> = curves
        .iter()
        .map(|s| {
            arlo_bench::chart::Series::new(
                s.name.clone(),
                s.points
                    .iter()
                    .copied()
                    .filter(|&(x, _)| x <= clip)
                    .collect(),
            )
        })
        .filter(|s| !s.points.is_empty())
        .collect();
    println!(
        "\n{}",
        arlo_bench::chart::line_chart(
            "latency CDF, x truncated as in the paper (x: ms, y: F)",
            &clipped,
            64,
            16
        )
    );

    serde_json::json!({
        "rate": rate, "gpus": gpus,
        "schemes": reports
            .iter()
            .map(|(name, r)| serde_json::json!({ "name": name, "metrics": report_json(r, slo_ms) }))
            .collect::<Vec<_>>(),
        "mean_reduction_vs": {
            "st": reduction_pct(mean(0), mean(1)),
            "dt": reduction_pct(mean(0), mean(2)),
            "infaas": reduction_pct(mean(0), mean(3)),
        },
    })
}

fn main() {
    // (a) Bert-Base on 90 GPUs: ST capacity ≈ 90 / 4.86 ms ≈ 18.5k req/s;
    // run at ~55% mean so bursts (1.75×) push ST into queueing without
    // destabilizing it — the paper's 70.3%-reduction regime.
    let a = run_stream(
        "(a) Bert-Base",
        ModelSpec::bert_base(),
        90,
        11_000.0,
        150.0,
        150.0,
        101,
    );
    // (b) Bert-Large on 300 GPUs: ST capacity ≈ 300 / 16.8 ms ≈ 17.9k req/s;
    // run at ~67% mean over 5 minutes — bursts take ST past capacity, the
    // near-meltdown regime behind the paper's 98.1% reduction.
    let b = run_stream(
        "(b) Bert-Large",
        ModelSpec::bert_large(),
        300,
        12_000.0,
        450.0,
        300.0,
        102,
    );
    write_json(
        "fig10_largescale_cdf",
        &serde_json::json!({ "bert_base": a, "bert_large": b }),
    );
}
