//! A search-engine embedding farm: short queries mixed with long documents.
//!
//! The paper's second motivating deployment: search engines and vector
//! databases embed both user queries (a handful of tokens) and candidate
//! documents (hundreds of tokens) with the same encoder. The bimodal length
//! mix is exactly where one-size-fits-all runtimes waste the most — queries
//! pay full document padding. This example builds the bimodal stream
//! explicitly, quantifies the padding waste of each scheme, and shows the
//! per-class latency a downstream retrieval stack would see.
//!
//! ```sh
//! cargo run --release --example search_embedding_farm
//! ```

use arlo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLO_MS: f64 = 150.0;
const GPUS: u32 = 12;
const QUERY_CUTOFF: u32 = 64; // requests at or below this are "queries"

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // Two request classes interleaved into one stream:
    //   - queries: median ~12 tokens, 2400/s;
    //   - documents: median ~320 tokens, 300/s (ingest pipeline).
    let queries = TraceSpec {
        lengths: LengthSpec::LogNormal {
            mu: 2.5,
            sigma: 0.5,
            min: 1,
            max: 64,
        },
        arrivals: ArrivalSpec::Poisson { rate: 2400.0 },
        duration_secs: 30.0,
    }
    .generate(&mut rng);
    let documents = TraceSpec {
        lengths: LengthSpec::LogNormal {
            mu: 5.77,
            sigma: 0.35,
            min: 65,
            max: 512,
        },
        arrivals: ArrivalSpec::Poisson { rate: 300.0 },
        duration_secs: 30.0,
    }
    .generate(&mut rng);
    let trace = queries.merge(&documents);
    let s = trace.length_summary();
    println!(
        "embedding stream: {} requests ({} queries, {} documents), lengths p50 {:.0} / p98 {:.0}",
        trace.len(),
        queries.len(),
        documents.len(),
        s.p50,
        s.p98
    );

    println!(
        "\n{:8} {:>10} {:>12} {:>12} {:>14}",
        "scheme", "mean ms", "query mean", "doc mean", "wasted FLOPs %"
    );
    for spec in [
        SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO_MS),
        SystemSpec::st(ModelSpec::bert_base(), GPUS, SLO_MS),
        SystemSpec::dt(ModelSpec::bert_base(), GPUS, SLO_MS),
    ] {
        let profiles = spec.build_profiles();
        let _lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let report = spec.run(&trace);
        let by_class = |pred: &dyn Fn(u32) -> bool| -> f64 {
            let lats: Vec<f64> = report
                .records
                .iter()
                .filter(|r| pred(r.length))
                .map(|r| nanos_to_ms(r.latency_ns(report.overhead_ns)))
                .collect();
            percentile(&lats, 50.0)
        };
        // Wasted FLOPs: padded tokens over computed tokens. Static runtimes
        // compute the full compiled length; dynamic runtimes compute the
        // actual request length (no padding — their cost is kernel
        // inflation, not wasted FLOPs).
        let computed: u64 = report
            .records
            .iter()
            .map(|r| match profiles[r.runtime_idx as usize].runtime.mode() {
                CompileMode::Static { max_length } => u64::from(max_length),
                CompileMode::Dynamic => u64::from(r.length),
            })
            .sum();
        let useful: u64 = report.records.iter().map(|r| u64::from(r.length)).sum();
        println!(
            "{:8} {:>10.2} {:>12.2} {:>12.2} {:>13.1}%",
            spec.name,
            report.latency_summary().mean,
            by_class(&|l| l <= QUERY_CUTOFF),
            by_class(&|l| l > QUERY_CUTOFF),
            (1.0 - useful as f64 / computed as f64) * 100.0
        );
    }

    println!(
        "\nNote: under ST every 12-token query pays for 512 tokens of compute — \
         ~{:.0}% of the farm's FLOPs are spent on zeros (§2.2 of the paper \
         reports 80.6% for one production clip).",
        (1.0 - s.mean / 512.0) * 100.0
    );
}
