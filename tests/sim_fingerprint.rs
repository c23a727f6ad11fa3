//! Decision fingerprint of a Fig. 10-shaped simulation.
//!
//! Arlo on Bert-Base under Twitter-Bursty traffic (the Fig. 10(a) setup,
//! scaled down to ≈ 50 k requests over 125 virtual seconds so one periodic
//! reallocation fires), with a fixed seed. Three GPUs are fewer than the
//! bursts need, so requests also wait in the central buffer and the
//! reallocation swaps runtimes under load. Every served record's
//! `(id, instance, started, completed)` is folded, in report order, into
//! one FNV-1a hash. The simulator is deterministic, so the hash pins every
//! dispatch, batching, replacement and completion decision: a change to the
//! simulator's hot path that is meant to be a pure speed-up must leave it
//! unchanged, and any change that moves a single decision fails here.

use arlo_core::system::SystemSpec;
use arlo_runtime::models::ModelSpec;
use arlo_trace::workload::TraceSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[test]
fn fig10_shaped_run_makes_the_recorded_decisions() {
    let trace = TraceSpec::twitter_bursty(400.0, 125.0).generate(&mut StdRng::seed_from_u64(13));
    let report = SystemSpec::arlo(ModelSpec::bert_base(), 3, 150.0).run(&trace);
    assert_eq!(report.records.len(), trace.len(), "every request is served");
    assert!(report.alloc_count >= 1, "the run spans an allocation tick");
    assert!(report.buffered_requests > 0, "requests wait in the buffer");
    let hash = report.records.iter().fold(FNV_OFFSET, |h, r| {
        [
            u64::from(r.id),
            u64::from(r.instance),
            r.started,
            r.completed,
        ]
        .into_iter()
        .fold(h, fnv1a)
    });
    assert_eq!(
        (report.records.len(), hash),
        (48_118, 8_653_972_765_988_338_926),
        "the simulation's decisions changed"
    );
}
