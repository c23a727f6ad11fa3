//! Stress scenarios: every moving part enabled at once. These are the
//! "kitchen sink" runs a long-lived deployment actually experiences —
//! periodic reallocation, auto-scaling, faults, batching and bursty
//! drifting traffic interacting.

use arlo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything on: bursty drifting traffic, auto-scaling from a cold start,
/// periodic reallocation, instance faults and batched execution. The system
/// must serve every request exactly once and end in a sane state.
#[test]
fn kitchen_sink_conserves_and_recovers() {
    let trace = TraceSpec {
        lengths: LengthSpec::TwitterModulated {
            max: 512,
            rho: 0.95,
            step_std: 0.12,
        },
        arrivals: ArrivalSpec::Bursty { mean_rate: 900.0 },
        duration_secs: 150.0,
    }
    .generate(&mut StdRng::seed_from_u64(404));
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0)
        .with_autoscale(AutoScaleConfig::paper_default(3, 16))
        .with_batching(BatchSpec {
            max_batch: 2,
            marginal_cost: 0.7,
        });
    let initial = spec.initial_allocation(&spec.build_profiles(), &trace);
    let faults = vec![
        FaultSpec {
            at: 20_000_000_000,
            instance: 0,
            kind: FaultKind::Slowdown {
                factor: 3.0,
                duration: 30_000_000_000,
            },
        },
        FaultSpec {
            at: 45_000_000_000,
            instance: 1,
            kind: FaultKind::Crash,
        },
        FaultSpec {
            at: 100_000_000_000,
            instance: 2,
            kind: FaultKind::Crash,
        },
    ];
    let sim = Simulation::new(&trace, spec.build_profiles(), &initial, spec.sim_config())
        .with_faults(faults);
    let mut dispatcher = spec.build_dispatcher();
    let mut allocator = spec.build_allocator(&spec.build_profiles(), &trace);
    let report = sim.run(dispatcher.as_mut(), allocator.as_mut());

    assert_eq!(report.records.len(), trace.len(), "lost requests");
    let mut ids: Vec<u64> = report.records.iter().map(|r| u64::from(r.id)).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.len(), "duplicated requests");
    // The scaler stayed within bounds the whole run.
    for &(_, gpus) in report.gpu_timeline.points() {
        assert!(
            (3.0..=16.0).contains(&gpus),
            "GPU count {gpus} out of bounds"
        );
    }
    // Despite three faults mid-run, the tail recovered: the last third of
    // the trace has a reasonable p98.
    let late = report.trimmed(secs_to_nanos(100.0));
    assert!(!late.records.is_empty());
    assert!(
        late.latency_summary().p98 < 1_000.0,
        "late p98 {:.1} suggests the system never recovered",
        late.latency_summary().p98
    );
    assert!(report.utilization() > 0.0 && report.utilization() <= 1.01);
}

/// Determinism under the kitchen sink: identical seeds give bit-identical
/// record streams even with every subsystem active.
#[test]
fn kitchen_sink_is_deterministic() {
    let run = || {
        let trace = TraceSpec::twitter_bursty(600.0, 40.0).generate(&mut StdRng::seed_from_u64(7));
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0)
            .with_autoscale(AutoScaleConfig::paper_default(3, 10))
            .with_batching(BatchSpec {
                max_batch: 3,
                marginal_cost: 0.6,
            });
        let initial = spec.initial_allocation(&spec.build_profiles(), &trace);
        let sim = Simulation::new(&trace, spec.build_profiles(), &initial, spec.sim_config())
            .with_faults(vec![FaultSpec {
                at: 10_000_000_000,
                instance: 0,
                kind: FaultKind::Crash,
            }]);
        let mut dispatcher = spec.build_dispatcher();
        let mut allocator = spec.build_allocator(&spec.build_profiles(), &trace);
        sim.run(dispatcher.as_mut(), allocator.as_mut()).records
    };
    assert_eq!(run(), run());
}

/// A sustained overload that later clears: the backlog must drain through
/// the bounded queues + central buffer, and the post-recovery tail must be
/// indistinguishable from an unstressed run.
///
/// The surge targets the *longest* bin — the one place demotion cannot
/// shed load — with controlled arithmetic: 4 000 length-500 requests over
/// 10 s against a single 512 instance (4.86 ms each ⇒ ~19.4 s of work),
/// followed by a minute of short-only traffic while it drains.
#[test]
fn overload_backlog_drains_cleanly() {
    let mut rng = StdRng::seed_from_u64(11);
    let surge = TraceSpec {
        lengths: LengthSpec::Fixed(500),
        arrivals: ArrivalSpec::Poisson { rate: 400.0 },
        duration_secs: 10.0,
    }
    .generate(&mut rng);
    let calm = TraceSpec {
        lengths: LengthSpec::LogNormal {
            mu: 3.2,
            sigma: 0.5,
            min: 1,
            max: 128,
        },
        arrivals: ArrivalSpec::Poisson { rate: 400.0 },
        duration_secs: 60.0,
    }
    .generate(&mut rng);
    let trace = surge.concat(&calm);
    // Fix the deployment (bypassing the history-informed provisioning,
    // which would pre-provision for the surge): two 64 instances, one 128,
    // one 512.
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
    let profiles = spec.build_profiles();
    let sim = Simulation::new(
        &trace,
        profiles,
        &[2, 1, 0, 0, 0, 0, 0, 1],
        SimConfig::paper_default(150.0),
    );
    let mut dispatcher = spec.build_dispatcher();
    let mut noop = NoopAllocator;
    let report = sim.run(dispatcher.as_mut(), &mut noop);
    assert_eq!(report.records.len(), trace.len());
    // The surge exceeded the 512 instance's bounded queue (2×SLO ≈ 60
    // requests), so the central buffer engaged…
    assert!(
        report.buffered_requests > 0,
        "surge should overflow the instance queue"
    );
    // …and by the final 30 s the backlog is gone: short traffic is served
    // at its usual few-ms latency.
    let tail = report.trimmed(secs_to_nanos(40.0));
    assert!(!tail.records.is_empty());
    assert!(
        tail.latency_summary().p98 < 50.0,
        "post-surge p98 {:.1} — backlog never drained",
        tail.latency_summary().p98
    );
}

/// Long-haul stability: 10 allocation periods of drifting traffic leave no
/// monotone drift in latency (no slow leak of capacity or load accounting).
#[test]
fn long_haul_latency_is_stationary() {
    let trace = TraceSpec {
        lengths: LengthSpec::TwitterModulated {
            max: 512,
            rho: 0.9,
            step_std: 0.05,
        },
        arrivals: ArrivalSpec::Poisson { rate: 1000.0 },
        duration_secs: 1200.0,
    }
    .generate(&mut StdRng::seed_from_u64(21));
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0);
    let report = spec.run(&trace);
    assert_eq!(report.records.len(), trace.len());
    // Compare mean latency of minutes 2–4 against minutes 16–18.
    let early = report.trimmed(secs_to_nanos(120.0));
    let early: Vec<f64> = early
        .records
        .iter()
        .filter(|r| r.arrival < secs_to_nanos(240.0))
        .map(|r| (r.completed - r.arrival) as f64 / 1e6)
        .collect();
    let late: Vec<f64> = report
        .records
        .iter()
        .filter(|r| r.arrival >= secs_to_nanos(960.0) && r.arrival < secs_to_nanos(1080.0))
        .map(|r| (r.completed - r.arrival) as f64 / 1e6)
        .collect();
    let (e, l) = (
        early.iter().sum::<f64>() / early.len() as f64,
        late.iter().sum::<f64>() / late.len() as f64,
    );
    assert!(
        (l / e) < 2.5 && (e / l) < 2.5,
        "latency drifted: early {e:.2} ms vs late {l:.2} ms"
    );
}
