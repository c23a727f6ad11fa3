//! Integration tests for the §6/§3.2 extensions: multi-stream pool
//! coordination, batched execution, fault injection, and the compilation
//! registry — exercised end-to-end across crates.

use arlo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn multistream_partition_beats_proportional_end_to_end() {
    let mut rng = StdRng::seed_from_u64(31);
    let base_trace = TraceSpec::twitter_bursty(2500.0, 20.0).generate(&mut rng);
    let large_trace = TraceSpec::twitter_bursty(400.0, 20.0).generate(&mut rng);
    let pool = 24u32;

    let base_spec = SystemSpec::arlo(ModelSpec::bert_base(), pool, 150.0);
    let large_spec = SystemSpec::arlo(ModelSpec::bert_large(), pool, 450.0);
    let plans = vec![
        plan_from_trace("base", base_spec.build_profiles(), &base_trace, 150.0),
        plan_from_trace("large", large_spec.build_profiles(), &large_trace, 450.0),
    ];
    let part = PoolCoordinator.partition(&plans, pool).expect("feasible");
    let naive = PoolCoordinator::proportional_split(&plans, pool);
    assert_eq!(part.gpus.iter().sum::<u32>(), pool);
    assert_eq!(naive.iter().sum::<u32>(), pool);

    // Simulate each stream under both splits; the coordinated split's
    // demand-weighted mean must win overall.
    let simulate = |spec: &SystemSpec, trace: &Trace, alloc: &[u32]| -> f64 {
        let sim = Simulation::new(
            trace,
            spec.build_profiles(),
            alloc,
            SimConfig::paper_default(spec.slo_ms),
        );
        let mut dispatcher = spec.build_dispatcher();
        let mut noop = NoopAllocator;
        let report = sim.run(dispatcher.as_mut(), &mut noop);
        assert_eq!(report.records.len(), trace.len());
        report.latency_summary().mean * trace.len() as f64
    };
    let coordinated = simulate(&base_spec, &base_trace, &part.allocations[0])
        + simulate(&large_spec, &large_trace, &part.allocations[1]);
    let prop_total: f64 = [(0, &base_spec, &base_trace), (1, &large_spec, &large_trace)]
        .into_iter()
        .map(|(k, spec, trace)| {
            let alloc = plans[k].allocation_at(naive[k]).expect("feasible");
            simulate(spec, trace, &alloc.instances)
        })
        .sum();
    assert!(
        coordinated < prop_total,
        "coordinated {coordinated:.0} ms·req should beat proportional {prop_total:.0}"
    );
}

#[test]
fn batching_raises_the_saturation_point() {
    // At a load past batch-1 saturation, batching must recover stability.
    let trace = TraceSpec::twitter_stable(4200.0, 15.0).generate(&mut StdRng::seed_from_u64(32));
    let unbatched = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let batched = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0)
        .with_batching(BatchSpec {
            max_batch: 4,
            marginal_cost: 0.6,
        })
        .run(&trace);
    assert_eq!(batched.records.len(), trace.len());
    assert!(
        batched.latency_summary().mean < unbatched.latency_summary().mean,
        "batched {:.2} vs unbatched {:.2}",
        batched.latency_summary().mean,
        unbatched.latency_summary().mean
    );
}

#[test]
fn batching_is_invisible_at_low_load() {
    let trace = TraceSpec::twitter_stable(300.0, 10.0).generate(&mut StdRng::seed_from_u64(33));
    let a = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let b = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0)
        .with_batching(BatchSpec {
            max_batch: 8,
            marginal_cost: 0.6,
        })
        .run(&trace);
    let (ma, mb) = (a.latency_summary().mean, b.latency_summary().mean);
    assert!(
        (ma - mb).abs() / ma < 0.05,
        "low-load means should match: {ma:.3} vs {mb:.3}"
    );
}

#[test]
fn faults_never_lose_requests_under_any_policy() {
    let trace = TraceSpec::twitter_stable(1500.0, 12.0).generate(&mut StdRng::seed_from_u64(34));
    let base = SystemSpec::arlo(ModelSpec::bert_base(), 8, 150.0);
    let initial = base.initial_allocation(&base.build_profiles(), &trace);
    let faults = vec![
        FaultSpec {
            at: 2_000_000_000,
            instance: 0,
            kind: FaultKind::Slowdown {
                factor: 6.0,
                duration: 4_000_000_000,
            },
        },
        FaultSpec {
            at: 3_000_000_000,
            instance: 1,
            kind: FaultKind::Crash,
        },
        FaultSpec {
            at: 6_000_000_000,
            instance: 1,
            kind: FaultKind::Crash,
        },
    ];
    for dispatch in [
        None,
        Some(DispatchPolicy::Ilb),
        Some(DispatchPolicy::Ig),
        Some(DispatchPolicy::InfaasPack),
    ] {
        let spec = match dispatch {
            None => base.clone(),
            Some(d) => base.clone().with_dispatch(d, "variant"),
        };
        let sim = Simulation::new(&trace, spec.build_profiles(), &initial, spec.sim_config())
            .with_faults(faults.clone());
        let mut dispatcher = spec.build_dispatcher();
        let mut noop = NoopAllocator;
        let report = sim.run(dispatcher.as_mut(), &mut noop);
        assert_eq!(
            report.records.len(),
            trace.len(),
            "{:?} lost requests",
            dispatch
        );
        let mut ids: Vec<u64> = report.records.iter().map(|r| u64::from(r.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len(), "{:?} duplicated requests", dispatch);
    }
}

#[test]
fn registry_prices_the_whole_deployment_pipeline() {
    // Offline stage end-to-end: registry compiles the natural family, the
    // profiler consumes it, and the build cost matches the cost model.
    let model = ModelSpec::bert_base();
    let costs = CompileCostModel::for_framework(model.framework);
    let mut registry = RuntimeRegistry::new();
    let set = RuntimeSet::natural(model.clone());
    let family = registry.compile_family(&model, set.lengths(), &costs);
    assert_eq!(family.len(), 8);
    let expected = costs.family_cost_secs(&model, set.lengths());
    assert!((registry.total_build_secs() - expected).abs() < 1e-9);
    // Profiles build fine from registry output.
    let profiles = profile_runtimes(&family, 150.0, 64);
    assert_eq!(profiles.len(), 8);
    // A second deployment of the same family is free.
    let again = registry.compile_family(&model, set.lengths(), &costs);
    assert_eq!(again.len(), 8);
    assert!((registry.total_build_secs() - expected).abs() < 1e-9);
}

#[test]
fn utilization_is_consistent_across_schemes() {
    // Same trace, same GPUs: every scheme's utilization is in (0, 1], and
    // Arlo completes the work with less GPU busy-time than ST (padding is
    // busy-time spent on zeros).
    let trace = TraceSpec::twitter_stable(1200.0, 15.0).generate(&mut StdRng::seed_from_u64(35));
    let arlo = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let st = SystemSpec::st(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    for (name, r) in [("arlo", &arlo), ("st", &st)] {
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.01, "{name} utilization {u}");
    }
    assert!(
        arlo.total_busy_ns < st.total_busy_ns * 2 / 3,
        "Arlo busy {} vs ST {} — padding should dominate ST's busy time",
        arlo.total_busy_ns,
        st.total_busy_ns
    );
}
