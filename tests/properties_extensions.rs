//! Property-based tests over the extension components: the MILP engine,
//! batching, fault injection, the diurnal process, quantile provisioning
//! and the multi-stream coordinator.

use arlo::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Branch-and-bound solves random 0/1 knapsacks exactly (checked
    /// against exhaustive enumeration).
    #[test]
    fn bnb_matches_exhaustive_knapsack(
        values in proptest::collection::vec(1.0f64..20.0, 2..=8),
        weights in proptest::collection::vec(1.0f64..10.0, 2..=8),
        capacity in 5.0f64..30.0,
    ) {
        let n = values.len().min(weights.len());
        let (values, weights) = (&values[..n], &weights[..n]);
        // MILP formulation: maximize v·x s.t. w·x <= cap, 0 <= x_i <= 1 int.
        let mut constraints = vec![Constraint {
            coeffs: weights.to_vec(),
            relation: Relation::Le,
            rhs: capacity,
        }];
        for i in 0..n {
            let mut coeffs = vec![0.0; n];
            coeffs[i] = 1.0;
            constraints.push(Constraint { coeffs, relation: Relation::Le, rhs: 1.0 });
        }
        let mip = MixedIntegerProgram {
            lp: LinearProgram { objective: values.to_vec(), constraints, maximize: true },
            integer_vars: (0..n).collect(),
        };
        let sol = BnbSolver::default().solve(&mip).expect("knapsack is feasible");
        // Exhaustive.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut v, mut w) = (0.0, 0.0);
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    v += values[i];
                    w += weights[i];
                }
            }
            if w <= capacity + 1e-9 {
                best = best.max(v);
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-6, "bnb {} vs brute {best}", sol.objective);
        // The reported solution is itself feasible and 0/1.
        let w: f64 = sol.x.iter().zip(weights).map(|(x, w)| x * w).sum();
        prop_assert!(w <= capacity + 1e-6);
        for &x in &sol.x {
            prop_assert!(x == 0.0 || x == 1.0);
        }
    }

    /// Batched execution conserves requests, never exceeds the batch bound,
    /// and completes whole batches together.
    #[test]
    fn batching_invariants(
        seed in 0u64..48,
        rate in 200.0f64..2000.0,
        max_batch in 1u32..=8,
        marginal in 0.2f64..=1.0,
    ) {
        let trace = TraceSpec::twitter_stable(rate, 4.0)
            .generate(&mut StdRng::seed_from_u64(seed));
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 6, 150.0)
            .with_batching(BatchSpec { max_batch, marginal_cost: marginal });
        let report = spec.run(&trace);
        prop_assert_eq!(report.records.len(), trace.len());
        // Group by (instance, completion time): batch size ≤ max_batch.
        let mut groups = std::collections::HashMap::new();
        for r in &report.records {
            *groups.entry((r.instance, r.completed)).or_insert(0u32) += 1;
        }
        for (&(inst, t), &count) in &groups {
            prop_assert!(
                count <= max_batch,
                "instance {inst} completed {count} > {max_batch} at {t}"
            );
        }
    }

    /// Random fault schedules never lose or duplicate requests.
    #[test]
    fn random_faults_conserve_requests(
        seed in 0u64..48,
        fault_plan in proptest::collection::vec(
            (0u64..8_000_000_000, 0usize..6, proptest::bool::ANY, 1.5f64..8.0),
            0..6,
        ),
    ) {
        let trace = TraceSpec::twitter_stable(600.0, 8.0)
            .generate(&mut StdRng::seed_from_u64(seed));
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 6, 150.0);
        let initial = spec.initial_allocation(&spec.build_profiles(), &trace);
        let total: u32 = initial.iter().sum();
        let faults: Vec<FaultSpec> = fault_plan
            .into_iter()
            .map(|(at, inst, crash, factor)| FaultSpec {
                at,
                instance: inst % total as usize,
                kind: if crash {
                    FaultKind::Crash
                } else {
                    FaultKind::Slowdown { factor, duration: 2_000_000_000 }
                },
            })
            .collect();
        let sim = Simulation::new(
            &trace,
            spec.build_profiles(),
            &initial,
            spec.sim_config(),
        )
        .with_faults(faults);
        let mut dispatcher = spec.build_dispatcher();
        let mut noop = NoopAllocator;
        let report = sim.run(dispatcher.as_mut(), &mut noop);
        prop_assert_eq!(report.records.len(), trace.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| u64::from(r.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
    }

    /// Diurnal arrivals are strictly increasing and average out to the base
    /// rate over whole cycles.
    #[test]
    fn diurnal_process_properties(
        base in 100.0f64..1000.0,
        amplitude in 0.0f64..0.9,
        seed in 0u64..100,
    ) {
        let mut p = Diurnal::new(base, amplitude, 30.0, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = 0;
        let mut count = 0u64;
        loop {
            let t = p.next_arrival(&mut rng);
            prop_assert!(t > prev, "non-increasing arrival");
            prev = t;
            if t > 60 * 1_000_000_000 {
                break;
            }
            count += 1;
        }
        let rate = count as f64 / 60.0;
        // Two full cycles: sinusoid integrates out; allow sampling noise.
        let tol = 4.0 * (base * 60.0).sqrt() / 60.0 + 0.05 * base;
        prop_assert!((rate - base).abs() < tol, "rate {rate} vs base {base}");
    }

    /// Quantile provisioning is monotone in the quantile and anchored by
    /// the min/max sub-window demand.
    #[test]
    fn demand_quantile_is_monotone(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u64..500, 2..=2),
            2..12,
        ),
    ) {
        let bins = 2;
        let totals: Vec<u64> =
            (0..bins).map(|b| counts.iter().map(|w| w[b]).sum()).collect();
        let window = DemandWindow {
            bin_counts: totals,
            window: counts.len() as u64 * 10 * 1_000_000_000,
            slo_ms: 150.0,
            sub_counts: counts.clone(),
            sub_window: 10 * 1_000_000_000,
        };
        let mut prev = window.demand_quantile_per_slo(0.0);
        for q in [0.25, 0.5, 0.75, 0.9, 1.0] {
            let cur = window.demand_quantile_per_slo(q);
            for (bin, (&p, &c)) in prev.iter().zip(&cur).enumerate() {
                prop_assert!(c + 1e-9 >= p, "bin {bin} not monotone at q={q}");
            }
            prev = cur;
        }
        // q = 1.0 equals the peak sub-window demand.
        let peak = window.demand_quantile_per_slo(1.0);
        for b in 0..bins {
            let max_count = counts.iter().map(|w| w[b]).max().expect("non-empty") as f64;
            let expected = max_count / 10.0 * 0.15;
            prop_assert!((peak[b] - expected).abs() < 1e-9);
        }
    }

    /// The multi-stream coordinator is exact: for random two-stream demand
    /// mixes it matches exhaustive enumeration of splits.
    #[test]
    fn coordinator_matches_exhaustive_two_streams(
        scale_a in 0.2f64..2.0,
        scale_b in 0.2f64..2.0,
        pool in 6u32..14,
    ) {
        let mk = |model: ModelSpec, slo: f64, scale: f64| {
            let profiles = profile_runtimes(
                &RuntimeSet::with_count(model, 4).compile(),
                slo,
                256,
            );
            let demand: Vec<f64> = (0..4).map(|i| scale * 30.0 / (1.0 + i as f64)).collect();
            StreamPlan { name: "s".into(), profiles, demand, slo_ms: slo }
        };
        let plans = vec![
            mk(ModelSpec::bert_base(), 150.0, scale_a),
            mk(ModelSpec::bert_large(), 450.0, scale_b),
        ];
        match PoolCoordinator.partition(&plans, pool) {
            Ok(part) => {
                prop_assert_eq!(part.gpus.iter().sum::<u32>(), pool);
                let mut best = f64::INFINITY;
                for a in 0..=pool {
                    let b = pool - a;
                    if let (Some(ca), Some(cb)) = (plans[0].cost_at(a), plans[1].cost_at(b)) {
                        best = best.min(ca + cb);
                    }
                }
                prop_assert!(
                    (part.total_cost - best).abs() < 1e-6,
                    "coordinator {} vs exhaustive {best}",
                    part.total_cost
                );
            }
            Err(_) => {
                // Backoff always succeeds given pool >= number of streams.
                prop_assert!(pool < 2);
            }
        }
    }
}

/// Measured capacity converges to the profiled capacity on a healthy
/// instance (non-proptest: deterministic construction).
#[test]
fn measured_capacity_matches_profile_when_healthy() {
    let model = ModelSpec::bert_base();
    let profiles = profile_runtimes(&[CompiledRuntime::new_static(model, 512)], 150.0, 64);
    let profiled = profiles[0].capacity_within_slo;
    let exec = profiles[0].runtime.exec_nanos(512);
    let mut cluster = Cluster::new(profiles, &[1], JitterSpec::NONE, 1_000_000_000);
    let mut now = 0;
    let mut rng = StdRng::seed_from_u64(1);
    for i in 0..20u64 {
        let _ = rng.next_u64();
        let started = cluster
            .enqueue(
                0,
                Request {
                    id: i,
                    arrival: now,
                    length: 512,
                },
                now,
            )
            .expect("idle");
        now = started.completes_at;
        cluster.complete(0, now, &mut Vec::new());
        assert_eq!(now % exec, 0, "deterministic exec");
    }
    let measured = cluster
        .view()
        .measured_capacity(0, 150.0)
        .expect("has samples");
    assert_eq!(measured, profiled, "healthy EWMA must equal the profile");
}
