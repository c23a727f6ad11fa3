//! Property-based tests (proptest) over the workspace's core invariants.

use arlo::prelude::*;
use arlo_solver::problem::RuntimeInput;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn burst_map(exec_ms: f64, m: usize) -> BatchLatencyMap {
    BatchLatencyMap::from_measurements(
        (1..=m.max(1))
            .map(|b| exec_ms * (b as f64 + 1.0) / 2.0)
            .collect(),
    )
}

/// Strategy: small random allocation problems (brute-forceable).
fn small_problem() -> impl Strategy<Value = AllocationProblem> {
    let runtime = (1u32..=20, 0.0f64..60.0, 0.5f64..4.0);
    (2u32..=9, proptest::collection::vec(runtime, 2..=4)).prop_map(|(gpus, spec)| {
        let mut max_length = 0;
        let runtimes = spec
            .into_iter()
            .map(|(cap, demand, exec)| {
                max_length += 64;
                RuntimeInput {
                    max_length,
                    capacity: cap,
                    demand,
                    batch_latency: burst_map(exec, cap.max(1) as usize),
                }
            })
            .collect();
        AllocationProblem { gpus, runtimes }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DP solver is exactly optimal: it matches exhaustive enumeration
    /// on every feasible instance and agrees on infeasibility.
    #[test]
    fn dp_matches_brute_force(problem in small_problem()) {
        let dp = DpSolver::default().solve(&problem);
        let bf = BruteForceSolver.solve(&problem);
        match (dp, bf) {
            (Ok((da, dc)), Ok((ba, bc))) => {
                prop_assert!((dc - bc).abs() < 1e-6, "dp {dc} vs brute {bc}");
                prop_assert!(problem.is_feasible(&da));
                prop_assert!(problem.is_feasible(&ba));
            }
            (Err(de), Err(be)) => prop_assert_eq!(de, be),
            (dp, bf) => prop_assert!(false, "disagreement: {:?} vs {:?}", dp, bf),
        }
    }

    /// Any allocation the DP returns is feasible and its reported objective
    /// matches independent re-evaluation.
    #[test]
    fn dp_objective_is_consistent(problem in small_problem()) {
        if let Ok((alloc, cost)) = DpSolver::default().solve(&problem) {
            let re = problem.evaluate(&alloc).expect("feasible");
            prop_assert!((re - cost).abs() < 1e-6, "reported {cost} vs evaluated {re}");
        }
    }

    /// The linearized MILP allocator produces feasible allocations whose
    /// linear cost is at least the ideal-service lower bound.
    #[test]
    fn linearized_allocator_feasible(problem in small_problem()) {
        if let Ok((alloc, cost)) = LinearizedAllocator::default().solve(&problem) {
            prop_assert_eq!(alloc.total(), problem.gpus);
            prop_assert!(*alloc.instances.last().unwrap() >= 1);
            // Lower bound: each bin's demand pays at least the cheapest
            // exec among the runtimes that can serve it (in random problems
            // a larger runtime may be cheaper, unlike calibrated models).
            let execs: Vec<f64> = problem
                .runtimes
                .iter()
                .map(|rt| rt.batch_latency.mean_latency_ms(1.0))
                .collect();
            let lower: f64 = problem
                .runtimes
                .iter()
                .enumerate()
                .map(|(j, rt)| {
                    let cheapest = execs[j..].iter().cloned().fold(f64::INFINITY, f64::min);
                    rt.demand * cheapest
                })
                .sum();
            prop_assert!(cost >= lower - 1e-6, "cost {cost} below ideal bound {lower}");
        }
    }

    /// The exact DP never loses to the linearized MILP when both are
    /// scored on the true (queueing-aware) objective.
    #[test]
    fn dp_dominates_linearized_on_true_objective(problem in small_problem()) {
        if let (Ok((_, dp_cost)), Ok((lin_alloc, _))) = (
            DpSolver::default().solve(&problem),
            LinearizedAllocator::default().solve(&problem),
        ) {
            if let Some(lin_true) = problem.evaluate(&lin_alloc) {
                prop_assert!(
                    dp_cost <= lin_true + 1e-6,
                    "DP {dp_cost} must not lose to linearized {lin_true}"
                );
            }
        }
    }

    /// Proportional rounding conserves the GPU budget and honours minimums.
    #[test]
    fn proportional_rounding_conserves(
        weights in proptest::collection::vec(0.0f64..100.0, 1..=12),
        gpus in 0u32..500,
        last_min in 0u32..3,
    ) {
        let mut mins = vec![0u32; weights.len()];
        *mins.last_mut().unwrap() = last_min;
        match proportional_rounding(&weights, gpus, &mins) {
            Ok(counts) => {
                prop_assert_eq!(counts.iter().sum::<u32>(), gpus);
                for (c, m) in counts.iter().zip(&mins) {
                    prop_assert!(c >= m);
                }
            }
            Err(_) => prop_assert!(last_min > gpus),
        }
    }

    /// Log-normal lengths always respect their bounds, and rescaling scales
    /// the median.
    #[test]
    fn lognormal_bounds_and_rescale(
        mu in 1.0f64..5.0,
        sigma in 0.1f64..1.2,
        seed in 0u64..1000,
    ) {
        let mut dist = LogNormalLengths { mu, sigma, min: 1, max: 512 };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let len = dist.sample(&mut rng);
            prop_assert!((1..=512).contains(&len));
        }
        let scaled = dist.rescaled(2.0, 1024);
        prop_assert!((scaled.median() - 2.0 * dist.median()).abs() < 1e-9);
    }

    /// The CDF is monotone and its quantiles invert evaluation.
    #[test]
    fn cdf_monotone_and_inverse(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(&samples);
        let qs = [0.0, 0.25, 0.5, 0.75, 0.98, 1.0];
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let x = cdf.quantile(q);
            prop_assert!(x >= prev);
            prev = x;
            // Evaluating at the quantile covers at least q of the mass, up
            // to the 1/n discretization of linear-interpolated quantiles.
            let tol = 1.0 / samples.len() as f64 + 1e-9;
            prop_assert!(cdf.eval(x) + tol >= q);
        }
    }

    /// FLOP waste is always in [0, 1).
    #[test]
    fn waste_fraction_bounded(
        lengths in proptest::collection::vec(1u32..=512, 1..100),
        max_len in 1u32..=512,
    ) {
        let w = wasted_flops_fraction(&lengths, max_len);
        prop_assert!((0.0..1.0).contains(&w), "waste {w}");
    }

    /// Algorithm 1 (frontend form) never dispatches to a level whose
    /// max_length is below the request, and load bookkeeping is exact.
    #[test]
    fn frontend_respects_lengths_and_conserves(
        ops in proptest::collection::vec((1u32..=512, proptest::bool::ANY), 1..300),
    ) {
        let f = SchedulerFrontend::new(
            RequestSchedulerConfig::default(),
            &[(64, 20, 2), (128, 15, 2), (256, 10, 1), (512, 8, 2)],
        );
        let lens = [64u32, 128, 256, 512];
        let mut held: Vec<(InstanceHandle, u32)> = Vec::new();
        let mut dispatched = 0u64;
        for (len, complete_one) in ops {
            if let Some(h) = f.dispatch(len) {
                prop_assert!(lens[h.level] >= len, "level {} for len {len}", h.level);
                held.push((h, len));
                dispatched += 1;
            }
            if complete_one {
                if let Some((h, _)) = held.pop() {
                    f.complete(h);
                    dispatched -= 1;
                }
            }
        }
        prop_assert_eq!(f.total_outstanding(), dispatched);
    }

    /// The event queue pops in exactly sorted (time, insertion) order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Event::Arrival(i));
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        for (t, i) in expected {
            let (pt, pe) = q.pop().expect("queue non-empty");
            prop_assert_eq!(pt, t);
            prop_assert_eq!(pe, Event::Arrival(i));
        }
        prop_assert!(q.pop().is_none());
    }

    /// End-to-end: random small traces through the full Arlo stack complete
    /// every request exactly once, on runtimes that fit, with sane latency.
    #[test]
    fn full_stack_conservation(seed in 0u64..64, rate in 50.0f64..400.0, gpus in 3u32..8) {
        let trace = TraceSpec::twitter_stable(rate, 4.0)
            .generate(&mut StdRng::seed_from_u64(seed));
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), gpus, 150.0);
        let profiles = spec.build_profiles();
        let lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let report = spec.run(&trace);
        prop_assert_eq!(report.records.len(), trace.len());
        for r in &report.records {
            prop_assert!(r.length <= lens[r.runtime_idx as usize]);
            // Latency ≥ execution cost of the serving runtime + overhead.
            let exec = profiles[r.runtime_idx as usize].exec_ms;
            let lat = (r.completed - r.arrival) as f64 / 1e6 + 0.8;
            prop_assert!(lat + 1e-6 >= exec + 0.8, "lat {lat} < exec {exec}");
        }
    }

    /// LP solutions satisfy every constraint they were solved under.
    #[test]
    fn lp_solutions_are_feasible(
        c in proptest::collection::vec(0.1f64..10.0, 2..=4),
        bounds in proptest::collection::vec(1.0f64..50.0, 2..=4),
        demand in 1.0f64..40.0,
    ) {
        let n = c.len().min(bounds.len());
        let c = &c[..n];
        let bounds = &bounds[..n];
        // min c·x  s.t.  Σx ≥ demand, x_i ≤ bound_i — feasible iff Σbounds ≥ demand.
        let mut constraints = vec![Constraint {
            coeffs: vec![1.0; n],
            relation: Relation::Ge,
            rhs: demand,
        }];
        for (i, &b) in bounds.iter().enumerate() {
            let mut coeffs = vec![0.0; n];
            coeffs[i] = 1.0;
            constraints.push(Constraint { coeffs, relation: Relation::Le, rhs: b });
        }
        let lp = LinearProgram { objective: c.to_vec(), constraints, maximize: false };
        let feasible = bounds.iter().sum::<f64>() >= demand;
        match solve_lp(&lp) {
            Ok(sol) => {
                prop_assert!(feasible);
                let total: f64 = sol.x.iter().sum();
                prop_assert!(total + 1e-6 >= demand, "Σx {total} < {demand}");
                for (x, &b) in sol.x.iter().zip(bounds) {
                    prop_assert!(*x <= b + 1e-6 && *x >= -1e-9);
                }
                let obj: f64 = sol.x.iter().zip(c).map(|(x, c)| x * c).sum();
                prop_assert!((obj - sol.objective).abs() < 1e-6);
                // Optimality sanity: cheapest-variable greedy is an upper bound.
                prop_assert!(sol.objective <= greedy_fill(c, bounds, demand) + 1e-6);
            }
            Err(SolveError::Infeasible) => prop_assert!(!feasible),
            Err(e) => prop_assert!(false, "unexpected {e:?}"),
        }
    }
}

/// Greedy: fill cheapest variables first (optimal for this box-constrained
/// covering LP, used as a cross-check).
fn greedy_fill(c: &[f64], bounds: &[f64], demand: f64) -> f64 {
    let mut idx: Vec<usize> = (0..c.len()).collect();
    idx.sort_by(|&a, &b| c[a].partial_cmp(&c[b]).expect("NaN"));
    let mut left = demand;
    let mut cost = 0.0;
    for i in idx {
        let take = left.min(bounds[i]);
        cost += take * c[i];
        left -= take;
        if left <= 0.0 {
            break;
        }
    }
    cost
}

/// Runtime ladder of the Algorithm 1 differential below.
const MLQ_LADDER: [u32; 5] = [64, 128, 256, 384, 512];

/// Algorithm 1 has two readers of one multi-level queue: the simulator's
/// `ArloRequestScheduler` over a `Cluster`, and the live engine's
/// `SchedulerFrontend`. Built from the same profiles, they must pick the same
/// (level, index) at every dispatch of a random run of dispatches and
/// completions — over deployments with empty levels, every peek depth `L`
/// in 1..=6, and lengths from 0 to past the largest runtime. The cluster's
/// queue bound is lifted because the frontend has none; a 25 ms SLO keeps
/// capacities small, so the congestion test and the fallback both fire.
#[test]
fn algorithm1_simulator_and_frontend_agree() {
    use arlo::core::frontend::{InstanceHandle, SchedulerFrontend};
    use arlo::sim::cluster::Cluster;

    let model = ModelSpec::bert_base();
    let profiles: Vec<RuntimeProfile> = MLQ_LADDER
        .iter()
        .map(|&l| RuntimeProfile::measure(CompiledRuntime::new_static(model.clone(), l), 25.0, 64))
        .collect();
    proptest!(ProptestConfig::with_cases(128), |(
        counts in proptest::collection::vec(0u32..4, MLQ_LADDER.len()),
        max_peek in 1usize..=6,
        ops in proptest::collection::vec((0u8..6, 0u64..1 << 32), 1..400),
    )| {
        let mut counts = counts;
        let top = counts.len() - 1;
        counts[top] = counts[top].max(1);
        let config = RequestSchedulerConfig { max_peek, ..RequestSchedulerConfig::default() };
        let mut cluster = Cluster::with_queue_limits(
            profiles.clone(),
            &counts,
            JitterSpec::NONE,
            1_000_000_000,
            vec![u32::MAX; counts.len()],
        );
        let levels: Vec<(u32, u32, u32)> = profiles
            .iter()
            .zip(&counts)
            .map(|(p, &n)| (p.max_length(), p.capacity_within_slo, n))
            .collect();
        let frontend = SchedulerFrontend::new(config, &levels);
        let scheduler = ArloRequestScheduler::new(config);
        // The cluster numbers instances level by level.
        let handles: Vec<InstanceHandle> = counts
            .iter()
            .enumerate()
            .flat_map(|(level, &n)| (0..n as usize).map(move |index| InstanceHandle { level, index }))
            .collect();
        let mut finished = Vec::new();
        for (step, &(op, roll)) in ops.iter().enumerate() {
            let now = step as u64 * 1_000;
            match op {
                0..=3 => {
                    let length = (roll % 601) as u32;
                    let sim = scheduler.select(length, &cluster.view());
                    let live = frontend.dispatch(length);
                    prop_assert_eq!(
                        sim.map(|id| handles[id]),
                        live,
                        "step {} length {} counts {:?} L {}",
                        step,
                        length,
                        counts,
                        max_peek
                    );
                    if let Some(id) = sim {
                        let req = Request { id: step as u64, arrival: now, length };
                        cluster.enqueue(id, req, now);
                    }
                }
                _ => {
                    let busy: Vec<usize> = (0..handles.len())
                        .filter(|&id| cluster.view().outstanding(id) > 0)
                        .collect();
                    if let Some(&id) = busy.get(roll as usize % busy.len().max(1)) {
                        cluster.complete(id, now, &mut finished);
                        frontend.complete(handles[id]);
                    }
                }
            }
        }
    });
}

/// §3.3's Runtime Scheduler has two callers: the simulator's allocation
/// tick and the live engine's `maybe_reallocate`. Fed the same arrival
/// stream over at least three decision periods, with the same GPUs and the
/// same 10 s sub-windows, the engine's deployment after each tick must be
/// the simulator's last adopted target (its initial counts before any).
/// Arrivals sit off the tick instants, where the order of an arrival and a
/// tick is the event queue's insertion order in the simulator and the
/// embedder's call order in the engine.
#[test]
fn runtime_scheduler_simulator_and_engine_agree() {
    use arlo::sim::metrics::JournalEntry;

    const SEC: u64 = arlo::trace::NANOS_PER_SEC;
    const SLO_MS: f64 = 25.0;
    let set = RuntimeSet::with_count(ModelSpec::bert_base(), 4);
    let profiles = profile_runtimes(&set.compile(), SLO_MS, 64);
    let max = profiles.last().expect("non-empty").max_length();
    proptest!(ProptestConfig::with_cases(48), |(
        counts in proptest::collection::vec(0u32..6, 4),
        period_secs in 10u64..=40,
        periods in 3u64..=4,
        arrivals in proptest::collection::vec((0u64..1 << 32, 0u32..4, 1u32..=u32::MAX), 1..3000),
    )| {
        let mut counts = counts;
        counts[3] = counts[3].max(1);
        let gpus: u32 = counts.iter().sum();
        let period = period_secs * SEC;
        let horizon_ms = periods * period_secs * 1_000;
        // Each arrival lands on a whole millisecond plus 1 ns; a quarter
        // are short (1..=64 tokens), the rest anywhere in 1..=max.
        let mut stream: Vec<(u64, u32)> = arrivals
            .iter()
            .map(|&(at, kind, roll)| {
                let cap = if kind == 0 { 64 } else { max };
                ((at % horizon_ms) * 1_000_000 + 1, 1 + roll % cap)
            })
            .collect();
        stream.sort_unstable();
        let requests: Vec<Request> = stream
            .iter()
            .enumerate()
            .map(|(id, &(arrival, length))| Request { id: id as u64, arrival, length })
            .collect();
        let trace = Trace::from_requests(requests, periods * period);

        let mut config = SimConfig::paper_default(SLO_MS);
        config.allocation_period_secs = period_secs as f64;
        config.journal_limit = usize::MAX;
        let report = Simulation::new(&trace, profiles.clone(), &counts, config).run(
            &mut ArloRequestScheduler::paper_default(),
            &mut ArloRuntimeScheduler::paper_default(),
        );
        let adopted: Vec<(u64, Vec<u32>)> = report
            .journal
            .iter()
            .filter_map(|(at, entry)| match entry {
                JournalEntry::AllocationAdopted { target } => Some((*at, target.clone())),
                _ => None,
            })
            .collect();

        let mut engine_config = EngineConfig::paper_default(SLO_MS);
        engine_config.allocation_period = period;
        engine_config.sub_window = 10 * SEC;
        let engine = ArloEngine::new(profiles.clone(), counts.clone(), engine_config);
        let mut next = 0;
        for tick in 1..=report.alloc_count {
            let now = tick * period;
            while next < stream.len() && stream[next].0 < now {
                let (arrival, length) = stream[next];
                if let Some(placement) = engine.submit(length, arrival) {
                    engine.complete(placement);
                }
                next += 1;
            }
            if let Some(plan) = engine.maybe_reallocate(now, gpus) {
                engine.apply_allocation(&plan);
            }
            let expected = adopted
                .iter()
                .rev()
                .find(|(at, _)| *at <= now)
                .map_or(&counts, |(_, target)| target);
            prop_assert_eq!(
                &engine.deployment().1,
                expected,
                "tick {} of {} (period {} s, {} arrivals, counts {:?})",
                tick,
                report.alloc_count,
                period_secs,
                stream.len(),
                counts
            );
        }
    });
}
