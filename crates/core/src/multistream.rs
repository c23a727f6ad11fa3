//! Multi-stream serving (the paper's §6 extension).
//!
//! Arlo is specified per request stream (one model + one SLO); §6 sketches
//! the extension to several streams sharing one GPU pool, "deploying a
//! dedicated Arlo for each stream and employing resource sharing among
//! them". This module implements the resource-sharing half as a
//! **pool coordinator**: a two-level allocation where the outer level
//! splits the pool across streams and the inner level is each stream's own
//! Eq. 1–7 program.
//!
//! The outer split is itself solved exactly: each stream's *cost curve*
//! `cost_k(g)` — the optimal Eq. 1 objective given `g` GPUs, normalized to
//! milliseconds·requests **per second** so streams with different SLO
//! periods are commensurable — is priced at every budget the stream could
//! be granted by one forward pass of the inner DP
//! ([`DpSolver::solve_curve`]), which also yields the inner allocation at
//! each budget. A knapsack-style dynamic program then picks the split
//! `Σ g_k = G` minimizing total cost. Cost curves are non-increasing in
//! `g` (more GPUs never hurt), so the outer DP is exact and the marginal
//! GPU always lands where it buys the most.

use crate::runtime_scheduler::RuntimeSchedulerConfig;
use crate::system::SystemSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_solver::dp::DpSolver;
use arlo_solver::problem::{Allocation, AllocationProblem, SolveError};

/// One stream's inputs to the coordinator.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// Stream name (reports).
    pub name: String,
    /// The stream's profiled runtime family (ascending `max_length`).
    pub profiles: Vec<RuntimeProfile>,
    /// Observed demand `Q_i` per runtime bin, in requests per the stream's
    /// own SLO period (§3.3).
    pub demand: Vec<f64>,
    /// The stream's SLO in ms (normalizes objectives across streams).
    pub slo_ms: f64,
}

impl StreamPlan {
    /// Minimum GPUs this stream can function with (Eq. 3 lower bounds +
    /// Eq. 7).
    pub fn min_gpus(&self) -> u32 {
        let problem = AllocationProblem::from_profiles(1, &self.profiles, &self.demand);
        problem.lower_bounds().iter().sum::<u32>().max(1)
    }

    /// The optimal Eq. 1 objective with `gpus` GPUs, normalized to
    /// ms·requests per second. `None` if infeasible at this budget.
    pub fn cost_at(&self, gpus: u32) -> Option<f64> {
        let problem = AllocationProblem::from_profiles(gpus, &self.profiles, &self.demand);
        if !problem.is_solvable() {
            return None;
        }
        DpSolver::default()
            .solve(&problem)
            .ok()
            .map(|(_, cost)| cost / (self.slo_ms / 1000.0))
    }

    /// The optimal inner allocation at a budget.
    pub fn allocation_at(&self, gpus: u32) -> Option<Allocation> {
        let problem = AllocationProblem::from_profiles(gpus, &self.profiles, &self.demand);
        DpSolver::default().solve(&problem).ok().map(|(a, _)| a)
    }
}

/// A coordinated partition of the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolPartition {
    /// GPUs granted per stream (same order as the input plans).
    pub gpus: Vec<u32>,
    /// Per-stream inner allocations (instances per runtime).
    pub allocations: Vec<Vec<u32>>,
    /// Total normalized objective (ms·requests per second).
    pub total_cost: f64,
}

/// The outer-level coordinator.
///
/// ```
/// use arlo_core::multistream::{PoolCoordinator, StreamPlan};
/// use arlo_runtime::prelude::*;
///
/// let mk = |model: ModelSpec, slo: f64, scale: f64| StreamPlan {
///     name: "stream".into(),
///     profiles: profile_runtimes(&RuntimeSet::with_count(model, 4).compile(), slo, 256),
///     demand: (0..4).map(|i| scale * 20.0 / (1.0 + i as f64)).collect(),
///     slo_ms: slo,
/// };
/// let plans = vec![
///     mk(ModelSpec::bert_base(), 150.0, 1.0),
///     mk(ModelSpec::bert_large(), 450.0, 0.5),
/// ];
/// let part = PoolCoordinator.partition(&plans, 12).expect("feasible");
/// assert_eq!(part.gpus.iter().sum::<u32>(), 12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCoordinator;

impl PoolCoordinator {
    /// Split `total_gpus` across the streams, minimizing the summed
    /// normalized objective. Exact (outer knapsack DP over exact inner
    /// cost curves).
    ///
    /// When aggregate demand overloads the pool, every stream's demand is
    /// scaled down geometrically (the same §3.3 backoff the single-stream
    /// scheduler applies) until a feasible split exists.
    pub fn partition(
        &self,
        plans: &[StreamPlan],
        total_gpus: u32,
    ) -> Result<PoolPartition, SolveError> {
        assert!(!plans.is_empty(), "need at least one stream");
        let backoff = RuntimeSchedulerConfig::default().overload_backoff;
        let mut scaled: Vec<StreamPlan> = plans.to_vec();
        for _ in 0..256 {
            let min_total: u32 = scaled.iter().map(StreamPlan::min_gpus).sum();
            if min_total <= total_gpus {
                return Self::partition_feasible(&scaled, total_gpus);
            }
            for plan in &mut scaled {
                for q in &mut plan.demand {
                    *q *= backoff;
                }
            }
        }
        Err(SolveError::Infeasible)
    }

    fn partition_feasible(
        plans: &[StreamPlan],
        total_gpus: u32,
    ) -> Result<PoolPartition, SolveError> {
        let g = total_gpus as usize;
        let mins: Vec<u32> = plans.iter().map(StreamPlan::min_gpus).collect();
        let reserve_after: Vec<u32> = {
            let mut r = vec![0u32; plans.len() + 1];
            for k in (0..plans.len()).rev() {
                r[k] = r[k + 1] + mins[k];
            }
            r
        };
        // Per-stream cost curves and inner allocations over every budget
        // up to what the other streams' minimums leave: one DP pass per
        // stream. Budgets below a stream's minimum come back `None`.
        let mut curves: Vec<Vec<Option<(Allocation, f64)>>> = plans
            .iter()
            .zip(&reserve_after[1..])
            .map(|(plan, reserve)| {
                let problem = AllocationProblem::from_profiles(
                    total_gpus - reserve,
                    &plan.profiles,
                    &plan.demand,
                );
                let period_s = plan.slo_ms / 1000.0;
                DpSolver::default()
                    .solve_curve(&problem)
                    .into_iter()
                    .map(|point| point.map(|(alloc, cost)| (alloc, cost / period_s)))
                    .collect()
            })
            .collect();
        // Outer DP: best[k][used] = minimal cost of the first k streams
        // using exactly `used` GPUs.
        const INF: f64 = f64::INFINITY;
        let mut best = vec![INF; g + 1];
        let mut choice: Vec<Vec<u32>> = Vec::with_capacity(plans.len());
        best[0] = 0.0;
        for curve in &curves {
            let mut next = vec![INF; g + 1];
            let mut pick = vec![0u32; g + 1];
            #[allow(clippy::needless_range_loop)] // index math is the clearest form here
            for used in 0..=g {
                if best[used] == INF {
                    continue;
                }
                for (grant, point) in curve.iter().enumerate() {
                    let Some((_, cost)) = point else { continue };
                    let total = used + grant;
                    if total > g {
                        break;
                    }
                    let candidate = best[used] + cost;
                    if candidate < next[total] {
                        next[total] = candidate;
                        pick[total] = grant as u32;
                    }
                }
            }
            choice.push(pick);
            best = next;
        }
        // All GPUs must be spent (a stream can always absorb spares —
        // curves are defined up to the remaining budget).
        if best[g] == INF {
            return Err(SolveError::Infeasible);
        }
        let mut gpus = vec![0u32; plans.len()];
        let mut used = g;
        for k in (0..plans.len()).rev() {
            gpus[k] = choice[k][used];
            used -= gpus[k] as usize;
        }
        let allocations: Vec<Vec<u32>> = curves
            .iter_mut()
            .zip(&gpus)
            .map(|(curve, &grant)| {
                curve[grant as usize]
                    .take()
                    .map(|(alloc, _)| alloc.instances)
                    .ok_or(SolveError::Infeasible)
            })
            .collect::<Result<_, _>>()?;
        Ok(PoolPartition {
            gpus,
            allocations,
            total_cost: best[g],
        })
    }

    /// The naive static split (proportional to request rate, the obvious
    /// alternative a multi-tenant operator would reach for) — used as the
    /// ablation baseline.
    pub fn proportional_split(plans: &[StreamPlan], total_gpus: u32) -> Vec<u32> {
        let rates: Vec<f64> = plans
            .iter()
            .map(|p| p.demand.iter().sum::<f64>() / (p.slo_ms / 1000.0))
            .collect();
        let mins: Vec<u32> = plans.iter().map(StreamPlan::min_gpus).collect();
        arlo_solver::baselines::proportional_rounding(&rates, total_gpus, &mins).unwrap_or(mins)
    }
}

/// Build a [`StreamPlan`] from a trace's history (the same p95 sub-window
/// provisioning the single-stream scheduler uses).
pub fn plan_from_trace(
    name: &str,
    profiles: Vec<RuntimeProfile>,
    trace: &arlo_trace::workload::Trace,
    slo_ms: f64,
) -> StreamPlan {
    let quantile = RuntimeSchedulerConfig::default().demand_quantile;
    let demand = SystemSpec::provisioning_demand(&profiles, trace, slo_ms, quantile);
    StreamPlan {
        name: name.to_string(),
        profiles,
        demand,
        slo_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::profile_runtimes;
    use arlo_runtime::runtime_set::RuntimeSet;

    fn plan(name: &str, model: ModelSpec, slo_ms: f64, demand_scale: f64) -> StreamPlan {
        let profiles = profile_runtimes(&RuntimeSet::natural(model).compile(), slo_ms, 512);
        let demand: Vec<f64> = (0..profiles.len())
            .map(|i| demand_scale * 40.0 / (1.0 + i as f64).powi(2))
            .collect();
        StreamPlan {
            name: name.into(),
            profiles,
            demand,
            slo_ms,
        }
    }

    #[test]
    fn partition_spends_exactly_the_pool() {
        let plans = vec![
            plan("base", ModelSpec::bert_base(), 150.0, 1.0),
            plan("large", ModelSpec::bert_large(), 450.0, 0.5),
        ];
        let part = PoolCoordinator.partition(&plans, 24).expect("feasible");
        assert_eq!(part.gpus.iter().sum::<u32>(), 24);
        for (grant, alloc) in part.gpus.iter().zip(&part.allocations) {
            assert_eq!(alloc.iter().sum::<u32>(), *grant);
            assert!(*alloc.last().expect("non-empty") >= 1, "Eq. 7 per stream");
        }
        assert!(part.total_cost.is_finite());
    }

    #[test]
    fn heavier_stream_gets_more_gpus() {
        let plans = vec![
            plan("light", ModelSpec::bert_base(), 150.0, 0.3),
            plan("heavy", ModelSpec::bert_base(), 150.0, 3.0),
        ];
        let part = PoolCoordinator.partition(&plans, 20).expect("feasible");
        assert!(
            part.gpus[1] > part.gpus[0],
            "heavy stream should win GPUs: {:?}",
            part.gpus
        );
    }

    #[test]
    fn coordinated_split_never_loses_to_proportional() {
        let plans = vec![
            plan("base", ModelSpec::bert_base(), 150.0, 1.5),
            plan("large", ModelSpec::bert_large(), 450.0, 0.4),
        ];
        let total = 18;
        let part = PoolCoordinator.partition(&plans, total).expect("feasible");
        let naive = PoolCoordinator::proportional_split(&plans, total);
        let naive_cost: f64 = plans
            .iter()
            .zip(&naive)
            .map(|(p, &g)| p.cost_at(g).unwrap_or(f64::INFINITY))
            .sum();
        assert!(
            part.total_cost <= naive_cost + 1e-6,
            "coordinated {:.1} vs proportional {naive_cost:.1}",
            part.total_cost
        );
    }

    #[test]
    fn cost_curves_are_non_increasing() {
        let p = plan("s", ModelSpec::bert_base(), 150.0, 1.0);
        let min = p.min_gpus();
        let mut prev = f64::INFINITY;
        for budget in min..min + 8 {
            let cost = p.cost_at(budget).expect("feasible");
            assert!(cost <= prev + 1e-9, "cost increased at {budget}");
            prev = cost;
        }
    }

    #[test]
    fn overloaded_pool_backs_off_rather_than_failing() {
        let plans = vec![
            plan("a", ModelSpec::bert_large(), 450.0, 50.0),
            plan("b", ModelSpec::bert_large(), 450.0, 50.0),
        ];
        // Far below the raw demand's lower bounds.
        let part = PoolCoordinator.partition(&plans, 6).expect("backs off");
        assert_eq!(part.gpus.iter().sum::<u32>(), 6);
        assert!(part.gpus.iter().all(|&g| g >= 1));
    }

    #[test]
    fn zero_gpu_pool_is_infeasible() {
        // Eq. 7 floors every stream at one instance, so an empty pool can
        // never be partitioned — it must fail loudly, not grant phantoms.
        let plans = vec![plan("only", ModelSpec::bert_base(), 150.0, 1.0)];
        assert!(matches!(
            PoolCoordinator.partition(&plans, 0),
            Err(SolveError::Infeasible)
        ));
    }

    #[test]
    fn infeasible_min_sum_is_an_error_not_a_partial_grant() {
        // Demand backoff shrinks offered load, never the Eq. 7 one-GPU
        // floor: more streams than GPUs stays infeasible at any backoff.
        let plans = vec![
            plan("a", ModelSpec::bert_base(), 150.0, 1.0),
            plan("b", ModelSpec::bert_base(), 150.0, 1.0),
            plan("c", ModelSpec::bert_large(), 450.0, 1.0),
        ];
        assert!(matches!(
            PoolCoordinator.partition(&plans, 2),
            Err(SolveError::Infeasible)
        ));
    }

    #[test]
    fn single_stream_gets_the_whole_pool() {
        let plans = vec![plan("solo", ModelSpec::bert_base(), 150.0, 1.0)];
        let total = 9;
        let part = PoolCoordinator.partition(&plans, total).expect("feasible");
        assert_eq!(part.gpus, vec![total]);
        assert_eq!(part.allocations[0].iter().sum::<u32>(), total);
    }

    #[test]
    fn allocations_sum_to_total_across_pool_sizes() {
        // The conservation invariant the serving coordinator leans on:
        // grants spend exactly the pool, and each grant's inner allocation
        // spends exactly the grant, at every feasible pool size.
        let plans = vec![
            plan("base", ModelSpec::bert_base(), 150.0, 1.2),
            plan("large", ModelSpec::bert_large(), 450.0, 0.6),
        ];
        let floor: u32 = plans.iter().map(StreamPlan::min_gpus).sum();
        for total in floor..floor + 10 {
            let part = PoolCoordinator
                .partition(&plans, total)
                .unwrap_or_else(|e| panic!("pool of {total} infeasible: {e:?}"));
            assert_eq!(part.gpus.iter().sum::<u32>(), total, "grants at {total}");
            for (grant, alloc) in part.gpus.iter().zip(&part.allocations) {
                assert_eq!(
                    alloc.iter().sum::<u32>(),
                    *grant,
                    "inner allocation at {total}"
                );
            }
        }
    }

    /// The coordinator as it was before cost curves came from one DP pass:
    /// the same backoff and outer DP over one inner solve per (stream,
    /// budget), then one more per stream for its allocation. Serial.
    fn per_budget_partition(plans: &[StreamPlan], total_gpus: u32) -> Option<PoolPartition> {
        let backoff = RuntimeSchedulerConfig::default().overload_backoff;
        let mut scaled: Vec<StreamPlan> = plans.to_vec();
        for _ in 0..256 {
            let mins: Vec<u32> = scaled.iter().map(StreamPlan::min_gpus).collect();
            if mins.iter().sum::<u32>() <= total_gpus {
                return per_budget_feasible(&scaled, &mins, total_gpus);
            }
            for plan in &mut scaled {
                for q in &mut plan.demand {
                    *q *= backoff;
                }
            }
        }
        None
    }

    fn per_budget_feasible(
        plans: &[StreamPlan],
        mins: &[u32],
        total_gpus: u32,
    ) -> Option<PoolPartition> {
        let g = total_gpus as usize;
        let curves: Vec<Vec<Option<f64>>> = (0..plans.len())
            .map(|k| {
                let max_budget = total_gpus - mins[k + 1..].iter().sum::<u32>();
                (0..=total_gpus)
                    .map(|budget| {
                        if budget < mins[k] || budget > max_budget {
                            None
                        } else {
                            plans[k].cost_at(budget)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut best = vec![f64::INFINITY; g + 1];
        let mut choice: Vec<Vec<u32>> = Vec::new();
        best[0] = 0.0;
        for curve in &curves {
            let mut next = vec![f64::INFINITY; g + 1];
            let mut pick = vec![0u32; g + 1];
            for used in (0..=g).filter(|&used| best[used] < f64::INFINITY) {
                for (grant, cost) in curve.iter().enumerate().take(g + 1 - used) {
                    let Some(cost) = cost else { continue };
                    let candidate = best[used] + cost;
                    if candidate < next[used + grant] {
                        next[used + grant] = candidate;
                        pick[used + grant] = grant as u32;
                    }
                }
            }
            choice.push(pick);
            best = next;
        }
        if best[g] == f64::INFINITY {
            return None;
        }
        let mut gpus = vec![0u32; plans.len()];
        let mut used = g;
        for k in (0..plans.len()).rev() {
            gpus[k] = choice[k][used];
            used -= gpus[k] as usize;
        }
        let allocations = plans
            .iter()
            .zip(&gpus)
            .map(|(plan, &grant)| plan.allocation_at(grant).map(|a| a.instances))
            .collect::<Option<_>>()?;
        Some(PoolPartition {
            gpus,
            allocations,
            total_cost: best[g],
        })
    }

    #[test]
    fn one_pass_curves_match_per_budget_solves() {
        use proptest::prelude::*;
        let families = [
            (RuntimeSet::natural(ModelSpec::bert_base()), 150.0),
            (RuntimeSet::with_count(ModelSpec::bert_base(), 3), 100.0),
            (RuntimeSet::natural(ModelSpec::bert_large()), 450.0),
        ]
        .map(|(set, slo_ms)| (profile_runtimes(&set.compile(), slo_ms, 512), slo_ms));
        let (mut feasible, mut backed_off) = (0, 0);
        proptest!(ProptestConfig::with_cases(64), |(
            streams in proptest::collection::vec(
                (0usize..3, 0.0f64..4.0, proptest::collection::vec(0.0f64..60.0, 16)),
                1..=3,
            ),
            pool_draw in 0u32..1000,
        )| {
            let plans: Vec<StreamPlan> = streams
                .iter()
                .enumerate()
                .map(|(k, (family, scale, draws))| {
                    let (profiles, slo_ms) = families[*family].clone();
                    let demand = draws[..profiles.len()].iter().map(|q| scale * q).collect();
                    StreamPlan { name: format!("s{k}"), profiles, demand, slo_ms }
                })
                .collect();
            // Pools from one GPU per stream (deep backoff) to well past
            // the summed minimums.
            let floor: u32 = plans.iter().map(StreamPlan::min_gpus).sum();
            let streams = plans.len() as u32;
            let pool = streams + pool_draw % (floor + 17 - streams);
            backed_off += usize::from(pool < floor);
            let fast = PoolCoordinator.partition(&plans, pool).ok();
            let reference = per_budget_partition(&plans, pool);
            match (&fast, &reference) {
                (Some(f), Some(r)) => {
                    prop_assert_eq!((&f.gpus, &f.allocations), (&r.gpus, &r.allocations));
                    prop_assert_eq!(f.total_cost.to_bits(), r.total_cost.to_bits());
                    feasible += 1;
                }
                (None, None) => {}
                _ => prop_assert!(false, "one pass {fast:?} vs per budget {reference:?}"),
            }
        });
        assert!(
            feasible > 48 && backed_off > 4,
            "{feasible} feasible, {backed_off} backed off"
        );
    }

    #[test]
    fn three_streams_exact_vs_exhaustive() {
        let plans = vec![
            plan("a", ModelSpec::bert_base(), 150.0, 0.8),
            plan("b", ModelSpec::bert_base(), 150.0, 1.6),
            plan("c", ModelSpec::bert_large(), 450.0, 0.3),
        ];
        let total = 14u32;
        let part = PoolCoordinator.partition(&plans, total).expect("feasible");
        // Exhaustive check over all splits.
        let mins: Vec<u32> = plans.iter().map(StreamPlan::min_gpus).collect();
        let mut best = f64::INFINITY;
        for a in mins[0]..=total {
            for b in mins[1]..=total.saturating_sub(a) {
                let c = total - a - b;
                if c < mins[2] {
                    continue;
                }
                let cost: f64 = [(0, a), (1, b), (2, c)]
                    .iter()
                    .map(|&(k, s)| plans[k].cost_at(s).unwrap_or(f64::INFINITY))
                    .sum();
                best = best.min(cost);
            }
        }
        assert!(
            (part.total_cost - best).abs() < 1e-6,
            "coordinator {:.3} vs exhaustive {best:.3}",
            part.total_cost
        );
    }
}
