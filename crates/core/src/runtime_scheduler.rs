//! The Runtime Scheduler: Arlo's periodic, length-aware resource allocation
//! (§3.3), plus the allocator baselines used by the Table 3 ablation and the
//! INFaaS comparison.
//!
//! Every allocator implements the simulator's [`Allocator`] seat: once per
//! decision period (120 s in the paper) it receives the observed per-bin
//! demand window and returns target instance counts, which the simulator
//! applies with minimal instance replacement.

use arlo_sim::cluster::ClusterView;
use arlo_sim::driver::{Allocator, DemandWindow};
use arlo_solver::baselines::{even_allocation, global_distribution_allocation};
use arlo_solver::dp::DpSolver;
use arlo_solver::linear::LinearizedAllocator;
use arlo_solver::problem::AllocationProblem;
use arlo_trace::Nanos;
use serde::{Deserialize, Serialize};

/// Configuration for [`ArloRuntimeScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSchedulerConfig {
    /// Exponential smoothing weight on the newest window (1.0 ⇒ use the
    /// latest window only). Smoothing guards the ILP against one noisy
    /// window while staying responsive to real drift.
    pub demand_smoothing: f64,
    /// When demand overloads the cluster (Eq. 3 lower bounds exceed `G`),
    /// demand is scaled down by this factor until the program is feasible —
    /// the allocation then simply saturates the cluster.
    pub overload_backoff: f64,
    /// Provision each bin to this quantile of its per-sub-window demand
    /// (1.0-quantile = peak; 0.5 ≈ the window mean). Bursty streams make
    /// mean-provisioning dangerous for the *longest* bins, whose spikes
    /// have no larger runtime to demote to; see `DemandWindow`.
    pub demand_quantile: f64,
}

impl Default for RuntimeSchedulerConfig {
    fn default() -> Self {
        RuntimeSchedulerConfig {
            demand_smoothing: 0.7,
            overload_backoff: 0.9,
            demand_quantile: 0.95,
        }
    }
}

/// Arlo's Runtime Scheduler: solve Eqs. 1–7 on the observed demand each
/// period with the exact DP solver.
#[derive(Debug, Clone)]
pub struct ArloRuntimeScheduler {
    config: RuntimeSchedulerConfig,
    smoothed: Option<Vec<f64>>,
}

impl ArloRuntimeScheduler {
    /// Create with explicit configuration.
    pub fn new(config: RuntimeSchedulerConfig) -> Self {
        assert!(
            config.demand_smoothing > 0.0 && config.demand_smoothing <= 1.0,
            "smoothing weight must be in (0, 1]"
        );
        assert!(
            config.overload_backoff > 0.0 && config.overload_backoff < 1.0,
            "backoff must be in (0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&config.demand_quantile),
            "demand quantile must be in [0, 1]"
        );
        ArloRuntimeScheduler {
            config,
            smoothed: None,
        }
    }

    /// Paper defaults.
    pub fn paper_default() -> Self {
        Self::new(RuntimeSchedulerConfig::default())
    }

    /// The configuration this scheduler runs.
    pub fn config(&self) -> RuntimeSchedulerConfig {
        self.config
    }

    /// The demand Eqs. 1–7 are solved on this period: each bin's
    /// `demand_quantile` of its sub-window rates, smoothed across periods
    /// with weight `demand_smoothing` on the newest. `None` for a window
    /// with no arrivals, which leaves the smoothing as it was. Needs no
    /// cluster view: the simulator's tick and the live engine share it.
    pub fn estimate(&mut self, window: &DemandWindow) -> Option<Vec<f64>> {
        if window.total() == 0 {
            return None;
        }
        let fresh = window.demand_quantile_per_slo(self.config.demand_quantile);
        let w = self.config.demand_smoothing;
        let demand: Vec<f64> = match &self.smoothed {
            Some(prev) if prev.len() == fresh.len() => fresh
                .iter()
                .zip(prev)
                .map(|(&f, &p)| w * f + (1.0 - w) * p)
                .collect(),
            _ => fresh,
        };
        self.smoothed = Some(demand.clone());
        Some(demand)
    }

    /// Solve the allocation for an explicit demand vector and GPU budget —
    /// also used offline for initial provisioning.
    pub fn solve_for(
        profiles: &[arlo_runtime::profile::RuntimeProfile],
        demand_per_slo: &[f64],
        gpus: u32,
        backoff: f64,
    ) -> Option<Vec<u32>> {
        let mut demand = demand_per_slo.to_vec();
        // Overload guard: shrink demand geometrically until Eq. 3's lower
        // bounds fit the budget. Bounded iterations — each step multiplies
        // demand by `backoff < 1`.
        for _ in 0..256 {
            let problem = AllocationProblem::from_profiles(gpus, profiles, &demand);
            if problem.is_solvable() {
                return DpSolver::default()
                    .solve(&problem)
                    .ok()
                    .map(|(alloc, _)| alloc.instances);
            }
            for q in &mut demand {
                *q *= backoff;
            }
        }
        None
    }
}

impl Allocator for ArloRuntimeScheduler {
    fn allocate(
        &mut self,
        _now: Nanos,
        window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        let demand = self.estimate(window)?;
        let gpus: u32 = view.committed_counts().iter().sum();
        Self::solve_for(view.profiles(), &demand, gpus, self.config.overload_backoff)
    }

    fn name(&self) -> &'static str {
        "arlo-ilp"
    }
}

/// Table 3 baseline: static even allocation, computed once and held.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenRuntimeAllocator {
    applied: bool,
}

impl Allocator for EvenRuntimeAllocator {
    fn allocate(
        &mut self,
        _now: Nanos,
        _window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        if self.applied {
            return None;
        }
        self.applied = true;
        let gpus: u32 = view.committed_counts().iter().sum();
        let problem = AllocationProblem::from_profiles(
            gpus,
            view.profiles(),
            &vec![0.0; view.profiles().len()],
        );
        even_allocation(&problem).ok().map(|a| a.instances)
    }

    fn name(&self) -> &'static str {
        "even"
    }
}

/// Table 3 baseline: allocation proportional to the *global* (whole-trace)
/// length distribution, computed once and held.
#[derive(Debug, Clone)]
pub struct GlobalDistributionAllocator {
    shares: Vec<f64>,
    applied: bool,
}

impl GlobalDistributionAllocator {
    /// `shares[i]`: fraction of all trace requests whose ideal runtime is `i`.
    pub fn new(shares: Vec<f64>) -> Self {
        assert!(!shares.is_empty(), "need per-runtime shares");
        GlobalDistributionAllocator {
            shares,
            applied: false,
        }
    }
}

impl Allocator for GlobalDistributionAllocator {
    fn allocate(
        &mut self,
        _now: Nanos,
        _window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        if self.applied {
            return None;
        }
        self.applied = true;
        let gpus: u32 = view.committed_counts().iter().sum();
        let problem = AllocationProblem::from_profiles(
            gpus,
            view.profiles(),
            &vec![0.0; view.profiles().len()],
        );
        global_distribution_allocation(&problem, &self.shares)
            .ok()
            .map(|a| a.instances)
    }

    fn name(&self) -> &'static str {
        "global-dist"
    }
}

/// Ablation allocator: the linearized covering MILP solved with the
/// in-house simplex + branch-and-bound engine each period.
#[derive(Debug, Clone, Default)]
pub struct LinearizedRuntimeScheduler {
    solver: LinearizedAllocator,
}

impl Allocator for LinearizedRuntimeScheduler {
    fn allocate(
        &mut self,
        _now: Nanos,
        window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        if window.total() == 0 {
            return None;
        }
        let demand = window.demand_per_slo();
        let gpus: u32 = view.committed_counts().iter().sum();
        let problem = AllocationProblem::from_profiles(gpus, view.profiles(), &demand);
        self.solver.solve(&problem).ok().map(|(a, _)| a.instances)
    }

    fn name(&self) -> &'static str {
        "linearized-milp"
    }
}

/// INFaaS-style headroom-driven vertical scaling across variants (§2.3):
/// load-aware but *length-oblivious*. Each period it moves one instance
/// from the variant with the most idle headroom to the most saturated
/// variant — never consulting the length distribution, which is exactly the
/// deficiency the paper demonstrates.
#[derive(Debug, Clone, Copy, Default)]
pub struct InfaasVerticalScaler {
    /// Saturation threshold (outstanding / capacity) that triggers a move.
    pub trigger: f64,
}

impl InfaasVerticalScaler {
    /// INFaaS-like defaults.
    pub fn paper_default() -> Self {
        InfaasVerticalScaler { trigger: 0.8 }
    }
}

impl Allocator for InfaasVerticalScaler {
    fn allocate(
        &mut self,
        _now: Nanos,
        _window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        let profiles = view.profiles();
        let committed = view.committed_counts();
        let n = profiles.len();
        // Mean utilization per variant.
        let mut utilization = vec![0.0f64; n];
        for (i, profile) in profiles.iter().enumerate() {
            let instances: Vec<u32> = view.instances_of(i).map(|(_, load)| load).collect();
            if instances.is_empty() || profile.capacity_within_slo == 0 {
                continue;
            }
            let total: u32 = instances.iter().sum();
            utilization[i] = f64::from(total)
                / (instances.len() as f64 * f64::from(profile.capacity_within_slo));
        }
        // Most saturated variant above the trigger…
        let hot = (0..n)
            .filter(|&i| utilization[i] >= self.trigger)
            .max_by(|&a, &b| utilization[a].partial_cmp(&utilization[b]).expect("NaN"))?;
        // …takes one instance from the coolest variant that has any to give
        // (never the largest runtime's last instance).
        let cold = (0..n)
            .filter(|&i| i != hot && committed[i] > u32::from(i == n - 1))
            .min_by(|&a, &b| utilization[a].partial_cmp(&utilization[b]).expect("NaN"))?;
        if utilization[cold] >= self.trigger {
            return None; // everything is hot; nothing sensible to move
        }
        let mut target = committed;
        target[cold] -= 1;
        target[hot] += 1;
        Some(target)
    }

    fn name(&self) -> &'static str {
        "infaas-scaler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::latency::{CompiledRuntime, JitterSpec};
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
    use arlo_sim::cluster::Cluster;
    use arlo_trace::workload::Request;

    fn profiles(lengths: &[u32]) -> Vec<RuntimeProfile> {
        let model = ModelSpec::bert_base();
        let rts: Vec<CompiledRuntime> = lengths
            .iter()
            .map(|&l| CompiledRuntime::new_static(model.clone(), l))
            .collect();
        profile_runtimes(&rts, 150.0, 256)
    }

    fn window(bin_counts: Vec<u64>) -> DemandWindow {
        DemandWindow::flat(bin_counts, 120 * 1_000_000_000, 150.0)
    }

    #[test]
    fn arlo_allocator_follows_demand_shift() {
        let p = profiles(&[64, 512]);
        let cluster = Cluster::new(p, &[4, 4], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = ArloRuntimeScheduler::paper_default();
        // Demand almost entirely short.
        let target = alloc
            .allocate(0, &window(vec![100_000, 1_000]), &cluster.view())
            .expect("allocates");
        assert_eq!(target.iter().sum::<u32>(), 8);
        assert!(
            target[0] > target[1],
            "short demand should pull GPUs: {target:?}"
        );
        assert!(target[1] >= 1, "Eq. 7");
    }

    #[test]
    fn arlo_allocator_skips_empty_windows() {
        let p = profiles(&[64, 512]);
        let cluster = Cluster::new(p, &[1, 1], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = ArloRuntimeScheduler::paper_default();
        assert_eq!(
            alloc.allocate(0, &window(vec![0, 0]), &cluster.view()),
            None
        );
    }

    #[test]
    fn arlo_allocator_survives_overload() {
        // Demand far beyond what 2 GPUs can serve: the backoff must still
        // produce a feasible saturated allocation.
        let p = profiles(&[64, 512]);
        let cluster = Cluster::new(p, &[1, 1], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = ArloRuntimeScheduler::paper_default();
        let target = alloc
            .allocate(0, &window(vec![10_000_000, 1_000_000]), &cluster.view())
            .expect("backoff finds a feasible allocation");
        assert_eq!(target.iter().sum::<u32>(), 2);
    }

    #[test]
    fn arlo_smoothing_damps_oscillation() {
        let p = profiles(&[64, 512]);
        let cluster = Cluster::new(p, &[5, 5], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = ArloRuntimeScheduler::new(RuntimeSchedulerConfig {
            demand_smoothing: 0.3,
            overload_backoff: 0.9,
            demand_quantile: 0.9,
        });
        let a = alloc
            .allocate(0, &window(vec![50_000, 100]), &cluster.view())
            .expect("a");
        // A single wildly different window should not fully flip the plan.
        let b = alloc
            .allocate(1, &window(vec![100, 5_000]), &cluster.view())
            .expect("b");
        assert!(
            b[0] >= a[0] / 2,
            "smoothing should damp the swing: {a:?} → {b:?}"
        );
    }

    #[test]
    fn even_allocator_applies_once() {
        let p = profiles(&[64, 128, 512]);
        let cluster = Cluster::new(p, &[3, 0, 0], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = EvenRuntimeAllocator::default();
        let t = alloc
            .allocate(0, &window(vec![1, 1, 1]), &cluster.view())
            .expect("first");
        assert_eq!(t, vec![1, 1, 1]);
        assert_eq!(
            alloc.allocate(1, &window(vec![9, 9, 9]), &cluster.view()),
            None
        );
    }

    #[test]
    fn global_distribution_allocator_uses_shares() {
        let p = profiles(&[64, 128, 512]);
        let cluster = Cluster::new(p, &[6, 0, 0], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = GlobalDistributionAllocator::new(vec![0.8, 0.1, 0.1]);
        let t = alloc
            .allocate(0, &window(vec![1, 1, 1]), &cluster.view())
            .expect("first");
        assert_eq!(t.iter().sum::<u32>(), 6);
        assert!(t[0] >= t[1], "{t:?}");
        assert!(t[2] >= 1);
    }

    #[test]
    fn linearized_allocator_allocates() {
        let p = profiles(&[64, 512]);
        let cluster = Cluster::new(p, &[3, 1], JitterSpec::NONE, 1_000_000_000);
        let mut alloc = LinearizedRuntimeScheduler::default();
        let t = alloc
            .allocate(0, &window(vec![5_000, 100]), &cluster.view())
            .expect("allocates");
        assert_eq!(t.iter().sum::<u32>(), 4);
        assert!(t[1] >= 1);
    }

    #[test]
    fn infaas_scaler_moves_toward_saturation() {
        let p = profiles(&[64, 512]);
        let mut cluster = Cluster::new(p, &[2, 2], JitterSpec::NONE, 1_000_000_000);
        // Saturate the small variant (capacity ≈ 132 each).
        for i in 0..260u64 {
            let inst = (i % 2) as usize;
            cluster.enqueue(
                inst,
                Request {
                    id: i,
                    arrival: 0,
                    length: 1,
                },
                0,
            );
        }
        let mut scaler = InfaasVerticalScaler::paper_default();
        let t = scaler
            .allocate(0, &window(vec![260, 0]), &cluster.view())
            .expect("moves an instance");
        assert_eq!(t, vec![3, 1], "one instance moves to the hot variant");
    }

    #[test]
    fn infaas_scaler_idles_when_cool() {
        let p = profiles(&[64, 512]);
        let cluster = Cluster::new(p, &[2, 2], JitterSpec::NONE, 1_000_000_000);
        let mut scaler = InfaasVerticalScaler::paper_default();
        assert_eq!(
            scaler.allocate(0, &window(vec![5, 5]), &cluster.view()),
            None
        );
    }

    #[test]
    fn solve_for_offline_provisioning() {
        let p = profiles(&[64, 128, 256, 512]);
        let target =
            ArloRuntimeScheduler::solve_for(&p, &[40.0, 20.0, 10.0, 5.0], 10, 0.9).expect("solves");
        assert_eq!(target.iter().sum::<u32>(), 10);
        assert!(target[3] >= 1);
    }
}
