//! Full serving-system presets: Arlo and the schemes it is evaluated
//! against (ST, DT, INFaaS), plus every ablation variant, assembled into
//! runnable simulations.
//!
//! This module is the experiment workhorse: every figure and table binary in
//! `arlo-bench` builds a [`SystemSpec`], calls [`SystemSpec::run`], and
//! reports the returned [`SimReport`].
//!
//! | Scheme  | Runtimes            | Dispatch        | Allocation            |
//! |---------|---------------------|-----------------|-----------------------|
//! | ST      | 1 static @ max      | load balance    | none                  |
//! | DT      | 1 dynamic           | load balance    | none                  |
//! | INFaaS  | natural family      | bin packing     | headroom vertical     |
//! | Arlo    | natural family      | Algorithm 1     | periodic ILP (Eq. 1–7)|

use crate::policies::{InfaasBinPacking, InterGroupGreedy, IntraGroupLoadBalance, LoadBalance};
use crate::request_scheduler::{ArloRequestScheduler, RequestSchedulerConfig};
use crate::runtime_scheduler::{
    ArloRuntimeScheduler, EvenRuntimeAllocator, GlobalDistributionAllocator, InfaasVerticalScaler,
    LinearizedRuntimeScheduler, RuntimeSchedulerConfig,
};
use arlo_runtime::latency::CompiledRuntime;
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_sim::cluster::BatchSpec;
use arlo_sim::driver::{
    Allocator, AutoScaleConfig, Dispatcher, FaultToleranceConfig, NoopAllocator, SimConfig,
    Simulation,
};
use arlo_sim::metrics::SimReport;
use arlo_trace::workload::Trace;
use serde::{Deserialize, Serialize};

/// Which runtime family to deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeChoice {
    /// The paper's rule: one runtime per staircase step (8 for Bert).
    Natural,
    /// Exactly `n` evenly spaced runtimes (Fig. 11 ablation).
    Count(u32),
    /// One static runtime at the model's maximum length (ST).
    SingleStatic,
    /// One dynamic-shape runtime (DT).
    SingleDynamic,
}

/// Which dispatch policy fills the Request Scheduler seat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Arlo's multi-level queue (Algorithm 1).
    ArloRs(RequestSchedulerConfig),
    /// Intra-group load balance (Table 4).
    Ilb,
    /// Inter-groups greedy (Table 4).
    Ig,
    /// Plain load balancing (ST/DT).
    LoadBalance,
    /// INFaaS bin packing.
    InfaasPack,
}

/// Which allocation policy fills the Runtime Scheduler seat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Arlo's periodic ILP (Eqs. 1–7 via the exact DP).
    ArloIlp,
    /// Static even allocation (Table 3).
    Even,
    /// Static allocation from the whole-trace length distribution (Table 3).
    GlobalDist,
    /// Linearized covering MILP (ablation).
    Linearized,
    /// INFaaS headroom-based vertical scaling.
    InfaasVertical,
    /// Never reallocate.
    Noop,
}

/// A complete, runnable serving-system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Scheme name for reports ("Arlo", "ST", …).
    pub name: String,
    /// The served model.
    pub model: ModelSpec,
    /// GPU budget (initial provisioning when auto-scaling).
    pub gpus: u32,
    /// The stream SLO in ms.
    pub slo_ms: f64,
    /// Runtime family.
    pub runtimes: RuntimeChoice,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Allocation policy.
    pub alloc: AllocPolicy,
    /// Optional auto-scaling (Fig. 8).
    pub autoscale: Option<AutoScaleConfig>,
    /// Batched execution (§6 extension; the paper fixes batch size 1).
    pub batch: BatchSpec,
    /// SLO-aware fault-tolerance layer (health tracking, retries, circuit
    /// breaking, optional load shedding). `None` — the default for every
    /// preset — reproduces the paper's fault-oblivious behavior.
    pub fault_tolerance: Option<FaultToleranceConfig>,
}

impl SystemSpec {
    /// Arlo with paper-default parameters.
    pub fn arlo(model: ModelSpec, gpus: u32, slo_ms: f64) -> Self {
        SystemSpec {
            name: "Arlo".into(),
            model,
            gpus,
            slo_ms,
            runtimes: RuntimeChoice::Natural,
            dispatch: DispatchPolicy::ArloRs(RequestSchedulerConfig::default()),
            alloc: AllocPolicy::ArloIlp,
            autoscale: None,
            batch: BatchSpec::SINGLE,
            fault_tolerance: None,
        }
    }

    /// ST: one static runtime at the maximum length, uniform zero-padding.
    pub fn st(model: ModelSpec, gpus: u32, slo_ms: f64) -> Self {
        SystemSpec {
            name: "ST".into(),
            model,
            gpus,
            slo_ms,
            runtimes: RuntimeChoice::SingleStatic,
            dispatch: DispatchPolicy::LoadBalance,
            alloc: AllocPolicy::Noop,
            autoscale: None,
            batch: BatchSpec::SINGLE,
            fault_tolerance: None,
        }
    }

    /// DT: one dynamic-shape runtime, no padding but inflated kernels.
    pub fn dt(model: ModelSpec, gpus: u32, slo_ms: f64) -> Self {
        SystemSpec {
            name: "DT".into(),
            model,
            gpus,
            slo_ms,
            runtimes: RuntimeChoice::SingleDynamic,
            dispatch: DispatchPolicy::LoadBalance,
            alloc: AllocPolicy::Noop,
            autoscale: None,
            batch: BatchSpec::SINGLE,
            fault_tolerance: None,
        }
    }

    /// INFaaS: multi-variant runtimes, bin-packing dispatch, headroom-driven
    /// vertical scaling — length-oblivious by design.
    pub fn infaas(model: ModelSpec, gpus: u32, slo_ms: f64) -> Self {
        SystemSpec {
            name: "INFaaS".into(),
            model,
            gpus,
            slo_ms,
            runtimes: RuntimeChoice::Natural,
            dispatch: DispatchPolicy::InfaasPack,
            alloc: AllocPolicy::InfaasVertical,
            autoscale: None,
            batch: BatchSpec::SINGLE,
            fault_tolerance: None,
        }
    }

    /// Replace the dispatch policy (Table 4 ablations).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy, name: &str) -> Self {
        self.dispatch = dispatch;
        self.name = name.into();
        self
    }

    /// Replace the allocation policy (Table 3 ablations).
    pub fn with_alloc(mut self, alloc: AllocPolicy, name: &str) -> Self {
        self.alloc = alloc;
        self.name = name.into();
        self
    }

    /// Replace the runtime family (Fig. 11 ablation).
    pub fn with_runtimes(mut self, runtimes: RuntimeChoice) -> Self {
        self.runtimes = runtimes;
        self
    }

    /// Enable auto-scaling (Fig. 8).
    pub fn with_autoscale(mut self, auto: AutoScaleConfig) -> Self {
        self.autoscale = Some(auto);
        self
    }

    /// Enable batched execution (§6 extension).
    pub fn with_batching(mut self, batch: BatchSpec) -> Self {
        batch.validate();
        self.batch = batch;
        self
    }

    /// Enable the SLO-aware fault-tolerance layer (health tracking with
    /// circuit breaking, deadline-derived retries, optional shedding).
    pub fn with_fault_tolerance(mut self, ft: FaultToleranceConfig) -> Self {
        self.fault_tolerance = Some(ft);
        self
    }

    /// Compile and profile the runtime family.
    pub fn build_profiles(&self) -> Vec<RuntimeProfile> {
        let runtimes: Vec<CompiledRuntime> = match self.runtimes {
            RuntimeChoice::Natural => RuntimeSet::natural(self.model.clone()).compile(),
            RuntimeChoice::Count(n) => RuntimeSet::with_count(self.model.clone(), n).compile(),
            RuntimeChoice::SingleStatic => {
                vec![CompiledRuntime::new_static(
                    self.model.clone(),
                    self.model.max_length,
                )]
            }
            RuntimeChoice::SingleDynamic => {
                vec![CompiledRuntime::new_dynamic(self.model.clone())]
            }
        };
        profile_runtimes(&runtimes, self.slo_ms, 512)
    }

    /// Per-bin `Q_i` (requests per SLO period) provisioned at the
    /// `quantile` of 10-second sub-window demand — the same conservative
    /// estimate the online Runtime Scheduler computes from its observation
    /// window, here derived from a historical trace.
    pub fn provisioning_demand(
        profiles: &[RuntimeProfile],
        trace: &Trace,
        slo_ms: f64,
        quantile: f64,
    ) -> Vec<f64> {
        const SUB_SECS: f64 = 10.0;
        let lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let horizon_secs = arlo_trace::nanos_to_secs(trace.horizon()).max(SUB_SECS);
        let windows = (horizon_secs / SUB_SECS).ceil() as usize;
        let mut counts = vec![vec![0u64; lens.len()]; windows];
        for r in trace.requests() {
            let w = ((arlo_trace::nanos_to_secs(r.arrival) / SUB_SECS) as usize).min(windows - 1);
            let bin = lens.partition_point(|&l| l < r.length).min(lens.len() - 1);
            counts[w][bin] += 1;
        }
        (0..lens.len())
            .map(|bin| {
                let rates: Vec<f64> = counts
                    .iter()
                    .map(|w| w[bin] as f64 / SUB_SECS * slo_ms / 1000.0)
                    .collect();
                arlo_trace::stats::percentile(&rates, quantile * 100.0)
            })
            .collect()
    }

    /// Per-runtime demand shares of a trace (fraction of requests whose
    /// ideal runtime is `i`).
    pub fn bin_shares(profiles: &[RuntimeProfile], trace: &Trace) -> Vec<f64> {
        let lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let mut counts = vec![0u64; lens.len()];
        for r in trace.requests() {
            let bin = lens.partition_point(|&l| l < r.length);
            counts[bin.min(lens.len() - 1)] += 1;
        }
        let total = trace.len().max(1) as f64;
        counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// Initial instance provisioning for the scheme.
    ///
    /// Arlo and the static Table 3 baselines provision from the "historical"
    /// length distribution (we use the trace's own aggregate as the
    /// converged history — the periodic scheduler then tracks drift);
    /// single-runtime schemes put every GPU on their runtime; INFaaS starts
    /// even, as it has no length information.
    pub fn initial_allocation(&self, profiles: &[RuntimeProfile], trace: &Trace) -> Vec<u32> {
        let n = profiles.len();
        match (self.runtimes, self.alloc) {
            (RuntimeChoice::SingleStatic | RuntimeChoice::SingleDynamic, _) => vec![self.gpus],
            (_, AllocPolicy::ArloIlp | AllocPolicy::Linearized | AllocPolicy::GlobalDist) => {
                // Provision with the same rule the online Runtime Scheduler
                // uses: each bin at the p95 of its 10-second sub-window
                // demand. Mean-provisioning systematically melts the
                // longest bins — their demand share swings several-fold as
                // the length median drifts, and they have no larger runtime
                // to demote spikes into.
                let rs = RuntimeSchedulerConfig::default();
                let demand =
                    Self::provisioning_demand(profiles, trace, self.slo_ms, rs.demand_quantile);
                ArloRuntimeScheduler::solve_for(profiles, &demand, self.gpus, rs.overload_backoff)
                    .unwrap_or_else(|| self.even_counts(n))
            }
            _ => self.even_counts(n),
        }
    }

    fn even_counts(&self, n: usize) -> Vec<u32> {
        let base = self.gpus / n as u32;
        let extra = (self.gpus % n as u32) as usize;
        let mut counts = vec![base; n];
        let start = n - extra;
        for c in &mut counts[start..] {
            *c += 1;
        }
        counts
    }

    /// Instantiate the dispatch policy.
    pub fn build_dispatcher(&self) -> Box<dyn Dispatcher> {
        match self.dispatch {
            DispatchPolicy::ArloRs(cfg) => Box::new(ArloRequestScheduler::new(cfg)),
            DispatchPolicy::Ilb => Box::new(IntraGroupLoadBalance),
            DispatchPolicy::Ig => Box::new(InterGroupGreedy),
            DispatchPolicy::LoadBalance => Box::new(LoadBalance),
            DispatchPolicy::InfaasPack => Box::new(InfaasBinPacking::default()),
        }
    }

    /// Instantiate the allocation policy.
    pub fn build_allocator(
        &self,
        profiles: &[RuntimeProfile],
        trace: &Trace,
    ) -> Box<dyn Allocator> {
        match self.alloc {
            AllocPolicy::ArloIlp => {
                Box::new(ArloRuntimeScheduler::new(RuntimeSchedulerConfig::default()))
            }
            AllocPolicy::Even => Box::new(EvenRuntimeAllocator::default()),
            AllocPolicy::GlobalDist => Box::new(GlobalDistributionAllocator::new(
                Self::bin_shares(profiles, trace),
            )),
            AllocPolicy::Linearized => Box::new(LinearizedRuntimeScheduler::default()),
            AllocPolicy::InfaasVertical => Box::new(InfaasVerticalScaler::paper_default()),
            AllocPolicy::Noop => Box::new(NoopAllocator),
        }
    }

    /// Simulation configuration for this scheme.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default(self.slo_ms);
        cfg.autoscale = self.autoscale;
        cfg.batch = self.batch;
        cfg.fault_tolerance = self.fault_tolerance;
        cfg
    }

    /// Run the scheme over a trace and return the report.
    pub fn run(&self, trace: &Trace) -> SimReport {
        let profiles = self.build_profiles();
        let initial = self.initial_allocation(&profiles, trace);
        let mut dispatcher = self.build_dispatcher();
        let mut allocator = self.build_allocator(&profiles, trace);
        let sim = Simulation::new(trace, profiles, &initial, self.sim_config());
        sim.run(dispatcher.as_mut(), allocator.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_trace::workload::TraceSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace(rate: f64, secs: f64, seed: u64) -> Trace {
        TraceSpec::twitter_stable(rate, secs).generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn all_schemes_complete_every_request() {
        let t = trace(300.0, 10.0, 1);
        for spec in [
            SystemSpec::arlo(ModelSpec::bert_base(), 6, 150.0),
            SystemSpec::st(ModelSpec::bert_base(), 6, 150.0),
            SystemSpec::dt(ModelSpec::bert_base(), 6, 150.0),
            SystemSpec::infaas(ModelSpec::bert_base(), 6, 150.0),
        ] {
            let report = spec.run(&t);
            assert_eq!(report.records.len(), t.len(), "{} lost requests", spec.name);
        }
    }

    #[test]
    fn arlo_beats_st_on_mean_latency() {
        // The headline qualitative claim: with enough load to matter, ST's
        // full padding inflates latency well above Arlo's.
        let t = trace(800.0, 20.0, 2);
        let arlo = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&t);
        let st = SystemSpec::st(ModelSpec::bert_base(), 10, 150.0).run(&t);
        let (a, s) = (arlo.latency_summary().mean, st.latency_summary().mean);
        assert!(a < s, "Arlo {a} ms should beat ST {s} ms");
    }

    #[test]
    fn arlo_beats_dt_on_mean_latency() {
        let t = trace(800.0, 20.0, 3);
        let arlo = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&t);
        let dt = SystemSpec::dt(ModelSpec::bert_base(), 10, 150.0).run(&t);
        let (a, d) = (arlo.latency_summary().mean, dt.latency_summary().mean);
        assert!(a < d, "Arlo {a} ms should beat DT {d} ms");
    }

    #[test]
    fn st_initial_allocation_is_single_runtime() {
        let spec = SystemSpec::st(ModelSpec::bert_base(), 8, 150.0);
        let profiles = spec.build_profiles();
        assert_eq!(profiles.len(), 1);
        let t = trace(100.0, 2.0, 4);
        assert_eq!(spec.initial_allocation(&profiles, &t), vec![8]);
    }

    #[test]
    fn arlo_initial_allocation_tracks_length_distribution() {
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0);
        let profiles = spec.build_profiles();
        assert_eq!(profiles.len(), 8);
        let t = trace(1000.0, 10.0, 5);
        let init = spec.initial_allocation(&profiles, &t);
        assert_eq!(init.iter().sum::<u32>(), 10);
        assert!(init[7] >= 1, "Eq. 7: {init:?}");
        // Twitter-recalibrated median ≈ 86: bins 1–3 dominate.
        let small: u32 = init[..4].iter().sum();
        assert!(small >= 5, "short bins should dominate: {init:?}");
    }

    #[test]
    fn fig11_runtime_counts() {
        for n in [2u32, 4, 8, 16] {
            let spec = SystemSpec::arlo(ModelSpec::bert_large(), 8, 450.0)
                .with_runtimes(RuntimeChoice::Count(n));
            assert_eq!(spec.build_profiles().len(), n as usize);
        }
    }

    #[test]
    fn provisioning_demand_tracks_subwindow_peaks() {
        // Two 10 s phases: short-only then long-only. The p95 estimate per
        // bin must reflect each bin's own busy phase, not the mean.
        use arlo_trace::workload::Request;
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            reqs.push(Request {
                id: i,
                arrival: i * 50_000_000,
                length: 30,
            });
        }
        for i in 0..200u64 {
            reqs.push(Request {
                id: 200 + i,
                arrival: 10_000_000_000 + i * 50_000_000,
                length: 500,
            });
        }
        let trace = Trace::from_requests(reqs, 20_000_000_000);
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
        let profiles = spec.build_profiles();
        let demand = SystemSpec::provisioning_demand(&profiles, &trace, 150.0, 0.95);
        // Bin 0 (≤64) and bin 7 (≤512) each see 20 req/s in their phase:
        // 3 per 150 ms SLO period.
        assert!((demand[0] - 3.0).abs() < 0.3, "short bin {demand:?}");
        assert!((demand[7] - 3.0).abs() < 0.3, "long bin {demand:?}");
        // A mean-based estimate would have halved both.
        let mean_based: f64 = trace.len() as f64 / 20.0 * 0.15;
        assert!(demand[0] + demand[7] > mean_based * 1.5);
    }

    #[test]
    fn provisioning_demand_on_empty_trace_is_zero() {
        let trace = Trace::from_requests(vec![], 10_000_000_000);
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
        let profiles = spec.build_profiles();
        let demand = SystemSpec::provisioning_demand(&profiles, &trace, 150.0, 0.95);
        assert!(demand.iter().all(|&q| q == 0.0));
        // Initial allocation still works (falls back to a feasible spread).
        let init = spec.initial_allocation(&profiles, &trace);
        assert_eq!(init.iter().sum::<u32>(), 4);
        assert!(init[7] >= 1, "Eq. 7 holds even with no history");
    }

    #[test]
    fn batching_flows_through_sim_config() {
        use arlo_sim::cluster::BatchSpec;
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0).with_batching(BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        });
        assert_eq!(spec.sim_config().batch.max_batch, 4);
        // Defaults stay at the paper's batch-1.
        let plain = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
        assert_eq!(plain.sim_config().batch, BatchSpec::SINGLE);
    }

    #[test]
    fn fault_tolerance_flows_through_sim_config() {
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0)
            .with_fault_tolerance(FaultToleranceConfig::paper_default().with_shedding());
        assert!(spec.sim_config().fault_tolerance.expect("enabled").shed);
        let plain = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
        assert!(plain.sim_config().fault_tolerance.is_none());
    }

    #[test]
    fn bin_shares_sum_to_one() {
        let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
        let profiles = spec.build_profiles();
        let t = trace(500.0, 5.0, 6);
        let shares = SystemSpec::bin_shares(&profiles, &t);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
