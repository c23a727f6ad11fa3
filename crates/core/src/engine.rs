//! The live embedding API: Arlo as a library inside an existing serving
//! system.
//!
//! §1 positions Arlo as "an inference scheduling system which works with
//! existing serving systems" (the prototype sits on Triton). The simulator
//! crates evaluate the algorithms; this module is what a deployment embeds:
//! a thread-safe engine that
//!
//! * dispatches requests through the multi-level queue
//!   ([`ArloEngine::submit`] / [`ArloEngine::complete`]), and
//! * periodically recomputes the runtime allocation from the observed
//!   length distribution ([`ArloEngine::maybe_reallocate`]), handing the
//!   embedder a replacement plan to apply to its fleet and confirm with
//!   [`ArloEngine::apply_allocation`].
//!
//! The engine never touches wall clocks or spawns threads itself: the
//! embedder passes monotonic nanoseconds into every call, which keeps the
//! engine deterministic under test and lets the host own its runtime.
//! In-flight placements across a reallocation are handled with a
//! generation counter — completions for a superseded deployment are
//! acknowledged but not double-counted.

use crate::frontend::{InstanceHandle, SchedulerFrontend};
use crate::health::{Admission, HealthConfig, HealthRegistry, HealthState, HealthTransition};
use crate::request_scheduler::RequestSchedulerConfig;
use crate::runtime_scheduler::ArloRuntimeScheduler;
use arlo_runtime::profile::RuntimeProfile;
use arlo_sim::driver::DemandRecorder;
use arlo_trace::Nanos;
use parking_lot::{Mutex, RwLock};

/// Engine configuration. The Runtime Scheduler runs
/// `RuntimeSchedulerConfig::default()`, as the simulator's
/// `ArloRuntimeScheduler::paper_default()` does.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The stream's SLO (ms).
    pub slo_ms: f64,
    /// Algorithm 1 parameters. `use_measured_capacity` must stay off: the
    /// engine's frontend has no measured service rate and panics on it.
    pub rs: RequestSchedulerConfig,
    /// Runtime Scheduler decision period (ns); the paper uses 120 s.
    pub allocation_period: Nanos,
    /// Sub-window of the burst-aware demand estimate (ns): each bin is
    /// provisioned at a quantile of its per-sub-window demand. The
    /// simulator uses 10 s.
    pub sub_window: Nanos,
    /// Fault-tolerance health tracking. `Some` enables the per-instance
    /// circuit breaker: the engine tracks completion latencies and failures
    /// reported via [`ArloEngine::report_success`] /
    /// [`ArloEngine::report_failure`] and masks unhealthy instances out of
    /// dispatch. `None` (the default) disables all health accounting.
    pub health: Option<HealthConfig>,
}

impl EngineConfig {
    /// Paper defaults for a given SLO.
    pub fn paper_default(slo_ms: f64) -> Self {
        EngineConfig {
            slo_ms,
            rs: RequestSchedulerConfig::default(),
            allocation_period: 120 * arlo_trace::NANOS_PER_SEC,
            sub_window: 10 * arlo_trace::NANOS_PER_SEC,
            health: None,
        }
    }

    /// Enable the fault-tolerance health layer with the given detector
    /// parameters.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }
}

/// Where a submitted request should run: the runtime level and instance
/// index within the *current deployment generation*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Deployment generation this placement belongs to.
    pub generation: u64,
    /// Runtime level (index into the engine's profiles).
    pub runtime_idx: usize,
    /// Instance index within that runtime, for this generation.
    pub instance_idx: usize,
}

/// A reallocation decision for the embedder to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplacementPlan {
    /// The deployment generation this plan produces (pass back to
    /// [`ArloEngine::apply_allocation`]).
    pub generation: u64,
    /// Target instance counts per runtime.
    pub target: Vec<u32>,
    /// Per-runtime change versus the current deployment (`target − current`).
    pub delta: Vec<i64>,
}

/// The Runtime Scheduler's state across periods: this period's demand and
/// the estimate smoothed over the past ones.
struct Demand {
    recorder: DemandRecorder,
    scheduler: ArloRuntimeScheduler,
}

/// The embeddable Arlo engine. All methods take `&self`; internal state is
/// guarded by a `RwLock` (dispatch path) and a `Mutex` (demand accounting).
///
/// ```
/// use arlo_core::engine::{ArloEngine, EngineConfig};
/// use arlo_runtime::prelude::*;
///
/// let set = RuntimeSet::natural(ModelSpec::bert_base());
/// let profiles = profile_runtimes(&set.compile(), 150.0, 256);
/// let engine = ArloEngine::new(
///     profiles,
///     vec![1, 1, 1, 1, 1, 1, 1, 1],
///     EngineConfig::paper_default(150.0),
/// );
/// let placement = engine.submit(100, 0).expect("dispatches");
/// assert_eq!(placement.runtime_idx, 1); // ideal runtime for 100 tokens
/// assert!(engine.complete(placement));
/// ```
pub struct ArloEngine {
    profiles: Vec<RuntimeProfile>,
    config: EngineConfig,
    deployment: RwLock<Deployment>,
    demand: Mutex<Demand>,
    /// Fault-tolerance registry, keyed by flat instance index (runtimes in
    /// order, instances within each). `None` when health tracking is off.
    /// Lock order: `deployment` before `health`, everywhere.
    health: Mutex<Option<HealthRegistry>>,
    /// Whether `health` holds a registry. The option is decided once at
    /// construction and never flips, so hot-path callers (`submit`,
    /// `complete`) check this plain bool instead of taking the `health`
    /// mutex just to observe `None` — with health off, the submit path's
    /// only exclusive critical sections are demand recording and the
    /// frontend's placement itself.
    health_enabled: bool,
}

/// Flat instance index of `(level, index)` under per-level `counts`.
fn flat_index(counts: &[u32], level: usize, index: usize) -> usize {
    counts[..level].iter().map(|&n| n as usize).sum::<usize>() + index
}

struct Deployment {
    generation: u64,
    counts: Vec<u32>,
    frontend: SchedulerFrontend,
}

impl ArloEngine {
    /// Create an engine over a profiled runtime family with an initial
    /// deployment (`initial_counts[i]` instances of runtime `i`; the
    /// largest runtime needs at least one instance, Eq. 7).
    pub fn new(
        profiles: Vec<RuntimeProfile>,
        initial_counts: Vec<u32>,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(
            profiles.len(),
            initial_counts.len(),
            "one count per runtime"
        );
        assert!(
            *initial_counts.last().expect("non-empty") >= 1,
            "the largest runtime needs an instance (Eq. 7)"
        );
        let recorder = DemandRecorder::new(
            profiles.iter().map(|p| p.max_length()).collect(),
            config.slo_ms,
            config.allocation_period,
            config.sub_window,
        );
        let frontend = Self::build_frontend(&profiles, &initial_counts, config.rs);
        ArloEngine {
            config,
            deployment: RwLock::new(Deployment {
                generation: 0,
                counts: initial_counts,
                frontend,
            }),
            demand: Mutex::new(Demand {
                recorder,
                scheduler: ArloRuntimeScheduler::paper_default(),
            }),
            health_enabled: config.health.is_some(),
            health: Mutex::new(config.health.map(HealthRegistry::new)),
            profiles,
        }
    }

    fn build_frontend(
        profiles: &[RuntimeProfile],
        counts: &[u32],
        rs: RequestSchedulerConfig,
    ) -> SchedulerFrontend {
        let levels: Vec<(u32, u32, u32)> = profiles
            .iter()
            .zip(counts)
            .map(|(p, &n)| (p.max_length(), p.capacity_within_slo, n))
            .collect();
        SchedulerFrontend::new(rs, &levels)
    }

    /// The profiled runtime family.
    pub fn profiles(&self) -> &[RuntimeProfile] {
        &self.profiles
    }

    /// Current deployment generation and instance counts.
    pub fn deployment(&self) -> (u64, Vec<u32>) {
        let d = self.deployment.read();
        (d.generation, d.counts.clone())
    }

    /// Current deployment generation, without copying the counts.
    pub fn generation(&self) -> u64 {
        self.deployment.read().generation
    }

    /// Dashboard snapshot: total outstanding load per runtime level of the
    /// current deployment generation.
    pub fn level_loads(&self) -> Vec<u64> {
        let d = self.deployment.read();
        (0..self.profiles.len())
            .map(|level| {
                (0..d.counts[level] as usize)
                    .map(|index| u64::from(d.frontend.outstanding(InstanceHandle { level, index })))
                    .sum()
            })
            .collect()
    }

    /// Dispatch a request of `length` tokens arriving at monotonic time
    /// `now` (ns). Returns `None` when no runtime can serve the length or
    /// every candidate level is empty.
    ///
    /// # Critical-section contract
    ///
    /// This is the serving hot path — every dispatch worker funnels through
    /// it concurrently — so its exclusive sections are kept to exactly the
    /// work that must be atomic:
    ///
    /// - `demand` (mutex): one sub-window counter bump in
    ///   [`DemandRecorder::record`]; a length no runtime serves records
    ///   nothing, so refused requests never steer the Runtime Scheduler.
    /// - `deployment` (rwlock, **read**): placement itself. Readers share;
    ///   only `apply_allocation` writes.
    /// - `health` (mutex): skipped entirely via `health_enabled` when
    ///   tracking is off; when on, holds only for the dispatch note and the
    ///   probe-gate check.
    ///
    /// Nothing else — no I/O, no allocation-plan work, no per-tenant
    /// accounting — may be added under these locks: the serve crate's
    /// conservation accounting (`outstanding`, admission gate) lives with
    /// the caller precisely so this section stays placement-only.
    pub fn submit(&self, length: u32, now: Nanos) -> Option<Placement> {
        self.demand.lock().recorder.record(length, now);
        let d = self.deployment.read();
        let handle = d.frontend.dispatch(length)?;
        if self.health_enabled {
            if let Some(reg) = self.health.lock().as_mut() {
                let flat = flat_index(&d.counts, handle.level, handle.index);
                reg.note_dispatch(flat, now);
                if reg.admission(flat) == Admission::Probe {
                    // Half-open circuit: one probe at a time. Close the gate
                    // until this probe completes.
                    d.frontend.set_admitting(handle, false);
                }
            }
        }
        Some(Placement {
            generation: d.generation,
            runtime_idx: handle.level,
            instance_idx: handle.index,
        })
    }

    /// Report a completed execution. Placements from a superseded
    /// generation are acknowledged silently — their instances no longer
    /// exist in the current frontend. Returns whether the completion
    /// applied to the live deployment.
    ///
    /// With health tracking enabled this retires the outstanding-dispatch
    /// entry without judging the instance; embedders that can measure
    /// execution latency should call [`ArloEngine::report_success`] /
    /// [`ArloEngine::report_failure`] instead so the circuit breaker sees
    /// the observation.
    pub fn complete(&self, placement: Placement) -> bool {
        let d = self.deployment.read();
        if placement.generation != d.generation {
            return false;
        }
        let handle = InstanceHandle {
            level: placement.runtime_idx,
            index: placement.instance_idx,
        };
        d.frontend.complete(handle);
        if self.health_enabled {
            if let Some(reg) = self.health.lock().as_mut() {
                let flat = flat_index(&d.counts, placement.runtime_idx, placement.instance_idx);
                reg.note_complete(flat);
                if reg.admission(flat) == Admission::Probe && reg.outstanding(flat) == 0 {
                    d.frontend.set_admitting(handle, true);
                }
            }
        }
        true
    }

    /// Report a successful execution with its observed latency (ns). Like
    /// [`ArloEngine::complete`], but feeds the health detector: the observed
    /// latency is compared against the runtime's profiled execution time,
    /// and a persistently slow instance is quarantined out of dispatch.
    /// No-op (returns `false`) for superseded generations.
    ///
    /// Batch-1 wrapper over [`ArloEngine::report_batch`].
    pub fn report_success(&self, placement: Placement, now: Nanos, observed_ns: f64) -> bool {
        self.report_batch(placement, 1, 0, now, observed_ns)
    }

    /// Report a failed execution (error, connection reset). Releases the
    /// frontend load and strikes the instance's health record. No-op
    /// (returns `false`) for superseded generations.
    ///
    /// Batch-1 wrapper over [`ArloEngine::report_batch`].
    pub fn report_failure(&self, placement: Placement, now: Nanos) -> bool {
        self.report_batch(placement, 0, 1, now, 0.0)
    }

    /// Report a completed batch: `ok` successful and `failed` failed
    /// executions that ran together on `placement`'s instance, finishing at
    /// `now` with a per-request observed service time of
    /// `observed_per_request_ns` (a batch shares its cost; divide the batch
    /// duration by its size, as the simulator does).
    ///
    /// This is the batched sibling of [`ArloEngine::report_success`] /
    /// [`ArloEngine::report_failure`]: one deployment-lock acquisition, one
    /// [`SchedulerFrontend::complete_n`] load release, one health-registry
    /// lock and one gate sync for the whole batch, instead of per request.
    /// Health still receives one observation per request — the detector's
    /// evidence stream is identical to reporting each request alone.
    ///
    /// Placements from a superseded generation are acknowledged (returns
    /// `false`) without touching the rebuilt frontend or health registry.
    pub fn report_batch(
        &self,
        placement: Placement,
        ok: u32,
        failed: u32,
        now: Nanos,
        observed_per_request_ns: f64,
    ) -> bool {
        assert!(ok + failed >= 1, "a batch has at least one request");
        let d = self.deployment.read();
        if placement.generation != d.generation {
            return false;
        }
        let handle = InstanceHandle {
            level: placement.runtime_idx,
            index: placement.instance_idx,
        };
        d.frontend.complete_n(handle, ok + failed);
        if let Some(reg) = self.health.lock().as_mut() {
            let flat = flat_index(&d.counts, placement.runtime_idx, placement.instance_idx);
            // Static shapes make the profiled execution time the expectation
            // regardless of the request's actual length (padding, §2.2).
            let expected_ns = self.profiles[placement.runtime_idx].exec_ms * 1e6;
            for _ in 0..ok {
                reg.record_success(flat, now, observed_per_request_ns, expected_ns);
            }
            for _ in 0..failed {
                reg.record_failure(flat, now);
            }
            Self::sync_gates(&d, reg);
        }
        true
    }

    /// Report that an instance of the current deployment crashed: its
    /// circuit opens immediately and it is masked out of dispatch until the
    /// quarantine cooldown earns it a probation probe. The embedder owns
    /// re-submission of whatever was in flight on the crashed instance
    /// (typically via [`ArloEngine::submit`], which will route around it).
    pub fn report_crash(&self, runtime_idx: usize, instance_idx: usize, now: Nanos) {
        let d = self.deployment.read();
        if let Some(reg) = self.health.lock().as_mut() {
            let flat = flat_index(&d.counts, runtime_idx, instance_idx);
            reg.record_crash(flat, now);
            Self::sync_gates(&d, reg);
        }
    }

    /// Advance time-driven health transitions (quarantine cooldowns,
    /// stuck-dispatch detection) and refresh admission gates. The embedder
    /// calls this periodically — e.g. every 100 ms — from its own timer.
    /// Returns the number of state transitions that fired. No-op when
    /// health tracking is off.
    pub fn health_tick(&self, now: Nanos) -> usize {
        let d = self.deployment.read();
        let mut guard = self.health.lock();
        let Some(reg) = guard.as_mut() else {
            return 0;
        };
        let before = reg.transitions().len();
        reg.tick(now);
        Self::sync_gates(&d, reg);
        reg.transitions().len() - before
    }

    /// Health snapshot of the current deployment, in flat instance order
    /// (runtimes in order, instances within each). `None` when health
    /// tracking is off.
    pub fn health_states(&self) -> Option<Vec<HealthState>> {
        let d = self.deployment.read();
        let guard = self.health.lock();
        guard.as_ref().map(|reg| {
            let total: usize = d.counts.iter().map(|&n| n as usize).sum();
            (0..total).map(|i| reg.state(i)).collect()
        })
    }

    /// Drain the recorded health transitions (for dashboards and
    /// detection/recovery-time analysis). Empty when health tracking is off.
    pub fn take_health_transitions(&self) -> Vec<HealthTransition> {
        self.health
            .lock()
            .as_mut()
            .map_or_else(Vec::new, HealthRegistry::take_transitions)
    }

    /// Push the registry's admission decisions into the frontend's
    /// circuit-breaker masks: `Full` opens, `Deny` closes, `Probe` opens
    /// only while nothing is outstanding (one probe at a time).
    fn sync_gates(d: &Deployment, reg: &HealthRegistry) {
        let mut flat = 0usize;
        for (level, &n) in d.counts.iter().enumerate() {
            for index in 0..n as usize {
                let admitting = match reg.admission(flat) {
                    Admission::Full => true,
                    Admission::Deny => false,
                    Admission::Probe => reg.outstanding(flat) == 0,
                };
                d.frontend
                    .set_admitting(InstanceHandle { level, index }, admitting);
                flat += 1;
            }
        }
    }

    /// Invoke the Runtime Scheduler if a full decision period has elapsed.
    ///
    /// On a decision, returns the replacement plan; the embedder applies it
    /// to its fleet (draining and reloading instances, in small batches as
    /// §4 prescribes) and then calls [`ArloEngine::apply_allocation`] with
    /// the plan to switch dispatching to the new deployment.
    pub fn maybe_reallocate(&self, now: Nanos, gpus: u32) -> Option<ReplacementPlan> {
        let mut demand = self.demand.lock();
        if now.saturating_sub(demand.recorder.started()) < self.config.allocation_period {
            return None;
        }
        let window = demand.recorder.take(now);
        let estimate = demand.scheduler.estimate(&window);
        let backoff = demand.scheduler.config().overload_backoff;
        drop(demand);
        let target = ArloRuntimeScheduler::solve_for(&self.profiles, &estimate?, gpus, backoff)?;
        self.plan_for(&target)
    }

    /// The plan that moves the current deployment to `target` instance
    /// counts, or `None` when `target` is what is deployed.
    pub fn plan_for(&self, target: &[u32]) -> Option<ReplacementPlan> {
        let d = self.deployment.read();
        if target == d.counts.as_slice() {
            return None;
        }
        let delta = target
            .iter()
            .zip(&d.counts)
            .map(|(&t, &c)| i64::from(t) - i64::from(c))
            .collect();
        Some(ReplacementPlan {
            generation: d.generation + 1,
            target: target.to_vec(),
            delta,
        })
    }

    /// Switch dispatching to a new deployment (after the embedder has
    /// reloaded its fleet per the plan). Panics if the plan's generation is
    /// not the immediate successor — plans must be applied in order.
    pub fn apply_allocation(&self, plan: &ReplacementPlan) {
        let mut d = self.deployment.write();
        assert_eq!(
            plan.generation,
            d.generation + 1,
            "replacement plans must be applied in order"
        );
        d.frontend = Self::build_frontend(&self.profiles, &plan.target, self.config.rs);
        d.counts = plan.target.clone();
        d.generation = plan.generation;
        // A new generation is a fresh fleet: health history of the old
        // instance indices no longer describes anything that exists.
        if let Some(reg) = self.health.lock().as_mut() {
            *reg = HealthRegistry::new(reg.config());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::profile_runtimes;
    use std::sync::Arc;

    const SEC: Nanos = arlo_trace::NANOS_PER_SEC;

    fn engine(counts: &[u32]) -> ArloEngine {
        let set = arlo_runtime::runtime_set::RuntimeSet::with_count(ModelSpec::bert_base(), 4);
        let profiles = profile_runtimes(&set.compile(), 150.0, 256);
        ArloEngine::new(
            profiles,
            counts.to_vec(),
            EngineConfig::paper_default(150.0),
        )
    }

    #[test]
    fn submit_routes_by_length() {
        let e = engine(&[2, 2, 2, 2]);
        let p = e.submit(50, 0).expect("dispatches");
        assert_eq!(p.runtime_idx, 0);
        let p = e.submit(400, 0).expect("dispatches");
        assert_eq!(p.runtime_idx, 3);
        assert!(e.submit(1000, 0).is_none(), "over the model limit");
        assert!(e.submit(0, 0).is_none(), "no runtime serves zero tokens");
    }

    #[test]
    fn complete_releases_load() {
        let e = engine(&[1, 1, 1, 1]);
        let p = e.submit(50, 0).expect("dispatches");
        assert!(e.complete(p));
        // Double-complete of the same placement would underflow the level —
        // the frontend panics, which is the embedder-bug contract; instead
        // verify a fresh submit reuses the now-idle instance.
        let q = e.submit(50, 1).expect("dispatches");
        assert_eq!(
            (q.runtime_idx, q.instance_idx),
            (p.runtime_idx, p.instance_idx)
        );
    }

    #[test]
    fn reallocation_follows_observed_demand() {
        let e = engine(&[2, 2, 2, 2]);
        // 100% short demand for a full period.
        for i in 0..2000u64 {
            let now = i * 60 * SEC / 1000; // spread over 120 s
            if let Some(p) = e.submit(40, now) {
                e.complete(p);
            }
        }
        let plan = e
            .maybe_reallocate(121 * SEC, 8)
            .expect("a period elapsed with demand");
        assert_eq!(plan.target.iter().sum::<u32>(), 8);
        assert!(
            plan.target[0] > 2,
            "short runtime should gain: {:?}",
            plan.target
        );
        assert!(*plan.target.last().expect("non-empty") >= 1, "Eq. 7");
        assert_eq!(plan.delta.iter().sum::<i64>(), 0, "GPU-conserving");
        e.apply_allocation(&plan);
        assert_eq!(e.deployment(), (1, plan.target.clone()));
    }

    #[test]
    fn unserviceable_lengths_do_not_steer_reallocation() {
        let e = engine(&[2, 2, 2, 2]);
        for i in 0..2000u64 {
            let length = if i % 2 == 0 { 0 } else { 100_000 };
            assert!(e.submit(length, i * 60 * SEC / 1000).is_none());
        }
        assert_eq!(e.maybe_reallocate(121 * SEC, 8), None);
    }

    #[test]
    fn plan_for_moves_the_current_deployment() {
        let e = engine(&[2, 2, 2, 2]);
        assert_eq!(e.plan_for(&[2, 2, 2, 2]), None, "already deployed");
        let plan = e.plan_for(&[5, 1, 1, 1]).expect("a change");
        assert_eq!(plan.generation, 1);
        assert_eq!(plan.delta, vec![3, -1, -1, -1]);
    }

    #[test]
    fn level_loads_snapshot() {
        let e = engine(&[2, 1, 1, 1]);
        let p1 = e.submit(40, 0).expect("dispatches");
        e.submit(40, 1).expect("dispatches");
        e.submit(400, 2).expect("dispatches");
        assert_eq!(e.level_loads(), vec![2, 0, 0, 1]);
        e.complete(p1);
        assert_eq!(e.level_loads(), vec![1, 0, 0, 1]);
    }

    #[test]
    fn no_reallocation_before_period_or_without_demand() {
        let e = engine(&[2, 2, 2, 2]);
        e.submit(40, 0);
        assert!(
            e.maybe_reallocate(60 * SEC, 8).is_none(),
            "period not elapsed"
        );
        assert!(e.maybe_reallocate(121 * SEC, 8).is_some());
        // Next period with zero demand: keep the deployment.
        assert!(e.maybe_reallocate(242 * SEC, 8).is_none());
    }

    #[test]
    fn stale_generation_completions_are_ignored() {
        let e = engine(&[2, 2, 2, 2]);
        let old = e.submit(40, 0).expect("dispatches");
        for i in 0..1000u64 {
            e.submit(40, i * 100 * SEC / 1000);
        }
        let plan = e.maybe_reallocate(121 * SEC, 8).expect("reallocates");
        e.apply_allocation(&plan);
        assert!(!e.complete(old), "old-generation completion must not count");
        // New-generation traffic flows normally.
        let p = e.submit(40, 122 * SEC).expect("dispatches");
        assert_eq!(p.generation, 1);
        assert!(e.complete(p));
    }

    #[test]
    fn stale_reports_are_acknowledged_without_corrupting_the_new_frontend() {
        // Regression for the serve stack's completion path: executions in
        // flight across a reallocation finish *after* apply_allocation and
        // come back through report_success / report_failure with a
        // superseded generation — possibly naming an instance index that no
        // longer exists at that level. The engine must acknowledge them
        // (return false) without panicking, without decrementing load on the
        // rebuilt frontend, and without striking any health record.
        let e = health_engine(&[1, 1, 1, 4]);
        // Two in-flight requests on the long runtime: indices 0 and 1.
        let stale_a = e.submit(400, 0).expect("dispatches");
        let stale_b = e.submit(400, 1).expect("dispatches");
        assert_eq!(stale_a.runtime_idx, 3);
        assert!(stale_a.instance_idx != stale_b.instance_idx);
        // A period of short-only demand shrinks the long level.
        for i in 0..2000u64 {
            let now = 2 + i * 60 * SEC / 1000;
            if let Some(p) = e.submit(40, now) {
                e.complete(p);
            }
        }
        let plan = e.maybe_reallocate(121 * SEC, 7).expect("reallocates");
        assert!(
            plan.target[3] < 2,
            "long level must shrink so a stale index goes out of range: {:?}",
            plan.target
        );
        e.apply_allocation(&plan);
        assert_eq!(e.level_loads(), vec![0; 4], "rebuilt frontend starts idle");

        // One stale success (index now out of range) and one stale failure:
        // both acknowledged, neither applied.
        let now = 122 * SEC;
        assert!(!e.report_success(stale_b, now, expected_ns(&e, 3)));
        assert!(!e.report_failure(stale_a, now));
        assert_eq!(e.level_loads(), vec![0; 4], "stale reports must not count");
        let healthy = e
            .health_states()
            .expect("health on")
            .iter()
            .all(|&s| s == HealthState::Healthy);
        assert!(healthy, "stale failure must not strike the new deployment");

        // New-generation traffic accounts exactly once.
        let p = e.submit(40, now + 1).expect("dispatches");
        assert_eq!(p.generation, 1);
        let mut loads = e.level_loads();
        assert_eq!(loads.iter().sum::<u64>(), 1);
        assert!(e.report_success(p, now + 2, expected_ns(&e, 0)));
        loads = e.level_loads();
        assert_eq!(loads, vec![0; 4], "exactly one decrement");
    }

    #[test]
    fn report_batch_releases_the_whole_batch_load() {
        let e = engine(&[1, 1, 1, 1]);
        let p = e.submit(40, 0).expect("dispatches");
        for t in 1..3u64 {
            let q = e.submit(40, t).expect("dispatches");
            assert_eq!(q, p, "single instance level batches on one placement");
        }
        assert_eq!(e.level_loads(), vec![3, 0, 0, 0]);
        assert!(e.report_batch(p, 3, 0, 3, 1.0e6));
        assert_eq!(e.level_loads(), vec![0, 0, 0, 0], "one call, three units");
    }

    #[test]
    fn report_batch_is_equivalent_to_per_request_reports() {
        // Two identical health engines see the same evidence: one as a
        // single 4-batch report, the other as four individual reports. The
        // detector and frontend must end in the same state.
        let batched = health_engine(&[1, 1, 1, 1]);
        let singles = health_engine(&[1, 1, 1, 1]);
        let mut now = 0;
        loop {
            now += SEC / 100;
            let mut pb = None;
            let mut ps = None;
            for t in 0..4u64 {
                pb = Some(batched.submit(40, now + t).expect("dispatches"));
                ps = Some(singles.submit(40, now + t).expect("dispatches"));
            }
            let (pb, ps) = (pb.unwrap(), ps.unwrap());
            let slow = 5.0 * expected_ns(&batched, 0);
            batched.report_batch(pb, 4, 0, now, slow);
            for _ in 0..4 {
                singles.report_success(ps, now, slow);
            }
            assert_eq!(
                batched.health_states(),
                singles.health_states(),
                "same evidence, same verdict"
            );
            assert_eq!(batched.level_loads(), singles.level_loads());
            if batched.health_states().expect("on")[0] == HealthState::Quarantined {
                break;
            }
            assert!(now < SEC, "detector must trip quickly");
        }
    }

    #[test]
    fn report_batch_with_failures_strikes_health_and_releases_load() {
        let e = health_engine(&[1, 1, 1, 1]);
        let mut now = 0;
        while e.health_states().expect("on")[0] != HealthState::Quarantined {
            now += SEC / 100;
            let mut p = None;
            for t in 0..3u64 {
                p = Some(e.submit(40, now + t).expect("dispatches"));
            }
            // A mixed batch: two clean, one failed execution.
            e.report_batch(p.unwrap(), 2, 1, now, expected_ns(&e, 0));
            assert!(now < 10 * SEC, "failures must condemn eventually");
        }
        assert_eq!(e.level_loads()[0], 0, "mixed batches release all load");
    }

    #[test]
    fn stale_generation_batch_reports_are_acknowledged_only() {
        let e = engine(&[2, 2, 2, 2]);
        let old = e.submit(40, 0).expect("dispatches");
        for i in 0..1000u64 {
            e.submit(40, i * 100 * SEC / 1000);
        }
        let plan = e.maybe_reallocate(121 * SEC, 8).expect("reallocates");
        e.apply_allocation(&plan);
        assert!(
            !e.report_batch(old, 3, 1, 122 * SEC, 1.0e6),
            "stale batch must not apply"
        );
        assert_eq!(e.level_loads(), vec![0; 4], "rebuilt frontend untouched");
    }

    #[test]
    #[should_panic(expected = "applied in order")]
    fn plans_apply_in_order() {
        let e = engine(&[2, 2, 2, 2]);
        let bogus = ReplacementPlan {
            generation: 5,
            target: vec![2, 2, 2, 2],
            delta: vec![0, 0, 0, 0],
        };
        e.apply_allocation(&bogus);
    }

    fn health_engine(counts: &[u32]) -> ArloEngine {
        let set = arlo_runtime::runtime_set::RuntimeSet::with_count(ModelSpec::bert_base(), 4);
        let profiles = profile_runtimes(&set.compile(), 150.0, 256);
        ArloEngine::new(
            profiles,
            counts.to_vec(),
            EngineConfig::paper_default(150.0).with_health(HealthConfig::default()),
        )
    }

    /// Expected exec time (ns) of runtime level `idx` for a given engine.
    fn expected_ns(e: &ArloEngine, idx: usize) -> f64 {
        e.profiles()[idx].exec_ms * 1e6
    }

    #[test]
    fn slow_instance_is_quarantined_and_routed_around() {
        let e = health_engine(&[2, 1, 1, 1]);
        // Instance (0, 0) persistently completes at 5× the profiled time.
        // Ties at zero load resolve to index 0, so each cycle hits it.
        let mut now = 0;
        let slow = loop {
            now += SEC / 100;
            let p = e.submit(40, now).expect("dispatches");
            assert_eq!(p.instance_idx, 0, "zero-load tie picks index 0");
            e.report_success(p, now, 5.0 * expected_ns(&e, 0));
            if e.health_states().expect("health on")[0] == HealthState::Quarantined {
                break now;
            }
            assert!(now < SEC, "detector must trip quickly");
        };
        // Dispatch now routes to the healthy sibling.
        let p = e.submit(40, slow + 1).expect("sibling serves");
        assert_eq!((p.runtime_idx, p.instance_idx), (0, 1));
        e.report_success(p, slow + 2, expected_ns(&e, 0));
        let transitions = e.take_health_transitions();
        assert!(transitions
            .iter()
            .any(|t| t.instance == 0 && t.to == HealthState::Quarantined));
    }

    #[test]
    fn probation_admits_one_probe_then_recovers() {
        let e = health_engine(&[2, 1, 1, 1]);
        let mut now = 0;
        // Condemn instance (0, 0).
        while e.health_states().expect("on")[0] != HealthState::Quarantined {
            now += SEC / 100;
            let p = e.submit(40, now).expect("dispatches");
            e.report_success(p, now, 5.0 * expected_ns(&e, 0));
        }
        // Cooldown elapses: probation.
        now += 3 * SEC;
        assert!(e.health_tick(now) > 0, "cooldown transition fires");
        assert_eq!(e.health_states().expect("on")[0], HealthState::Probation);
        // First submit is the probe; a second concurrent submit must avoid
        // the probationer (its gate is closed while the probe is out).
        let probe = e.submit(40, now).expect("probe admitted");
        assert_eq!(probe.instance_idx, 0);
        let other = e.submit(40, now + 1).expect("dispatches");
        assert_eq!(other.instance_idx, 1, "one probe at a time");
        e.complete(other);
        // Clean probes close the circuit.
        e.report_success(probe, now + 2, expected_ns(&e, 0));
        for k in 0..2 {
            let p = e.submit(40, now + 3 + k).expect("next probe");
            assert_eq!(p.instance_idx, 0);
            e.report_success(p, now + 4 + k, expected_ns(&e, 0));
        }
        assert_eq!(e.health_states().expect("on")[0], HealthState::Healthy);
    }

    #[test]
    fn crash_report_masks_instance_immediately() {
        let e = health_engine(&[2, 1, 1, 1]);
        e.report_crash(0, 0, SEC);
        assert_eq!(e.health_states().expect("on")[0], HealthState::Quarantined);
        for k in 0..4 {
            let p = e.submit(40, SEC + k).expect("sibling serves");
            assert_eq!(p.instance_idx, 1);
            e.complete(p);
        }
    }

    #[test]
    fn failures_strike_health_and_release_load() {
        let e = health_engine(&[1, 1, 1, 1]);
        let mut now = 0;
        while e.health_states().expect("on")[0] != HealthState::Quarantined {
            now += SEC / 100;
            let p = e.submit(40, now).expect("dispatches");
            e.report_failure(p, now);
            assert!(now < SEC, "failures must condemn quickly");
        }
        assert_eq!(e.level_loads()[0], 0, "failures release frontend load");
        // The whole short level is masked: requests demote to level 1.
        let p = e.submit(40, now + 1).expect("demotes");
        assert_eq!(p.runtime_idx, 1);
    }

    #[test]
    fn reallocation_resets_health_history() {
        let e = health_engine(&[2, 2, 2, 2]);
        e.report_crash(0, 0, 0);
        assert_eq!(e.health_states().expect("on")[0], HealthState::Quarantined);
        for i in 0..1000u64 {
            if let Some(p) = e.submit(40, i * 100 * SEC / 1000) {
                e.complete(p);
            }
        }
        let plan = e.maybe_reallocate(121 * SEC, 8).expect("reallocates");
        e.apply_allocation(&plan);
        assert!(
            e.health_states()
                .expect("on")
                .iter()
                .all(|&s| s == HealthState::Healthy),
            "fresh generation starts with a clean bill"
        );
    }

    #[test]
    fn health_disabled_engine_reports_nothing() {
        let e = engine(&[2, 2, 2, 2]);
        assert!(e.health_states().is_none());
        assert_eq!(e.health_tick(SEC), 0);
        let p = e.submit(40, 0).expect("dispatches");
        assert!(e.report_success(p, 1, 1.0e6), "acts as plain complete");
        assert!(e.take_health_transitions().is_empty());
    }

    #[test]
    fn concurrent_submit_complete_hammering() {
        let e = Arc::new(engine(&[4, 4, 4, 4]));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let e = Arc::clone(&e);
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..2000u64 {
                        let len = 1 + ((t as u64 * 997 + i * 31) % 512) as u32;
                        if let Some(p) = e.submit(len, i * 1000) {
                            held.push(p);
                        }
                        if i % 2 == 0 {
                            if let Some(p) = held.pop() {
                                e.complete(p);
                            }
                        }
                    }
                    for p in held {
                        e.complete(p);
                    }
                });
            }
        });
        // All load released: every level drains to zero.
        let p = e.submit(1, u64::MAX / 2).expect("dispatches");
        assert_eq!(p.instance_idx, 0, "ties at zero load pick index 0");
    }
}
