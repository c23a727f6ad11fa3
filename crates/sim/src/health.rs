//! Instance health tracking and circuit breaking for the fault-tolerance
//! layer.
//!
//! The paper motivates dynamics-aware scheduling with "idiosyncratic factors
//! such as failures and bugs" (§3.2) but leaves recovery to the operator.
//! This module supplies the missing piece: a per-instance health state
//! machine driven purely by *observations* the scheduler already has —
//! completion latencies versus the profiled expectation, hard failures, and
//! the age of the oldest outstanding dispatch:
//!
//! ```text
//!   Healthy ──strikes──▶ Suspect ──strikes──▶ Quarantined
//!      ▲                    │                      │
//!      │◀────success────────┘                cooldown elapses
//!      │                                           ▼
//!      └◀──clean probes──  Probation  ◀────────────┘
//!                             │
//!                             └──any strike──▶ Quarantined
//! ```
//!
//! *Quarantined* instances are skipped entirely by dispatch (the circuit is
//! open); *Probation* admits a trickle — one probe request at a time — so a
//! recovered instance re-earns traffic instead of receiving a thundering
//! herd. The same registry backs both the discrete-event simulator (the
//! driver translates states into cluster admit gates) and the live
//! [`ArloEngine`](../../arlo_core/engine/index.html) (which translates them
//! into frontend level-walk masks).
//!
//! Everything is deterministic: no wall clocks, no randomness — callers pass
//! monotonic nanoseconds into every method, so simulations replay exactly.
//!
//! Gate changes interact with the cluster's dispatch index: `set_admit_gate`
//! (and the eviction that accompanies quarantine) takes the instance out of
//! its runtime's load index on a ban and puts it back at its current load
//! on the transition back to an accepting state, so a ban or recovery moves
//! one bit and a re-admitted instance is immediately visible to
//! `least_loaded` — see the index invariants in DESIGN.md §3 and
//! `cluster::Cluster`.

use arlo_trace::Nanos;
use std::collections::VecDeque;

/// Circuit-breaker position for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full traffic.
    Healthy,
    /// Breaching, but not yet condemned — still receives full traffic while
    /// the evidence accumulates.
    Suspect,
    /// Circuit open: receives no traffic until the cooldown elapses.
    Quarantined,
    /// Half-open: admits one probe at a time; clean probes close the
    /// circuit, any strike re-opens it.
    Probation,
}

/// How much traffic an instance in a given state may receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Normal dispatching.
    Full,
    /// At most one outstanding probe request.
    Probe,
    /// None.
    Deny,
}

impl HealthState {
    /// The admission policy this state implies.
    pub fn admission(self) -> Admission {
        match self {
            HealthState::Healthy | HealthState::Suspect => Admission::Full,
            HealthState::Probation => Admission::Probe,
            HealthState::Quarantined => Admission::Deny,
        }
    }
}

/// Detector parameters. Defaults are deliberately conservative: a healthy
/// instance under load jitter must never trip the breaker (false quarantines
/// *remove* capacity, the very thing a degraded cluster lacks).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthConfig {
    /// EWMA weight for the observed/expected latency ratio.
    pub latency_alpha: f64,
    /// Smoothed latency ratio above this multiple is a breach.
    pub slow_multiple: f64,
    /// EWMA weight for the failure indicator (1 = failed, 0 = ok).
    pub error_alpha: f64,
    /// Smoothed failure rate above this is a breach.
    pub error_threshold: f64,
    /// Consecutive breaches before `Healthy → Suspect`.
    pub suspect_after: u32,
    /// Consecutive breaches before `Suspect → Quarantined`.
    pub quarantine_after: u32,
    /// Quarantine cooldown before the instance earns a probation probe (ns).
    pub quarantine_ns: Nanos,
    /// Consecutive clean probes before `Probation → Healthy`.
    pub probation_successes: u32,
    /// An oldest-outstanding-dispatch older than this is a hang: the
    /// instance is quarantined directly (fail-slow/stuck detector, ns).
    pub stuck_after_ns: Nanos,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            latency_alpha: 0.6,
            slow_multiple: 2.0,
            error_alpha: 0.2,
            error_threshold: 0.25,
            suspect_after: 2,
            quarantine_after: 4,
            quarantine_ns: 2 * arlo_trace::NANOS_PER_SEC,
            probation_successes: 3,
            stuck_after_ns: 2 * arlo_trace::NANOS_PER_SEC,
        }
    }
}

impl HealthConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) {
        assert!(
            self.latency_alpha > 0.0 && self.latency_alpha <= 1.0,
            "latency_alpha must be in (0, 1]"
        );
        assert!(self.slow_multiple > 1.0, "slow_multiple must exceed 1");
        assert!(
            self.error_alpha > 0.0 && self.error_alpha <= 1.0,
            "error_alpha must be in (0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&self.error_threshold),
            "error_threshold must be in [0, 1)"
        );
        assert!(self.suspect_after >= 1, "suspect_after must be >= 1");
        assert!(
            self.quarantine_after > self.suspect_after,
            "quarantine_after must exceed suspect_after"
        );
        assert!(
            self.probation_successes >= 1,
            "probation_successes must be >= 1"
        );
        assert!(self.stuck_after_ns > 0, "stuck_after_ns must be positive");
    }
}

/// One recorded state change, for detection/recovery-time analysis
/// (`ext_recovery` derives its time-to-detect and time-to-recover from
/// these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// When the transition happened (ns).
    pub at: Nanos,
    /// The instance that changed state.
    pub instance: usize,
    /// Previous state.
    pub from: HealthState,
    /// New state.
    pub to: HealthState,
}

#[derive(Debug, Clone)]
struct InstanceHealth {
    state: HealthState,
    /// Consecutive breaches.
    strikes: u32,
    /// Consecutive clean probes while in probation.
    clean_probes: u32,
    /// Smoothed observed/expected latency ratio; meaningless until
    /// `samples > 0`.
    latency_ratio_ewma: f64,
    samples: u64,
    /// Smoothed failure indicator.
    error_ewma: f64,
    quarantined_at: Nanos,
    /// Dispatch times of outstanding requests, oldest first. Per-instance
    /// service is FIFO in the simulator; in the live engine completions may
    /// reorder, making the oldest-age check an approximation (documented on
    /// [`HealthRegistry::note_dispatch`]).
    outstanding: VecDeque<Nanos>,
}

impl InstanceHealth {
    fn new() -> Self {
        InstanceHealth {
            state: HealthState::Healthy,
            strikes: 0,
            clean_probes: 0,
            latency_ratio_ewma: 0.0,
            samples: 0,
            error_ewma: 0.0,
            quarantined_at: 0,
            outstanding: VecDeque::new(),
        }
    }
}

/// Health tracker for a fleet of instances, keyed by dense instance index.
#[derive(Debug, Clone)]
pub struct HealthRegistry {
    config: HealthConfig,
    instances: Vec<InstanceHealth>,
    transitions: Vec<HealthTransition>,
}

impl HealthRegistry {
    /// An empty registry (instances are tracked lazily on first touch).
    pub fn new(config: HealthConfig) -> Self {
        config.validate();
        HealthRegistry {
            config,
            instances: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// The detector configuration.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    fn ensure(&mut self, id: usize) -> &mut InstanceHealth {
        if self.instances.len() <= id {
            self.instances.resize_with(id + 1, InstanceHealth::new);
        }
        &mut self.instances[id]
    }

    fn transition(&mut self, id: usize, now: Nanos, to: HealthState) {
        let inst = &mut self.instances[id];
        let from = inst.state;
        if from == to {
            return;
        }
        inst.state = to;
        if to == HealthState::Quarantined {
            inst.quarantined_at = now;
        }
        if to == HealthState::Probation || to == HealthState::Healthy {
            inst.strikes = 0;
            inst.clean_probes = 0;
        }
        if to == HealthState::Probation {
            // Probation judges probes on a clean slate: the quarantine was
            // the penalty, and stale pre-quarantine EWMAs would condemn a
            // recovered instance on its first (healthy) probe.
            inst.latency_ratio_ewma = 0.0;
            inst.samples = 0;
            inst.error_ewma = 0.0;
        }
        self.transitions.push(HealthTransition {
            at: now,
            instance: id,
            from,
            to,
        });
    }

    fn strike(&mut self, id: usize, now: Nanos) {
        let cfg = self.config;
        let inst = self.ensure(id);
        inst.strikes += 1;
        inst.clean_probes = 0;
        let (strikes, state) = (inst.strikes, inst.state);
        match state {
            HealthState::Healthy if strikes >= cfg.suspect_after => {
                self.transition(id, now, HealthState::Suspect);
            }
            HealthState::Suspect if strikes >= cfg.quarantine_after => {
                self.transition(id, now, HealthState::Quarantined);
            }
            HealthState::Probation => {
                self.transition(id, now, HealthState::Quarantined);
            }
            _ => {}
        }
    }

    fn clean(&mut self, id: usize, now: Nanos) {
        let cfg = self.config;
        let inst = self.ensure(id);
        inst.strikes = 0;
        match inst.state {
            HealthState::Suspect => self.transition(id, now, HealthState::Healthy),
            HealthState::Probation => {
                inst.clean_probes += 1;
                if inst.clean_probes >= cfg.probation_successes {
                    self.transition(id, now, HealthState::Healthy);
                }
            }
            _ => {}
        }
    }

    /// Note a request bound to `id` at `now` — feeds the oldest-outstanding
    /// age detector. Outstanding entries are retired FIFO by
    /// [`HealthRegistry::note_complete`] / the `record_*` methods, which is
    /// exact under per-instance FIFO service and an approximation otherwise.
    pub fn note_dispatch(&mut self, id: usize, now: Nanos) {
        self.ensure(id).outstanding.push_back(now);
    }

    /// Retire one outstanding entry without judging the instance (used by
    /// embedders that report completions without latency observations).
    pub fn note_complete(&mut self, id: usize) {
        self.ensure(id).outstanding.pop_front();
    }

    /// A request completed successfully on `id` after `observed_ns` of
    /// execution, against a profiled expectation of `expected_ns`.
    pub fn record_success(&mut self, id: usize, now: Nanos, observed_ns: f64, expected_ns: f64) {
        let cfg = self.config;
        let inst = self.ensure(id);
        inst.outstanding.pop_front();
        let ratio = if expected_ns > 0.0 {
            observed_ns / expected_ns
        } else {
            1.0
        };
        inst.latency_ratio_ewma = if inst.samples == 0 {
            ratio
        } else {
            cfg.latency_alpha * ratio + (1.0 - cfg.latency_alpha) * inst.latency_ratio_ewma
        };
        inst.samples += 1;
        inst.error_ewma *= 1.0 - cfg.error_alpha;
        let breach =
            inst.latency_ratio_ewma > cfg.slow_multiple || inst.error_ewma > cfg.error_threshold;
        if breach {
            self.strike(id, now);
        } else {
            self.clean(id, now);
        }
    }

    /// A request failed outright on `id` (execution error, connection
    /// reset). Always a strike, and raises the smoothed failure rate.
    pub fn record_failure(&mut self, id: usize, now: Nanos) {
        let cfg = self.config;
        let inst = self.ensure(id);
        inst.outstanding.pop_front();
        inst.error_ewma = cfg.error_alpha + (1.0 - cfg.error_alpha) * inst.error_ewma;
        self.strike(id, now);
    }

    /// The instance crashed: all outstanding work is lost and the circuit
    /// opens immediately.
    pub fn record_crash(&mut self, id: usize, now: Nanos) {
        let inst = self.ensure(id);
        inst.outstanding.clear();
        inst.error_ewma = 1.0;
        self.transition(id, now, HealthState::Quarantined);
    }

    /// Drop the `n` newest outstanding entries of `id` — used when queued
    /// (not yet running) requests are evicted back to the central buffer.
    pub fn remove_newest(&mut self, id: usize, n: usize) {
        let q = &mut self.ensure(id).outstanding;
        let keep = q.len().saturating_sub(n);
        q.truncate(keep);
    }

    /// Advance time-driven transitions: quarantine cooldowns expire into
    /// probation, and instances whose oldest outstanding dispatch exceeds
    /// the stuck threshold are quarantined (hang / fail-slow detector).
    pub fn tick(&mut self, now: Nanos) {
        let cfg = self.config;
        for id in 0..self.instances.len() {
            let inst = &self.instances[id];
            match inst.state {
                HealthState::Quarantined => {
                    if now.saturating_sub(inst.quarantined_at) >= cfg.quarantine_ns {
                        self.transition(id, now, HealthState::Probation);
                    }
                }
                _ => {
                    if let Some(&oldest) = inst.outstanding.front() {
                        if now.saturating_sub(oldest) > cfg.stuck_after_ns {
                            self.transition(id, now, HealthState::Quarantined);
                        }
                    }
                }
            }
        }
    }

    /// Current state of `id` (`Healthy` if never touched).
    pub fn state(&self, id: usize) -> HealthState {
        self.instances
            .get(id)
            .map_or(HealthState::Healthy, |i| i.state)
    }

    /// Admission policy for `id`.
    pub fn admission(&self, id: usize) -> Admission {
        self.state(id).admission()
    }

    /// Number of instances ever touched.
    pub fn tracked(&self) -> usize {
        self.instances.len()
    }

    /// Outstanding dispatches currently tracked for `id` — what the
    /// half-open (Probation) gate consults: a probe is admitted only when
    /// nothing is outstanding.
    pub fn outstanding(&self, id: usize) -> usize {
        self.instances.get(id).map_or(0, |i| i.outstanding.len())
    }

    /// All recorded state transitions, in time order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Drain the transition log (the sim driver moves it into the report).
    pub fn take_transitions(&mut self) -> Vec<HealthTransition> {
        std::mem::take(&mut self.transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Nanos = arlo_trace::NANOS_PER_SEC;
    const MS: Nanos = 1_000_000;

    fn registry() -> HealthRegistry {
        HealthRegistry::new(HealthConfig::default())
    }

    /// Drive one success observation at a given latency multiple.
    fn observe(r: &mut HealthRegistry, id: usize, now: Nanos, multiple: f64) {
        r.note_dispatch(id, now);
        r.record_success(id, now, multiple * 1e6, 1e6);
    }

    #[test]
    fn healthy_instances_stay_healthy_under_jitter() {
        let mut r = registry();
        for k in 0..100 {
            // ±30% jitter around the expectation never breaches 2×.
            let m = if k % 2 == 0 { 0.7 } else { 1.3 };
            observe(&mut r, 0, k * MS, m);
        }
        assert_eq!(r.state(0), HealthState::Healthy);
        assert!(r.transitions().is_empty());
    }

    #[test]
    fn full_state_machine_cycle() {
        let mut r = registry();
        // Persistent 4× latency: Healthy → Suspect → Quarantined.
        let mut now = 0;
        while r.state(0) != HealthState::Quarantined {
            now += MS;
            observe(&mut r, 0, now, 4.0);
            assert!(now < SEC, "detector must trip quickly");
        }
        let quarantined_at = now;
        assert_eq!(
            r.transitions().iter().map(|t| t.to).collect::<Vec<_>>(),
            vec![HealthState::Suspect, HealthState::Quarantined],
        );
        assert_eq!(r.admission(0), Admission::Deny);
        // Cooldown not yet elapsed: still quarantined.
        r.tick(quarantined_at + SEC);
        assert_eq!(r.state(0), HealthState::Quarantined);
        // Cooldown elapses: probation.
        r.tick(quarantined_at + 2 * SEC);
        assert_eq!(r.state(0), HealthState::Probation);
        assert_eq!(r.admission(0), Admission::Probe);
        // The slowdown persists: the first probe re-opens the circuit
        // (the latency EWMA is still far above the threshold).
        now = quarantined_at + 2 * SEC + MS;
        observe(&mut r, 0, now, 4.0);
        assert_eq!(r.state(0), HealthState::Quarantined);
        // Second probation round: the fault has cleared, probes run at the
        // expected latency. The EWMA needs a few samples to decay below the
        // 2× bar, then three clean probes close the circuit.
        r.tick(now + 2 * SEC);
        assert_eq!(r.state(0), HealthState::Probation);
        let mut t = now + 2 * SEC;
        while r.state(0) != HealthState::Healthy {
            t += MS;
            observe(&mut r, 0, t, 1.0);
            assert!(t < now + 4 * SEC, "recovery must converge");
        }
        assert_eq!(r.admission(0), Admission::Full);
        assert_eq!(
            r.transitions().last().map(|t| t.to),
            Some(HealthState::Healthy)
        );
    }

    #[test]
    fn suspect_recovers_without_quarantine() {
        let mut r = registry();
        observe(&mut r, 0, MS, 5.0);
        observe(&mut r, 0, 2 * MS, 5.0);
        assert_eq!(r.state(0), HealthState::Suspect);
        // Latency returns to normal before condemnation: the EWMA decays
        // below the bar and the instance goes straight back to Healthy.
        let mut now = 2 * MS;
        while r.state(0) != HealthState::Healthy {
            now += MS;
            observe(&mut r, 0, now, 1.0);
            assert!(now < SEC, "suspect must clear");
        }
        assert!(!r
            .transitions()
            .iter()
            .any(|t| t.to == HealthState::Quarantined));
    }

    #[test]
    fn error_rate_quarantines_despite_fast_completions() {
        let mut r = registry();
        let mut now = 0;
        // 1-in-2 hard failures at normal latency: the failure EWMA, not the
        // latency ratio, must trip the breaker.
        for k in 0..40 {
            now += MS;
            r.note_dispatch(0, now);
            if k % 2 == 0 {
                r.record_failure(0, now);
            } else {
                r.record_success(0, now, 1e6, 1e6);
            }
            if r.state(0) == HealthState::Quarantined {
                break;
            }
        }
        assert_eq!(r.state(0), HealthState::Quarantined);
    }

    #[test]
    fn stuck_dispatch_is_quarantined_by_tick() {
        let mut r = registry();
        r.note_dispatch(0, 0);
        r.tick(SEC);
        assert_eq!(r.state(0), HealthState::Healthy, "not stuck yet");
        r.tick(3 * SEC);
        assert_eq!(r.state(0), HealthState::Quarantined, "hang detected");
        // A busy-but-flowing sibling is untouched.
        r.note_dispatch(1, 3 * SEC);
        r.record_success(1, 3 * SEC + MS, 1e6, 1e6);
        r.tick(6 * SEC);
        assert_eq!(r.state(1), HealthState::Healthy);
    }

    #[test]
    fn crash_opens_circuit_immediately() {
        let mut r = registry();
        r.note_dispatch(0, 0);
        r.record_crash(0, MS);
        assert_eq!(r.state(0), HealthState::Quarantined);
        assert_eq!(r.admission(0), Admission::Deny);
        // Outstanding cleared: the stuck detector does not re-fire later.
        r.tick(10 * SEC);
        assert_eq!(r.state(0), HealthState::Probation);
    }

    #[test]
    fn remove_newest_drops_evicted_entries() {
        let mut r = registry();
        for k in 0..5 {
            r.note_dispatch(0, k * MS);
        }
        r.remove_newest(0, 3);
        // The two oldest remain; the oldest is still from t=0.
        r.tick(SEC);
        assert_eq!(r.state(0), HealthState::Healthy);
        r.tick(3 * SEC);
        assert_eq!(r.state(0), HealthState::Quarantined);
    }

    #[test]
    fn untracked_instances_are_healthy() {
        let r = registry();
        assert_eq!(r.state(42), HealthState::Healthy);
        assert_eq!(r.admission(42), Admission::Full);
        assert_eq!(r.tracked(), 0);
    }

    #[test]
    #[should_panic(expected = "quarantine_after")]
    fn config_validation_rejects_inverted_thresholds() {
        HealthRegistry::new(HealthConfig {
            suspect_after: 5,
            quarantine_after: 3,
            ..HealthConfig::default()
        });
    }
}
