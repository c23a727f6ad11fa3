//! The Request Scheduler: Arlo's multi-level-queue dispatch heuristic
//! (§3.4, Algorithm 1, Fig. 5).
//!
//! Each queue level corresponds to one runtime, ascending by `max_length`;
//! within a level, instances are ordered by outstanding load (the cluster
//! view's `least_loaded` is the head of the level's priority queue). For an
//! arriving request the scheduler walks candidate levels from the *ideal*
//! runtime upward, accepting the first head instance whose congestion
//! `P = outstanding / M_i` is below a threshold `λ` that decays by `α` per
//! level — so demotion to larger (more padded) runtimes happens only when
//! the tighter runtimes are proportionally busier, and becomes progressively
//! harder (the "conservative demotion" intuition). At most `L` levels are
//! peeked; if none qualifies, the request falls back to the head of the top
//! (ideal) candidate.

use arlo_sim::cluster::{ClusterView, InstanceId};
use arlo_sim::driver::Dispatcher;
use arlo_trace::workload::Request;
use serde::{Deserialize, Serialize};

/// Algorithm 1 parameters. The paper's evaluation uses `λ = 0.85`,
/// `α = 0.9`, `L = 6` (§5 "Parameter settings").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestSchedulerConfig {
    /// Initial congestion threshold `λ`.
    pub lambda: f64,
    /// Threshold decay coefficient `α` applied per peeked level.
    pub alpha: f64,
    /// Maximum peeking level `L`.
    pub max_peek: usize,
    /// Measure congestion against each instance's *live* (EWMA-measured)
    /// service rate instead of the offline profile's `M_i`.
    ///
    /// An extension beyond the paper: the fault study (`ext_faults`) shows
    /// the profiled bar reacts to a degraded instance only after its queue
    /// is deep, because the stale profile overstates its capacity. Off by
    /// default — the paper's Algorithm 1 uses the profiled capacity.
    pub use_measured_capacity: bool,
}

impl Default for RequestSchedulerConfig {
    fn default() -> Self {
        RequestSchedulerConfig {
            lambda: 0.85,
            alpha: 0.9,
            max_peek: 6,
            use_measured_capacity: false,
        }
    }
}

impl RequestSchedulerConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) {
        assert!(self.lambda > 0.0, "lambda must be positive");
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        assert!(self.max_peek >= 1, "must peek at least one level");
    }
}

/// The congestion test Algorithm 1 hands a level's visit: accept the head
/// when `outstanding / capacity` is below the level's bar (`λ·αᵏ` at the
/// `k`-th peeked level; a zero capacity is never below it). The fallback
/// hands [`Bar::ANY`], which accepts any head.
#[derive(Debug, Clone, Copy)]
pub struct Bar(Option<f64>);

impl Bar {
    /// The fallback's bar: accept whatever head the level has.
    pub const ANY: Bar = Bar(None);

    /// Whether a head with `outstanding` requests against `capacity` passes.
    pub fn admits(self, outstanding: u32, capacity: u32) -> bool {
        self.0.is_none_or(|lambda| {
            capacity != 0 && f64::from(outstanding) / f64::from(capacity) < lambda
        })
    }
}

/// What a level's visit found at its head.
#[derive(Debug, Clone, Copy)]
pub enum Peek<H> {
    /// No admitting instance: the level is not part of the multi-level
    /// queue and costs neither a peek slot nor a threshold decay.
    Empty,
    /// The head failed the bar.
    Congested,
    /// The head passed the bar and the visit committed it.
    Taken(H),
}

/// Algorithm 1's walk over a multi-level queue (§3.4, Fig. 5), shared by the
/// simulator's [`ArloRequestScheduler`] and the live
/// [`SchedulerFrontend`](crate::frontend::SchedulerFrontend).
///
/// The candidates are the levels from the first whose runtime serves
/// `length` (`1..=max_length` tokens; `max_lengths` ascending) upward.
/// `visit(level, bar)` reads the level's head, tests it with `bar` and, if
/// it passes, commits it under whatever lock the caller holds. At most `L`
/// non-empty levels are peeked, the bar decaying by `α` per level; if none
/// passes, the first peeked level is revisited with [`Bar::ANY`], and if it
/// has emptied meanwhile (or none was peeked) every candidate is.
pub fn mlq_walk<H>(
    config: &RequestSchedulerConfig,
    length: u32,
    mut max_lengths: impl ExactSizeIterator<Item = u32>,
    mut visit: impl FnMut(usize, Bar) -> Peek<H>,
) -> Option<H> {
    // Line 2: sorted candidate runtimes (ideal upward).
    let levels = max_lengths.len();
    let first = max_lengths.position(|max| (1..=max).contains(&length))?;
    let mut lambda = config.lambda;
    let mut fallback = None;
    let mut peeked = 0;
    // Lines 3–15: peek at most L levels, accepting the first head below the
    // bar and tightening the bar for less ideal runtimes.
    for level in first..levels {
        if peeked >= config.max_peek {
            break;
        }
        match visit(level, Bar(Some(lambda))) {
            Peek::Empty => continue,
            Peek::Taken(chosen) => return Some(chosen),
            Peek::Congested => {}
        }
        peeked += 1;
        fallback.get_or_insert(level);
        lambda *= config.alpha;
    }
    // Lines 18–20: every peeked head congested — take the top candidate's.
    let taken = |peek| match peek {
        Peek::Taken(chosen) => Some(chosen),
        _ => None,
    };
    fallback
        .and_then(|level| taken(visit(level, Bar::ANY)))
        .or_else(|| (first..levels).find_map(|level| taken(visit(level, Bar::ANY))))
}

/// Arlo's Request Scheduler as a simulator dispatch policy.
#[derive(Debug, Clone, Copy)]
pub struct ArloRequestScheduler {
    config: RequestSchedulerConfig,
}

impl ArloRequestScheduler {
    /// Create with explicit parameters.
    pub fn new(config: RequestSchedulerConfig) -> Self {
        config.validate();
        ArloRequestScheduler { config }
    }

    /// The paper's default parameters.
    pub fn paper_default() -> Self {
        Self::new(RequestSchedulerConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> RequestSchedulerConfig {
        self.config
    }

    /// Algorithm 1 on a cluster view: [`mlq_walk`] over each runtime's
    /// least-loaded accepting instance, against the profiled `M_i` or, with
    /// `use_measured_capacity`, the head's measured capacity. Exposed for
    /// unit tests and the Fig. 5 walk-through binary;
    /// [`Dispatcher::dispatch`] delegates here.
    pub fn select(&self, length: u32, view: &ClusterView<'_>) -> Option<InstanceId> {
        let profiles = view.profiles();
        let max_lengths = profiles.iter().map(|p| p.max_length());
        mlq_walk(&self.config, length, max_lengths, |level, bar| {
            let Some((head, outstanding)) = view.least_loaded(level) else {
                return Peek::Empty;
            };
            let profile = &profiles[level];
            let capacity = if self.config.use_measured_capacity {
                view.measured_capacity(head, profile.slo_ms)
                    .unwrap_or(profile.capacity_within_slo)
            } else {
                profile.capacity_within_slo
            };
            if bar.admits(outstanding, capacity) {
                Peek::Taken(head)
            } else {
                Peek::Congested
            }
        })
    }
}

impl Dispatcher for ArloRequestScheduler {
    fn dispatch(&mut self, req: &Request, view: &ClusterView<'_>) -> Option<InstanceId> {
        self.select(req.length, view)
    }

    fn name(&self) -> &'static str {
        "arlo-rs"
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

    /// Build a cluster and pre-load instances with synthetic outstanding
    /// requests (short ones so they all fit every runtime).
    fn loaded_cluster(lengths: &[u32], counts: &[u32], loads: &[(usize, u32)]) -> Cluster {
        let mut c = Cluster::new(profiles(lengths), counts, JitterSpec::NONE, 1_000_000_000);
        let mut id = 0u64;
        for &(inst, n) in loads {
            for _ in 0..n {
                c.enqueue(
                    inst,
                    Request {
                        id,
                        arrival: 0,
                        length: 1,
                    },
                    0,
                );
                id += 1;
            }
        }
        c
    }

    #[test]
    fn picks_ideal_runtime_when_idle() {
        let c = loaded_cluster(&[64, 128, 256, 512], &[1, 1, 1, 1], &[]);
        let rs = ArloRequestScheduler::paper_default();
        // Instance ids follow runtime order: 0→64, 1→128, 2→256, 3→512.
        assert_eq!(rs.select(50, &c.view()), Some(0));
        assert_eq!(rs.select(100, &c.view()), Some(1));
        assert_eq!(rs.select(500, &c.view()), Some(3));
    }

    #[test]
    fn oversized_request_has_no_candidates() {
        let c = loaded_cluster(&[64, 128], &[1, 1], &[]);
        // Model limit trimmed: only runtimes up to 128 deployed.
        let rs = ArloRequestScheduler::paper_default();
        assert_eq!(rs.select(200, &c.view()), None);
    }

    #[test]
    fn demotes_when_ideal_is_congested() {
        // Runtime 64 (capacity ≈132): load its single instance to 125
        // (P ≈ 0.95 > λ). Runtime 128's instance idle ⇒ demote there.
        let c = loaded_cluster(&[64, 128, 512], &[1, 1, 1], &[(0, 125)]);
        let rs = ArloRequestScheduler::paper_default();
        assert_eq!(rs.select(50, &c.view()), Some(1));
    }

    #[test]
    fn demotion_is_conservative() {
        // Both 64 and 128 congested, 512 idle: with L = 6, the scheduler
        // reaches 512; with L = 2 it must fall back to the ideal head.
        let c = loaded_cluster(&[64, 128, 512], &[1, 1, 1], &[(0, 130), (1, 70)]);
        let deep = ArloRequestScheduler::paper_default();
        assert_eq!(deep.select(50, &c.view()), Some(2));
        let shallow = ArloRequestScheduler::new(RequestSchedulerConfig {
            max_peek: 2,
            ..RequestSchedulerConfig::default()
        });
        assert_eq!(
            shallow.select(50, &c.view()),
            Some(0),
            "fallback to top candidate"
        );
    }

    #[test]
    fn threshold_decays_per_level() {
        // Head loads tuned so level 1 passes only the *undecayed* λ:
        // capacity(128) ≈ 79 ⇒ load 64 gives P ≈ 0.81, between α·λ = 0.765
        // and λ = 0.85. Starting at level 0 (congested) decays λ before
        // reaching level 1, so the scheduler must skip to level 2.
        let cap128 = profiles(&[64, 128, 512])[1].capacity_within_slo;
        let load128 = (f64::from(cap128) * 0.81) as u32;
        let c = loaded_cluster(&[64, 128, 512], &[1, 1, 1], &[(0, 130), (1, load128)]);
        let rs = ArloRequestScheduler::paper_default();
        // A length-100 request's *ideal* runtime is 128: P≈0.81 < 0.85 ⇒ stays.
        assert_eq!(rs.select(100, &c.view()), Some(1));
        // A length-50 request sees 128 as its *second* level: 0.81 > 0.765 ⇒ demoted.
        assert_eq!(rs.select(50, &c.view()), Some(2));
    }

    #[test]
    fn fig5_walkthrough() {
        // The paper's worked example: λ = 0.85, α = 0.9, L = 3. A length-200
        // request has candidates Q2 (256), Q3 (384), Q4 (512). Q2's head is
        // at 54/60, Q3's at 28/48 — wait, the example accepts Q3 at 28/48
        // when 28/48 = 0.583 < 0.765. We reproduce the structure with our
        // profiled capacities by scaling loads to the same congestions.
        let p = profiles(&[128, 256, 384, 512]);
        let cap256 = p[1].capacity_within_slo;
        let cap384 = p[2].capacity_within_slo;
        let load256 = (f64::from(cap256) * 0.90) as u32; // > λ = 0.85
        let load384 = (f64::from(cap384) * 0.58) as u32; // < λ·α = 0.765
        let c = loaded_cluster(
            &[128, 256, 384, 512],
            &[1, 1, 1, 1],
            &[(1, load256), (2, load384)],
        );
        let rs = ArloRequestScheduler::new(RequestSchedulerConfig {
            lambda: 0.85,
            alpha: 0.9,
            max_peek: 3,
            ..RequestSchedulerConfig::default()
        });
        // Q2 congested ⇒ move on with λ = 0.765; Q3 at 0.58 accepted.
        assert_eq!(rs.select(200, &c.view()), Some(2));
    }

    #[test]
    fn skips_levels_with_no_instances() {
        // No 128 instances at all (mid-replacement): a 100-token request
        // goes straight to 256 without burning a threshold decay.
        let c = loaded_cluster(&[64, 128, 256, 512], &[1, 0, 1, 1], &[]);
        let rs = ArloRequestScheduler::paper_default();
        assert_eq!(rs.select(100, &c.view()), Some(1)); // instance 1 is the 256 one
    }

    #[test]
    fn returns_none_when_cluster_has_no_instances() {
        let c = loaded_cluster(&[64, 512], &[0, 0], &[]);
        let rs = ArloRequestScheduler::paper_default();
        assert_eq!(rs.select(50, &c.view()), None);
    }

    #[test]
    fn fallback_beyond_peek_range_when_peeked_levels_empty() {
        // The first three levels have no instances: they are not MLQ levels
        // at all, so the single 512 instance is the first candidate peeked
        // even with a tiny L.
        let c = loaded_cluster(&[64, 128, 256, 512], &[0, 0, 0, 1], &[]);
        let rs = ArloRequestScheduler::new(RequestSchedulerConfig {
            max_peek: 2,
            ..RequestSchedulerConfig::default()
        });
        assert_eq!(rs.select(50, &c.view()), Some(0)); // the single 512 instance
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn config_validation() {
        ArloRequestScheduler::new(RequestSchedulerConfig {
            lambda: 0.85,
            alpha: 0.0,
            max_peek: 6,
            ..RequestSchedulerConfig::default()
        });
    }

    #[test]
    fn zero_capacity_heads_fail_every_bar_but_the_fallbacks() {
        let bar = Bar(Some(f64::INFINITY));
        assert!(!bar.admits(0, 0));
        assert!(bar.admits(7, 1));
        assert!(Bar::ANY.admits(0, 0));
        assert!(Bar::ANY.admits(u32::MAX, 0));
    }

    #[test]
    fn picks_least_loaded_instance_within_level() {
        // Two instances of the ideal runtime with different loads.
        let c = loaded_cluster(&[64, 512], &[2, 1], &[(0, 5), (1, 2)]);
        let rs = ArloRequestScheduler::paper_default();
        assert_eq!(rs.select(50, &c.view()), Some(1));
    }
}
