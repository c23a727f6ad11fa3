//! The batched-execution model shared by the simulator and the live
//! serving stack (§6 "dynamic batch execution" extension; the paper's
//! evaluation fixes batch size at 1).
//!
//! Three layers, each consumed by both `arlo-sim` and `arlo-serve`:
//!
//! * [`BatchSpec`] — the cost model: a batch of `b` same-runtime requests
//!   pads to its longest member and costs
//!   `exec(longest) · (1 + marginal_cost · (b − 1))`.
//! * [`BatchSpec::exec_ns`] — the single batch→latency evaluation. The
//!   simulator's `Cluster::start_next` and the serve executor both charge
//!   executions through this function, so the two paths cannot drift.
//! * [`BatchPolicy`] / [`Coalescer`] — the coalescing policy: take up to
//!   `max_batch` pending requests into one execution, waiting at most
//!   `max_wait_ns` for co-batchable arrivals. `max_wait_ns = 0` is the
//!   simulator's greedy rule — a batch forms from whatever is queued the
//!   instant the instance goes idle — which is what makes live-vs-sim
//!   parity provable (see DESIGN.md §9).
//!
//! Length *compatibility* is structural rather than checked here: both
//! consumers key their queues per `(runtime, instance)`, and a runtime only
//! ever receives lengths within its compiled `max_length`, so every batch
//! is same-runtime by construction and padding to the longest member is
//! always valid.

use std::collections::VecDeque;

/// Batched execution configuration.
///
/// An instance pulls up to `max_batch` queued requests into one execution.
/// The batch is padded to its longest member and costs
/// `exec(longest) · (1 + marginal_cost · (b − 1))` — GPUs amortize the
/// fixed per-launch work across a batch, so `marginal_cost < 1` trades
/// per-request latency for throughput.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchSpec {
    /// Maximum requests per execution (1 = the paper's setting).
    pub max_batch: u32,
    /// Marginal cost of each additional batched request, as a fraction of
    /// a single execution (e.g. 0.6).
    pub marginal_cost: f64,
}

impl BatchSpec {
    /// The paper's batch-1 execution.
    pub const SINGLE: BatchSpec = BatchSpec {
        max_batch: 1,
        marginal_cost: 1.0,
    };

    /// Validate the configuration.
    pub fn validate(&self) {
        assert!(self.max_batch >= 1, "batch size must be >= 1");
        assert!(
            self.marginal_cost > 0.0 && self.marginal_cost <= 1.0,
            "marginal cost must be in (0, 1]"
        );
    }

    /// Cost multiplier for a batch of `b` requests.
    pub fn factor(&self, b: usize) -> f64 {
        1.0 + self.marginal_cost * (b as f64 - 1.0)
    }

    /// How many of `queued` requests one execution claims.
    pub fn take(&self, queued: usize) -> usize {
        (self.max_batch as usize).min(queued)
    }

    /// The batch→latency evaluation: execution cost (ns) of a batch of
    /// `batch` requests whose longest member costs `base_ns` alone, under
    /// per-instance multipliers (`slowdown` for idiosyncratic imbalance,
    /// `degrade` for fail-slow ramps; both 1.0 on a healthy instance).
    ///
    /// The multiplication order is part of the contract: it reproduces the
    /// simulator's historical `base · factor · slowdown · degrade` product
    /// bit-for-bit, so hoisting the model out of `arlo-sim` changed no
    /// simulated timestamp.
    pub fn exec_ns(&self, base_ns: u64, batch: usize, slowdown: f64, degrade: f64) -> u64 {
        (base_ns as f64 * self.factor(batch) * slowdown * degrade).round() as u64
    }
}

/// Coalescing policy: the cost model plus how long an idle instance may
/// hold a non-full batch open waiting for co-batchable arrivals.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchPolicy {
    /// The cost model and batch-size cap.
    pub spec: BatchSpec,
    /// Maximum time (ns) the oldest pending request may wait before its
    /// batch is sealed even if not full. `0` = greedy: seal the instant the
    /// instance is free, exactly the simulator's rule.
    pub max_wait_ns: u64,
}

impl BatchPolicy {
    /// Greedy coalescing under `spec` (the simulator-equivalent policy).
    pub const fn greedy(spec: BatchSpec) -> Self {
        BatchPolicy {
            spec,
            max_wait_ns: 0,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) {
        self.spec.validate();
    }
}

/// A batch the coalescer has committed to executing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBatch<T> {
    /// The batched items, arrival order (at least one).
    pub items: Vec<T>,
    /// When execution starts (ns): the later of the instance coming free
    /// and the seal condition being met.
    pub started_at: u64,
    /// `started_at + exec_ns`.
    pub finished_at: u64,
    /// Total execution cost charged to the batch (ns).
    pub exec_ns: u64,
}

struct Pending<T> {
    arrival: u64,
    item: T,
}

/// One instance's batch-forming queue: items arrive, a batch starts when the
/// instance is free and either the batch is full or the oldest item has
/// waited `max_wait_ns`. A full batch is sealed the moment it is full, even
/// if it starts later; a partial one is sealed at its start instant.
///
/// The coalescer is a pure state machine over explicit timestamps — it
/// never reads a clock — so both a discrete-event simulator and a
/// virtual-clock executor can drive it, and tests are deterministic.
pub struct Coalescer<T> {
    policy: BatchPolicy,
    pending: VecDeque<Pending<T>>,
    busy_until: u64,
    /// The (clamped) arrival of the last pushed item while it is still
    /// queued: pending, or in a full batch that had not started by the
    /// last drain's `now`. `None` once everything pushed has started.
    queued_tail: Option<u64>,
    /// `started_at` of the last sealed batch.
    last_start: u64,
}

impl<T> Coalescer<T> {
    /// An idle coalescer under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        policy.validate();
        Coalescer {
            policy,
            pending: VecDeque::new(),
            busy_until: 0,
            queued_tail: None,
            last_start: 0,
        }
    }

    /// Queue an item. The queue is FIFO: an item stamped earlier than the
    /// last pushed one clamps up to that arrival while that one is still
    /// queued, since it cannot start ahead of work queued before it anyway
    /// (matching the serial busy-until model this replaces). A full batch
    /// that has sealed but not yet started still counts as queued, though
    /// it has left `pending`.
    pub fn push(&mut self, arrival: u64, item: T) {
        let arrival = self.queued_tail.map_or(arrival, |tail| tail.max(arrival));
        self.queued_tail = Some(arrival);
        self.pending.push_back(Pending { arrival, item });
    }

    /// Items queued but not yet sealed into a batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// When the instance comes free of already-sealed work (ns).
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// The start instant of the head batch, were no further items to
    /// arrive: when the instance is free and the batch is full, or when the
    /// oldest pending item's wait budget expires — whichever bound binds. A
    /// partial batch seals at this instant.
    fn head_seal_at(&self) -> Option<u64> {
        let head = self.pending.front()?;
        let ready = self.busy_until.max(head.arrival);
        let take = self.policy.spec.take(self.pending.len());
        if take == self.policy.spec.max_batch as usize {
            // Full batch: seals once the instance is free and the
            // `take`-th item has arrived.
            Some(ready.max(self.pending[take - 1].arrival))
        } else {
            Some(ready.max(head.arrival.saturating_add(self.policy.max_wait_ns)))
        }
    }

    /// The future instant at which the head batch will seal absent new
    /// arrivals — the deadline a driver must wake the coalescer at via
    /// [`Coalescer::drain_ready`]. `None` when nothing is pending. After a
    /// drain the head batch is always partial: full ones have sealed.
    pub fn next_deadline(&self) -> Option<u64> {
        self.head_seal_at()
    }

    /// Seal every full head batch, whatever `now` is, and every partial
    /// one whose seal instant has passed by `now`, charging each through
    /// `exec_of(items, batch_size) -> exec_ns` (the caller binds
    /// [`BatchSpec::exec_ns`] to its latency oracle). Returns the sealed
    /// batches in execution order; the instance's busy-until clock
    /// advances through each.
    ///
    /// A full batch's members (the first `max_batch` pending, FIFO) and
    /// start instant can no longer change, so sealing it before that
    /// instant yields exactly the batch sealing at it would; its
    /// `started_at` may then lie after `now`. A partial batch waits for
    /// its instant, because a later arrival could still join it.
    pub fn drain_ready(
        &mut self,
        now: u64,
        exec_of: &mut dyn FnMut(&[T], usize) -> u64,
    ) -> Vec<SealedBatch<T>> {
        let mut sealed = Vec::new();
        let full = self.policy.spec.max_batch as usize;
        while let Some(seal_at) = self.head_seal_at() {
            if seal_at > now && self.pending.len() < full {
                break;
            }
            let take = self.policy.spec.take(self.pending.len());
            let items: Vec<T> = self.pending.drain(..take).map(|p| p.item).collect();
            let exec_ns = exec_of(&items, items.len());
            let started_at = seal_at;
            let finished_at = started_at + exec_ns;
            self.busy_until = finished_at;
            self.last_start = started_at;
            sealed.push(SealedBatch {
                items,
                started_at,
                finished_at,
                exec_ns,
            });
        }
        if self.pending.is_empty() && self.last_start <= now {
            self.queued_tail = None;
        }
        sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: u64 = 1_000_000; // 1 ms per single execution

    fn flat_exec(spec: BatchSpec) -> impl FnMut(&[u64], usize) -> u64 {
        move |_items, b| spec.exec_ns(E, b, 1.0, 1.0)
    }

    #[test]
    fn single_is_the_identity_cost() {
        let s = BatchSpec::SINGLE;
        s.validate();
        assert_eq!(s.factor(1), 1.0);
        assert_eq!(s.take(5), 1);
        // round(base · 1.0) == base for any representable base.
        for base in [1u64, 17, E, 123_456_789] {
            assert_eq!(s.exec_ns(base, 1, 1.0, 1.0), base);
        }
    }

    #[test]
    fn factor_matches_the_marginal_cost_model() {
        let s = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        assert_eq!(s.factor(1), 1.0);
        assert_eq!(s.factor(4), 2.5);
        assert_eq!(s.exec_ns(E, 4, 1.0, 1.0), (E as f64 * 2.5).round() as u64);
        // Multipliers compose in the documented order.
        let slow = s.exec_ns(E, 2, 1.5, 2.0);
        assert_eq!(slow, (E as f64 * 1.5 * 1.5 * 2.0).round() as u64);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_is_rejected() {
        BatchSpec {
            max_batch: 0,
            marginal_cost: 1.0,
        }
        .validate();
    }

    #[test]
    fn greedy_coalescer_reproduces_the_simulator_burst_schedule() {
        // Eight simultaneous arrivals, batch 4 at marginal cost 0.5: the
        // instance runs [4 @ 2.5·e] then [4 @ 2.5·e] — the schedule the
        // simulator's `batching_amortizes_bursts` test pins.
        let spec = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let mut c = Coalescer::new(BatchPolicy::greedy(spec));
        for id in 0..8u64 {
            c.push(0, id);
        }
        let cost = spec.exec_ns(E, 4, 1.0, 1.0);
        let batches = c.drain_ready(0, &mut flat_exec(spec));
        assert_eq!(batches.len(), 2, "both batches are full, so both seal");
        assert_eq!(batches[0].started_at, 0);
        assert_eq!(batches[0].finished_at, cost);
        assert_eq!(batches[0].items, vec![0, 1, 2, 3]);
        // The second starts when the first frees the instance, as in the
        // simulator's completion-event-driven start_next.
        assert_eq!(batches[1].started_at, cost);
        assert_eq!(batches[1].finished_at, 2 * cost);
        assert_eq!(batches[1].items, vec![4, 5, 6, 7]);
        assert_eq!(c.pending_len(), 0);
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn a_full_batch_behind_a_busy_instance_seals_at_once() {
        let spec = BatchSpec {
            max_batch: 2,
            marginal_cost: 0.5,
        };
        let mut c = Coalescer::new(BatchPolicy::greedy(spec));
        c.push(0, 0u64);
        c.push(0, 1u64);
        let busy_until = c.drain_ready(0, &mut flat_exec(spec))[0].finished_at;
        let now = busy_until / 2;
        c.push(now, 2u64);
        c.push(now, 3u64);
        let batches = c.drain_ready(now, &mut flat_exec(spec));
        assert_eq!(batches.len(), 1, "a full batch does not wait to start");
        assert_eq!(batches[0].items, vec![2, 3]);
        assert_eq!(batches[0].started_at, busy_until);
        assert!(batches[0].started_at > now);
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn greedy_seals_a_lone_arrival_immediately() {
        // The simulator's rule: an idle instance never waits for
        // co-batchable arrivals under the greedy policy.
        let spec = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let mut c = Coalescer::new(BatchPolicy::greedy(spec));
        c.push(10, 7u64);
        let batches = c.drain_ready(10, &mut flat_exec(spec));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].items, vec![7]);
        assert_eq!(batches[0].exec_ns, E);
    }

    #[test]
    fn max_wait_holds_a_batch_open_then_seals_at_the_deadline() {
        let spec = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let policy = BatchPolicy {
            spec,
            max_wait_ns: 100,
        };
        let mut c = Coalescer::new(policy);
        c.push(0, 0u64);
        // Under budget: nothing seals, deadline is arrival + max_wait.
        assert!(c.drain_ready(50, &mut flat_exec(spec)).is_empty());
        assert_eq!(c.next_deadline(), Some(100));
        // A second arrival joins the open batch.
        c.push(60, 1u64);
        let batches = c.drain_ready(100, &mut flat_exec(spec));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].items, vec![0, 1]);
        assert_eq!(batches[0].started_at, 100);
    }

    #[test]
    fn a_full_batch_seals_before_the_wait_expires() {
        let spec = BatchSpec {
            max_batch: 2,
            marginal_cost: 0.5,
        };
        let policy = BatchPolicy {
            spec,
            max_wait_ns: 1_000,
        };
        let mut c = Coalescer::new(policy);
        c.push(0, 0u64);
        c.push(10, 1u64);
        let batches = c.drain_ready(10, &mut flat_exec(spec));
        assert_eq!(batches.len(), 1, "full batch does not wait out the window");
        assert_eq!(batches[0].started_at, 10);
    }

    #[test]
    fn arrivals_behind_a_busy_instance_queue_until_it_frees() {
        let spec = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let mut c = Coalescer::new(BatchPolicy::greedy(spec));
        c.push(0, 0u64);
        let first = c.drain_ready(0, &mut flat_exec(spec));
        assert_eq!(first.len(), 1);
        let free_at = first[0].finished_at;
        // Two arrivals while the instance is busy: they coalesce into one
        // batch that starts exactly when the instance frees.
        c.push(1, 1u64);
        c.push(2, 2u64);
        assert!(c.drain_ready(free_at - 1, &mut flat_exec(spec)).is_empty());
        assert_eq!(c.next_deadline(), Some(free_at));
        let second = c.drain_ready(free_at, &mut flat_exec(spec));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].items, vec![1, 2]);
        assert_eq!(second[0].started_at, free_at);
        assert_eq!(second[0].exec_ns, spec.exec_ns(E, 2, 1.0, 1.0));
    }

    #[test]
    fn drain_far_in_the_future_runs_the_whole_backlog_back_to_back() {
        let spec = BatchSpec {
            max_batch: 2,
            marginal_cost: 1.0,
        };
        let mut c = Coalescer::new(BatchPolicy::greedy(spec));
        for id in 0..6u64 {
            c.push(0, id);
        }
        let batches = c.drain_ready(u64::MAX / 2, &mut flat_exec(spec));
        assert_eq!(batches.len(), 3);
        for w in batches.windows(2) {
            assert_eq!(w[1].started_at, w[0].finished_at, "back-to-back");
        }
    }

    /// The rule `drain_ready` had before full batches sealed at once: every
    /// batch, full or partial, seals only when its start instant has passed,
    /// and an arrival clamps against the pending tail. Kept as the
    /// differential reference.
    struct SealAtInstant {
        policy: BatchPolicy,
        pending: VecDeque<(u64, u64)>,
        busy_until: u64,
    }

    impl SealAtInstant {
        fn push(&mut self, arrival: u64, item: u64) {
            let arrival = self.pending.back().map_or(arrival, |p| p.0.max(arrival));
            self.pending.push_back((arrival, item));
        }

        fn drain_ready(
            &mut self,
            now: u64,
            exec_of: &mut dyn FnMut(&[u64], usize) -> u64,
        ) -> Vec<SealedBatch<u64>> {
            let mut sealed = Vec::new();
            while let Some(&(head, _)) = self.pending.front() {
                let ready = self.busy_until.max(head);
                let take = self.policy.spec.take(self.pending.len());
                let seal_at = if take == self.policy.spec.max_batch as usize {
                    ready.max(self.pending[take - 1].0)
                } else {
                    ready.max(head.saturating_add(self.policy.max_wait_ns))
                };
                if seal_at > now {
                    break;
                }
                let items: Vec<u64> = self.pending.drain(..take).map(|p| p.1).collect();
                let exec_ns = exec_of(&items, items.len());
                self.busy_until = seal_at + exec_ns;
                sealed.push(SealedBatch {
                    items,
                    started_at: seal_at,
                    finished_at: seal_at + exec_ns,
                    exec_ns,
                });
            }
            sealed
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// One step: advance the clock by `dt`, then drain (`op == 0`),
        /// push an arrival stamped now (`op` 1–2) or up to `E` ahead
        /// (`op == 3`, as a request carrying a later `submitted_at`).
        type Step = (u8, u64, u64);

        /// Run `steps` through both rules under `policy` and compare every
        /// batch either produced, after a final drain far in the future.
        fn both_rules_agree(policy: BatchPolicy, steps: &[Step]) -> Result<(), TestCaseError> {
            // Cost depends on the members, so a batch that formed
            // differently cannot hide behind an equal size.
            let spec = policy.spec;
            let mut exec =
                |items: &[u64], b: usize| spec.exec_ns(E + items[0] % 1_000, b, 1.0, 1.0);
            let mut early = Coalescer::new(policy);
            let mut reference = SealAtInstant {
                policy,
                pending: VecDeque::new(),
                busy_until: 0,
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = 0;
            for (id, &(op, dt, ahead)) in steps.iter().enumerate() {
                now += dt;
                match op {
                    0 => {
                        got.extend(early.drain_ready(now, &mut exec));
                        want.extend(reference.drain_ready(now, &mut exec));
                    }
                    _ => {
                        // The executor's contract: an arrival is never
                        // earlier than the previous drain's `now`.
                        let arrival = if op == 3 { now + ahead } else { now };
                        early.push(arrival, id as u64);
                        reference.push(arrival, id as u64);
                    }
                }
            }
            got.extend(early.drain_ready(u64::MAX / 2, &mut exec));
            want.extend(reference.drain_ready(u64::MAX / 2, &mut exec));
            prop_assert_eq!(got, want);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            fn sealing_full_batches_early_changes_no_batch(
                steps in proptest::collection::vec((0u8..4, 0..E, 0..E), 1..80)
            ) {
                let batch4 = BatchSpec {
                    max_batch: 4,
                    marginal_cost: 0.5,
                };
                both_rules_agree(BatchPolicy::greedy(BatchSpec::SINGLE), &steps)?;
                both_rules_agree(BatchPolicy::greedy(batch4), &steps)?;
                both_rules_agree(
                    BatchPolicy {
                        spec: batch4,
                        max_wait_ns: E / 2,
                    },
                    &steps,
                )?;
            }
        }
    }
}
