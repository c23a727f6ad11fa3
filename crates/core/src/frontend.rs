//! A standalone, thread-safe Request Scheduler frontend — the data structure
//! the paper's Fig. 9 overhead study measures.
//!
//! In a real deployment the Request Scheduler runs on a CPU server in front
//! of hundreds of GPU instances, fielding up to 150k dispatches per second
//! from many worker threads (§5.1.4). This module implements the multi-level
//! queue exactly as §3.4 describes it: one level per runtime, each holding a
//! *priority queue of instances* keyed by outstanding load, with Algorithm 1
//! ([`mlq_walk`], the simulator's walk too) visiting levels under per-level
//! locks.
//!
//! Each level's priority queue is an exact, eagerly maintained index of its
//! instances in load buckets ([`LoadIndex`], shared with the simulator's
//! cluster). A load change moves one instance's bit between two buckets,
//! so the head — the lowest set bit of the lowest non-empty bucket, the
//! `(load, instance)` minimum — is read without discarding anything. A
//! dispatch is therefore the `O(L)` walk over levels plus, per level
//! visited, a head read and an update that walk none of the level's
//! instances (a head read scans at most `⌈n / 64⌉` words, and the cursor
//! moves past at most the buckets the load moved over).

use crate::request_scheduler::{mlq_walk, Peek, RequestSchedulerConfig};
use arlo_sim::cluster::LoadIndex;
use parking_lot::Mutex;

/// Identifies an instance as (queue level, index within level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceHandle {
    /// Runtime level (ascending `max_length`).
    pub level: usize,
    /// Instance index within the level.
    pub index: usize,
}

/// One runtime's queue level.
struct Level {
    max_length: u32,
    capacity: u32,
    inner: Mutex<LevelInner>,
}

struct LevelInner {
    /// Outstanding requests per instance.
    loads: Vec<u32>,
    /// Every instance at its `loads`.
    index: LoadIndex,
    /// Count of load decrements that would have gone below zero (clamped).
    /// Nonzero means a dispatch/complete pairing bug upstream.
    underflows: u64,
}

impl LevelInner {
    fn bump(&mut self, idx: usize, delta: i64) {
        let load = &mut self.loads[idx];
        let raw = i64::from(*load) + delta;
        debug_assert!(
            raw >= 0,
            "load underflow on instance {idx}: {} {delta:+}",
            *load
        );
        if raw < 0 {
            self.underflows += 1;
        }
        let next = raw.max(0) as u32;
        *load = next;
        self.index.set(idx, next);
    }
}

/// The concurrent multi-level-queue scheduler frontend.
///
/// ```
/// use arlo_core::frontend::SchedulerFrontend;
/// use arlo_core::request_scheduler::RequestSchedulerConfig;
///
/// // Two levels: (max_length, SLO capacity, instances).
/// let f = SchedulerFrontend::new(
///     RequestSchedulerConfig::default(),
///     &[(64, 100, 2), (512, 30, 1)],
/// );
/// let h = f.dispatch(50).expect("a short request lands on the 64 level");
/// assert_eq!(h.level, 0);
/// f.complete(h);
/// assert_eq!(f.total_outstanding(), 0);
/// ```
pub struct SchedulerFrontend {
    levels: Vec<Level>,
    config: RequestSchedulerConfig,
}

impl SchedulerFrontend {
    /// Build from `(max_length, capacity, instance_count)` triples, which
    /// must be strictly ascending by `max_length`.
    ///
    /// Panics on `use_measured_capacity`: the frontend has no measured
    /// service rate, only each level's profiled capacity.
    pub fn new(config: RequestSchedulerConfig, levels: &[(u32, u32, u32)]) -> Self {
        config.validate();
        assert!(
            !config.use_measured_capacity,
            "use_measured_capacity is a simulator option: the frontend has no measured service rate"
        );
        assert!(!levels.is_empty(), "need at least one level");
        assert!(
            levels.windows(2).all(|w| w[0].0 < w[1].0),
            "levels must be strictly ascending by max_length"
        );
        let levels = levels
            .iter()
            .map(|&(max_length, capacity, count)| {
                let count = count as usize;
                let mut index = LoadIndex::with_ids(count);
                for i in 0..count {
                    index.set(i, 0);
                }
                Level {
                    max_length,
                    capacity,
                    inner: Mutex::new(LevelInner {
                        loads: vec![0; count],
                        index,
                        underflows: 0,
                    }),
                }
            })
            .collect();
        SchedulerFrontend { levels, config }
    }

    /// Total instances across levels (`N`).
    pub fn instance_count(&self) -> usize {
        self.levels.iter().map(|l| l.inner.lock().loads.len()).sum()
    }

    /// Algorithm 1: dispatch a request of `length` tokens. Returns the
    /// chosen instance (its load already incremented), or `None` if no level
    /// can serve the length or every candidate level is empty.
    ///
    /// Each level's visit in [`mlq_walk`] peeks the head and, if it passes,
    /// bumps its load under the one level lock, so accept-and-bump is atomic;
    /// the fallback's revisit re-resolves the head under the lock, since its
    /// load may have shifted since the walk peeked it.
    pub fn dispatch(&self, length: u32) -> Option<InstanceHandle> {
        let max_lengths = self.levels.iter().map(|l| l.max_length);
        mlq_walk(&self.config, length, max_lengths, |level, bar| {
            let queue = &self.levels[level];
            let mut inner = queue.inner.lock();
            let Some((index, load)) = inner.index.head() else {
                return Peek::Empty;
            };
            if !bar.admits(load, queue.capacity) {
                return Peek::Congested;
            }
            inner.bump(index, 1);
            Peek::Taken(InstanceHandle { level, index })
        })
    }

    /// Directly set an instance's outstanding load — scenario construction
    /// for tests and the Fig. 5 walk-through (bypasses Algorithm 1, which
    /// would otherwise re-balance the load being injected).
    pub fn preload(&self, handle: InstanceHandle, load: u32) {
        let mut inner = self.levels[handle.level].inner.lock();
        let delta = i64::from(load) - i64::from(inner.loads[handle.index]);
        inner.bump(handle.index, delta);
    }

    /// Record a completed execution, releasing one unit of load.
    pub fn complete(&self, handle: InstanceHandle) {
        self.complete_n(handle, 1);
    }

    /// Record a completed batch of `n` executions on one instance,
    /// releasing `n` units of load under a single level lock — the batched
    /// sibling of [`SchedulerFrontend::complete`], used by
    /// batch-completion reporting so an N-request batch costs one index
    /// update instead of N.
    pub fn complete_n(&self, handle: InstanceHandle, n: u32) {
        if n == 0 {
            return;
        }
        let mut inner = self.levels[handle.level].inner.lock();
        assert!(
            inner.loads[handle.index] >= n,
            "completion without outstanding load on {handle:?}: {} < {n}",
            inner.loads[handle.index]
        );
        inner.bump(handle.index, -i64::from(n));
    }

    /// Outstanding load of one instance.
    pub fn outstanding(&self, handle: InstanceHandle) -> u32 {
        self.levels[handle.level].inner.lock().loads[handle.index]
    }

    /// Total load-counter underflows clamped across all levels (see
    /// `LevelInner::bump`); always zero unless dispatch/complete pairing is
    /// broken upstream.
    pub fn underflow_count(&self) -> u64 {
        self.levels.iter().map(|l| l.inner.lock().underflows).sum()
    }

    /// Total outstanding load across the frontend.
    pub fn total_outstanding(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| {
                l.inner
                    .lock()
                    .loads
                    .iter()
                    .map(|&x| u64::from(x))
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn frontend(levels: &[(u32, u32, u32)]) -> SchedulerFrontend {
        SchedulerFrontend::new(RequestSchedulerConfig::default(), levels)
    }

    #[test]
    fn dispatches_to_ideal_idle_level() {
        let f = frontend(&[(64, 10, 2), (512, 5, 2)]);
        let h = f.dispatch(50).expect("dispatch");
        assert_eq!(h.level, 0);
        assert_eq!(f.outstanding(h), 1);
        let h2 = f.dispatch(400).expect("dispatch");
        assert_eq!(h2.level, 1);
    }

    #[test]
    fn alternating_dispatch_and_complete_keeps_the_index_small() {
        // Load 0 → 1 → 0 on every request, then a backlog that drains: the
        // index holds a bucket per load up to the highest live one and a
        // word per 64 instances, whatever went through it before.
        let small = |f: &SchedulerFrontend| {
            for level in &f.levels {
                let inner = level.inner.lock();
                let highest = inner.loads.iter().max().copied().unwrap_or(0);
                assert!(
                    inner.index.buckets() <= highest as usize + 1,
                    "{} buckets for a highest load of {highest}",
                    inner.index.buckets()
                );
                assert_eq!(inner.index.words(), inner.loads.len().div_ceil(64));
            }
        };
        let f = frontend(&[(64, 10, 2), (512, 10, 70)]);
        for _ in 0..10_000 {
            let h = f.dispatch(50).expect("dispatch");
            f.complete(h);
        }
        small(&f);
        let held: Vec<_> = (0..300).map(|_| f.dispatch(300).expect("ok")).collect();
        small(&f);
        for h in held {
            f.complete(h);
        }
        small(&f);
        // An idle level still balances.
        let picks: Vec<usize> = (0..2).map(|_| f.dispatch(50).expect("ok").index).collect();
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn balances_within_level() {
        let f = frontend(&[(64, 100, 3)]);
        let picks: Vec<usize> = (0..3).map(|_| f.dispatch(10).expect("ok").index).collect();
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2],
            "each instance picked once: {picks:?}"
        );
    }

    #[test]
    fn demotes_under_congestion() {
        let f = frontend(&[(64, 10, 1), (512, 10, 1)]);
        // Load level 0 to congestion ≥ λ (0.85·10 ⇒ ≥ 9).
        for _ in 0..9 {
            f.dispatch(10);
        }
        // All went to level 0 while P < 0.85; the 10th must demote.
        let h = f.dispatch(10).expect("dispatch");
        assert_eq!(
            h.level,
            1,
            "outstanding {}",
            f.outstanding(InstanceHandle { level: 0, index: 0 })
        );
    }

    #[test]
    fn falls_back_to_top_candidate_when_all_congested() {
        let f = frontend(&[(64, 2, 1), (512, 2, 1)]);
        for _ in 0..4 {
            f.dispatch(10);
        }
        // Both levels at load 2 (P = 1.0 > λ at any decay): fallback to ideal.
        let h = f.dispatch(10).expect("dispatch");
        assert_eq!(h.level, 0);
        assert_eq!(f.outstanding(h), 3);
    }

    #[test]
    fn completion_releases_load() {
        let f = frontend(&[(64, 10, 1)]);
        let h = f.dispatch(10).expect("dispatch");
        assert_eq!(f.total_outstanding(), 1);
        f.complete(h);
        assert_eq!(f.total_outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "without outstanding load")]
    fn double_completion_panics() {
        let f = frontend(&[(64, 10, 1)]);
        let h = f.dispatch(10).expect("dispatch");
        f.complete(h);
        f.complete(h);
    }

    #[test]
    fn oversized_length_is_rejected() {
        let f = frontend(&[(64, 10, 1), (512, 5, 1)]);
        assert!(f.dispatch(513).is_none());
        assert!(f.dispatch(0).is_none(), "no runtime serves zero tokens");
        assert_eq!(f.total_outstanding(), 0);
    }

    #[test]
    fn empty_levels_are_skipped() {
        let f = frontend(&[(64, 10, 0), (512, 5, 1)]);
        let h = f.dispatch(10).expect("dispatch");
        assert_eq!(h.level, 1);
        let g = frontend(&[(64, 10, 0), (512, 5, 0)]);
        assert!(g.dispatch(10).is_none());
    }

    #[test]
    fn concurrent_dispatch_conserves_load() {
        let f = Arc::new(frontend(&[(64, 50, 8), (128, 40, 8), (512, 30, 8)]));
        let threads = 8;
        let per_thread = 2_000u32;
        std::thread::scope(|s| {
            for t in 0..threads {
                let f = Arc::clone(&f);
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..per_thread {
                        let len = 1 + ((t * 131 + i as usize * 17) % 512) as u32;
                        if let Some(h) = f.dispatch(len) {
                            held.push(h);
                        }
                        // Complete half as we go, like real completions.
                        if i % 2 == 1 {
                            if let Some(h) = held.pop() {
                                f.complete(h);
                            }
                        }
                    }
                    for h in held {
                        f.complete(h);
                    }
                });
            }
        });
        assert_eq!(f.total_outstanding(), 0, "all load released");
    }

    #[test]
    fn concurrent_dispatch_is_exact_under_sustained_load() {
        // Dispatch without completion from many threads; total outstanding
        // must equal total successful dispatches.
        let f = Arc::new(frontend(&[(64, 1000, 4), (512, 1000, 4)]));
        let dispatched: u64 = std::thread::scope(|s| {
            (0..4)
                .map(|t| {
                    let f = Arc::clone(&f);
                    s.spawn(move || {
                        let mut n = 0u64;
                        for i in 0..5_000 {
                            let len = 1 + ((t * 7 + i * 13) % 512) as u32;
                            if f.dispatch(len).is_some() {
                                n += 1;
                            }
                        }
                        n
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().expect("thread"))
                .sum()
        });
        assert_eq!(f.total_outstanding(), dispatched);
        assert_eq!(dispatched, 20_000);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_levels() {
        frontend(&[(512, 5, 1), (64, 10, 1)]);
    }

    #[test]
    #[should_panic(expected = "use_measured_capacity")]
    fn rejects_measured_capacity() {
        let config = RequestSchedulerConfig {
            use_measured_capacity: true,
            ..RequestSchedulerConfig::default()
        };
        SchedulerFrontend::new(config, &[(64, 10, 1)]);
    }

    #[test]
    fn underflow_counter_stays_zero_under_paired_usage() {
        let f = frontend(&[(64, 50, 2), (512, 30, 1)]);
        let held: Vec<_> = (0..20).filter_map(|i| f.dispatch(1 + i * 20)).collect();
        for h in held {
            f.complete(h);
        }
        assert_eq!(f.underflow_count(), 0);
    }

    /// Random dispatch / complete / preload sequences, including batch
    /// completions that drop a load by its whole batch and empty levels:
    /// after every step each level's head is the brute-force
    /// `(load, index)` minimum over its instances, and its index holds
    /// exactly those instances in no spare bucket.
    #[test]
    fn level_heads_match_a_brute_force_minimum_under_random_operations() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(128), |(
            counts in (0u32..5, 0u32..5, 0u32..70),
            ops in proptest::collection::vec((0u8..6, 0u64..1 << 32, 0u64..1 << 32), 1..400),
        )| {
            let levels = [(64, 8, counts.0), (256, 6, counts.1), (512, 4, counts.2)];
            let f = frontend(&levels);
            let mut loads: Vec<Vec<u32>> = levels.iter().map(|l| vec![0; l.2 as usize]).collect();
            let handles: Vec<InstanceHandle> = loads
                .iter()
                .enumerate()
                .flat_map(|(level, l)| (0..l.len()).map(move |index| InstanceHandle { level, index }))
                .collect();
            for &(op, a, b) in &ops {
                match op {
                    0..=2 => {
                        if let Some(h) = f.dispatch(1 + (a % 512) as u32) {
                            loads[h.level][h.index] += 1;
                        }
                    }
                    3 | 4 => {
                        // One completion, or the instance's whole backlog
                        // as one batch.
                        let busy: Vec<_> = handles.iter().copied()
                            .filter(|h| loads[h.level][h.index] > 0)
                            .collect();
                        if let Some(&h) = busy.get(a as usize % busy.len().max(1)) {
                            let n = if op == 3 { 1 } else { loads[h.level][h.index] };
                            f.complete_n(h, n);
                            loads[h.level][h.index] -= n;
                        }
                    }
                    _ => {
                        if !handles.is_empty() {
                            let h = handles[a as usize % handles.len()];
                            let load = (b % 24) as u32;
                            f.preload(h, load);
                            loads[h.level][h.index] = load;
                        }
                    }
                }
                for (level, queue) in f.levels.iter().enumerate() {
                    let mut held: Vec<(usize, u32)> = loads[level].iter().copied().enumerate().collect();
                    held.sort_unstable_by_key(|&(i, load)| (load, i));
                    let inner = queue.inner.lock();
                    prop_assert_eq!(inner.index.head(), held.first().copied(), "level {}", level);
                    prop_assert_eq!(inner.index.entries().collect::<Vec<_>>(), held.clone());
                    let buckets = held.iter().map(|&(_, load)| load as usize + 1).max();
                    prop_assert_eq!(inner.index.buckets(), buckets.unwrap_or(0));
                    prop_assert_eq!(&inner.loads, &loads[level]);
                }
            }
        });
    }
}
