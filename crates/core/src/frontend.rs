//! A standalone, thread-safe Request Scheduler frontend — the data structure
//! the paper's Fig. 9 overhead study measures.
//!
//! In a real deployment the Request Scheduler runs on a CPU server in front
//! of hundreds of GPU instances, fielding up to 150k dispatches per second
//! from many worker threads (§5.1.4). This module implements the multi-level
//! queue exactly as §3.4 describes it: one level per runtime, each holding a
//! *priority queue of instances* keyed by outstanding load, with Algorithm 1
//! walking levels under per-level locks.
//!
//! The priority queues are lazy binary heaps: load updates push fresh
//! `(load, instance)` entries and stale entries are discarded at pop time —
//! the textbook approach that keeps both dispatch and completion
//! `O(log n)` amortized, matching the paper's `O(L) + O(log(N/K))` bound.
//! A stale entry that sorts *below* a live one never reaches the top, so
//! a level also rebuilds its heap from the load table once stale entries
//! outnumber live ones (`STALE_SLACK`); the live set, and with it every
//! dispatch decision, is unchanged by a rebuild.

use crate::request_scheduler::RequestSchedulerConfig;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stale heap entries a level tolerates, beyond one per instance, before it
/// rebuilds its heap: large enough that a rebuild amortizes to O(1) per
/// load update, small enough that a level's heap stays within a page or two.
const STALE_SLACK: usize = 64;

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
    /// Lazy min-heap of `(load, instance)`; entries are validated against
    /// `loads` at pop time.
    heap: BinaryHeap<Reverse<(u32, usize)>>,
    /// Circuit-breaker mask: banned instances are invisible to `peek_head`
    /// (their heap entries are discarded lazily, like stale loads) so the
    /// fault-tolerance layer can quarantine an instance without touching
    /// Algorithm 1.
    banned: Vec<bool>,
    /// Count of load decrements that would have gone below zero (clamped).
    /// Nonzero means a dispatch/complete pairing bug upstream.
    underflows: u64,
}

impl LevelInner {
    /// Fresh minimum entry, discarding stale or banned ones.
    fn peek_head(&mut self) -> Option<(usize, u32)> {
        while let Some(&Reverse((load, idx))) = self.heap.peek() {
            if self.loads[idx] == load && !self.banned[idx] {
                return Some((idx, load));
            }
            self.heap.pop();
        }
        None
    }

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
        self.heap.push(Reverse((next, idx)));
        self.compact();
    }

    /// Rebuild the heap from `loads` once stale entries dominate it. Pop-time
    /// discarding alone never reclaims an entry that sorts below a live one:
    /// an instance whose load only ever alternates 0 → 1 → 0 (each request
    /// completed before the next is dispatched) would otherwise leave two
    /// dead entries behind per request, forever. Every admitted instance
    /// keeps exactly its live entry, so `peek_head` answers as before.
    fn compact(&mut self) {
        if self.heap.len() <= 2 * self.loads.len() + STALE_SLACK {
            return;
        }
        let LevelInner {
            loads,
            heap,
            banned,
            ..
        } = self;
        heap.clear();
        heap.extend(
            (0..loads.len())
                .filter(|&i| !banned[i])
                .map(|i| Reverse((loads[i], i))),
        );
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
    pub fn new(config: RequestSchedulerConfig, levels: &[(u32, u32, u32)]) -> Self {
        config.validate();
        assert!(!levels.is_empty(), "need at least one level");
        assert!(
            levels.windows(2).all(|w| w[0].0 < w[1].0),
            "levels must be strictly ascending by max_length"
        );
        let levels = levels
            .iter()
            .map(|&(max_length, capacity, count)| {
                let loads = vec![0u32; count as usize];
                let heap = (0..count as usize).map(|i| Reverse((0, i))).collect();
                Level {
                    max_length,
                    capacity,
                    inner: Mutex::new(LevelInner {
                        loads,
                        heap,
                        banned: vec![false; count as usize],
                        underflows: 0,
                    }),
                }
            })
            .collect();
        SchedulerFrontend { levels, config }
    }

    /// Number of levels (`K` in the paper's complexity analysis).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Total instances across levels (`N`).
    pub fn instance_count(&self) -> usize {
        self.levels.iter().map(|l| l.inner.lock().loads.len()).sum()
    }

    /// Algorithm 1: dispatch a request of `length` tokens. Returns the
    /// chosen instance (its load already incremented), or `None` if no level
    /// can serve the length or every candidate level is empty.
    pub fn dispatch(&self, length: u32) -> Option<InstanceHandle> {
        let first = self.levels.iter().position(|l| l.max_length >= length)?;
        let mut lambda = self.config.lambda;
        let mut fallback: Option<InstanceHandle> = None;
        // Only deployed (non-empty) levels are MLQ candidates: empty levels
        // consume neither a peek slot nor a threshold decay.
        let mut peeked = 0usize;
        for (level_idx, level) in self.levels.iter().enumerate().skip(first) {
            if peeked >= self.config.max_peek {
                break;
            }
            let mut inner = level.inner.lock();
            let Some((idx, load)) = inner.peek_head() else {
                continue;
            };
            peeked += 1;
            if fallback.is_none() {
                fallback = Some(InstanceHandle {
                    level: level_idx,
                    index: idx,
                });
            }
            let congestion = if level.capacity == 0 {
                f64::INFINITY
            } else {
                f64::from(load) / f64::from(level.capacity)
            };
            if congestion < lambda {
                inner.bump(idx, 1);
                return Some(InstanceHandle {
                    level: level_idx,
                    index: idx,
                });
            }
            lambda *= self.config.alpha;
        }
        // Fall back to the top candidate's (possibly congested) head; its
        // load may have shifted since we peeked, so re-resolve the head.
        let target = fallback.or_else(|| {
            self.levels
                .iter()
                .enumerate()
                .skip(first)
                .find_map(|(level_idx, level)| {
                    level
                        .inner
                        .lock()
                        .peek_head()
                        .map(|(idx, _)| InstanceHandle {
                            level: level_idx,
                            index: idx,
                        })
                })
        })?;
        let mut inner = self.levels[target.level].inner.lock();
        let (idx, _) = inner.peek_head().expect("level had an instance");
        inner.bump(idx, 1);
        Some(InstanceHandle {
            level: target.level,
            index: idx,
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
    /// batch-completion reporting so an N-request batch costs one heap
    /// push instead of N.
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

    /// Open or close an instance's admission gate (circuit breaker).
    ///
    /// A closed instance is skipped by `dispatch` exactly as if its level
    /// did not contain it; outstanding work still completes normally via
    /// [`SchedulerFrontend::complete`]. Re-opening pushes a fresh heap entry
    /// so the instance becomes discoverable again at its current load.
    pub fn set_admitting(&self, handle: InstanceHandle, admitting: bool) {
        let mut inner = self.levels[handle.level].inner.lock();
        inner.banned[handle.index] = !admitting;
        if admitting {
            let load = inner.loads[handle.index];
            inner.heap.push(Reverse((load, handle.index)));
        }
    }

    /// Whether an instance's admission gate is open.
    pub fn is_admitting(&self, handle: InstanceHandle) -> bool {
        !self.levels[handle.level].inner.lock().banned[handle.index]
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
    fn alternating_dispatch_and_complete_keeps_the_heap_bounded() {
        // Load 0 → 1 → 0 on every request: the live `(0, i)` entry always
        // sits on top, so pop-time discarding never fires and, before
        // compaction, the heap grew by two entries per request.
        let f = frontend(&[(64, 10, 2), (512, 10, 1)]);
        for _ in 0..10_000 {
            let h = f.dispatch(50).expect("dispatch");
            f.complete(h);
        }
        for level in &f.levels {
            let inner = level.inner.lock();
            assert!(
                inner.heap.len() <= 2 * inner.loads.len() + STALE_SLACK + 1,
                "heap holds {} entries for {} instances",
                inner.heap.len(),
                inner.loads.len()
            );
        }
        // Rebuilds kept the live set: an idle level still balances.
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
    fn banned_instance_is_invisible_to_dispatch() {
        let f = frontend(&[(64, 100, 2)]);
        let banned = InstanceHandle { level: 0, index: 0 };
        f.set_admitting(banned, false);
        assert!(!f.is_admitting(banned));
        for _ in 0..8 {
            let h = f.dispatch(10).expect("healthy sibling serves");
            assert_eq!(h.index, 1, "quarantined instance must be skipped");
        }
    }

    #[test]
    fn banned_level_demotes_to_next_level() {
        let f = frontend(&[(64, 10, 1), (512, 10, 1)]);
        f.set_admitting(InstanceHandle { level: 0, index: 0 }, false);
        let h = f.dispatch(10).expect("dispatch");
        assert_eq!(h.level, 1, "fully-banned level behaves like an empty one");
    }

    #[test]
    fn reopened_instance_rejoins_at_current_load() {
        let f = frontend(&[(64, 100, 2)]);
        let h0 = InstanceHandle { level: 0, index: 0 };
        f.preload(h0, 1);
        f.set_admitting(h0, false);
        // While banned, everything lands on instance 1.
        for _ in 0..3 {
            assert_eq!(f.dispatch(10).expect("ok").index, 1);
        }
        f.set_admitting(h0, true);
        // Instance 0 (load 1) is now the least-loaded head again.
        assert_eq!(f.dispatch(10).expect("ok").index, 0);
    }

    #[test]
    fn completion_on_banned_instance_still_releases_load() {
        let f = frontend(&[(64, 100, 1)]);
        let h = f.dispatch(10).expect("dispatch");
        f.set_admitting(h, false);
        f.complete(h);
        assert_eq!(f.total_outstanding(), 0);
        assert_eq!(f.underflow_count(), 0);
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
}
