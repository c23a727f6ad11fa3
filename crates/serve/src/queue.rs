//! The bounded multi-producer **multi-consumer** dispatch queue, with
//! shutdown-aware wakeup.
//!
//! The shard → dispatch hand-off used to be an `mpsc::sync_channel`
//! drained by a single thread polling `recv_timeout(2 ms)` — shutdown was
//! only observed at the next timeout tick, every idle tick burned a
//! spurious wakeup, and `Receiver` being `!Sync` pinned the consumer side
//! to exactly one thread. This queue replaces it with an explicit
//! `Mutex<VecDeque>` + `Condvar`:
//!
//! - **Many consumers.** Any number of dispatch workers block in
//!   [`BoundedQueue::pop_many`]; a push wakes one if any is parked (the
//!   queue counts them, so a push to a busy plane costs no
//!   `futex_wake`). This is what lets a
//!   tenant's dispatch plane scale from one thread to M without changing
//!   the producer side at all.
//! - **Shutdown is an event, not a poll.** [`BoundedQueue::close`] wakes
//!   every blocked consumer immediately; a drained worker returns from
//!   `pop_many` with 0 the moment close lands, never after "one more
//!   timeout tick". Messages still queued at close are abandoned — they
//!   were admitted (counted `outstanding`), so a drain's final snapshot
//!   still carries them as `outstanding`, exactly as the old plane
//!   abandoned its channel backlog at shutdown.
//! - **Burst draining.** `pop_many` hands a waking consumer everything
//!   queued (up to a cap) under a single lock acquisition, so a burst of
//!   arrivals costs one wakeup, not one per message.
//! - **Never blocks producers.** [`BoundedQueue::try_push`] refuses at
//!   capacity (the caller sheds — explicit backpressure, identical to the
//!   old `try_send` contract) and after close.
//!
//! The queue also keeps contention telemetry: refused-at-capacity events,
//! the depth high-water mark, and the pop-burst histogram
//! numerator/denominator (`pop_items / pop_batches` = mean occupancy per
//! wakeup).
//!
//! The server's shards now place every request themselves, so no server
//! thread uses this queue any more; the benchmark's layer walk and probes
//! still measure it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the caller should shed.
    Full,
    /// [`BoundedQueue::close`] has been called; nothing is accepted again.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked in [`BoundedQueue::pop_many`]'s condvar wait. A
    /// std `notify_one` is a syscall even with nobody waiting; counting
    /// the waiters under the mutex lets producers skip it.
    parked: usize,
}

/// A bounded MPMC queue of `T`. See the module docs for the contract.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
    /// `try_push` calls refused at capacity (queue-full shed events).
    full_events: AtomicU64,
    /// Deepest the queue has been, sampled after each successful push.
    depth_high_water: AtomicU64,
    /// `pop_many` calls that returned at least one item.
    pop_batches: AtomicU64,
    /// Items returned across all `pop_many` calls.
    pop_items: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            full_events: AtomicU64::new(0),
            depth_high_water: AtomicU64::new(0),
            pop_batches: AtomicU64::new(0),
            pop_items: AtomicU64::new(0),
        }
    }

    /// Enqueue without blocking: `Err(Full)` at capacity (caller sheds),
    /// `Err(Closed)` after [`BoundedQueue::close`]. A successful push wakes
    /// one blocked consumer, if there is one.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let (depth, wake) = {
            let mut inner = self.inner.lock().expect("dispatch queue poisoned");
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.items.len() >= self.capacity {
                drop(inner);
                self.full_events.fetch_add(1, Ordering::Relaxed);
                return Err(PushError::Full);
            }
            inner.items.push_back(item);
            (inner.items.len() as u64, inner.parked > 0)
        };
        if wake {
            self.available.notify_one();
        }
        self.depth_high_water.fetch_max(depth, Ordering::Relaxed);
        Ok(())
    }

    /// Block until items are available or the queue closes. Drains up to
    /// `max` queued items into `out` under one lock acquisition and
    /// returns how many were taken; 0 means the queue is closed (the
    /// consumer should exit — remaining items, if any, are abandoned by
    /// design; see the module docs).
    pub fn pop_many(&self, out: &mut Vec<T>, max: usize) -> usize {
        let max = max.max(1);
        let mut inner = self.inner.lock().expect("dispatch queue poisoned");
        loop {
            if inner.closed {
                return 0;
            }
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max);
                out.extend(inner.items.drain(..n));
                let chain = !inner.items.is_empty() && inner.parked > 0;
                drop(inner);
                if chain {
                    // We were capped below the backlog: hand the rest to
                    // a parked consumer rather than waiting for a fresh
                    // push's notify.
                    self.available.notify_one();
                }
                self.pop_batches.fetch_add(1, Ordering::Relaxed);
                self.pop_items.fetch_add(n as u64, Ordering::Relaxed);
                return n;
            }
            inner.parked += 1;
            inner = self.available.wait(inner).expect("dispatch queue poisoned");
            inner.parked -= 1;
        }
    }

    /// Block for a single item; `None` means closed.
    pub fn pop(&self) -> Option<T> {
        let mut out = Vec::with_capacity(1);
        if self.pop_many(&mut out, 1) == 0 {
            None
        } else {
            out.pop()
        }
    }

    /// Close the queue: every blocked consumer wakes and returns 0, every
    /// future push is refused. Items still queued are abandoned.
    pub fn close(&self) {
        self.inner.lock().expect("dispatch queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("dispatch queue poisoned")
            .items
            .len()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes refused at capacity so far.
    pub fn full_events(&self) -> u64 {
        self.full_events.load(Ordering::Relaxed)
    }

    /// Deepest the queue has been.
    pub fn depth_high_water(&self) -> u64 {
        self.depth_high_water.load(Ordering::Relaxed)
    }

    /// `pop_many` calls that returned items (the burst denominator).
    pub fn pop_batches(&self) -> u64 {
        self.pop_batches.load(Ordering::Relaxed)
    }

    /// Items returned across all `pop_many` calls (the burst numerator).
    pub fn pop_items(&self) -> u64 {
        self.pop_items.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_pop_roundtrip_in_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.pop_many(&mut out, 8), 2);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn full_refuses_and_counts() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.full_events(), 1);
        assert_eq!(q.depth_high_water(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_many_respects_cap_and_chains_wakeups() {
        let q = BoundedQueue::new(16);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_many(&mut out, 4), 4);
        assert_eq!(q.pop_many(&mut out, 4), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.pop_batches(), 2);
        assert_eq!(q.pop_items(), 6);
    }

    #[test]
    fn close_wakes_a_blocked_consumer_without_a_timeout_tick() {
        // The satellite regression: the old dispatch plane noticed
        // shutdown only at its next 2 ms recv_timeout tick. A blocked
        // pop_many must return the moment close() lands — bound the wakeup
        // well below any polling granularity an implementation could hide.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let woke = q.pop_many(&mut out, 4);
                (woke, Instant::now())
            })
        };
        // Let the consumer actually block.
        std::thread::sleep(Duration::from_millis(20));
        let closed_at = Instant::now();
        q.close();
        let (woke, woke_at) = consumer.join().unwrap();
        assert_eq!(woke, 0, "close() reports closed, not items");
        assert!(
            woke_at.duration_since(closed_at) < Duration::from_millis(250),
            "blocked consumer took {:?} to observe close",
            woke_at.duration_since(closed_at)
        );
    }

    #[test]
    fn close_refuses_pushes_and_abandons_backlog() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        let mut out = Vec::new();
        assert_eq!(q.pop_many(&mut out, 4), 0, "backlog is abandoned at close");
        assert!(out.is_empty());
    }

    #[test]
    fn many_producers_many_consumers_conserve_items() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 5_000;
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(256));
        let consumed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        out.clear();
                        if q.pop_many(&mut out, 64) == 0 {
                            return;
                        }
                        consumed.lock().unwrap().extend_from_slice(&out);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut shed = 0u64;
                    for i in 0..PER_PRODUCER {
                        // Spin on Full like submit_one's shed path would
                        // retry from the client side; Closed is impossible
                        // here (close happens after producers join).
                        loop {
                            match q.try_push(p * PER_PRODUCER + i) {
                                Ok(()) => break,
                                Err(PushError::Full) => {
                                    shed += 1;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed) => unreachable!(),
                            }
                        }
                    }
                    shed
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Everything pushed must come out before close abandons the rest:
        // wait for the consumers to drain, then close.
        let total = PRODUCERS as u64 * PER_PRODUCER;
        let deadline = Instant::now() + Duration::from_secs(10);
        while (consumed.lock().unwrap().len() as u64) < total {
            assert!(Instant::now() < deadline, "consumers stalled");
            std::thread::yield_now();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut seen = consumed.lock().unwrap().clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len() as u64, total, "no item lost or duplicated");
        assert_eq!(q.pop_items(), total);
        assert!(q.pop_batches() <= q.pop_items());
    }

    #[test]
    fn consumer_churn_conserves_every_item() {
        // The supervision scenario: consumers (dispatch workers) keep
        // dying mid-stream and fresh incarnations re-subscribe to the
        // *same* queue, while producers never stop. Every pushed item must
        // be consumed exactly once — a worker death between pop_many and
        // processing is the worker's problem (its burst guard), never the
        // queue's: here workers die only at burst boundaries, so the
        // queue alone must account for everything.
        const PRODUCERS: usize = 3;
        const PER_PRODUCER: u64 = 4_000;
        const GENERATIONS: usize = 6;
        const WORKERS_PER_GEN: usize = 2;
        // Each worker incarnation consumes at most this many items, then
        // "dies" (returns) — forcing many re-subscriptions mid-stream.
        const LIFE_BUDGET: usize = 500;
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(128));
        let consumed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        loop {
                            match q.try_push(p * PER_PRODUCER + i) {
                                Ok(()) => break,
                                Err(PushError::Full) => std::thread::yield_now(),
                                Err(PushError::Closed) => unreachable!(),
                            }
                        }
                    }
                })
            })
            .collect();
        let total = PRODUCERS as u64 * PER_PRODUCER;
        let deadline = Instant::now() + Duration::from_secs(20);
        for _generation in 0..GENERATIONS {
            // A generation of short-lived workers, joined before the
            // next is spawned — consumers die and re-subscribe while
            // producers are still pushing.
            let workers: Vec<_> = (0..WORKERS_PER_GEN)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let consumed = Arc::clone(&consumed);
                    std::thread::spawn(move || {
                        let mut taken = 0usize;
                        let mut out = Vec::new();
                        while taken < LIFE_BUDGET {
                            out.clear();
                            let n = q.pop_many(&mut out, 64);
                            if n == 0 {
                                return;
                            }
                            consumed.lock().unwrap().extend_from_slice(&out);
                            taken += n;
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert!(Instant::now() < deadline, "churn made no progress");
        }
        // A final long-lived generation drains whatever the churned
        // workers left behind. Spawned *before* joining the producers:
        // the generations' combined life budget (6 × 2 × 500) is less
        // than the 12 000 items produced, so the producers are still
        // blocked pushing the tail and need a live consumer to finish.
        let finisher = {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    out.clear();
                    if q.pop_many(&mut out, 64) == 0 {
                        return;
                    }
                    consumed.lock().unwrap().extend_from_slice(&out);
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        while (consumed.lock().unwrap().len() as u64) < total {
            assert!(Instant::now() < deadline, "finisher stalled");
            std::thread::yield_now();
        }
        q.close();
        finisher.join().unwrap();
        let mut seen = consumed.lock().unwrap().clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len() as u64,
            total,
            "churned consumers lost or duplicated items"
        );
    }

    #[test]
    fn close_wakes_a_late_resubscribed_consumer_promptly() {
        // A worker restarted *after* most of the plane shut down still
        // blocks on the same queue; close() must wake it as fast as the
        // original consumers — restarts must not reintroduce the old
        // 2 ms-poll shutdown latency.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        // First consumer blocks, then "dies" when we feed it one item.
        let first = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_many(&mut out, 4)
            })
        };
        q.try_push(1).unwrap();
        assert_eq!(first.join().unwrap(), 1);
        // The restarted incarnation re-subscribes and blocks empty.
        let restarted = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let woke = q.pop_many(&mut out, 4);
                (woke, Instant::now())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        let closed_at = Instant::now();
        q.close();
        let (woke, woke_at) = restarted.join().unwrap();
        assert_eq!(woke, 0);
        assert!(
            woke_at.duration_since(closed_at) < Duration::from_millis(250),
            "restarted consumer took {:?} to observe close",
            woke_at.duration_since(closed_at)
        );
    }
}
