//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Events at equal timestamps are ordered by insertion sequence number, so a
//! simulation replays identically for a given seed regardless of allocator
//! or dispatcher internals — the property every experiment in the repository
//! relies on.

use arlo_trace::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation events. Payloads are indices into driver-owned tables, keeping
/// the queue `Copy`-cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The `n`-th trace request arrives.
    Arrival(usize),
    /// Instance `i` finishes its running execution.
    Complete(usize),
    /// Instance `i` finishes loading a (new) runtime.
    LoadDone(usize),
    /// Periodic Runtime Scheduler invocation (§3.3).
    AllocationTick,
    /// Auto-scaler scale-out check (§4: every second on recent p98).
    ScaleOutCheck,
    /// Auto-scaler scale-in check (§4: every 60 s).
    ScaleInCheck,
    /// The `n`-th injected fault fires.
    Fault(usize),
    /// The `n`-th injected fault ends (slowdowns only).
    FaultEnd(usize),
    /// Re-dispatch attempt for the `n`-th entry in the driver's retry table
    /// (fault-tolerance layer: backoff expired, request returns to the
    /// buffer).
    Retry(usize),
    /// Periodic health-registry sweep (fault-tolerance layer: quarantine
    /// cooldowns, stuck-dispatch detection).
    HealthTick,
}

/// A deterministic event queue keyed by `(time, insertion sequence)`.
///
/// The driver keeps exactly one [`Event::Arrival`] pending at a time (each
/// arrival schedules the next), so that one lives in a slot beside the heap
/// instead of passing through it: each simulated request then costs one heap
/// push and pop (its completion), not two. The slot's entry takes its
/// sequence number at `push` like a heap entry, and every read compares the
/// slot with the heap's top on `(time, seq)`. The keys are unique and
/// totally ordered and the two places hold disjoint entries, so the lesser
/// of the two minima is the global minimum: pop order is exactly that of a
/// single heap, whichever place an entry sits in. An arrival pushed while
/// the slot is full goes to the heap.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Nanos, u64, EventOrd)>>,
    /// The pending arrival outside the heap: `(time, seq, trace index)`.
    arrival: Option<(Nanos, u64, usize)>,
    seq: u64,
}

/// Internal ordered wrapper (BinaryHeap needs `Ord`; `Event` itself carries
/// indices whose ordering is irrelevant but must be total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventOrd(u8, usize);

fn encode(e: Event) -> EventOrd {
    match e {
        Event::Arrival(i) => EventOrd(0, i),
        Event::Complete(i) => EventOrd(1, i),
        Event::LoadDone(i) => EventOrd(2, i),
        Event::AllocationTick => EventOrd(3, 0),
        Event::ScaleOutCheck => EventOrd(4, 0),
        Event::ScaleInCheck => EventOrd(5, 0),
        Event::Fault(i) => EventOrd(6, i),
        Event::FaultEnd(i) => EventOrd(7, i),
        Event::Retry(i) => EventOrd(8, i),
        Event::HealthTick => EventOrd(9, 0),
    }
}

fn decode(e: EventOrd) -> Event {
    match e {
        EventOrd(0, i) => Event::Arrival(i),
        EventOrd(1, i) => Event::Complete(i),
        EventOrd(2, i) => Event::LoadDone(i),
        EventOrd(3, _) => Event::AllocationTick,
        EventOrd(4, _) => Event::ScaleOutCheck,
        EventOrd(5, _) => Event::ScaleInCheck,
        EventOrd(6, i) => Event::Fault(i),
        EventOrd(7, i) => Event::FaultEnd(i),
        EventOrd(8, i) => Event::Retry(i),
        EventOrd(9, _) => Event::HealthTick,
        EventOrd(k, _) => unreachable!("unknown event tag {k}"),
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: Nanos, event: Event) {
        match event {
            Event::Arrival(i) if self.arrival.is_none() => self.arrival = Some((at, self.seq, i)),
            _ => self.heap.push(Reverse((at, self.seq, encode(event)))),
        }
        self.seq += 1;
    }

    /// Whether the slot's arrival precedes the heap's top (an empty side
    /// never does).
    fn slot_first(&self) -> bool {
        match (self.arrival, self.heap.peek()) {
            (Some(_), None) => true,
            (Some((t, seq, _)), Some(Reverse((ht, hseq, _)))) => (t, seq) < (*ht, *hseq),
            (None, _) => false,
        }
    }

    /// Pop the earliest event, ties broken by insertion order.
    pub fn pop(&mut self) -> Option<(Nanos, Event)> {
        if self.slot_first() {
            return self.arrival.take().map(|(t, _, i)| (t, Event::Arrival(i)));
        }
        self.heap.pop().map(|Reverse((t, _, e))| (t, decode(e)))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        if self.slot_first() {
            return self.arrival.map(|(t, _, _)| t);
        }
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.arrival.is_some())
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.arrival.is_none() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, Event::Complete(1));
        q.push(10, Event::Arrival(0));
        q.push(20, Event::AllocationTick);
        assert_eq!(q.pop(), Some((10, Event::Arrival(0))));
        assert_eq!(q.pop(), Some((20, Event::AllocationTick)));
        assert_eq!(q.pop(), Some((30, Event::Complete(1))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_keep_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::Complete(7));
        q.push(5, Event::Arrival(3));
        q.push(5, Event::LoadDone(2));
        assert_eq!(q.pop(), Some((5, Event::Complete(7))));
        assert_eq!(q.pop(), Some((5, Event::Arrival(3))));
        assert_eq!(q.pop(), Some((5, Event::LoadDone(2))));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(42, Event::ScaleOutCheck);
        q.push(7, Event::ScaleInCheck);
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 2);
    }

    /// Seeded random push/pop sequences against a plain heap keyed on
    /// `(time, seq)`: wherever an event sits, slot or heap, the pop order
    /// and every observer must match. Times fall in a narrow window above
    /// the clock, so equal timestamps are common, and arrivals are pushed
    /// regardless of how many are pending, so the slot overflows into the
    /// heap.
    #[test]
    fn matches_a_plain_heap_on_random_sequences() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let (mut most_arrivals, mut equal_time_pops) = (0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(Nanos, u64)>> = BinaryHeap::new();
            let mut pushed: Vec<Event> = Vec::new();
            let (mut now, mut arrivals) = (0, 0);
            let mut last_pop = None;
            for step in 0..600 {
                let roll = rng.next_u64();
                // Push more than pop for the first half, then drain.
                let push_odds = if step < 300 { 5 } else { 2 };
                if roll % 8 < push_odds {
                    let at = now + (roll >> 8) % 4;
                    let n = pushed.len();
                    let event = match (roll >> 16) % 3 {
                        0 | 1 => Event::Arrival(n),
                        _ => Event::Complete(n),
                    };
                    arrivals += usize::from(matches!(event, Event::Arrival(_)));
                    q.push(at, event);
                    reference.push(Reverse((at, n as u64)));
                    pushed.push(event);
                } else {
                    let want = reference
                        .pop()
                        .map(|Reverse((t, seq))| (t, pushed[seq as usize]));
                    assert_eq!(q.pop(), want, "seed {seed}, step {step}");
                    if let Some((t, event)) = want {
                        arrivals -= usize::from(matches!(event, Event::Arrival(_)));
                        equal_time_pops += usize::from(last_pop == Some(t));
                        (now, last_pop) = (t, Some(t));
                    }
                }
                most_arrivals = most_arrivals.max(arrivals);
                assert_eq!(
                    q.peek_time(),
                    reference.peek().map(|Reverse((t, _))| *t),
                    "seed {seed}, step {step}"
                );
                assert_eq!(q.len(), reference.len(), "seed {seed}, step {step}");
                assert_eq!(
                    q.is_empty(),
                    reference.is_empty(),
                    "seed {seed}, step {step}"
                );
            }
        }
        assert!(most_arrivals >= 2, "never two arrivals pending at once");
        assert!(equal_time_pops > 0, "never two pops at one timestamp");
    }

    #[test]
    fn round_trips_all_event_kinds() {
        let events = [
            Event::Arrival(9),
            Event::Complete(8),
            Event::LoadDone(7),
            Event::AllocationTick,
            Event::ScaleOutCheck,
            Event::ScaleInCheck,
            Event::Fault(3),
            Event::FaultEnd(3),
            Event::Retry(5),
            Event::HealthTick,
        ];
        let mut q = EventQueue::new();
        for (i, &e) in events.iter().enumerate() {
            q.push(i as Nanos, e);
        }
        for &e in &events {
            assert_eq!(q.pop().map(|(_, got)| got), Some(e));
        }
    }
}
