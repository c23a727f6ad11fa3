//! The deadline-ordered executor: a stand-in GPU fleet driven by the
//! calibrated latency model, with per-instance batch coalescing.
//!
//! A real deployment hands each placement to a GPU instance that executes
//! requests in batches at the profiled cost. This executor reproduces that
//! timing on the virtual clock. Each admitted job lands in a per-instance
//! [`Coalescer`] keyed by `(generation, runtime, instance)`; batches seal
//! under the shared [`BatchPolicy`] — up to `max_batch` jobs, waiting at
//! most `max_wait_ns` for co-batchable arrivals, same-runtime by
//! construction of the key — and each sealed batch is charged **one**
//! batched execution on the instance's virtual busy-until clock:
//! `start = max(busy_until, arrival)`, `done = start + exec`, where `exec`
//! comes from the same [`BatchSpec::exec_ns`] evaluation the simulator's
//! cluster uses (padded to the longest member, jitter keyed off the first
//! request id). The completion callback fires once per batch, when `done`
//! is due.
//!
//! A full batch seals the moment it is full, even behind a busy instance
//! (its members and start instant can no longer change); only a partial
//! batch waits for its start instant, since a later arrival could still
//! join it. With [`BatchSpec::SINGLE`] under the greedy policy every job
//! is a full batch, seals alone at push time, and the schedule is
//! identical to the historical per-job busy-until executor — pinned by the
//! batch-1 parity test.
//!
//! [`BatchSpec::exec_ns`]: arlo_runtime::batching::BatchSpec::exec_ns
//! [`BatchSpec::SINGLE`]: arlo_runtime::batching::BatchSpec::SINGLE
//!
//! Scheduling follows one rule: **work that is due now runs on the thread
//! that discovered it; work that is due later waits in one shared
//! deadline heap.** "Due now" is [`VirtualClock::is_due`] — the instant is
//! past or closer than the emulation's 100 µs granule of real time.
//! So a batch whose `finished_at` is due when it seals completes inline on
//! the sealing thread, even one queued behind a busy instance. Everything
//! else — a future completion, or the seal instant of a partial batch — is
//! one `(deadline, Seal(key) | Complete(batch))` heap entry. Whoever
//! services the heap sleeps until the earliest deadline, fires what is due
//! in deadline order, and is woken only when a new entry undercuts the
//! head: [`Executor::new`]'s own thread, or — [`Executor::serviced_by_caller`]
//! — the server's epoll shard that owns the heap, through
//! [`Executor::fire_ripe`] in slices.
//!
//! One mutex guards all of an executor's state — the per-instance
//! coalescers, the batch-size histogram and the deadline heap — and no
//! callback runs under it. A submit pushes, seals and parks under one
//! acquisition; a fired seal re-advances its key under the acquisition
//! it popped under. Entries pop under that lock, so any thread may fire
//! what is ripe: the server's drain does, for a shard that died.
//!
//! Coalescer keys include the deployment generation, so a reallocation
//! starts the new fleet idle while in-flight work on the old fleet still
//! completes (and is acknowledged by the engine as stale). The server
//! evicts superseded keys via [`Executor::prune_before`] after each
//! `apply_allocation`, keeping the key map bounded on long-running
//! servers.

use crate::clock::VirtualClock;
use arlo_core::engine::Placement;
use arlo_runtime::batching::{BatchPolicy, Coalescer, SealedBatch};
use arlo_runtime::latency::JitterSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_trace::workload::BuildWordHasher;
use arlo_trace::Nanos;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// An admitted request on its way to execution.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Where the engine placed the request.
    pub placement: Placement,
    /// Client-chosen request id, for the response frame.
    pub request_id: u64,
    /// Connection the response goes back to.
    pub conn_id: u64,
    /// Tenant stream the request was admitted to — completion accounting
    /// credits this tenant's engine and counters.
    pub tenant: u32,
    /// Request length in tokens.
    pub length: u32,
    /// Virtual time the request was dispatched.
    pub submitted_at: Nanos,
}

/// A finished batched execution, handed to the completion callback once
/// per batch.
#[derive(Debug, Clone)]
pub struct CompletedBatch {
    /// The jobs that ran together (at least one; all share a placement).
    pub jobs: Vec<Job>,
    /// Virtual time the batch started executing.
    pub started_at: Nanos,
    /// Virtual completion time (`started_at + exec_ns`).
    pub finished_at: Nanos,
    /// Total execution cost charged to the batch, in virtual nanoseconds.
    pub exec_ns: u64,
}

/// Coalescer key: one virtual instance of one deployment generation.
type Key = (u64, usize, usize);

/// Completion callback: receives each finished batch exactly once. It must
/// not panic — the executor owns no panic policy; the server runs its
/// callback behind its own boundary.
type BatchCallback = dyn Fn(CompletedBatch) + Send + Sync;

/// Run when a parked entry undercuts the heap's head (see
/// [`Executor::serviced_by_caller`]).
type WakeCallback = dyn Fn() + Send + Sync;

struct KeyState {
    coalescer: Coalescer<Job>,
    /// Deadline of the earliest [`Due::Seal`] entry armed in the heap for
    /// this key, if any — dedupes re-arming on every push.
    flush_at: Option<Nanos>,
}

/// What a heap entry does when its deadline arrives.
enum Due {
    /// Re-advance this key's coalescer: its partial head batch seals now.
    Seal(Key),
    /// Fire the completion callback of a batch sealed earlier.
    Complete(CompletedBatch),
}

/// One deadline-heap entry, ordered earliest deadline first.
struct Timer {
    at: Nanos,
    due: Due,
}

impl Timer {
    /// Whether the entry fires at the clock reading `now`. A completion
    /// fires as soon as it is due now; a seal — only ever armed for a
    /// partial batch, a full one seals at push — waits out its exact
    /// instant, because firing it early would seal nothing and re-arm it.
    fn ripe(&self, clock: &VirtualClock, now: Nanos) -> bool {
        match self.due {
            Due::Seal(_) => self.at <= now,
            Due::Complete(_) => clock.is_due(self.at, now),
        }
    }
}

impl Ord for Timer {
    /// Reversed, so `BinaryHeap`'s max is the earliest deadline.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}

impl Eq for Timer {}

/// Everything the executor mutates, under its one lock.
#[derive(Default)]
struct State {
    /// Per-instance batch-forming state, keyed by
    /// `(generation, runtime_idx, instance_idx)` — placements the engine
    /// chose, so a word hasher serves.
    keys: HashMap<Key, KeyState, BuildWordHasher>,
    /// Batch-size histogram: `occupancy[b-1]` counts sealed batches of
    /// `b` jobs.
    occupancy: Vec<u64>,
    /// Everything due later. Invariant: a key holding unsealed jobs has a
    /// [`Due::Seal`] entry here at or before its head batch's seal
    /// instant, and a sealed batch not yet completed has its
    /// [`Due::Complete`] entry — so whoever services the heap to empty
    /// (its servicer, or [`Executor::shutdown`]) finishes all admitted
    /// work.
    heap: BinaryHeap<Timer>,
    /// Set by [`Executor::shutdown`]: the servicing loop returns once the
    /// heap is empty instead of waiting for more.
    stopping: bool,
}

/// Sealed batches that are due now, to complete once the lock is
/// released, and whether a parked entry undercut the heap's head.
type Settled = (Vec<SealedBatch<Job>>, bool);

struct ExecutorShared {
    clock: Arc<VirtualClock>,
    profiles: Vec<RuntimeProfile>,
    jitter: JitterSpec,
    policy: BatchPolicy,
    /// A key's whole lifecycle — submit, seal, prune — and every heap push
    /// and pop happen under this lock; the callbacks never run under it.
    state: Mutex<State>,
    /// Signalled when a push undercuts the heap's head, and on stop —
    /// unless `wake` is set, which then replaces the signal on push.
    timer_due: Condvar,
    /// The caller-serviced executor's undercut hook.
    wake: Option<Box<WakeCallback>>,
    on_done: Box<BatchCallback>,
}

impl ExecutorShared {
    /// A panic under the lock (a placement past `profiles`) leaves at most
    /// its one pushed job behind, so a poisoned lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Under the lock: seal every full batch of `key`'s coalescer `ks` and
    /// every partial one whose seal instant has passed by `now`, count them
    /// into the histogram, and park in the heap each one that finishes
    /// later and the key's next seal instant (unless an earlier one is
    /// armed). Sealed batches run back to back on one instance, so the ones
    /// due now are a prefix; they are returned, to complete once the lock
    /// is released.
    fn advance(
        &self,
        key: Key,
        ks: &mut KeyState,
        occupancy: &mut Vec<u64>,
        heap: &mut BinaryHeap<Timer>,
        now: Nanos,
    ) -> Settled {
        let runtime = &self.profiles[key.1].runtime;
        // The batch→latency evaluation shared with the simulator's
        // cluster: pad to the longest member, jitter keyed off the first
        // request id, scale by the batch factor.
        let mut sealed = ks.coalescer.drain_ready(now, &mut |jobs: &[Job], b| {
            let longest = jobs
                .iter()
                .map(|j| j.length)
                .max()
                .expect("non-empty batch");
            let base = runtime.exec_nanos_jittered(longest, self.jitter, jobs[0].request_id);
            self.policy.spec.exec_ns(base, b, 1.0, 1.0)
        });
        for batch in &sealed {
            let slot = batch.items.len() - 1;
            if occupancy.len() <= slot {
                occupancy.resize(slot + 1, 0);
            }
            occupancy[slot] += 1;
        }
        let mut undercut = false;
        let due_now = sealed.partition_point(|b| self.clock.is_due(b.finished_at, now));
        for batch in sealed.drain(due_now..) {
            undercut |= park(heap, batch.finished_at, Due::Complete(completed(batch)));
        }
        match ks.coalescer.next_deadline() {
            Some(d) if ks.flush_at.is_none_or(|f| f > d) => {
                ks.flush_at = Some(d);
                undercut |= park(heap, d, Due::Seal(key));
            }
            _ => {}
        }
        (sealed, undercut)
    }

    /// After the lock is released: wake the servicer if its head moved
    /// earlier, then complete the due batches on this thread. Returns the
    /// jobs completed.
    fn settle(&self, (due, undercut): Settled) -> usize {
        if undercut {
            match &self.wake {
                Some(wake) => wake(),
                None => self.timer_due.notify_one(),
            }
        }
        let mut completed_jobs = 0;
        for batch in due {
            completed_jobs += batch.items.len();
            (self.on_done)(completed(batch));
        }
        completed_jobs
    }

    /// Fire heap entries ripe now, in deadline order, on the calling
    /// thread, until none is ripe or `limit` jobs have been completed;
    /// return the re-locked state, the clock reading its head was last
    /// checked against, and the jobs completed. Each entry pops under the
    /// lock, so callers on several threads never fire one twice; a seal
    /// re-advances its key under the same acquisition it popped under.
    fn fire_ripe(&self, limit: usize) -> (MutexGuard<'_, State>, Nanos, usize) {
        let mut fired = 0;
        let mut state = self.lock();
        loop {
            let now = self.clock.now();
            match state.heap.peek() {
                Some(head) if fired < limit && head.ripe(&self.clock, now) => {
                    let timer = state.heap.pop().expect("peeked");
                    match timer.due {
                        Due::Complete(batch) => {
                            drop(state);
                            fired += batch.jobs.len();
                            (self.on_done)(batch);
                        }
                        Due::Seal(key) => {
                            let State {
                                keys,
                                occupancy,
                                heap,
                                ..
                            } = &mut *state;
                            let Some(ks) = keys.get_mut(&key) else {
                                continue; // pruned: the generation is gone and held no work
                            };
                            if ks.flush_at == Some(timer.at) {
                                ks.flush_at = None;
                            }
                            let settled = self.advance(key, ks, occupancy, heap, now);
                            drop(state);
                            fired += self.settle(settled);
                        }
                    }
                    state = self.lock();
                }
                _ => return (state, now, fired),
            }
        }
    }

    /// Stop the heap: its servicers return once it is empty.
    fn stop(&self) {
        self.lock().stopping = true;
        self.timer_due.notify_all();
    }

    /// Service the heap on the calling thread: sleep until the earliest
    /// deadline, fire everything ripe in deadline order, repeat. Returns
    /// once stopped *and* empty — firing a seal can park new entries, so
    /// the heap is drained to a fixed point, each entry at its own time.
    fn service(&self) {
        loop {
            let (state, now, _) = self.fire_ripe(usize::MAX);
            let wait = match state.heap.peek() {
                Some(head) => Some(self.clock.real_until(head.at, now)),
                None if state.stopping => return,
                None => None,
            };
            // Either wait ends early on a notify; a spurious wake-up just
            // re-reads the head. The re-taken guard drops, poisoned or not.
            match wait {
                Some(real) => drop(self.timer_due.wait_timeout(state, real)),
                None => drop(self.timer_due.wait(state)),
            }
        }
    }
}

/// Push one heap entry; true if it undercuts the head, so the servicer
/// has to get up earlier than it planned.
fn park(heap: &mut BinaryHeap<Timer>, at: Nanos, due: Due) -> bool {
    let undercuts = heap.peek().is_none_or(|head| at < head.at);
    heap.push(Timer { at, due });
    undercuts
}

/// A sealed batch as the completion callback receives it.
fn completed(batch: SealedBatch<Job>) -> CompletedBatch {
    CompletedBatch {
        jobs: batch.items,
        started_at: batch.started_at,
        finished_at: batch.finished_at,
        exec_ns: batch.exec_ns,
    }
}

/// The executor handle. [`Executor::shutdown`] finishes every pending and
/// parked batch and joins the servicing thread; dropping the executor
/// without it detaches that thread.
pub struct Executor {
    shared: Arc<ExecutorShared>,
    /// The internal servicing thread. `None` when the caller services the
    /// heap ([`Executor::serviced_by_caller`]).
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// An executor running batches against `profiles` under the shared
    /// virtual clock, coalescing per `policy`, with its own heap-servicing
    /// thread. `on_done` runs once per sealed batch when the batch's
    /// completion time is due — on the submitting thread if that is
    /// already so at seal time, otherwise on the servicing thread.
    ///
    /// `_workers` is ignored: there is no worker pool any more. The
    /// argument stays until the benchmark, which links this signature,
    /// can be changed on its own.
    pub fn new(
        profiles: Vec<RuntimeProfile>,
        _workers: usize,
        clock: Arc<VirtualClock>,
        jitter: JitterSpec,
        policy: BatchPolicy,
        on_done: Box<BatchCallback>,
    ) -> Self {
        let mut executor = Executor::build(profiles, clock, jitter, policy, on_done, None);
        let shared = Arc::clone(&executor.shared);
        executor.flusher = Some(
            std::thread::Builder::new()
                .name("arlo-flusher".into())
                .spawn(move || shared.service())
                .expect("spawn executor flusher"),
        );
        executor
    }

    /// [`Executor::new`] *without* the servicing thread: the caller fires
    /// the deadline heap with [`Executor::fire_ripe`], and `wake` runs on
    /// the parking thread whenever a new entry undercuts the heap's head,
    /// so the caller can move its next fire earlier. Work that is due
    /// later simply waits in the heap until someone fires it.
    pub fn serviced_by_caller(
        profiles: Vec<RuntimeProfile>,
        clock: Arc<VirtualClock>,
        jitter: JitterSpec,
        policy: BatchPolicy,
        on_done: Box<BatchCallback>,
        wake: Box<WakeCallback>,
    ) -> Self {
        Executor::build(profiles, clock, jitter, policy, on_done, Some(wake))
    }

    fn build(
        profiles: Vec<RuntimeProfile>,
        clock: Arc<VirtualClock>,
        jitter: JitterSpec,
        policy: BatchPolicy,
        on_done: Box<BatchCallback>,
        wake: Option<Box<WakeCallback>>,
    ) -> Self {
        assert!(!profiles.is_empty(), "need at least one profile");
        policy.validate();
        let shared = Arc::new(ExecutorShared {
            clock,
            profiles,
            jitter,
            policy,
            state: Mutex::default(),
            timer_due: Condvar::new(),
            wake,
            on_done,
        });
        Executor {
            shared,
            flusher: None,
        }
    }

    /// Fire heap entries ripe now on the calling thread, in deadline order,
    /// until none is ripe or entries completing at least `limit` jobs have
    /// fired: one slice of the servicing loop, without its wait. Returns
    /// the jobs completed and the deadline of the heap's head, if any —
    /// which, when the limit stopped the slice, may already be ripe. Safe
    /// from any thread: entries pop under the executor's lock.
    pub fn fire_ripe(&self, limit: usize) -> (usize, Option<Nanos>) {
        let (state, _, fired) = self.shared.fire_ripe(limit);
        (fired, state.heap.peek().map(|head| head.at))
    }

    /// Submit a job: queue it on its instance's coalescer and seal whatever
    /// batches the policy allows right now — every full one, even behind a
    /// busy instance — with one lock acquisition and one clock reading. A
    /// sealed batch that is already due completes on this thread before
    /// `submit` returns; one that finishes later, and a partial batch that
    /// must still wait to seal (for co-batchable arrivals or for the
    /// instance to free), is parked in the deadline heap under the same
    /// acquisition.
    pub fn submit(&self, job: Job) {
        let shared = &*self.shared;
        let p = job.placement;
        let key = (p.generation, p.runtime_idx, p.instance_idx);
        let now = shared.clock.now();
        let mut state = shared.lock();
        let State {
            keys,
            occupancy,
            heap,
            ..
        } = &mut *state;
        let ks = keys.entry(key).or_insert_with(|| KeyState {
            coalescer: Coalescer::new(shared.policy),
            flush_at: None,
        });
        ks.coalescer.push(job.submitted_at.max(now), job);
        let settled = shared.advance(key, ks, occupancy, heap, now);
        drop(state);
        shared.settle(settled);
    }

    /// Drop the coalescer state of every generation before `generation` —
    /// the old fleet no longer exists after a reallocation. In-flight
    /// batches keep their already-assigned completion times; a superseded
    /// key still holding unsealed jobs survives until its seal drains it,
    /// so pruning never loses work.
    pub fn prune_before(&self, generation: u64) {
        self.shared
            .lock()
            .keys
            .retain(|&(g, _, _), s| g >= generation || s.coalescer.pending_len() > 0);
    }

    /// Number of distinct instance coalescers currently tracked (tests and
    /// the clock-eviction regression).
    pub fn tracked_instances(&self) -> usize {
        self.shared.lock().keys.len()
    }

    /// Histogram of sealed batch sizes so far: entry `b-1` counts batches
    /// of `b` jobs.
    pub fn batch_occupancy(&self) -> Vec<u64> {
        self.shared.lock().occupancy.clone()
    }

    /// Stop accepting jobs, seal every open batch at its deadline, fire
    /// every completion still parked in the heap, and join the servicing
    /// thread. Returns the final batch-occupancy histogram.
    pub fn shutdown(mut self) -> Vec<u64> {
        if let Some(flusher) = self.flusher.take() {
            self.shared.stop();
            flusher.join().expect("executor flusher panicked");
        }
        self.finish();
        self.batch_occupancy()
    }

    /// [`Executor::shutdown`] for a shared, caller-serviced executor: stop,
    /// and fire what the heap still holds, each entry at its own deadline.
    pub(crate) fn finish(&self) {
        self.shared.stop();
        self.shared.service();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::batching::BatchSpec;
    use arlo_runtime::latency::CompiledRuntime;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::profile_runtimes;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn profiles() -> Vec<RuntimeProfile> {
        let model = ModelSpec::bert_base();
        let rts = vec![
            CompiledRuntime::new_static(model.clone(), 64),
            CompiledRuntime::new_static(model, 512),
        ];
        profile_runtimes(&rts, 150.0, 64)
    }

    fn job(id: u64, runtime_idx: usize, instance_idx: usize, at: Nanos) -> Job {
        Job {
            placement: Placement {
                generation: 0,
                runtime_idx,
                instance_idx,
            },
            request_id: id,
            conn_id: 0,
            tenant: 0,
            length: 32,
            submitted_at: at,
        }
    }

    fn executor(
        workers: usize,
        scale: u32,
        policy: BatchPolicy,
    ) -> (Executor, Arc<VirtualClock>, Arc<Mutex<Vec<CompletedBatch>>>) {
        let clock = Arc::new(VirtualClock::new(scale));
        let done: Arc<Mutex<Vec<CompletedBatch>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&done);
        let exec = Executor::new(
            profiles(),
            workers,
            Arc::clone(&clock),
            JitterSpec::NONE,
            policy,
            Box::new(move |b| sink.lock().push(b)),
        );
        (exec, clock, done)
    }

    #[test]
    fn jobs_on_one_instance_serialize_in_virtual_time() {
        let (exec, clock, done) = executor(4, 10_000, BatchPolicy::greedy(BatchSpec::SINGLE));
        let t0 = clock.now();
        for id in 0..8 {
            exec.submit(job(id, 0, 0, t0));
        }
        exec.shutdown();
        let done = done.lock();
        assert_eq!(done.len(), 8, "batch-1: one completion per job");
        assert!(done.iter().all(|b| b.jobs.len() == 1));
        // Completion times on one instance are spaced by at least one
        // execution cost — the serial batch-1 model.
        let mut finishes: Vec<Nanos> = done.iter().map(|b| b.finished_at).collect();
        finishes.sort_unstable();
        let exec_ns = done[0].exec_ns;
        for w in finishes.windows(2) {
            assert!(w[1] >= w[0] + exec_ns, "{finishes:?}");
        }
    }

    #[test]
    fn distinct_instances_run_concurrently() {
        let (exec, clock, done) = executor(4, 10_000, BatchPolicy::greedy(BatchSpec::SINGLE));
        let t0 = clock.now();
        for inst in 0..4 {
            exec.submit(job(inst as u64, 0, inst, t0));
        }
        // Each start time is bounded by the clock reading at its submit,
        // which is bounded by `after`.
        let after = clock.now();
        exec.shutdown();
        let done = done.lock();
        assert_eq!(done.len(), 4);
        // Parallel instances each pay one execution, not a shared queue:
        // no job waits behind another.
        for b in done.iter() {
            assert!(
                b.finished_at <= after + b.exec_ns,
                "finished {} vs bound {}",
                b.finished_at,
                after + b.exec_ns
            );
        }
    }

    #[test]
    fn a_burst_coalesces_into_batches_with_amortized_cost() {
        let spec = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let (exec, clock, done) = executor(4, 1_000, BatchPolicy::greedy(spec));
        // Eight jobs stamped 2 virtual seconds out (2 ms real at 1000×) on
        // one instance: every fourth arrival fills a batch, which seals at
        // once though it starts later, so they form 4+4.
        let t0 = clock.now() + 2_000_000_000;
        for id in 0..8 {
            exec.submit(job(id, 0, 0, t0));
        }
        exec.shutdown();
        let done = done.lock();
        assert_eq!(done.len(), 2, "two full batches: {done:?}");
        for b in done.iter() {
            assert_eq!(b.jobs.len(), 4);
            let lone = profiles()[0].runtime.exec_nanos_jittered(
                32,
                JitterSpec::NONE,
                b.jobs[0].request_id,
            );
            assert_eq!(b.exec_ns, spec.exec_ns(lone, 4, 1.0, 1.0));
        }
        // Second batch starts when the first frees the instance.
        let mut batches: Vec<_> = done.iter().collect();
        batches.sort_by_key(|b| b.started_at);
        assert_eq!(batches[0].started_at, t0);
        assert_eq!(batches[1].started_at, batches[0].finished_at);
    }

    #[test]
    fn max_wait_holds_a_batch_open_for_stragglers() {
        let spec = BatchSpec {
            max_batch: 8,
            marginal_cost: 0.5,
        };
        let policy = BatchPolicy {
            spec,
            // 20 virtual s at 10_000× is 2 ms real: comfortably in the
            // future when the submits land (so the submit path cannot seal
            // eagerly), yet cheap to sleep out — the flusher, not the
            // submit path, must seal this batch.
            max_wait_ns: 20_000_000_000,
        };
        let (exec, clock, done) = executor(2, 10_000, policy);
        let t0 = clock.now();
        exec.submit(job(0, 0, 0, t0));
        exec.submit(job(1, 0, 0, t0));
        exec.shutdown();
        let done = done.lock();
        let total: usize = done.iter().map(|b| b.jobs.len()).sum();
        assert_eq!(total, 2, "no job is lost to an open window");
        assert_eq!(done.len(), 1, "both jobs share the held-open batch");
        assert!(
            done[0].started_at >= t0 + policy.max_wait_ns,
            "sealed at the wait deadline, not at push: {} vs {}",
            done[0].started_at,
            t0 + policy.max_wait_ns
        );
    }

    #[test]
    fn occupancy_histogram_counts_batch_sizes() {
        let spec = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let (exec, clock, _done) = executor(2, 1_000, BatchPolicy::greedy(spec));
        let t0 = clock.now() + 2_000_000_000;
        for id in 0..5 {
            exec.submit(job(id, 0, 0, t0));
        }
        // 4 + 1: one full batch, one singleton.
        let occ = exec.shutdown();
        assert_eq!(occ, vec![1, 0, 0, 1], "occupancy: one 1-batch, one 4-batch");
    }

    #[test]
    fn occupancy_counts_every_instance_once() {
        // 16 distinct instances, two singleton batches each: the one
        // histogram counts every batch exactly once, whichever instance
        // sealed it.
        let (exec, clock, _done) = executor(4, 10_000, BatchPolicy::greedy(BatchSpec::SINGLE));
        let t0 = clock.now();
        for id in 0..32 {
            exec.submit(job(id, 0, (id % 16) as usize, t0));
        }
        let occ = exec.shutdown();
        assert_eq!(occ, vec![32], "32 singletons over 16 instances");
    }

    #[test]
    fn concurrent_submitters_and_a_firing_thread_complete_every_job_once() {
        // The shape a multi-shard server runs: several threads submit to
        // one caller-serviced executor while another fires its heap. Half
        // the 16 instances run a 38.7 ms runtime, so at 100× their
        // completions park; partial batches wait up to 20 virtual ms
        // (200 µs real) to seal, so the firing thread seals some and the
        // submitters others — all of it under the one lock.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 400;
        const KEYS: u64 = 16;
        let policy = BatchPolicy {
            spec: BatchSpec {
                max_batch: 4,
                marginal_cost: 0.5,
            },
            max_wait_ns: 20_000_000,
        };
        let clock = Arc::new(VirtualClock::new(100));
        let done: Arc<Mutex<Vec<CompletedBatch>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = {
            let sink = Arc::clone(&done);
            Arc::new(Executor::serviced_by_caller(
                short_and_long_profiles(),
                Arc::clone(&clock),
                JitterSpec::NONE,
                policy,
                Box::new(move |b| sink.lock().push(b)),
                Box::new(|| {}),
            ))
        };
        // Every thread starts at once, so the submitters overlap each
        // other and the firing thread from the first job on.
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize + 1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let firer = {
            let (exec, start, stop) = (Arc::clone(&exec), Arc::clone(&start), Arc::clone(&stop));
            std::thread::spawn(move || {
                start.wait();
                while !stop.load(Ordering::SeqCst) {
                    exec.fire_ripe(64);
                    std::thread::sleep(Duration::from_micros(20));
                }
            })
        };
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let (exec, clock, start) =
                    (Arc::clone(&exec), Arc::clone(&clock), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let id = t * PER_THREAD + i;
                        let key = id % KEYS;
                        exec.submit(job(id, (key % 2) as usize, key as usize, clock.now()));
                        if i % 8 == 7 {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter panicked");
        }
        stop.store(true, Ordering::SeqCst);
        firer.join().expect("firing thread panicked");
        exec.finish();

        let done = done.lock();
        let mut ids: Vec<u64> = done
            .iter()
            .flat_map(|b| b.jobs.iter().map(|j| j.request_id))
            .collect();
        ids.sort_unstable();
        let jobs = THREADS * PER_THREAD;
        assert_eq!(ids, (0..jobs).collect::<Vec<u64>>(), "each id exactly once");
        let occupancy = exec.batch_occupancy();
        let counted: u64 = (1..).zip(&occupancy).map(|(b, n)| b * n).sum();
        assert_eq!(counted, jobs, "occupancy {occupancy:?}");
        assert!(exec.tracked_instances() <= KEYS as usize);
    }

    #[test]
    fn a_caller_serviced_heap_wakes_on_undercut_and_fires_on_demand() {
        // 20 virtual s at 10_000× = 2 ms real: in the future when the
        // submits land (no eager seal on the submit path).
        let policy = BatchPolicy {
            spec: BatchSpec {
                max_batch: 8,
                marginal_cost: 0.5,
            },
            max_wait_ns: 20_000_000_000,
        };
        let clock = Arc::new(VirtualClock::new(10_000));
        let done: Arc<Mutex<Vec<CompletedBatch>>> = Arc::new(Mutex::new(Vec::new()));
        let wakes = Arc::new(AtomicU64::new(0));
        let (sink, wakes2) = (Arc::clone(&done), Arc::clone(&wakes));
        let exec = Executor::serviced_by_caller(
            profiles(),
            Arc::clone(&clock),
            JitterSpec::NONE,
            policy,
            Box::new(move |b| sink.lock().push(b)),
            Box::new(move || _ = wakes2.fetch_add(1, Ordering::SeqCst)),
        );
        let t0 = clock.now();
        exec.submit(job(0, 0, 0, t0));
        exec.submit(job(1, 0, 0, t0));
        // One seal armed for the shared window: the first park undercut an
        // empty heap, the second submit joined the armed window.
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        // Not ripe yet: the window opened at the first push's clock reading.
        let (fired, head) = exec.fire_ripe(usize::MAX);
        assert!(
            fired == 0 && head >= Some(t0 + policy.max_wait_ns),
            "{head:?}"
        );
        // 20 ms real at 10_000× is 200 virtual s, far past the window: the
        // batch is overdue, but nothing fires it until the caller does.
        std::thread::sleep(Duration::from_millis(20));
        assert!(done.lock().is_empty(), "no servicer, nothing seals");
        let (fired, head) = exec.fire_ripe(usize::MAX);
        assert_eq!((fired, head), (2, None), "both jobs completed at the seal");
        assert_eq!(done.lock().len(), 1, "both jobs share the parked batch");
        exec.shutdown();
    }

    #[test]
    fn fire_ripe_stops_after_its_limit_of_jobs() {
        // Five completions parked ~39 ms out (time scale 1), all ripe by
        // the time the caller fires: a limit of 2 fires two, and the head
        // it reports is ripe already.
        let clock = Arc::new(VirtualClock::new(1));
        let done: Arc<Mutex<Vec<CompletedBatch>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = {
            let sink = Arc::clone(&done);
            Executor::serviced_by_caller(
                short_and_long_profiles(),
                Arc::clone(&clock),
                JitterSpec::NONE,
                BatchPolicy::greedy(BatchSpec::SINGLE),
                Box::new(move |b| sink.lock().push(b)),
                Box::new(|| {}),
            )
        };
        let t0 = clock.now();
        for inst in 0..5 {
            exec.submit(job(inst as u64, 1, inst, t0));
        }
        std::thread::sleep(Duration::from_millis(60));
        let (fired, head) = exec.fire_ripe(2);
        assert_eq!(fired, 2);
        assert!(head.is_some_and(|at| at <= clock.now()), "{head:?}");
        assert_eq!(exec.fire_ripe(usize::MAX), (3, None));
        assert_eq!(done.lock().len(), 5);
        exec.shutdown();
    }

    /// A short runtime next to one slow enough (Dolly, 38.7 ms per
    /// execution) that at time scale 1 its batches really sleep.
    fn short_and_long_profiles() -> Vec<RuntimeProfile> {
        let rts = vec![
            CompiledRuntime::new_static(ModelSpec::bert_base(), 64),
            CompiledRuntime::new_static(ModelSpec::dolly(), 512),
        ];
        profile_runtimes(&rts, 150.0, 64)
    }

    #[test]
    fn a_short_batch_is_not_stuck_behind_long_ones() {
        // Head-of-line regression. The old pool slept one batch per worker
        // thread: 12 long batches occupied all 8 workers (and 4 queue
        // slots), and a short batch due first waited ~38 ms behind them.
        // The heap fires completions in deadline order on one thread.
        let clock = Arc::new(VirtualClock::new(1));
        // (request id, real lag behind finished_at in ns), callback order.
        let fired: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = {
            let (clock, fired) = (Arc::clone(&clock), Arc::clone(&fired));
            Executor::new(
                short_and_long_profiles(),
                8,
                Arc::clone(&clock),
                JitterSpec::NONE,
                BatchPolicy::greedy(BatchSpec::SINGLE),
                Box::new(move |b: CompletedBatch| {
                    let lag = clock.now().saturating_sub(b.finished_at);
                    fired.lock().push((b.jobs[0].request_id, lag));
                }),
            )
        };
        let t0 = clock.now();
        for inst in 0..12 {
            exec.submit(job(inst as u64, 1, inst, t0));
        }
        const SHORT: u64 = 99;
        exec.submit(job(SHORT, 0, 12, t0));
        exec.shutdown();
        let fired = fired.lock();
        assert_eq!(fired.len(), 13, "every batch completed: {fired:?}");
        let (first, lag) = fired[0];
        assert_eq!(first, SHORT, "a long batch fired first: {fired:?}");
        assert!(
            lag < 10_000_000,
            "short batch fired {lag} ns after its finished_at"
        );
    }

    #[test]
    fn a_due_now_batch_completes_on_the_submitting_thread() {
        // At 10_000× a 1.1 virtual-ms execution spans 113 real ns: due now
        // by the 100 µs rule, so no thread hop — the callback has run, on
        // this thread, by the time submit returns.
        let clock = Arc::new(VirtualClock::new(10_000));
        let done: Arc<Mutex<Vec<(std::thread::ThreadId, CompletedBatch)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&done);
        let exec = Executor::new(
            profiles(),
            8,
            Arc::clone(&clock),
            JitterSpec::NONE,
            BatchPolicy::greedy(BatchSpec::SINGLE),
            Box::new(move |b| sink.lock().push((std::thread::current().id(), b))),
        );
        let before = clock.now();
        exec.submit(job(7, 0, 0, before));
        let after = clock.now();
        {
            let done = done.lock();
            assert_eq!(done.len(), 1, "completed before submit returned");
            let (thread, batch) = &done[0];
            assert_eq!(*thread, std::thread::current().id());
            // The schedule is the busy-until model's, untouched: an idle
            // instance starts the job at its arrival (the submit's clock
            // reading) and charges one profiled execution.
            let exec_ns = profiles()[0]
                .runtime
                .exec_nanos_jittered(32, JitterSpec::NONE, 7);
            assert!((before..=after).contains(&batch.started_at), "{batch:?}");
            assert_eq!(batch.exec_ns, exec_ns);
            assert_eq!(batch.finished_at, batch.started_at + exec_ns);
        }
        exec.shutdown();
    }

    #[test]
    fn a_job_queued_behind_a_busy_instance_completes_on_the_submitting_thread() {
        // At 1000× a 38.7 virtual-ms execution spans 38.7 real µs, so the
        // second job queues behind the first and its batch starts in the
        // future. It is a full batch, so it seals at push, and it finishes
        // inside the 100 µs due-now window: no heap entry, no thread hop.
        let clock = Arc::new(VirtualClock::new(1_000));
        let fired: Arc<Mutex<Vec<(std::thread::ThreadId, bool)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let exec = {
            let (clock, fired) = (Arc::clone(&clock), Arc::clone(&fired));
            Executor::serviced_by_caller(
                short_and_long_profiles(),
                Arc::clone(&clock),
                JitterSpec::NONE,
                BatchPolicy::greedy(BatchSpec::SINGLE),
                Box::new(move |b: CompletedBatch| {
                    let due = clock.is_due(b.finished_at, clock.now());
                    fired.lock().push((std::thread::current().id(), due));
                }),
                Box::new(|| {}),
            )
        };
        let t0 = clock.now();
        exec.submit(job(0, 1, 0, t0));
        exec.submit(job(1, 1, 0, t0));
        let me = std::thread::current().id();
        assert_eq!(
            *fired.lock(),
            vec![(me, true), (me, true)],
            "both completed, due, on this thread before the second submit returned"
        );
        exec.shutdown();
    }

    #[test]
    fn shutdown_fires_every_parked_entry() {
        // Nobody fires this caller-serviced heap, so everything that is
        // due later sits in it:
        // six completions ~39 ms out, plus on instance 0 the completion of
        // a second job queued behind the first (sealed at push, since a
        // batch-1 batch is full). shutdown() alone must fire them all.
        let clock = Arc::new(VirtualClock::new(1));
        let done: Arc<Mutex<Vec<CompletedBatch>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = {
            let sink = Arc::clone(&done);
            Executor::serviced_by_caller(
                short_and_long_profiles(),
                Arc::clone(&clock),
                JitterSpec::NONE,
                BatchPolicy::greedy(BatchSpec::SINGLE),
                Box::new(move |b| sink.lock().push(b)),
                Box::new(|| {}),
            )
        };
        let t0 = clock.now();
        for inst in 0..6 {
            exec.submit(job(inst as u64, 1, inst, t0));
        }
        exec.submit(job(6, 1, 0, t0));
        assert!(done.lock().is_empty(), "nothing is due yet");
        exec.shutdown();
        let finished_real = clock.now();
        let done = done.lock();
        let mut ids: Vec<u64> = done.iter().map(|b| b.jobs[0].request_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<u64>>(), "none dropped");
        // Fired at their deadlines, not flushed early: shutdown returned
        // no sooner than the last completion was due.
        let last = done.iter().map(|b| b.finished_at).max().expect("seven");
        assert!(clock.is_due(last, finished_real), "shutdown returned early");
        let queued = done.iter().find(|b| b.jobs[0].request_id == 6).unwrap();
        let first = done.iter().find(|b| b.jobs[0].request_id == 0).unwrap();
        assert_eq!(queued.started_at, first.finished_at);
    }

    #[test]
    fn prune_drops_idle_old_generations_only() {
        let (exec, _clock, done) = executor(2, 10_000, BatchPolicy::greedy(BatchSpec::SINGLE));
        let mut j0 = job(0, 0, 0, 0);
        j0.placement.generation = 0;
        let mut j1 = job(1, 0, 0, 0);
        j1.placement.generation = 1;
        exec.submit(j0);
        exec.submit(j1);
        assert_eq!(exec.tracked_instances(), 2);
        exec.prune_before(1);
        assert_eq!(exec.tracked_instances(), 1);
        exec.shutdown();
        let total: usize = done.lock().iter().map(|b| b.jobs.len()).sum();
        assert_eq!(total, 2, "pruning loses no jobs");
    }

    #[test]
    fn tracked_instances_stay_bounded_across_repeated_reallocations() {
        // Regression for the busy-until map leak: before eviction was wired
        // into the server's reallocation path, every generation left its
        // clock entries behind forever. Simulate 50 generations of traffic
        // with a prune after each "reallocation" and pin the bound.
        let (exec, clock, done) = executor(2, 10_000, BatchPolicy::greedy(BatchSpec::SINGLE));
        const INSTANCES: usize = 4;
        for generation in 0..50u64 {
            let t = clock.now();
            for inst in 0..INSTANCES {
                let mut j = job(generation * 10 + inst as u64, 0, inst, t);
                j.placement.generation = generation;
                exec.submit(j);
            }
            // The server calls this right after apply_allocation.
            exec.prune_before(generation);
            assert!(
                exec.tracked_instances() <= 2 * INSTANCES,
                "generation {generation}: {} keys tracked — the map leaks",
                exec.tracked_instances()
            );
        }
        exec.prune_before(50);
        assert_eq!(exec.tracked_instances(), 0, "all superseded keys evicted");
        exec.shutdown();
        let total: usize = done.lock().iter().map(|b| b.jobs.len()).sum();
        assert_eq!(total, 50 * INSTANCES, "eviction loses no jobs");
    }
}
