//! The simulated GPU cluster: instances, their queues, replacement and
//! retirement life-cycles.
//!
//! Each instance is one GPU running one compiled runtime (the paper
//! deliberately avoids co-location, §3.3). Execution is batch-1 FIFO: the
//! head request runs to completion, the rest wait. Instance replacement
//! (§4) drains the queue, swaps the runtime in ~1 s, and resumes; scale-in
//! retirement drains and releases the GPU.
//!
//! Dispatchers read each runtime's least-loaded accepting instance from an
//! exact [`LoadIndex`] (load buckets of instance bitsets, kept current on
//! every load or acceptance change), the type the live frontend's levels
//! use too: a dispatch is the O(L) Algorithm 1 walk plus, per level, a
//! head read and an update that walk none of the level's instances.

use arlo_runtime::latency::JitterSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_trace::workload::Request;
use arlo_trace::Nanos;
use std::collections::VecDeque;

/// Index of an instance within the cluster (stable for its lifetime).
pub type InstanceId = usize;

/// A runtime level's dispatch index: exactly the instances a dispatcher may
/// pick, each at its current load, ordered by `(load, id)`. Shared by the
/// simulator's [`Cluster`] and the live frontend (`arlo-core`'s
/// `SchedulerFrontend`); both read their heads through the same Algorithm 1
/// walk (`arlo-core`'s `mlq_walk`).
///
/// Load buckets: bucket `l` is a bitset of the ids held at load `l`, and
/// `min` is the lowest non-empty bucket. The head is the lowest set bit of
/// bucket `min`, which is the `(load, id)` minimum, tie-break included. The
/// index is maintained eagerly: [`LoadIndex::set`] moves one bit (and the
/// cursor, past at most the buckets the load moved over) and
/// [`LoadIndex::remove`] clears one, so nothing stale is ever held and a
/// read needs no liveness check. Trailing empty buckets are trimmed, so the
/// index holds `highest load + 1` buckets of `⌈ids / 64⌉` words each.
#[derive(Debug, Clone, Default)]
pub struct LoadIndex {
    /// The buckets' bitsets, `words` words each: bucket `l` is
    /// `bits[l * words..(l + 1) * words]`.
    bits: Vec<u64>,
    /// Ids held per bucket; the last bucket is never empty.
    counts: Vec<u32>,
    /// Words per bucket.
    words: usize,
    /// Each id's load while held, [`LoadIndex::ABSENT`] otherwise.
    at: Vec<u32>,
    /// The lowest non-empty bucket (0 while the index is empty).
    min: usize,
    /// Ids held.
    len: usize,
}

impl LoadIndex {
    /// The `at` entry of an id the index does not hold.
    const ABSENT: u32 = u32::MAX;

    /// An empty index sized for ids `0..ids`; a larger id grows it.
    pub fn with_ids(ids: usize) -> Self {
        LoadIndex {
            words: ids.div_ceil(64),
            at: vec![Self::ABSENT; ids],
            ..LoadIndex::default()
        }
    }

    /// Ids held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Buckets held: the highest held load + 1, or 0 while empty.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Words per bucket: `⌈(highest id ever held + 1) / 64⌉`, or the
    /// [`LoadIndex::with_ids`] size if larger.
    pub fn words(&self) -> usize {
        self.words
    }

    /// `id`'s load, if the index holds it.
    pub(crate) fn load_of(&self, id: InstanceId) -> Option<u32> {
        self.at.get(id).copied().filter(|&l| l != Self::ABSENT)
    }

    /// The least `(load, id)` entry, as `(id, load)`.
    pub fn head(&self) -> Option<(InstanceId, u32)> {
        if self.len == 0 {
            return None;
        }
        let bucket = &self.bits[self.min * self.words..][..self.words];
        let (word, bits) = bucket
            .iter()
            .enumerate()
            .find(|(_, bits)| **bits != 0)
            .expect("the min bucket holds an id");
        Some((word * 64 + bits.trailing_zeros() as usize, self.min as u32))
    }

    /// Every held entry as `(id, load)`, ascending by `(load, id)`, read
    /// from the bitsets.
    pub fn entries(&self) -> impl Iterator<Item = (InstanceId, u32)> + '_ {
        self.bits.iter().enumerate().flat_map(move |(i, &bits)| {
            let (load, word) = (i / self.words, i % self.words);
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| (word * 64 + b, load as u32))
        })
    }

    /// Hold `id` at `load`, inserting it or moving it from its old load.
    pub fn set(&mut self, id: InstanceId, load: u32) {
        assert!(load != Self::ABSENT, "load {load} out of range");
        self.fit(id);
        match self.at[id] {
            old if old == load => return,
            Self::ABSENT => self.len += 1,
            old => self.clear(id, old),
        }
        self.at[id] = load;
        let bucket = load as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
            self.bits.resize((bucket + 1) * self.words, 0);
        }
        self.bits[bucket * self.words + id / 64] |= 1 << (id % 64);
        self.counts[bucket] += 1;
        self.min = self.min.min(bucket);
        self.settle();
    }

    /// Stop holding `id` (a no-op if it is not held).
    pub fn remove(&mut self, id: InstanceId) {
        let Some(load) = self.load_of(id) else {
            return;
        };
        self.at[id] = Self::ABSENT;
        self.len -= 1;
        self.clear(id, load);
        self.settle();
    }

    /// Clear `id`'s bit in bucket `load`.
    fn clear(&mut self, id: InstanceId, load: u32) {
        let bucket = load as usize;
        self.bits[bucket * self.words + id / 64] &= !(1 << (id % 64));
        self.counts[bucket] -= 1;
    }

    /// Trim trailing empty buckets and move `min` up to the lowest
    /// non-empty one. Every bucket below `min` is empty on entry.
    fn settle(&mut self) {
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
        self.bits.truncate(self.counts.len() * self.words);
        if self.len == 0 {
            self.min = 0;
            return;
        }
        while self.counts[self.min] == 0 {
            self.min += 1;
        }
    }

    /// Grow the id space to hold `id`, re-laying the buckets if they need
    /// another word.
    fn fit(&mut self, id: InstanceId) {
        if id >= self.at.len() {
            self.at.resize(id + 1, Self::ABSENT);
        }
        let words = id / 64 + 1;
        if words > self.words {
            let mut bits = vec![0; self.counts.len() * words];
            if self.words > 0 {
                for (old, new) in self.bits.chunks(self.words).zip(bits.chunks_mut(words)) {
                    new[..self.words].copy_from_slice(old);
                }
            }
            self.bits = bits;
            self.words = words;
        }
    }
}

/// Publicly visible instance state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Serving requests.
    Active,
    /// Swapping runtimes; ready at the given time.
    Loading {
        /// When the swap completes.
        ready_at: Nanos,
    },
    /// Drained and released (GPU returned to the pool).
    Retired,
}

/// Batched execution configuration (the §6 "dynamic batch execution"
/// extension), re-exported from the shared [`arlo_runtime::batching`]
/// model so the simulator and the live serve executor consume one
/// implementation.
pub use arlo_runtime::batching::BatchSpec;

/// Circuit-breaker position for one instance, set by the fault-tolerance
/// layer from its health state. The gate composes with the existing
/// acceptance rules ([`InstanceState`], replacement, retirement, queue
/// bound): every dispatcher reaches instances through
/// [`ClusterView::instances_of`] / [`ClusterView::least_loaded`] /
/// [`ClusterView::accepts`], so a closed gate removes an instance from
/// *every* policy's candidate set without policy-specific code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmitGate {
    /// Normal dispatching (the default; also the state with the layer off).
    #[default]
    Open,
    /// Probation trickle: accept only while nothing is outstanding, so at
    /// most one probe request is in flight at a time.
    Probe,
    /// Quarantined: accept nothing.
    Closed,
}

/// An execution started on an instance; the driver schedules the matching
/// completion event. With batching enabled, several requests run (and
/// complete) together; [`ClusterView::running`] lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedExecution {
    /// Absolute completion time.
    pub completes_at: Nanos,
}

#[derive(Debug)]
struct Instance {
    runtime_idx: usize,
    queue: VecDeque<Request>,
    running: Vec<Request>,
    state: InstanceState,
    /// Replacement target: when set, the instance stops accepting requests,
    /// drains, then reloads as this runtime.
    pending_target: Option<usize>,
    /// Scale-in: drain then release.
    retiring: bool,
    /// Fault injection: execution-time multiplier (1.0 = healthy). Models
    /// the "idiosyncratic factors such as failures and bugs" that imbalance
    /// load across instances of the same runtime (§3.2 of the paper).
    slowdown: f64,
    /// Accumulated execution time (ns) — utilization accounting.
    busy_ns: Nanos,
    /// Start of the current execution, if any.
    busy_since: Option<Nanos>,
    /// EWMA of observed per-request execution time (ns); 0 = no samples.
    /// The live measurement a dispatcher can use instead of the offline
    /// profile, which goes stale when an instance degrades.
    ewma_exec_ns: f64,
    /// Circuit-breaker position (fault-tolerance layer).
    gate: AdmitGate,
    /// Fail-slow fault: `(started_at, ramp_per_sec)` — the execution-time
    /// multiplier grows linearly, `1 + ramp · elapsed_secs`, modelling
    /// progressive degradation (memory leaks, thermal creep).
    fail_slow: Option<(Nanos, f64)>,
}

impl Instance {
    fn outstanding(&self) -> u32 {
        self.queue.len() as u32 + self.running.len() as u32
    }

    /// Accepting requests, given this runtime's per-instance queue bound.
    ///
    /// The bound models the paper's central request buffer (workflow step
    /// (e)): requests beyond it wait in the scheduler's buffer instead of
    /// being bound early to one instance — otherwise a backlog would stay
    /// pinned to the instances that existed when it formed, invisible to
    /// newly scaled-out or reallocated instances.
    fn accepts(&self, queue_limit: u32) -> bool {
        let gate_open = match self.gate {
            AdmitGate::Open => true,
            AdmitGate::Probe => self.outstanding() == 0,
            AdmitGate::Closed => false,
        };
        gate_open
            && matches!(self.state, InstanceState::Active)
            && self.pending_target.is_none()
            && !self.retiring
            && self.outstanding() < queue_limit
    }
}

/// A read-only snapshot interface over the cluster, handed to dispatchers
/// and allocators.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    cluster: &'a Cluster,
}

impl<'a> ClusterView<'a> {
    /// Profiles of the runtime family, ascending by `max_length`.
    pub fn profiles(&self) -> &'a [RuntimeProfile] {
        &self.cluster.profiles
    }

    /// The accepting instances of runtime `runtime_idx` with their
    /// outstanding counts, ascending by id. Walks only that runtime's
    /// membership list — O(k-per-level), not O(N).
    pub fn instances_of(&self, runtime_idx: usize) -> impl Iterator<Item = (InstanceId, u32)> + '_ {
        let limit = self.cluster.queue_limits[runtime_idx];
        self.cluster.members[runtime_idx]
            .iter()
            .filter_map(move |&id| {
                let inst = &self.cluster.instances[id];
                if inst.accepts(limit) {
                    Some((id, inst.outstanding()))
                } else {
                    None
                }
            })
    }

    /// The least-loaded accepting instance of a runtime — the head of the
    /// paper's per-runtime priority queue (Fig. 5). Ties break on the lower
    /// instance id for determinism.
    ///
    /// Read from the runtime's exact [`LoadIndex`]: the lowest set bit of
    /// its lowest non-empty load bucket, a scan of at most `⌈N / 64⌉`
    /// words that walks none of the level's instances, with decisions
    /// identical to [`ClusterView::least_loaded_scan`].
    pub fn least_loaded(&self, runtime_idx: usize) -> Option<(InstanceId, u32)> {
        self.cluster.index[runtime_idx].head()
    }

    /// Reference O(N) implementation of [`ClusterView::least_loaded`] — the
    /// pre-index scan, kept for differential testing and as the
    /// `dispatch_hotpath` benchmark baseline.
    pub fn least_loaded_scan(&self, runtime_idx: usize) -> Option<(InstanceId, u32)> {
        self.instances_of_scan(runtime_idx)
            .min_by_key(|&(id, load)| (load, id))
    }

    /// Reference O(N) implementation of [`ClusterView::instances_of`].
    pub fn instances_of_scan(
        &self,
        runtime_idx: usize,
    ) -> impl Iterator<Item = (InstanceId, u32)> + '_ {
        self.cluster
            .instances
            .iter()
            .enumerate()
            .filter(move |(_, inst)| {
                inst.runtime_idx == runtime_idx
                    && inst.accepts(self.cluster.queue_limits[runtime_idx])
            })
            .map(|(id, inst)| (id, inst.outstanding()))
    }

    /// Whether any instance is *deployed* on this runtime — committed to it
    /// and not retiring — regardless of queue depth or replacement state.
    /// Dispatchers that must wait for a specific runtime (ILB) use this to
    /// distinguish "busy" from "absent".
    pub fn is_deployed(&self, runtime_idx: usize) -> bool {
        self.cluster
            .committed
            .get(runtime_idx)
            .is_some_and(|&c| c > 0)
    }

    /// Count of accepting instances per runtime, from the membership lists
    /// (O(k) per level).
    pub fn accepting_counts(&self) -> Vec<u32> {
        (0..self.cluster.profiles.len())
            .map(|rt| self.instances_of(rt).count() as u32)
            .collect()
    }

    /// Reference O(N) implementation of [`ClusterView::accepting_counts`].
    pub fn accepting_counts_scan(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.cluster.profiles.len()];
        for inst in &self.cluster.instances {
            if inst.accepts(self.cluster.queue_limits[inst.runtime_idx]) {
                counts[inst.runtime_idx] += 1;
            }
        }
        counts
    }

    /// Count of *committed* instances per runtime: accepting, loading and
    /// mid-replacement instances count toward the runtime they will run —
    /// the totals the Runtime Scheduler plans against. Incrementally
    /// maintained; O(K) to clone.
    pub fn committed_counts(&self) -> Vec<u32> {
        self.cluster.committed.clone()
    }

    /// Reference O(N) implementation of [`ClusterView::committed_counts`].
    pub fn committed_counts_scan(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.cluster.profiles.len()];
        for inst in &self.cluster.instances {
            if inst.state == InstanceState::Retired || inst.retiring {
                continue;
            }
            counts[inst.pending_target.unwrap_or(inst.runtime_idx)] += 1;
        }
        counts
    }

    /// Number of GPUs currently held (everything not retired).
    pub fn gpu_count(&self) -> u32 {
        self.cluster.live_gpus
    }

    /// Outstanding requests on one instance.
    pub fn outstanding(&self, id: InstanceId) -> u32 {
        self.cluster.instances[id].outstanding()
    }

    /// The requests of the instance's running execution, in queue order
    /// (empty while it is idle).
    pub fn running(&self, id: InstanceId) -> &'a [Request] {
        &self.cluster.instances[id].running
    }

    /// The runtime an instance currently runs.
    pub fn runtime_of(&self, id: InstanceId) -> usize {
        self.cluster.instances[id].runtime_idx
    }

    /// The instance's life-cycle state.
    pub fn state_of(&self, id: InstanceId) -> InstanceState {
        self.cluster.instances[id].state
    }

    /// Whether the instance is accepting new requests.
    pub fn accepts(&self, id: InstanceId) -> bool {
        let inst = &self.cluster.instances[id];
        inst.accepts(self.cluster.queue_limits[inst.runtime_idx])
    }

    /// Total number of instance slots ever created (including retired ones —
    /// instance ids are stable for the cluster's lifetime).
    pub fn instance_count(&self) -> usize {
        self.cluster.instances.len()
    }

    /// Total outstanding requests across all instances (incrementally
    /// maintained).
    pub fn total_outstanding(&self) -> u64 {
        self.cluster.outstanding_total
    }

    /// Accumulated execution time (ns) of one instance — its GPU busy time.
    pub fn busy_ns(&self, id: InstanceId) -> Nanos {
        self.cluster.instances[id].busy_ns
    }

    /// Live-measured capacity of one instance: requests completable within
    /// `slo_ms` at the EWMA of its *observed* per-request service times.
    /// `None` until the instance has completed at least one request. Unlike
    /// the profiled `M_i`, this tracks degradations (thermal throttling,
    /// buggy kernels) the offline profile cannot see.
    pub fn measured_capacity(&self, id: InstanceId, slo_ms: f64) -> Option<u32> {
        let ewma = self.cluster.instances[id].ewma_exec_ns;
        if ewma <= 0.0 {
            return None;
        }
        Some((slo_ms * 1e6 / ewma).floor() as u32)
    }

    /// Total GPU busy time across the cluster (ns). Divided by
    /// `gpu_count × horizon` this is the cluster utilization the paper's
    /// abstract targets ("optimizing resource utilization").
    pub fn total_busy_ns(&self) -> Nanos {
        self.cluster.instances.iter().map(|i| i.busy_ns).sum()
    }
}

/// The simulated cluster.
///
/// # Dispatch index
///
/// The naive dispatch path re-scanned every instance per decision, making
/// Algorithm 1 O(L·N). The cluster instead maintains the same indexed
/// structure as the live frontend (`arlo-core`'s `SchedulerFrontend`), and
/// both feed their level heads to one Algorithm 1 walk (`mlq_walk`):
///
/// - `members[rt]` — ids of the non-retired instances currently on runtime
///   `rt`, sorted ascending. Updated on runtime swaps, scale-out and
///   retirement, so `instances_of` walks only that runtime's k instances.
/// - `index[rt]` — a [`LoadIndex`]: exactly the accepting instances of
///   `rt`, each at its current outstanding count, in load buckets. Every
///   mutation that can change an instance's load or its `accepts()` —
///   enqueue, completion, gate, pending target, retirement, load done,
///   runtime swap, eviction, crash — calls `index_refresh`, which inserts,
///   moves or removes that one instance. `least_loaded` is then a head
///   read that walks none of the level's instances, and it agrees with a
///   fresh scan, `(load, id)` tie-break included, because the index orders
///   by exactly that tuple. The live frontend uses the same type.
/// - `committed` / `live_gpus` / `outstanding_total` — incrementally
///   maintained counters behind `committed_counts`, `gpu_count` and
///   `total_outstanding`.
///
/// `debug_validate_index` cross-checks all of this against the reference
/// scans; the differential property tests drive it through random
/// event sequences.
///
/// With no jitter, an execution's base cost is read from `exec_table`,
/// each runtime's `exec_nanos(len)` computed once at construction.
#[derive(Debug)]
pub struct Cluster {
    profiles: Vec<RuntimeProfile>,
    instances: Vec<Instance>,
    jitter: JitterSpec,
    /// Runtime-swap latency (§4: "approximately 1 second").
    replacement_latency: Nanos,
    /// Per-runtime instance queue bound (requests beyond it wait in the
    /// scheduler's central buffer).
    queue_limits: Vec<u32>,
    /// Batched-execution configuration (§6 extension; default batch 1).
    batch: BatchSpec,
    /// Per-runtime membership: sorted ids of non-retired instances whose
    /// current `runtime_idx` is the list index.
    members: Vec<Vec<InstanceId>>,
    /// Per-runtime exact load indexes over the accepting instances.
    index: Vec<LoadIndex>,
    /// `exec_table[rt][len]`: runtime `rt`'s `exec_nanos(len)` (0 at
    /// `len = 0`), read by `start_next` when there is no jitter.
    exec_table: Vec<Vec<Nanos>>,
    /// Committed (non-retiring, non-retired) instances per runtime, counting
    /// mid-replacement movers toward their target.
    committed: Vec<u32>,
    /// Non-retired instance count.
    live_gpus: u32,
    /// Total outstanding requests across all instances.
    outstanding_total: u64,
}

impl Cluster {
    /// Create a cluster with `initial_counts[i]` active instances of runtime
    /// `i`.
    pub fn new(
        profiles: Vec<RuntimeProfile>,
        initial_counts: &[u32],
        jitter: JitterSpec,
        replacement_latency: Nanos,
    ) -> Self {
        // Default queue bound: twice the SLO capacity (an instance may hold
        // up to ~2×SLO of work before the buffer takes over), floor 2 so
        // execution always pipelines.
        let limits = profiles
            .iter()
            .map(|p| (2 * p.capacity_within_slo).max(2))
            .collect();
        Self::with_queue_limits(
            profiles,
            initial_counts,
            jitter,
            replacement_latency,
            limits,
        )
    }

    /// [`Cluster::new`] with explicit per-runtime instance queue bounds.
    pub fn with_queue_limits(
        profiles: Vec<RuntimeProfile>,
        initial_counts: &[u32],
        jitter: JitterSpec,
        replacement_latency: Nanos,
        queue_limits: Vec<u32>,
    ) -> Self {
        assert_eq!(
            profiles.len(),
            initial_counts.len(),
            "one count per runtime"
        );
        assert!(!profiles.is_empty(), "need at least one runtime");
        assert_eq!(
            profiles.len(),
            queue_limits.len(),
            "one queue limit per runtime"
        );
        assert!(
            queue_limits.iter().all(|&l| l >= 1),
            "queue limits must be >= 1"
        );
        let mut instances = Vec::new();
        for (idx, &n) in initial_counts.iter().enumerate() {
            for _ in 0..n {
                instances.push(Instance {
                    runtime_idx: idx,
                    queue: VecDeque::new(),
                    running: Vec::new(),
                    state: InstanceState::Active,
                    pending_target: None,
                    retiring: false,
                    slowdown: 1.0,
                    busy_ns: 0,
                    busy_since: None,
                    ewma_exec_ns: 0.0,
                    gate: AdmitGate::Open,
                    fail_slow: None,
                });
            }
        }
        let exec_table = profiles
            .iter()
            .map(|p| {
                let runtime = &p.runtime;
                std::iter::once(0)
                    .chain((1..=runtime.max_length()).map(|len| runtime.exec_nanos(len)))
                    .collect()
            })
            .collect();
        let mut cluster = Cluster {
            profiles,
            instances,
            jitter,
            replacement_latency,
            queue_limits,
            batch: BatchSpec::SINGLE,
            members: Vec::new(),
            index: Vec::new(),
            exec_table,
            committed: Vec::new(),
            live_gpus: 0,
            outstanding_total: 0,
        };
        cluster.rebuild_index();
        cluster
    }

    /// Rebuild the dispatch index (membership lists, load indexes, counters) from
    /// scratch. Called once at construction; afterwards every mutation
    /// maintains the index incrementally.
    fn rebuild_index(&mut self) {
        let k = self.profiles.len();
        self.members = vec![Vec::new(); k];
        self.committed = vec![0; k];
        self.live_gpus = 0;
        self.outstanding_total = 0;
        self.index = vec![LoadIndex::with_ids(self.instances.len()); k];
        for (id, inst) in self.instances.iter().enumerate() {
            self.outstanding_total += u64::from(inst.outstanding());
            if inst.state == InstanceState::Retired {
                continue;
            }
            self.live_gpus += 1;
            let rt = inst.runtime_idx;
            self.members[rt].push(id);
            if !inst.retiring {
                self.committed[inst.pending_target.unwrap_or(rt)] += 1;
            }
            if inst.accepts(self.queue_limits[rt]) {
                self.index[rt].set(id, inst.outstanding());
            }
        }
    }

    /// Put `id` in its runtime's index at its current load if it accepts,
    /// and take it out if it does not — the single maintenance hook called
    /// by every mutation that can change an instance's load or its
    /// `accepts()`. An instance leaving a runtime leaves that runtime's
    /// index in `member_remove`.
    fn index_refresh(&mut self, id: InstanceId) {
        let inst = &self.instances[id];
        if inst.state == InstanceState::Retired {
            return;
        }
        let rt = inst.runtime_idx;
        if inst.accepts(self.queue_limits[rt]) {
            self.index[rt].set(id, inst.outstanding());
        } else {
            self.index[rt].remove(id);
        }
    }

    /// Remove `id` from runtime `rt`'s membership list and index.
    fn member_remove(&mut self, rt: usize, id: InstanceId) {
        let m = &mut self.members[rt];
        let pos = m
            .iter()
            .position(|&x| x == id)
            .expect("membership list out of sync");
        m.remove(pos);
        self.index[rt].remove(id);
    }

    /// Insert `id` into runtime `rt`'s membership list, keeping it sorted.
    fn member_insert(&mut self, rt: usize, id: InstanceId) {
        let m = &mut self.members[rt];
        let pos = m.partition_point(|&x| x < id);
        debug_assert!(m.get(pos) != Some(&id), "duplicate member");
        m.insert(pos, id);
    }

    /// Cross-check the incremental index against the reference scans —
    /// membership partition, counters, per-runtime `least_loaded`
    /// agreement (including tie-breaks), and each runtime's [`LoadIndex`]
    /// holding exactly its accepting members at their current loads, and
    /// nothing else, in no more buckets than the highest of those loads
    /// needs. Used by the driver's debug-build event hook and the
    /// differential tests.
    pub fn debug_validate_index(&self) {
        let view = self.view();
        assert_eq!(
            view.committed_counts(),
            view.committed_counts_scan(),
            "committed counters out of sync"
        );
        assert_eq!(
            view.accepting_counts(),
            view.accepting_counts_scan(),
            "membership lists out of sync"
        );
        let live_scan = self
            .instances
            .iter()
            .filter(|i| i.state != InstanceState::Retired)
            .count() as u32;
        assert_eq!(view.gpu_count(), live_scan, "live-GPU counter out of sync");
        let outstanding_scan: u64 = self
            .instances
            .iter()
            .map(|i| u64::from(i.outstanding()))
            .sum();
        assert_eq!(
            view.total_outstanding(),
            outstanding_scan,
            "outstanding counter out of sync"
        );
        for rt in 0..self.profiles.len() {
            assert!(
                self.members[rt].windows(2).all(|w| w[0] < w[1]),
                "membership list not sorted/deduped"
            );
            for &id in &self.members[rt] {
                assert_eq!(
                    self.instances[id].runtime_idx, rt,
                    "member on wrong runtime"
                );
                assert_ne!(
                    self.instances[id].state,
                    InstanceState::Retired,
                    "retired member"
                );
            }
            assert_eq!(
                view.least_loaded(rt),
                view.least_loaded_scan(rt),
                "indexed least_loaded diverges from the scan on runtime {rt}"
            );
            let mut accepting: Vec<(InstanceId, u32)> = view.instances_of(rt).collect();
            accepting.sort_unstable_by_key(|&(id, load)| (load, id));
            let index = &self.index[rt];
            assert_eq!(
                index.entries().collect::<Vec<_>>(),
                accepting,
                "runtime {rt}'s index does not hold exactly its accepting members"
            );
            assert_eq!(index.len(), accepting.len(), "runtime {rt}'s index count");
            for &(id, load) in &accepting {
                assert_eq!(
                    index.load_of(id),
                    Some(load),
                    "runtime {rt}'s index load of {id}"
                );
            }
            let buckets = accepting.iter().map(|&(_, load)| load as usize + 1).max();
            assert_eq!(
                index.buckets(),
                buckets.unwrap_or(0),
                "runtime {rt}'s index keeps trailing empty buckets"
            );
        }
    }

    /// Enable batched execution (§6 extension).
    pub fn with_batching(mut self, batch: BatchSpec) -> Self {
        batch.validate();
        self.batch = batch;
        self
    }

    /// Read-only view.
    pub fn view(&self) -> ClusterView<'_> {
        ClusterView { cluster: self }
    }

    /// Profiles of the runtime family.
    pub fn profiles(&self) -> &[RuntimeProfile] {
        &self.profiles
    }

    /// Enqueue a request on an instance. Returns the started execution if
    /// the instance was idle. Panics if the instance is not accepting or the
    /// request does not fit — the dispatcher contract.
    pub fn enqueue(
        &mut self,
        id: InstanceId,
        req: Request,
        now: Nanos,
    ) -> Option<StartedExecution> {
        let limit = self.queue_limits[self.instances[id].runtime_idx];
        let accepts = self.instances[id].accepts(limit);
        assert!(accepts, "dispatch to non-accepting instance {id}");
        let runtime_idx = self.instances[id].runtime_idx;
        assert!(
            self.profiles[runtime_idx].can_serve(req.length),
            "request of length {} dispatched to runtime with max_length {}",
            req.length,
            self.profiles[runtime_idx].max_length()
        );
        self.instances[id].queue.push_back(req);
        self.outstanding_total += 1;
        let started = if self.instances[id].running.is_empty() {
            Some(self.start_next(id, now).expect("queue is non-empty"))
        } else {
            None
        };
        self.index_refresh(id);
        started
    }

    /// Move the head of the queue (a batch of up to `max_batch`) into
    /// `running`, which keeps its capacity from one execution to the next.
    fn start_next(&mut self, id: InstanceId, now: Nanos) -> Option<StartedExecution> {
        let batch = self.batch;
        let inst = &mut self.instances[id];
        debug_assert!(inst.running.is_empty(), "instance already busy");
        if inst.queue.is_empty() {
            return None;
        }
        let take = batch.take(inst.queue.len());
        inst.running.extend(inst.queue.drain(..take));
        let requests = &inst.running;
        let profile = &self.profiles[inst.runtime_idx];
        // The batch pads to its longest member; jitter keys off the first
        // request so replays stay deterministic.
        let longest = requests.iter().map(|r| r.length).max().expect("non-empty");
        let base = if self.jitter == JitterSpec::NONE {
            self.exec_table[inst.runtime_idx][longest as usize]
        } else {
            profile
                .runtime
                .exec_nanos_jittered(longest, self.jitter, requests[0].id)
        };
        let degrade = inst.fail_slow.map_or(1.0, |(since, ramp)| {
            1.0 + ramp * (now.saturating_sub(since) as f64 / arlo_trace::NANOS_PER_SEC as f64)
        });
        let exec = batch.exec_ns(base, requests.len(), inst.slowdown, degrade);
        inst.busy_since = Some(now);
        Some(StartedExecution {
            completes_at: now + exec,
        })
    }

    /// Handle an execution completion. The finished requests (one, or a
    /// whole batch) are swapped into `finished`, whose previous contents are
    /// dropped: the caller owns that buffer and passes it back on its next
    /// completion, so neither side allocates per execution. Returns the next
    /// started execution (if any) and whether the instance entered the
    /// `Loading` state (the driver must schedule [`Event::LoadDone`]).
    ///
    /// [`Event::LoadDone`]: crate::event::Event::LoadDone
    pub fn complete(
        &mut self,
        id: InstanceId,
        now: Nanos,
        finished: &mut Vec<Request>,
    ) -> CompletionOutcome {
        finished.clear();
        std::mem::swap(&mut self.instances[id].running, finished);
        assert!(!finished.is_empty(), "completion event for idle instance");
        if let Some(since) = self.instances[id].busy_since.take() {
            let duration = now - since;
            self.instances[id].busy_ns += duration;
            // Per-request observed service time (a batch shares its cost).
            let per_request = duration as f64 / finished.len() as f64;
            const ALPHA: f64 = 0.2;
            let ewma = &mut self.instances[id].ewma_exec_ns;
            *ewma = if *ewma == 0.0 {
                per_request
            } else {
                ALPHA * per_request + (1.0 - ALPHA) * *ewma
            };
        }
        self.outstanding_total -= finished.len() as u64;
        let next = self.start_next(id, now);
        let mut loading_until = None;
        if next.is_none() {
            loading_until = self.settle_idle(id, now);
        }
        self.index_refresh(id);
        CompletionOutcome {
            next,
            loading_until,
        }
    }

    /// Transition a freshly idle instance through any pending replacement or
    /// retirement. Returns `Some(ready_at)` if it started loading.
    fn settle_idle(&mut self, id: InstanceId, now: Nanos) -> Option<Nanos> {
        let inst = &mut self.instances[id];
        debug_assert!(inst.running.is_empty() && inst.queue.is_empty());
        if inst.retiring {
            inst.state = InstanceState::Retired;
            inst.retiring = false;
            let rt = inst.runtime_idx;
            self.live_gpus -= 1;
            self.member_remove(rt, id);
            return None;
        }
        if let Some(target) = inst.pending_target.take() {
            let from = inst.runtime_idx;
            inst.runtime_idx = target;
            let ready_at = now + self.replacement_latency;
            inst.state = InstanceState::Loading { ready_at };
            if from != target {
                self.member_remove(from, id);
                self.member_insert(target, id);
            }
            return Some(ready_at);
        }
        None
    }

    /// Finish loading: the instance becomes active. Returns `false` for
    /// stale events — a crash mid-load reschedules the ready time, leaving
    /// the original `LoadDone` event pointing at the past state.
    pub fn load_done(&mut self, id: InstanceId, now: Nanos) -> bool {
        let inst = &mut self.instances[id];
        match inst.state {
            InstanceState::Loading { ready_at } if ready_at <= now => {
                inst.state = InstanceState::Active;
                self.index_refresh(id);
                true
            }
            _ => false,
        }
    }

    /// Apply (one step of) a new target allocation, replacing instances
    /// with minimal churn (§4, "Instance replacement").
    ///
    /// The paper carries replacement out "in small batches to prevent
    /// excessive traffic pressure on uninvolved instances": at most
    /// `max_concurrent_swaps` instances may be mid-swap (draining or
    /// loading) at once. Call this again whenever a swap finishes (the
    /// driver does so on every `LoadDone`) until the committed counts reach
    /// the target — each call is an idempotent step toward it.
    ///
    /// Idle movers begin loading immediately and are returned with their
    /// ready times; busy movers drain first. `target` must sum to the
    /// current committed GPU count.
    pub fn apply_allocation(
        &mut self,
        target: &[u32],
        now: Nanos,
        max_concurrent_swaps: usize,
    ) -> Vec<(InstanceId, Nanos)> {
        assert_eq!(target.len(), self.profiles.len(), "one target per runtime");
        let committed = self.view().committed_counts();
        let total: u32 = committed.iter().sum();
        assert_eq!(
            target.iter().sum::<u32>(),
            total,
            "target allocation must use exactly the committed GPUs"
        );
        let in_flight = self
            .instances
            .iter()
            .filter(|inst| {
                inst.pending_target.is_some() || matches!(inst.state, InstanceState::Loading { .. })
            })
            .count();
        let budget = max_concurrent_swaps.saturating_sub(in_flight);
        if budget == 0 {
            return Vec::new();
        }
        // Per-runtime surplus/deficit in committed terms.
        let mut deficit: Vec<u32> = Vec::with_capacity(target.len());
        let mut surplus: Vec<u32> = Vec::with_capacity(target.len());
        for (t, c) in target.iter().zip(&committed) {
            deficit.push(t.saturating_sub(*c));
            surplus.push(c.saturating_sub(*t));
        }
        // Candidates for re-targeting: committed, not-yet-moving instances
        // of surplus runtimes, least-loaded first (drain fastest).
        let mut movers: Vec<(u32, InstanceId)> = Vec::new();
        let mut take_per_rt: Vec<u32> = vec![0; target.len()];
        let mut candidates: Vec<(u32, InstanceId, usize)> = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| {
                inst.state == InstanceState::Active
                    && !inst.retiring
                    && inst.pending_target.is_none()
            })
            .map(|(id, inst)| (inst.outstanding(), id, inst.runtime_idx))
            .collect();
        candidates.sort_unstable();
        for (load, id, rt) in candidates {
            if movers.len() >= budget {
                break;
            }
            if take_per_rt[rt] < surplus[rt] {
                take_per_rt[rt] += 1;
                movers.push((load, id));
            }
        }
        // Assign movers to deficit runtimes, largest deficit first.
        let mut order: Vec<usize> = (0..target.len()).collect();
        order.sort_by_key(|&rt| std::cmp::Reverse(deficit[rt]));
        let mut started_loading = Vec::new();
        let mut mover_iter = movers.into_iter();
        'outer: for &rt in &order {
            for _ in 0..deficit[rt] {
                let Some((_, id)) = mover_iter.next() else {
                    break 'outer;
                };
                let inst = &mut self.instances[id];
                let from = inst.runtime_idx;
                inst.pending_target = Some(rt);
                let idle = inst.running.is_empty() && inst.queue.is_empty();
                // Committed counts move at commit time, not at swap time.
                self.committed[from] -= 1;
                self.committed[rt] += 1;
                if idle {
                    if let Some(ready_at) = self.settle_idle(id, now) {
                        started_loading.push((id, ready_at));
                    }
                }
                self.index_refresh(id);
            }
        }
        started_loading
    }

    /// True when the committed allocation equals `target` and no swap is in
    /// flight — i.e. [`Cluster::apply_allocation`] has fully converged.
    pub fn allocation_converged(&self, target: &[u32]) -> bool {
        self.view().committed_counts() == target
            && self.instances.iter().all(|inst| {
                inst.pending_target.is_none()
                    && !matches!(inst.state, InstanceState::Loading { .. })
            })
    }

    /// Scale-out: add a GPU loading runtime `runtime_idx` (§4: new workers
    /// load the maximum-length runtime). Returns the instance id and its
    /// ready time.
    pub fn add_instance(&mut self, runtime_idx: usize, now: Nanos) -> (InstanceId, Nanos) {
        assert!(
            runtime_idx < self.profiles.len(),
            "runtime index out of range"
        );
        let ready_at = now + self.replacement_latency;
        self.instances.push(Instance {
            runtime_idx,
            queue: VecDeque::new(),
            running: Vec::new(),
            state: InstanceState::Loading { ready_at },
            pending_target: None,
            retiring: false,
            slowdown: 1.0,
            busy_ns: 0,
            busy_since: None,
            ewma_exec_ns: 0.0,
            gate: AdmitGate::Open,
            fail_slow: None,
        });
        let id = self.instances.len() - 1;
        self.member_insert(runtime_idx, id);
        self.committed[runtime_idx] += 1;
        self.live_gpus += 1;
        (id, ready_at)
    }

    /// Scale-in: retire an instance (drains first if busy). Returns `true`
    /// if it retired immediately.
    pub fn retire_instance(&mut self, id: InstanceId, _now: Nanos) -> bool {
        let inst = &mut self.instances[id];
        assert!(
            inst.state != InstanceState::Retired,
            "instance already retired"
        );
        // The instance was committed toward its replacement target (or its
        // current runtime); retiring uncommits it immediately. Re-retiring
        // an already-draining instance is an idempotent no-op for the
        // counter.
        let was_retiring = inst.retiring;
        let committed_rt = inst.pending_target.take().unwrap_or(inst.runtime_idx);
        let rt = inst.runtime_idx;
        let idle = inst.running.is_empty() && inst.queue.is_empty();
        if idle {
            inst.state = InstanceState::Retired;
            inst.retiring = false;
        } else {
            inst.retiring = true;
        }
        if !was_retiring {
            self.committed[committed_rt] -= 1;
        }
        if idle {
            self.member_remove(rt, id);
            self.live_gpus -= 1;
        } else {
            self.index_refresh(id);
        }
        idle
    }

    /// Fault injection: set an instance's execution-time multiplier
    /// (1.0 = healthy; e.g. 3.0 = a thermally throttled or buggy worker).
    /// Only future executions are affected.
    pub fn set_slowdown(&mut self, id: InstanceId, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown must be positive"
        );
        self.instances[id].slowdown = factor;
    }

    /// Fault injection: progressive fail-slow degradation starting at `now`.
    /// Future executions cost `1 + ramp_per_sec · elapsed_secs` times more,
    /// on top of any [`Cluster::set_slowdown`] factor.
    pub fn set_fail_slow(&mut self, id: InstanceId, now: Nanos, ramp_per_sec: f64) {
        assert!(
            ramp_per_sec >= 0.0 && ramp_per_sec.is_finite(),
            "fail-slow ramp must be non-negative"
        );
        self.instances[id].fail_slow = Some((now, ramp_per_sec));
    }

    /// Clear a fail-slow fault (future executions cost the normal amount).
    pub fn clear_fail_slow(&mut self, id: InstanceId) {
        self.instances[id].fail_slow = None;
    }

    /// Set an instance's circuit-breaker gate (fault-tolerance layer).
    /// A ban takes the instance out of its runtime's index; an un-ban
    /// (`Closed` → `Open`/`Probe`) puts it back at its current load.
    pub fn set_admit_gate(&mut self, id: InstanceId, gate: AdmitGate) {
        self.instances[id].gate = gate;
        self.index_refresh(id);
    }

    /// Evict all *queued* (not yet running) requests from an instance —
    /// the fault-tolerance layer pulls a quarantined instance's backlog back
    /// into the central buffer instead of letting it drain at degraded
    /// speed. The running execution, if any, finishes normally.
    pub fn evict_queued(&mut self, id: InstanceId) -> Vec<Request> {
        let drained: Vec<Request> = self.instances[id].queue.drain(..).collect();
        self.outstanding_total -= drained.len() as u64;
        self.index_refresh(id);
        drained
    }

    /// Fault injection: crash an instance. Its running request and queue
    /// are returned (the driver re-buffers them); the instance reloads its
    /// runtime (the replacement latency) and resumes. Returns
    /// `(orphaned requests, ready_at, had_running)` — `had_running` tells
    /// the driver to ignore the in-flight completion event.
    pub fn crash_instance(&mut self, id: InstanceId, now: Nanos) -> (Vec<Request>, Nanos, bool) {
        let inst = &mut self.instances[id];
        assert!(
            inst.state != InstanceState::Retired,
            "cannot crash a retired instance"
        );
        let mut orphans: Vec<Request> = Vec::with_capacity(inst.queue.len() + 1);
        let had_running = !inst.running.is_empty();
        if let Some(since) = inst.busy_since.take() {
            inst.busy_ns += now.saturating_sub(since); // wasted but occupied
        }
        orphans.append(&mut inst.running);
        orphans.extend(inst.queue.drain(..));
        let ready_at = now + self.replacement_latency;
        inst.state = InstanceState::Loading { ready_at };
        // A pending replacement target survives the crash: the reload loads
        // the target runtime directly.
        if let Some(target) = inst.pending_target.take() {
            let from = inst.runtime_idx;
            inst.runtime_idx = target;
            if from != target {
                self.member_remove(from, id);
                self.member_insert(target, id);
            }
        }
        self.outstanding_total -= orphans.len() as u64;
        self.index_refresh(id);
        (orphans, ready_at, had_running)
    }

    /// The least-busy accepting instance across the whole cluster (the
    /// auto-scaler's scale-in victim). The global minimum of the per-runtime
    /// index heads — O(K) head reads instead of a full scan, with the same
    /// `(outstanding, id)` tie-break.
    pub fn least_busy_instance(&self) -> Option<InstanceId> {
        let view = self.view();
        (0..self.profiles.len())
            .filter_map(|rt| view.least_loaded(rt))
            .min_by_key(|&(id, load)| (load, id))
            .map(|(id, _)| id)
    }
}

/// Result of [`Cluster::complete`].
#[derive(Debug, Clone, Copy)]
pub struct CompletionOutcome {
    /// The next execution started on this instance, if its queue was
    /// non-empty.
    pub next: Option<StartedExecution>,
    /// If the instance began a runtime swap, when it will be ready.
    pub loading_until: Option<Nanos>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::latency::CompiledRuntime;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::RuntimeProfile;

    fn profiles() -> Vec<RuntimeProfile> {
        let model = ModelSpec::bert_base();
        [64u32, 256, 512]
            .iter()
            .map(|&l| {
                RuntimeProfile::measure(CompiledRuntime::new_static(model.clone(), l), 150.0, 64)
            })
            .collect()
    }

    fn req(id: u64, len: u32, at: Nanos) -> Request {
        Request {
            id,
            arrival: at,
            length: len,
        }
    }

    fn cluster(counts: &[u32]) -> Cluster {
        Cluster::new(profiles(), counts, JitterSpec::NONE, 1_000_000_000)
    }

    #[test]
    fn enqueue_starts_idle_instance() {
        let mut c = cluster(&[1, 1, 1]);
        let started = c.enqueue(0, req(1, 50, 0), 0).expect("idle start");
        assert_eq!(c.view().running(0), [req(1, 50, 0)]);
        let exec = c.profiles()[0].runtime.exec_nanos(50);
        assert_eq!(started.completes_at, exec);
        // Second request queues behind.
        assert!(c.enqueue(0, req(2, 60, 10), 10).is_none());
        assert_eq!(c.view().outstanding(0), 2);
    }

    #[test]
    fn completion_starts_next_request() {
        let mut c = cluster(&[1, 0, 0]);
        c.enqueue(0, req(1, 50, 0), 0);
        c.enqueue(0, req(2, 60, 0), 0);
        let mut finished = Vec::new();
        let out = c.complete(0, 100, &mut finished);
        assert_eq!(finished, [req(1, 50, 0)]);
        let next = out.next.expect("second starts");
        assert_eq!(c.view().running(0), [req(2, 60, 0)]);
        assert!(next.completes_at > 100);
        let out2 = c.complete(0, next.completes_at, &mut finished);
        assert_eq!(finished, [req(2, 60, 0)]);
        assert!(out2.next.is_none());
        assert!(c.view().running(0).is_empty());
        assert_eq!(c.view().outstanding(0), 0);
    }

    #[test]
    #[should_panic(expected = "max_length")]
    fn rejects_oversized_request() {
        let mut c = cluster(&[1, 0, 0]);
        c.enqueue(0, req(1, 100, 0), 0); // instance 0 runs the 64 runtime
    }

    #[test]
    fn least_loaded_picks_minimum() {
        let mut c = cluster(&[2, 0, 1]);
        c.enqueue(0, req(1, 30, 0), 0);
        c.enqueue(0, req(2, 30, 0), 0);
        c.enqueue(1, req(3, 30, 0), 0);
        let (id, load) = c.view().least_loaded(0).expect("instances exist");
        assert_eq!((id, load), (1, 1));
        assert_eq!(c.view().least_loaded(1), None); // no instances of runtime 1
    }

    #[test]
    fn replacement_drains_then_loads() {
        let mut c = cluster(&[2, 0, 1]);
        c.enqueue(0, req(1, 30, 0), 0);
        // Move one 64-instance to runtime 1 (256).
        let loading = c.apply_allocation(&[1, 1, 1], 0, 64);
        // The idle instance (id 1) swaps immediately.
        assert_eq!(loading.len(), 1);
        let (moved, ready) = loading[0];
        assert_eq!(moved, 1);
        assert_eq!(ready, 1_000_000_000);
        assert!(!c.view().accepts(1));
        assert!(c.load_done(1, 1_000_000_000));
        assert!(c.view().accepts(1));
        assert_eq!(c.view().runtime_of(1), 1);
        assert_eq!(c.view().accepting_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn replacement_prefers_idle_instances() {
        let mut c = cluster(&[2, 0, 1]);
        c.enqueue(0, req(1, 30, 0), 0); // instance 0 busy
        let loading = c.apply_allocation(&[1, 1, 1], 0, 64);
        // Idle instance 1 is chosen over busy instance 0.
        assert_eq!(loading[0].0, 1);
        assert!(c.view().accepts(0), "busy instance keeps serving");
    }

    #[test]
    fn busy_instance_swaps_after_draining() {
        let mut c = cluster(&[1, 0, 1]);
        let started = c.enqueue(0, req(1, 30, 0), 0).expect("starts");
        c.apply_allocation(&[0, 1, 1], 0, 64);
        assert!(
            !c.view().accepts(0),
            "mid-replacement instances stop accepting"
        );
        let out = c.complete(0, started.completes_at, &mut Vec::new());
        let ready = out.loading_until.expect("starts loading after drain");
        assert_eq!(ready, started.completes_at + 1_000_000_000);
        assert!(c.load_done(0, ready));
        assert_eq!(c.view().runtime_of(0), 1);
    }

    #[test]
    fn committed_counts_track_pending_targets() {
        let mut c = cluster(&[2, 0, 1]);
        c.enqueue(0, req(1, 30, 0), 0);
        c.apply_allocation(&[1, 1, 1], 0, 64);
        assert_eq!(c.view().committed_counts(), vec![1, 1, 1]);
        // Accepting counts differ while the mover loads.
        assert_eq!(c.view().accepting_counts(), vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "committed GPUs")]
    fn allocation_must_conserve_gpus() {
        let mut c = cluster(&[2, 0, 1]);
        c.apply_allocation(&[2, 2, 1], 0, 64);
    }

    #[test]
    fn scale_out_adds_loading_instance() {
        let mut c = cluster(&[1, 0, 1]);
        let (id, ready) = c.add_instance(2, 5);
        assert_eq!(id, 2);
        assert_eq!(ready, 5 + 1_000_000_000);
        assert_eq!(c.view().gpu_count(), 3);
        assert!(!c.view().accepts(id));
        assert!(!c.load_done(id, ready - 1), "early LoadDone is stale");
        assert!(c.load_done(id, ready));
        assert!(c.view().accepts(id));
    }

    #[test]
    fn retire_idle_immediately_busy_after_drain() {
        let mut c = cluster(&[2, 0, 1]);
        let started = c.enqueue(0, req(1, 30, 0), 0).expect("starts");
        assert!(c.retire_instance(1, 0), "idle retires now");
        assert_eq!(c.view().gpu_count(), 2);
        assert!(!c.retire_instance(0, 0), "busy drains first");
        let out = c.complete(0, started.completes_at, &mut Vec::new());
        assert!(out.next.is_none() && out.loading_until.is_none());
        assert_eq!(c.view().gpu_count(), 1);
    }

    #[test]
    fn replacement_batches_respect_swap_budget() {
        // 4 idle small instances must all move to the big runtime, but only
        // 2 may swap at a time.
        let mut c = cluster(&[4, 0, 1]);
        let target = [0u32, 4, 1];
        let first = c.apply_allocation(&target, 0, 2);
        assert_eq!(first.len(), 2, "only the budgeted batch starts");
        assert!(!c.allocation_converged(&target));
        // No further movers while both slots are in flight.
        assert!(c.apply_allocation(&target, 1, 2).is_empty());
        for (id, ready) in first {
            assert!(c.load_done(id, ready));
        }
        let second = c.apply_allocation(&target, 2_000_000_000, 2);
        assert_eq!(second.len(), 2);
        for (id, ready) in second {
            assert!(c.load_done(id, ready));
        }
        assert!(c.allocation_converged(&target));
        assert_eq!(c.view().accepting_counts(), vec![0, 4, 1]);
    }

    #[test]
    fn alternating_enqueue_and_complete_keeps_the_index_exact() {
        // Outstanding 0 → 1 → 0 on every request with no dispatch read in
        // between: the index moves one bit each way and holds nothing else.
        let mut c = cluster(&[2, 0, 1]);
        let (mut now, mut finished) = (0, Vec::new());
        for id in 0..100_000 {
            let started = c.enqueue(0, req(id, 30, now), now).expect("idle start");
            now = started.completes_at;
            c.complete(0, now, &mut finished);
        }
        assert_eq!(c.index[0].entries().collect::<Vec<_>>(), [(0, 0), (1, 0)]);
        assert_eq!((c.index[0].buckets(), c.index[0].words()), (1, 1));
        c.debug_validate_index();
        assert_eq!(c.view().least_loaded(0), Some((0, 0)));
        c.enqueue(0, req(100_000, 30, now), now);
        assert_eq!(c.view().least_loaded(0), Some((1, 0)));
    }

    #[test]
    fn load_index_orders_by_load_then_id() {
        let mut index = LoadIndex::with_ids(3);
        assert_eq!(index.head(), None);
        for (id, load) in [(2, 1), (1, 1), (0, 3)] {
            index.set(id, load);
        }
        assert_eq!(index.head(), Some((1, 1)), "ties break on the lower id");
        index.set(1, 5);
        assert_eq!(index.head(), Some((2, 1)));
        index.remove(2);
        assert_eq!(index.head(), Some((0, 3)), "the cursor skips empty buckets");
        index.set(0, 6);
        assert_eq!(index.head(), Some((1, 5)));
        assert_eq!(index.buckets(), 7);
        index.remove(0);
        assert_eq!(index.buckets(), 6, "trailing empty buckets are trimmed");
        index.remove(0);
        index.remove(1);
        assert_eq!(index.len(), 0);
        assert_eq!((index.head(), index.buckets()), (None, 0));
        // An id past the sized range re-lays the buckets at two words.
        index.set(1, 2);
        index.set(70, 2);
        index.set(64, 0);
        assert_eq!(index.words(), 2);
        assert_eq!(
            index.entries().collect::<Vec<_>>(),
            [(64, 0), (1, 2), (70, 2)]
        );
        index.remove(64);
        assert_eq!(index.head(), Some((1, 2)));
        assert_eq!(index.load_of(70), Some(2));
        assert_eq!(index.load_of(64), None);
    }

    #[test]
    fn unjittered_executions_cost_exactly_the_runtimes_exec_nanos() {
        // `start_next` reads the precomputed table when there is no jitter:
        // every length of every runtime costs what the runtime says.
        let c = cluster(&[1, 1, 1]);
        for (rt, profile) in c.profiles().iter().enumerate() {
            for len in 1..=profile.max_length() {
                assert_eq!(
                    c.exec_table[rt][len as usize],
                    profile
                        .runtime
                        .exec_nanos_jittered(len, JitterSpec::NONE, u64::from(len)),
                );
            }
        }
    }

    #[test]
    fn reused_batch_buffers_stay_exact_across_a_crash() {
        // Batches of up to 4 on one instance: the driver's `finished` buffer
        // and the instance's `running` buffer are swapped, never rebuilt, so
        // a stale request left in either would surface as a wrong batch.
        let mut c = cluster(&[1, 0, 0]).with_batching(BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        });
        let first = c.enqueue(0, req(0, 30, 0), 0).expect("idle start");
        for id in 1..6 {
            assert!(c.enqueue(0, req(id, 30, 0), 0).is_none());
        }
        let mut finished = Vec::new();
        let out = c.complete(0, first.completes_at, &mut finished);
        assert_eq!(finished, [req(0, 30, 0)]);
        assert!(out.next.is_some(), "a batch of four starts");
        let batch: Vec<Request> = (1..5).map(|id| req(id, 30, 0)).collect();
        assert_eq!(c.view().running(0), &batch[..]);
        // Crash mid-batch: the running batch, then the queue, are orphaned
        // in order, and the instance reloads.
        let (orphans, ready, had_running) = c.crash_instance(0, first.completes_at + 1);
        assert!(had_running);
        let orphaned: Vec<Request> = (1..6).map(|id| req(id, 30, 0)).collect();
        assert_eq!(orphans, orphaned);
        assert!(c.view().running(0).is_empty());
        assert_eq!(c.view().outstanding(0), 0);
        assert!(c.load_done(0, ready));
        // After the reload: one request starts alone, two batch behind it.
        let alone = c.enqueue(0, req(6, 30, ready), ready).expect("idle start");
        assert_eq!(c.view().running(0), [req(6, 30, ready)]);
        c.enqueue(0, req(7, 30, ready), ready);
        c.enqueue(0, req(8, 30, ready), ready);
        let out = c.complete(0, alone.completes_at, &mut finished);
        assert_eq!(finished, [req(6, 30, ready)], "the old batch is gone");
        let pair = out.next.expect("the pair starts");
        assert_eq!(c.view().running(0), [req(7, 30, ready), req(8, 30, ready)]);
        let out = c.complete(0, pair.completes_at, &mut finished);
        assert_eq!(finished, [req(7, 30, ready), req(8, 30, ready)]);
        assert!(out.next.is_none() && c.view().running(0).is_empty());
        assert_eq!(c.view().outstanding(0), 0);
        c.debug_validate_index();
    }

    #[test]
    fn least_busy_instance_for_scale_in() {
        let mut c = cluster(&[2, 0, 1]);
        c.enqueue(0, req(1, 30, 0), 0);
        c.enqueue(2, req(2, 500, 0), 0);
        c.enqueue(2, req(3, 500, 0), 0);
        assert_eq!(c.least_busy_instance(), Some(1));
    }
}
