//! The simulation driver: wires traces, policies, the cluster and the
//! event queue into a run, and produces a [`SimReport`].
//!
//! This is the Rust counterpart of the paper's ~2000-LoC Python
//! discrete-event simulator (§4): it "models the process of periodic
//! resource allocation, instance replacement, request dispatching and batch
//! execution". Policies plug in through two traits so the same driver runs
//! Arlo, ST, DT, INFaaS and every ablation:
//!
//! * [`Dispatcher`] — per-request instance selection (the Request Scheduler
//!   seat).
//! * [`Allocator`] — periodic instance-count selection (the Runtime
//!   Scheduler seat).

use crate::cluster::{AdmitGate, BatchSpec, Cluster, ClusterView, InstanceId, StartedExecution};
use crate::event::{Event, EventQueue};
use crate::health::{Admission, HealthConfig, HealthRegistry, HealthState, HealthTransition};
use crate::metrics::{JournalEntry, RequestRecord, ShedReason, ShedRecord, SimReport};
use arlo_runtime::latency::JitterSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_trace::stats::{percentile, TimeWeighted};
use arlo_trace::workload::{BuildWordHasher, Request, Trace};
use arlo_trace::{ms_to_nanos, secs_to_nanos, Nanos};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Sub-window granularity for burst-structure accounting (10 s).
const SUB_WINDOW: Nanos = 10 * arlo_trace::NANOS_PER_SEC;

/// Health-registry sweep period with the fault-tolerance layer on (100 ms):
/// fine enough that quarantine cooldowns and stuck-dispatch detection keep
/// sub-SLO granularity, coarse enough to stay cheap.
const HEALTH_TICK: Nanos = 100 * arlo_trace::NANOS_PER_MS;

/// Per-request instance selection policy (the Request Scheduler seat).
pub trait Dispatcher {
    /// Pick an accepting instance for the request, or `None` if no
    /// accepting instance can serve it (the driver buffers the request and
    /// retries when capacity frees up).
    fn dispatch(&mut self, req: &Request, view: &ClusterView<'_>) -> Option<InstanceId>;

    /// Human-readable policy name, for reports.
    fn name(&self) -> &'static str {
        "dispatcher"
    }
}

/// Observed arrivals since the previous allocation tick, broken down by
/// ideal-runtime length bin — the "history request distribution pattern"
/// the Runtime Scheduler consumes (workflow step (a)).
#[derive(Debug, Clone, PartialEq)]
pub struct DemandWindow {
    /// Arrival counts per runtime bin over the whole window.
    pub bin_counts: Vec<u64>,
    /// Window duration (ns).
    pub window: Nanos,
    /// The stream's SLO (ms).
    pub slo_ms: f64,
    /// Arrival counts per bin in consecutive sub-windows (burst structure):
    /// `sub_counts[k][i]` is bin `i`'s count in the `k`-th sub-window.
    pub sub_counts: Vec<Vec<u64>>,
    /// Sub-window duration (ns); 0 when no sub-structure was recorded.
    pub sub_window: Nanos,
}

impl DemandWindow {
    /// A window with no sub-window structure (tests, simple allocators).
    pub fn flat(bin_counts: Vec<u64>, window: Nanos, slo_ms: f64) -> Self {
        DemandWindow {
            bin_counts,
            window,
            slo_ms,
            sub_counts: Vec::new(),
            sub_window: 0,
        }
    }

    /// `Q_i`: average requests per SLO period in each bin (§3.3).
    pub fn demand_per_slo(&self) -> Vec<f64> {
        let window_ms = self.window as f64 / 1e6;
        if window_ms <= 0.0 {
            return vec![0.0; self.bin_counts.len()];
        }
        self.bin_counts
            .iter()
            .map(|&c| c as f64 * self.slo_ms / window_ms)
            .collect()
    }

    /// `Q_i` provisioned to the `q`-quantile of per-sub-window demand
    /// instead of the window mean.
    ///
    /// Bursty streams make the mean a dangerous provisioning target: a bin
    /// whose demand is zero in most sub-windows but spikes in a few gets
    /// almost no instances, and — uniquely for the *longest* bins — there
    /// is no larger runtime to demote the spike to. Quantile provisioning
    /// keeps exactly the slack the fluctuation requires. Falls back to the
    /// mean when no sub-structure was recorded.
    pub fn demand_quantile_per_slo(&self, q: f64) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.sub_counts.is_empty() || self.sub_window == 0 {
            return self.demand_per_slo();
        }
        let sub_ms = self.sub_window as f64 / 1e6;
        let bins = self.bin_counts.len();
        let mut out = Vec::with_capacity(bins);
        let mut scratch: Vec<f64> = Vec::with_capacity(self.sub_counts.len());
        for bin in 0..bins {
            scratch.clear();
            scratch.extend(
                self.sub_counts
                    .iter()
                    .map(|sub| sub.get(bin).copied().unwrap_or(0) as f64 * self.slo_ms / sub_ms),
            );
            out.push(arlo_trace::stats::percentile(&scratch, q * 100.0));
        }
        out
    }

    /// Total arrivals in the window.
    pub fn total(&self) -> u64 {
        self.bin_counts.iter().sum()
    }
}

/// The Runtime Scheduler's demand recorder, shared by the simulator's
/// allocation tick and the live engine: arrivals since the last decision,
/// binned by ideal runtime and counted per sub-window. Arrivals past
/// 4 × the decision period fold into the last sub-window, so its memory
/// stays bounded when no decision comes.
#[derive(Debug, Clone)]
pub struct DemandRecorder {
    max_lengths: Vec<u32>,
    slo_ms: f64,
    sub_window: Nanos,
    max_subs: usize,
    started: Nanos,
    sub_counts: Vec<Vec<u64>>,
}

impl DemandRecorder {
    /// A recorder over a runtime family's `max_lengths` (ascending), for a
    /// stream with an `slo_ms` SLO, deciding every `period` with
    /// `sub_window` sub-windows; its first window starts at 0.
    pub fn new(max_lengths: Vec<u32>, slo_ms: f64, period: Nanos, sub_window: Nanos) -> Self {
        DemandRecorder {
            max_lengths,
            slo_ms,
            sub_window,
            max_subs: ((period / sub_window) as usize).saturating_mul(4).max(1),
            started: 0,
            sub_counts: Vec::new(),
        }
    }

    /// The bin (ideal runtime) of a `length`-token request: the smallest
    /// runtime that serves it, `None` when none serves `length` (0, or past
    /// the largest runtime).
    fn bin_of(&self, length: u32) -> Option<usize> {
        let bin = self.max_lengths.partition_point(|&l| l < length);
        (length >= 1 && bin < self.max_lengths.len()).then_some(bin)
    }

    /// Count an arrival of `length` tokens at `now` and return its bin; a
    /// length no runtime serves records nothing. An arrival before the
    /// window's start counts in its first sub-window.
    pub fn record(&mut self, length: u32, now: Nanos) -> Option<usize> {
        let bin = self.bin_of(length)?;
        let sub =
            ((now.saturating_sub(self.started) / self.sub_window) as usize).min(self.max_subs - 1);
        if self.sub_counts.len() <= sub {
            let bins = self.max_lengths.len();
            self.sub_counts.resize_with(sub + 1, || vec![0; bins]);
        }
        self.sub_counts[sub][bin] += 1;
        Some(bin)
    }

    /// When the current window started.
    pub fn started(&self) -> Nanos {
        self.started
    }

    /// Hand over the window ending at `now` and start the next one there.
    pub fn take(&mut self, now: Nanos) -> DemandWindow {
        let sub_counts = std::mem::take(&mut self.sub_counts);
        let bin_counts = (0..self.max_lengths.len())
            .map(|bin| sub_counts.iter().map(|sub| sub[bin]).sum())
            .collect();
        let window = DemandWindow {
            bin_counts,
            window: now.saturating_sub(self.started),
            slo_ms: self.slo_ms,
            sub_counts,
            sub_window: self.sub_window,
        };
        self.started = now;
        window
    }
}

/// Periodic instance-count selection policy (the Runtime Scheduler seat).
pub trait Allocator {
    /// Return the target instance count per runtime (must sum to the
    /// cluster's committed GPU count), or `None` to leave the deployment
    /// unchanged.
    fn allocate(
        &mut self,
        now: Nanos,
        window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>>;

    /// Human-readable policy name, for reports.
    fn name(&self) -> &'static str {
        "allocator"
    }
}

/// An allocator that never changes the deployment (ST/DT baselines).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopAllocator;

impl Allocator for NoopAllocator {
    fn allocate(
        &mut self,
        _now: Nanos,
        _window: &DemandWindow,
        _view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        None
    }

    fn name(&self) -> &'static str {
        "noop"
    }
}

/// Target-tracking auto-scaling configuration (§4).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AutoScaleConfig {
    /// Scale-out check period (s).
    pub check_period_secs: f64,
    /// Scale-in check period (s); the paper uses 60 s.
    pub scale_in_period_secs: f64,
    /// Scale out when recent p98 ≥ this fraction of the SLO (paper: 0.95).
    pub scale_out_threshold: f64,
    /// Scale in when recent p98 < this fraction of the SLO (paper: 0.5).
    pub scale_in_threshold: f64,
    /// Sliding window over recent completions (s) used for the p98.
    pub latency_window_secs: f64,
    /// Never scale below this many GPUs.
    pub min_gpus: u32,
    /// Never scale above this many GPUs.
    pub max_gpus: u32,
    /// Minimum spacing between scale-out actions (s). The paper's §4 rule
    /// has no cooldown (0.0, the default); without one, a backlog that
    /// takes a while to drain triggers one scale-out per check period and
    /// overshoots (see EXPERIMENTS.md Fig. 8 notes).
    pub scale_out_cooldown_secs: f64,
}

impl AutoScaleConfig {
    /// The paper's §4 settings around an initial provisioning.
    pub fn paper_default(min_gpus: u32, max_gpus: u32) -> Self {
        AutoScaleConfig {
            check_period_secs: 1.0,
            scale_in_period_secs: 60.0,
            scale_out_threshold: 0.95,
            scale_in_threshold: 0.5,
            latency_window_secs: 10.0,
            min_gpus,
            max_gpus,
            scale_out_cooldown_secs: 0.0,
        }
    }
}

/// An injected fault (§3.2 of the paper motivates dynamics-aware
/// dispatching with "idiosyncratic factors such as failures and bugs").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// When the fault fires (ns).
    pub at: Nanos,
    /// The afflicted instance.
    pub instance: InstanceId,
    /// What happens.
    pub kind: FaultKind,
}

/// Kinds of injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Executions run `factor`× slower for `duration` ns (thermal
    /// throttling, a noisy neighbour, a buggy kernel).
    Slowdown {
        /// Execution-time multiplier (> 1 slows down).
        factor: f64,
        /// How long the degradation lasts (ns).
        duration: Nanos,
    },
    /// The instance crashes: its queue spills back to the request buffer
    /// and it reloads its runtime before resuming.
    Crash,
    /// Executions fail (at full execution cost — the GPU time is wasted)
    /// with probability `error_rate` for `duration` ns. Failed requests are
    /// re-dispatched with exponential backoff; whether a given execution
    /// fails is a deterministic hash of `(instance, request, attempt)`, so
    /// replays are exact.
    Transient {
        /// Per-execution failure probability in `[0, 1]`.
        error_rate: f64,
        /// How long the fault lasts (ns).
        duration: Nanos,
    },
    /// Progressive degradation: the execution-time multiplier ramps
    /// linearly, `1 + ramp_per_sec · elapsed_secs`, for `duration` ns (a
    /// memory leak, thermal creep — the classic fail-slow pattern that
    /// static health checks miss).
    FailSlow {
        /// Slowdown added per second of fault lifetime.
        ramp_per_sec: f64,
        /// How long the fault lasts (ns).
        duration: Nanos,
    },
}

/// Configuration of the SLO-aware fault-tolerance layer
/// (`SimConfig::fault_tolerance`; `None` disables the layer entirely and
/// the driver behaves exactly as before it existed).
///
/// The layer adds three behaviours on top of the health state machine
/// ([`crate::health`]):
///
/// 1. **Circuit breaking** — quarantined instances are removed from every
///    dispatcher's candidate set via their cluster admit gate, and their
///    queued backlog is evicted back to the central buffer; probation
///    admits one probe at a time.
/// 2. **Retries** — failed executions re-enter the buffer after a capped
///    exponential backoff.
/// 3. **Load shedding** (opt-in via `shed`) — buffered requests that can no
///    longer meet their deadline even with an immediate dispatch are
///    dropped and reported separately ([`SimReport::shed`]), and requests
///    whose retry budget is exhausted are dropped likewise.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultToleranceConfig {
    /// Health detector parameters.
    pub health: HealthConfig,
    /// Request deadline, as a multiple of the SLO: a request is hopeless
    /// once even an immediate dispatch cannot complete it by
    /// `arrival + deadline_multiple × SLO`.
    pub deadline_multiple: f64,
    /// With shedding on, a request that fails more than this many times is
    /// dropped instead of retried again.
    pub max_retries: u32,
    /// Initial retry backoff (ns); doubles per attempt.
    pub backoff_base_ns: Nanos,
    /// Upper bound on the retry backoff (ns).
    pub backoff_cap_ns: Nanos,
    /// Enable deadline-aware load shedding. Off by default: with shedding
    /// off every request is eventually served (retries are unbounded) and
    /// `SimReport::records` still accounts for the full trace.
    pub shed: bool,
}

impl FaultToleranceConfig {
    /// Conservative defaults: 4×SLO deadlines, 5 retries, 1 ms → 64 ms
    /// backoff, shedding off.
    pub fn paper_default() -> Self {
        FaultToleranceConfig {
            health: HealthConfig::default(),
            deadline_multiple: 4.0,
            max_retries: 5,
            backoff_base_ns: arlo_trace::NANOS_PER_MS,
            backoff_cap_ns: 64 * arlo_trace::NANOS_PER_MS,
            shed: false,
        }
    }

    /// Enable deadline-aware load shedding.
    pub fn with_shedding(mut self) -> Self {
        self.shed = true;
        self
    }
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The stream's SLO (ms): 150 for Bert-Base, 450 for Bert-Large (§5).
    pub slo_ms: f64,
    /// Fixed per-request latency overhead (ms); the paper calibrates 0.8.
    pub overhead_ms: f64,
    /// Runtime swap latency (ms); the paper reports ≈1 s.
    pub replacement_latency_ms: f64,
    /// Runtime Scheduler period (s); the paper uses 120.
    pub allocation_period_secs: f64,
    /// Replacement batching (§4): at most this many instances may be
    /// mid-swap at once.
    pub max_concurrent_swaps: usize,
    /// Optional auto-scaling (Fig. 8).
    pub autoscale: Option<AutoScaleConfig>,
    /// Execution-time jitter.
    pub jitter: JitterSpec,
    /// Batched execution (§6 extension; the paper's evaluation uses
    /// [`BatchSpec::SINGLE`]).
    pub batch: BatchSpec,
    /// Record up to this many scheduler decisions in `SimReport::journal`
    /// (0 = journaling off, the default — the journal is a debugging aid).
    pub journal_limit: usize,
    /// The SLO-aware fault-tolerance layer (`None` = off, the default:
    /// behaviour is identical to a driver without the layer).
    pub fault_tolerance: Option<FaultToleranceConfig>,
}

impl SimConfig {
    /// Paper defaults for a given SLO, no auto-scaling.
    pub fn paper_default(slo_ms: f64) -> Self {
        SimConfig {
            slo_ms,
            overhead_ms: 0.8,
            replacement_latency_ms: 1000.0,
            allocation_period_secs: 120.0,
            max_concurrent_swaps: 2,
            autoscale: None,
            jitter: JitterSpec::NONE,
            batch: BatchSpec::SINGLE,
            journal_limit: 0,
            fault_tolerance: None,
        }
    }

    /// Enable the SLO-aware fault-tolerance layer.
    pub fn with_fault_tolerance(mut self, ft: FaultToleranceConfig) -> Self {
        self.fault_tolerance = Some(ft);
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct PartialRecord {
    arrival: Nanos,
    length: u32,
    dispatched: Nanos,
    started: Nanos,
    runtime_idx: usize,
    instance: usize,
    /// Failed-execution count (fault-tolerance layer retry budget).
    attempts: u32,
}

/// The discrete-event simulation of one request stream on a GPU cluster.
pub struct Simulation<'a> {
    trace: &'a Trace,
    config: SimConfig,
    cluster: Cluster,
    events: EventQueue,
    /// The scheduler's central request buffer (workflow step (e)), one FIFO
    /// per ideal-runtime bin: requests that currently fit no accepting
    /// instance wait here and are re-dispatched as capacity frees up.
    pending: Vec<VecDeque<Request>>,
    pending_total: usize,
    /// [`Simulation::drain_pending`]'s scratch: the buffered bins' fronts
    /// as `(arrival, bin)`, kept between calls for its capacity.
    fronts: Vec<(Nanos, usize)>,
    /// Requests dispatched and not yet finished, by trace id. The ids come
    /// from the trace, not from a client, and the table is never iterated,
    /// so its word hasher cannot change an outcome.
    in_flight: HashMap<u64, PartialRecord, BuildWordHasher>,
    /// The driver's half of the batch buffers: [`Cluster::complete`] swaps
    /// an instance's finished batch in here and takes this buffer's
    /// capacity back as the instance's next `running`.
    finished: Vec<Request>,
    /// Arrivals since the last allocation tick.
    demand: DemandRecorder,
    next_arrival: usize,
    /// The Runtime Scheduler's current target allocation, applied in small
    /// replacement batches until converged.
    alloc_target: Option<Vec<u32>>,
    /// Injected faults, fired via [`Event::Fault`].
    faults: Vec<FaultSpec>,
    /// Completion events invalidated by a crash, indexed by instance: while
    /// positive, the next Complete event for that instance is ignored.
    cancelled_completions: Vec<u32>,
    /// Whether [`Simulation::start`] has armed the initial events.
    started: bool,
    /// Last scale-out action (cooldown bookkeeping).
    last_scale_out: Option<Nanos>,
    /// Timestamp of the last processed event.
    clock: Nanos,
    report: SimReport,
    /// `(completed, latency_ms)` of recent completions, the autoscaler's
    /// p98 window; only filled while `config.autoscale` is set, since
    /// nothing else reads or prunes it.
    recent_completions: VecDeque<(Nanos, f64)>,
    /// Health registry (`Some` iff the fault-tolerance layer is on).
    health: Option<HealthRegistry>,
    /// Transitions already reacted to (gates set, queues evicted).
    health_seen: usize,
    /// Requests awaiting re-dispatch; [`Event::Retry`] payloads index here.
    retry_table: Vec<Request>,
    /// Active transient faults: execution failure probability indexed by
    /// instance (0 = none).
    transient_rates: Vec<f64>,
    /// `config.allocation_period_secs` in ns.
    alloc_period: Nanos,
    /// Debug builds: events processed, for the periodic index cross-check.
    #[cfg(debug_assertions)]
    debug_events: u64,
}

impl<'a> Simulation<'a> {
    /// Build a simulation over `trace` with `initial_counts[i]` instances of
    /// each profiled runtime.
    pub fn new(
        trace: &'a Trace,
        profiles: Vec<RuntimeProfile>,
        initial_counts: &[u32],
        config: SimConfig,
    ) -> Self {
        assert!(!profiles.is_empty(), "need at least one runtime");
        let max_lengths: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let model_limit = *max_lengths.last().expect("non-empty");
        for r in trace.requests() {
            assert!(
                (1..=model_limit).contains(&r.length),
                "trace contains requests no runtime serves"
            );
            // Every `RequestRecord::id` is a `u32`: refuse here, once, so
            // the per-completion record push is a plain conversion.
            assert!(
                u32::try_from(r.id).is_ok(),
                "trace request id {} does not fit the 32-bit record id",
                r.id
            );
        }
        let cluster = Cluster::new(
            profiles,
            initial_counts,
            config.jitter,
            ms_to_nanos(config.replacement_latency_ms),
        )
        .with_batching(config.batch);
        let n_runtimes = max_lengths.len();
        let alloc_period = secs_to_nanos(config.allocation_period_secs);
        let mut report = SimReport {
            overhead_ns: ms_to_nanos(config.overhead_ms),
            horizon: trace.horizon(),
            allocation_timeline: vec![TimeWeighted::new(); n_runtimes],
            gpu_timeline: TimeWeighted::new(),
            ..Default::default()
        };
        let view = cluster.view();
        report.gpu_timeline.record(0, f64::from(view.gpu_count()));
        for (i, &c) in view.committed_counts().iter().enumerate() {
            report.allocation_timeline[i].record(0, f64::from(c));
        }
        let instances = view.instance_count();
        Simulation {
            trace,
            config,
            cluster,
            events: EventQueue::new(),
            pending: vec![VecDeque::new(); n_runtimes],
            pending_total: 0,
            fronts: Vec::new(),
            in_flight: HashMap::default(),
            finished: Vec::new(),
            demand: DemandRecorder::new(max_lengths, config.slo_ms, alloc_period, SUB_WINDOW),
            next_arrival: 0,
            alloc_target: None,
            faults: Vec::new(),
            cancelled_completions: vec![0; instances],
            started: false,
            last_scale_out: None,
            clock: 0,
            report,
            recent_completions: VecDeque::new(),
            health: config
                .fault_tolerance
                .map(|ft| HealthRegistry::new(ft.health)),
            health_seen: 0,
            retry_table: Vec::new(),
            transient_rates: vec![0.0; instances],
            alloc_period,
            #[cfg(debug_assertions)]
            debug_events: 0,
        }
    }

    /// Inject faults (fired at their `at` timestamps during `run`).
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> Self {
        for f in &faults {
            if let FaultKind::Transient { error_rate, .. } = f.kind {
                assert!(
                    (0.0..=1.0).contains(&error_rate),
                    "transient error rate must be in [0, 1]"
                );
            }
        }
        self.faults = faults;
        self
    }

    /// Run to completion (all requests served) and return the report.
    ///
    /// Equivalent to [`Simulation::start`], stepping until no events remain
    /// and [`Simulation::finish`] — use those directly to interleave the
    /// simulation with other work or inspect state mid-run.
    pub fn run(
        mut self,
        dispatcher: &mut dyn Dispatcher,
        allocator: &mut dyn Allocator,
    ) -> SimReport {
        self.start();
        while self.step(dispatcher, allocator) {}
        self.finish()
    }

    /// Arm the initial events (first arrival, periodic ticks, faults).
    /// Idempotent; called automatically by [`Simulation::run`].
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for (i, fault) in self.faults.iter().enumerate() {
            self.events.push(fault.at, Event::Fault(i));
        }
        if !self.trace.is_empty() {
            self.events
                .push(self.trace.requests()[0].arrival, Event::Arrival(0));
            self.next_arrival = 1;
        }
        if self.alloc_period > 0 {
            self.events.push(self.alloc_period, Event::AllocationTick);
        }
        if let Some(auto) = self.config.autoscale {
            self.events
                .push(secs_to_nanos(auto.check_period_secs), Event::ScaleOutCheck);
            self.events.push(
                secs_to_nanos(auto.scale_in_period_secs),
                Event::ScaleInCheck,
            );
        }
        if self.config.fault_tolerance.is_some() {
            self.events.push(HEALTH_TICK, Event::HealthTick);
        }
    }

    /// Process the next event. Returns `false` once no events remain
    /// (i.e. the simulation is complete). Panics if called before
    /// [`Simulation::start`].
    pub fn step(&mut self, dispatcher: &mut dyn Dispatcher, allocator: &mut dyn Allocator) -> bool {
        assert!(self.started, "call start() before step()");
        let Some((now, event)) = self.events.pop() else {
            return false;
        };
        match event {
            Event::Arrival(i) => self.on_arrival(now, i, dispatcher),
            Event::Complete(inst) => self.on_complete(now, inst, dispatcher),
            Event::LoadDone(inst) => self.on_load_done(now, inst, dispatcher),
            Event::AllocationTick => self.on_alloc_tick(now, allocator),
            Event::ScaleOutCheck => self.on_scale_out(now),
            Event::ScaleInCheck => self.on_scale_in(now),
            Event::Fault(i) => self.on_fault(now, i, dispatcher),
            Event::FaultEnd(i) => self.on_fault_end(i),
            Event::Retry(k) => self.on_retry(now, k, dispatcher),
            Event::HealthTick => self.on_health_tick(now, dispatcher),
        }
        self.clock = now;
        let gpus = f64::from(self.cluster.view().gpu_count());
        self.report.gpu_timeline.record(now, gpus);
        // Debug builds periodically cross-check the incremental dispatch
        // index against the reference scans, so any missed maintenance hook
        // fails loudly in ordinary test runs, not just the differential
        // property test.
        #[cfg(debug_assertions)]
        {
            self.debug_events += 1;
            if self.debug_events.is_multiple_of(127) {
                self.cluster.debug_validate_index();
            }
        }
        true
    }

    /// Timestamp of the last processed event (ns).
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_at(&self) -> Option<Nanos> {
        self.events.peek_time()
    }

    /// A live view of the cluster — inspect instance states and loads
    /// mid-run when stepping manually.
    pub fn cluster_view(&self) -> ClusterView<'_> {
        self.cluster.view()
    }

    /// Scale every instance's execution time by `factor` — the
    /// time-multiplexing model for §6 co-location studies: a stream sharing
    /// its GPUs with others effectively runs each execution at `1/share`
    /// the speed (plus any interference premium the caller folds in).
    pub fn set_global_slowdown(&mut self, factor: f64) {
        for id in 0..self.cluster_view().gpu_count() as usize {
            self.cluster.set_slowdown(id, factor);
        }
    }

    /// Consume the simulation and produce the report. Panics if requests
    /// remain unserved (events not fully drained).
    pub fn finish(mut self) -> SimReport {
        assert!(
            self.pending_total == 0 && self.in_flight.is_empty(),
            "simulation ended with unserved requests"
        );
        self.report.total_busy_ns = self.cluster.view().total_busy_ns();
        if let Some(h) = &mut self.health {
            self.report.health_transitions = h.take_transitions();
        }
        self.report
    }

    fn work_remaining(&self) -> bool {
        self.next_arrival < self.trace.len() || self.pending_total > 0 || !self.in_flight.is_empty()
    }

    fn on_arrival(&mut self, now: Nanos, idx: usize, dispatcher: &mut dyn Dispatcher) {
        let req = self.trace.requests()[idx];
        if self.next_arrival < self.trace.len() {
            let next = self.trace.requests()[self.next_arrival];
            self.events
                .push(next.arrival, Event::Arrival(self.next_arrival));
            self.next_arrival += 1;
        }
        let bin = self
            .demand
            .record(req.length, now)
            .expect("Simulation::new admits only lengths a runtime serves");
        self.in_flight.insert(
            req.id,
            PartialRecord {
                arrival: req.arrival,
                length: req.length,
                dispatched: 0,
                started: 0,
                runtime_idx: 0,
                instance: 0,
                attempts: 0,
            },
        );
        // FIFO fairness within a bin: if older same-bin requests are already
        // buffered, queue behind them instead of jumping the line.
        if !self.pending[bin].is_empty() || !self.try_dispatch(now, req, dispatcher) {
            self.report.buffered_requests += 1;
            self.journal(now, JournalEntry::Buffered { id: req.id });
            self.pending[bin].push_back(req);
            self.pending_total += 1;
        }
    }

    fn try_dispatch(&mut self, now: Nanos, req: Request, dispatcher: &mut dyn Dispatcher) -> bool {
        let Some(inst) = dispatcher.dispatch(&req, &self.cluster.view()) else {
            return false;
        };
        {
            let view = self.cluster.view();
            assert!(
                view.accepts(inst),
                "dispatcher chose a non-accepting instance"
            );
        }
        let runtime_idx = self.cluster.view().runtime_of(inst);
        self.journal(
            now,
            JournalEntry::Dispatched {
                id: req.id,
                instance: inst,
                runtime_idx,
            },
        );
        let rec = self.in_flight.get_mut(&req.id).expect("in-flight record");
        rec.dispatched = now;
        rec.runtime_idx = runtime_idx;
        rec.instance = inst;
        if let Some(h) = &mut self.health {
            h.note_dispatch(inst, now);
        }
        if let Some(exec) = self.cluster.enqueue(inst, req, now) {
            self.note_started(now, inst, exec);
        }
        true
    }

    fn note_started(&mut self, now: Nanos, inst: InstanceId, exec: StartedExecution) {
        for req in self.cluster.view().running(inst) {
            self.in_flight
                .get_mut(&req.id)
                .expect("started request must be in flight")
                .started = now;
        }
        self.events.push(exec.completes_at, Event::Complete(inst));
    }

    fn on_complete(&mut self, now: Nanos, inst: InstanceId, dispatcher: &mut dyn Dispatcher) {
        // A crash may have invalidated this completion: the request was
        // already returned to the buffer.
        if self.cancelled_completions[inst] > 0 {
            self.cancelled_completions[inst] -= 1;
            return;
        }
        let mut finished = std::mem::take(&mut self.finished);
        let outcome = self.cluster.complete(inst, now, &mut finished);
        let batch_len = finished.len();
        for finished in &finished {
            if self.transient_failure(inst, finished.id) {
                self.on_failed_execution(now, inst, *finished);
                continue;
            }
            let partial = self
                .in_flight
                .remove(&finished.id)
                .expect("completed request must be in flight");
            // `new` refused ids past `u32::MAX`; runtimes and instances
            // number far fewer.
            self.report.records.push(RequestRecord {
                arrival: partial.arrival,
                dispatched: partial.dispatched,
                started: partial.started,
                completed: now,
                id: finished.id as u32,
                length: partial.length,
                runtime_idx: partial.runtime_idx as u32,
                instance: partial.instance as u32,
            });
            if self.config.autoscale.is_some() {
                let latency_ms = (now - partial.arrival + self.report.overhead_ns) as f64 / 1e6;
                self.recent_completions.push_back((now, latency_ms));
            }
            if let Some(h) = &mut self.health {
                // Judge the instance on per-request service time versus the
                // profiled expectation (a batch shares its duration).
                let observed = (now - partial.started) as f64 / batch_len as f64;
                let expected = self.cluster.profiles()[partial.runtime_idx]
                    .runtime
                    .exec_nanos(finished.length) as f64;
                h.record_success(inst, now, observed, expected);
            }
        }
        self.finished = finished;
        if let Some(exec) = outcome.next {
            self.note_started(now, inst, exec);
        }
        if let Some(ready_at) = outcome.loading_until {
            self.events.push(ready_at, Event::LoadDone(inst));
        }
        self.after_health(now);
        self.drain_pending(now, dispatcher);
    }

    /// Whether this completion is an execution *failure* under an active
    /// transient fault: a deterministic hash of `(instance, request,
    /// attempt)`, so a given run replays exactly while retries of the same
    /// request redraw independently.
    fn transient_failure(&self, inst: InstanceId, req_id: u64) -> bool {
        let rate = self.transient_rates[inst];
        if rate <= 0.0 {
            return false; // no fault, or one that never fails
        }
        let attempt = self.in_flight.get(&req_id).map_or(0, |r| r.attempts);
        let mut h = (inst as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= req_id.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= u64::from(attempt).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// A completed execution returned an error: charge the instance a
    /// health strike and either re-dispatch the request after exponential
    /// backoff or, with shedding on and the budget exhausted, drop it.
    fn on_failed_execution(&mut self, now: Nanos, inst: InstanceId, req: Request) {
        self.report.exec_failures += 1;
        if let Some(h) = &mut self.health {
            h.record_failure(inst, now);
        }
        let attempts = {
            let rec = self
                .in_flight
                .get_mut(&req.id)
                .expect("failed request must be in flight");
            rec.attempts += 1;
            rec.attempts
        };
        let ft = self.config.fault_tolerance;
        if ft.is_some_and(|f| f.shed && attempts > f.max_retries) {
            let partial = self
                .in_flight
                .remove(&req.id)
                .expect("shed request must be in flight");
            self.report.shed.push(ShedRecord {
                id: req.id,
                length: partial.length,
                arrival: partial.arrival,
                shed_at: now,
                reason: ShedReason::RetryBudget,
            });
            self.journal(now, JournalEntry::Shed { id: req.id });
            return;
        }
        // Retries work even with the layer off — a client-side retry loop
        // exists regardless — using the layer's defaults in that case.
        let (base, cap) = ft.map_or(
            (
                FaultToleranceConfig::paper_default().backoff_base_ns,
                FaultToleranceConfig::paper_default().backoff_cap_ns,
            ),
            |f| (f.backoff_base_ns, f.backoff_cap_ns),
        );
        let backoff = base.saturating_mul(1u64 << (attempts.min(20) - 1)).min(cap);
        let slot = self.retry_table.len();
        self.retry_table.push(req);
        self.report.retries_total += 1;
        self.journal(now, JournalEntry::Retried { id: req.id });
        self.events.push(now + backoff, Event::Retry(slot));
    }

    /// A retry backoff expired: the request re-enters the central buffer
    /// (front of its bin — it is the oldest arrival there) unless its
    /// deadline is already hopeless.
    fn on_retry(&mut self, now: Nanos, slot: usize, dispatcher: &mut dyn Dispatcher) {
        let req = self.retry_table[slot];
        if self.maybe_shed(now, &req) {
            return;
        }
        let bin = self.bin_of(req.length);
        if !self.pending[bin].is_empty() || !self.try_dispatch(now, req, dispatcher) {
            self.report.buffered_requests += 1;
            self.pending[bin].push_front(req);
            self.pending_total += 1;
        }
    }

    /// Periodic health sweep: time-driven transitions (quarantine cooldowns,
    /// stuck-dispatch detection), then gate updates and a buffer drain (a
    /// probation gate opening may unblock buffered work).
    fn on_health_tick(&mut self, now: Nanos, dispatcher: &mut dyn Dispatcher) {
        if let Some(h) = &mut self.health {
            h.tick(now);
        }
        self.after_health(now);
        self.drain_pending(now, dispatcher);
        if self.work_remaining() {
            self.events.push(now + HEALTH_TICK, Event::HealthTick);
        }
    }

    /// React to health transitions since the last call: translate states
    /// into cluster admit gates, evict quarantined instances' queued
    /// backlogs into the central buffer, and journal the circuit changes.
    fn after_health(&mut self, now: Nanos) {
        let fresh: Vec<HealthTransition> = match &self.health {
            Some(h) if h.transitions().len() > self.health_seen => {
                h.transitions()[self.health_seen..].to_vec()
            }
            _ => return,
        };
        self.health_seen += fresh.len();
        for t in fresh {
            let gate = match t.to.admission() {
                Admission::Full => AdmitGate::Open,
                Admission::Probe => AdmitGate::Probe,
                Admission::Deny => AdmitGate::Closed,
            };
            self.cluster.set_admit_gate(t.instance, gate);
            match t.to {
                HealthState::Quarantined => {
                    self.journal(
                        now,
                        JournalEntry::Quarantined {
                            instance: t.instance,
                        },
                    );
                    let evicted = self.cluster.evict_queued(t.instance);
                    if evicted.is_empty() {
                        continue;
                    }
                    if let Some(h) = &mut self.health {
                        h.remove_newest(t.instance, evicted.len());
                    }
                    self.report.evicted_requests += evicted.len() as u64;
                    for req in evicted.into_iter().rev() {
                        let bin = self.bin_of(req.length);
                        self.pending[bin].push_front(req);
                        self.pending_total += 1;
                        self.report.buffered_requests += 1;
                    }
                }
                HealthState::Healthy => {
                    self.journal(
                        now,
                        JournalEntry::Recovered {
                            instance: t.instance,
                        },
                    );
                }
                _ => {}
            }
        }
    }

    /// With shedding on: drop `req` if even an immediate dispatch to its
    /// ideal runtime cannot meet the deadline. Returns `true` when shed
    /// (the request is removed from flight; the caller drops its buffer
    /// entry).
    fn maybe_shed(&mut self, now: Nanos, req: &Request) -> bool {
        let Some(ft) = self.config.fault_tolerance else {
            return false;
        };
        if !ft.shed {
            return false;
        }
        let deadline = req.arrival + ms_to_nanos(ft.deadline_multiple * self.config.slo_ms);
        let bin = self.bin_of(req.length);
        let best_case =
            self.cluster.profiles()[bin].runtime.exec_nanos(req.length) + self.report.overhead_ns;
        if now + best_case <= deadline {
            return false;
        }
        self.in_flight
            .remove(&req.id)
            .expect("shed request must be in flight");
        self.report.shed.push(ShedRecord {
            id: req.id,
            length: req.length,
            arrival: req.arrival,
            shed_at: now,
            reason: ShedReason::DeadlineHopeless,
        });
        self.journal(now, JournalEntry::Shed { id: req.id });
        true
    }

    fn on_load_done(&mut self, now: Nanos, inst: InstanceId, dispatcher: &mut dyn Dispatcher) {
        if !self.cluster.load_done(inst, now) {
            return; // stale event (a crash rescheduled the load)
        }
        self.record_allocation(now);
        self.apply_allocation_step(now);
        self.drain_pending(now, dispatcher);
    }

    /// Re-dispatch buffered requests while any of them fits an accepting
    /// instance. Within a bin the buffer is FIFO; across bins the earliest
    /// arrival is tried first (only bin fronts need testing — candidacy
    /// depends solely on the bin).
    fn drain_pending(&mut self, now: Nanos, dispatcher: &mut dyn Dispatcher) {
        let mut fronts = std::mem::take(&mut self.fronts);
        while self.pending_total > 0 {
            fronts.clear();
            fronts.extend(
                self.pending
                    .iter()
                    .enumerate()
                    .filter_map(|(bin, q)| q.front().map(|r| (r.arrival, bin))),
            );
            fronts.sort_unstable();
            let mut progressed = false;
            for &(_, bin) in &fronts {
                let req = *self.pending[bin].front().expect("front exists");
                // Admission control: drop buffered requests that can no
                // longer meet their deadline before they waste a dispatch.
                if self.maybe_shed(now, &req) {
                    self.pending[bin].pop_front();
                    self.pending_total -= 1;
                    progressed = true;
                    break;
                }
                if self.try_dispatch(now, req, dispatcher) {
                    self.pending[bin].pop_front();
                    self.pending_total -= 1;
                    progressed = true;
                    break; // cluster state changed; recompute fronts
                }
            }
            if !progressed {
                break;
            }
        }
        self.fronts = fronts;
    }

    fn on_alloc_tick(&mut self, now: Nanos, allocator: &mut dyn Allocator) {
        let window = self.demand.take(now);
        let t0 = Instant::now();
        let target = allocator.allocate(now, &window, &self.cluster.view());
        self.report.alloc_wall_ns += t0.elapsed().as_nanos() as u64;
        self.report.alloc_count += 1;
        if let Some(target) = target {
            self.journal(
                now,
                JournalEntry::AllocationAdopted {
                    target: target.clone(),
                },
            );
            self.alloc_target = Some(target);
            self.apply_allocation_step(now);
        }
        if self.work_remaining() {
            self.events
                .push(now + self.alloc_period, Event::AllocationTick);
        }
    }

    /// Advance the current replacement plan by one batch (§4's small-batch
    /// replacement). Invoked when a plan is adopted and after every swap
    /// completes; drops the plan once converged or invalidated by scaling.
    fn apply_allocation_step(&mut self, now: Nanos) {
        let Some(target) = self.alloc_target.clone() else {
            return;
        };
        let committed: u32 = self.cluster.view().committed_counts().iter().sum();
        if target.iter().sum::<u32>() != committed {
            // The auto-scaler changed the GPU count; the plan is stale.
            self.alloc_target = None;
            return;
        }
        for (id, ready_at) in
            self.cluster
                .apply_allocation(&target, now, self.config.max_concurrent_swaps)
        {
            self.events.push(ready_at, Event::LoadDone(id));
        }
        if self.cluster.allocation_converged(&target) {
            self.alloc_target = None;
        }
        self.record_allocation(now);
    }

    fn record_allocation(&mut self, now: Nanos) {
        for (i, &c) in self.cluster.view().committed_counts().iter().enumerate() {
            self.report.allocation_timeline[i].record(now, f64::from(c));
        }
    }

    fn recent_p98(&mut self, now: Nanos, window_secs: f64) -> Option<f64> {
        let horizon = now.saturating_sub(secs_to_nanos(window_secs));
        while let Some(&(t, _)) = self.recent_completions.front() {
            if t < horizon {
                self.recent_completions.pop_front();
            } else {
                break;
            }
        }
        if self.recent_completions.is_empty() {
            return None;
        }
        let lat: Vec<f64> = self.recent_completions.iter().map(|&(_, l)| l).collect();
        Some(percentile(&lat, 98.0))
    }

    fn on_scale_out(&mut self, now: Nanos) {
        let Some(auto) = self.config.autoscale else {
            return;
        };
        if let Some(p98) = self.recent_p98(now, auto.latency_window_secs) {
            let gpus = self.cluster.view().gpu_count();
            let cooling = self.last_scale_out.is_some_and(|t| {
                now.saturating_sub(t) < secs_to_nanos(auto.scale_out_cooldown_secs)
            });
            if p98 >= auto.scale_out_threshold * self.config.slo_ms
                && gpus < auto.max_gpus
                && !cooling
            {
                self.last_scale_out = Some(now);
                // §4: a new worker loads the maximum-length runtime.
                let largest = self.pending.len() - 1;
                let (id, ready_at) = self.cluster.add_instance(largest, now);
                // Instance ids are dense and only appended: the new one's
                // fault slots go at the end.
                self.cancelled_completions.push(0);
                self.transient_rates.push(0.0);
                self.journal(now, JournalEntry::ScaledOut { instance: id });
                self.events.push(ready_at, Event::LoadDone(id));
                self.record_allocation(now);
            }
        }
        if self.work_remaining() {
            self.events.push(
                now + secs_to_nanos(auto.check_period_secs),
                Event::ScaleOutCheck,
            );
        }
    }

    fn on_scale_in(&mut self, now: Nanos) {
        let Some(auto) = self.config.autoscale else {
            return;
        };
        if let Some(p98) = self.recent_p98(now, auto.latency_window_secs) {
            let gpus = self.cluster.view().gpu_count();
            if p98 < auto.scale_in_threshold * self.config.slo_ms && gpus > auto.min_gpus {
                if let Some(victim) = self.cluster.least_busy_instance() {
                    self.cluster.retire_instance(victim, now);
                    self.journal(now, JournalEntry::ScaledIn { instance: victim });
                    self.record_allocation(now);
                }
            }
        }
        if self.work_remaining() {
            self.events.push(
                now + secs_to_nanos(auto.scale_in_period_secs),
                Event::ScaleInCheck,
            );
        }
    }

    fn on_fault(&mut self, now: Nanos, idx: usize, dispatcher: &mut dyn Dispatcher) {
        self.journal(now, JournalEntry::FaultFired { index: idx });
        let fault = self.faults[idx];
        match fault.kind {
            FaultKind::Slowdown { factor, duration } => {
                self.cluster.set_slowdown(fault.instance, factor);
                self.events.push(now + duration, Event::FaultEnd(idx));
            }
            FaultKind::Crash => {
                let (orphans, ready_at, had_running) =
                    self.cluster.crash_instance(fault.instance, now);
                if had_running {
                    self.cancelled_completions[fault.instance] += 1;
                }
                // Orphans return to the buffer at their original arrival
                // ordering (front of their bins: they are the oldest).
                for req in orphans.into_iter().rev() {
                    let bin = self.bin_of(req.length);
                    self.pending[bin].push_front(req);
                    self.pending_total += 1;
                    self.report.buffered_requests += 1;
                }
                if let Some(h) = &mut self.health {
                    // A crash is directly observable (connection reset):
                    // the circuit opens without waiting for strikes.
                    h.record_crash(fault.instance, now);
                }
                self.events.push(ready_at, Event::LoadDone(fault.instance));
                self.after_health(now);
                self.drain_pending(now, dispatcher);
            }
            FaultKind::Transient {
                error_rate,
                duration,
            } => {
                self.transient_rates[fault.instance] = error_rate;
                self.events.push(now + duration, Event::FaultEnd(idx));
            }
            FaultKind::FailSlow {
                ramp_per_sec,
                duration,
            } => {
                self.cluster
                    .set_fail_slow(fault.instance, now, ramp_per_sec);
                self.events.push(now + duration, Event::FaultEnd(idx));
            }
        }
    }

    fn on_fault_end(&mut self, idx: usize) {
        let fault = self.faults[idx];
        match fault.kind {
            FaultKind::Slowdown { .. } => self.cluster.set_slowdown(fault.instance, 1.0),
            FaultKind::Transient { .. } => self.transient_rates[fault.instance] = 0.0,
            FaultKind::FailSlow { .. } => self.cluster.clear_fail_slow(fault.instance),
            FaultKind::Crash => {}
        }
    }

    fn journal(&mut self, now: Nanos, entry: JournalEntry) {
        if self.report.journal.len() < self.config.journal_limit {
            self.report.journal.push((now, entry));
        }
    }

    /// Ideal-runtime bin for a request length.
    fn bin_of(&self, len: u32) -> usize {
        self.demand
            .bin_of(len)
            .expect("Simulation::new admits only lengths a runtime serves")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::latency::CompiledRuntime;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::profile_runtimes;
    use arlo_trace::workload::{ArrivalSpec, LengthSpec, TraceSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Always pick the least-loaded accepting instance of the ideal runtime,
    /// else walk up. A minimal correct dispatcher for driver tests.
    struct IdealDispatcher;

    impl Dispatcher for IdealDispatcher {
        fn dispatch(&mut self, req: &Request, view: &ClusterView<'_>) -> Option<InstanceId> {
            let n = view.profiles().len();
            let start = view
                .profiles()
                .iter()
                .position(|p| p.can_serve(req.length))
                .unwrap_or(n);
            (start..n).find_map(|rt| view.least_loaded(rt).map(|(id, _)| id))
        }
    }

    fn bert_profiles(lengths: &[u32]) -> Vec<RuntimeProfile> {
        let model = ModelSpec::bert_base();
        let rts: Vec<CompiledRuntime> = lengths
            .iter()
            .map(|&l| CompiledRuntime::new_static(model.clone(), l))
            .collect();
        profile_runtimes(&rts, 150.0, 64)
    }

    fn small_trace(rate: f64, secs: f64, seed: u64) -> Trace {
        let spec = TraceSpec {
            lengths: LengthSpec::TwitterRecalibrated { max: 512 },
            arrivals: ArrivalSpec::Poisson { rate },
            duration_secs: secs,
        };
        spec.generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let trace = small_trace(200.0, 5.0, 1);
        let n = trace.len();
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 128, 256, 512]),
            &[2, 2, 2, 2],
            SimConfig::paper_default(150.0),
        );
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.records.len(), n);
        let mut ids: Vec<u64> = report.records.iter().map(|r| u64::from(r.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate completions");
    }

    #[test]
    fn latency_ordering_invariants() {
        let trace = small_trace(100.0, 3.0, 2);
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 256, 512]),
            &[2, 2, 2],
            SimConfig::paper_default(150.0),
        );
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        for r in &report.records {
            assert!(r.dispatched >= r.arrival);
            assert!(r.started >= r.dispatched);
            assert!(r.completed > r.started);
        }
    }

    #[test]
    fn requests_only_run_on_fitting_runtimes() {
        let trace = small_trace(150.0, 3.0, 3);
        let profiles = bert_profiles(&[64, 256, 512]);
        let lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let sim = Simulation::new(
            &trace,
            profiles,
            &[2, 2, 2],
            SimConfig::paper_default(150.0),
        );
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        for r in &report.records {
            assert!(
                r.length <= lens[r.runtime_idx as usize],
                "oversized dispatch"
            );
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let trace = small_trace(150.0, 3.0, 4);
        let run = || {
            Simulation::new(
                &trace,
                bert_profiles(&[64, 256, 512]),
                &[2, 2, 2],
                SimConfig::paper_default(150.0),
            )
            .run(&mut IdealDispatcher, &mut NoopAllocator)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn overhead_is_added_to_latency() {
        // One request, one instance: latency = exec + 0.8 ms overhead.
        let trace = Trace::from_requests(
            vec![Request {
                id: 0,
                arrival: 0,
                length: 64,
            }],
            1_000_000_000,
        );
        let profiles = bert_profiles(&[64]);
        let exec_ms = profiles[0].exec_ms;
        let sim = Simulation::new(&trace, profiles, &[1], SimConfig::paper_default(150.0));
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        let lat = report.latencies_ms()[0];
        assert!((lat - (exec_ms + 0.8)).abs() < 1e-6, "latency {lat}");
    }

    #[test]
    fn queueing_shows_up_under_burst() {
        // 10 simultaneous requests on one instance: mean latency ≈
        // exec·(10+1)/2 + overhead.
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request {
                id: i,
                arrival: 0,
                length: 64,
            })
            .collect();
        let trace = Trace::from_requests(reqs, 1_000_000_000);
        let profiles = bert_profiles(&[64]);
        let exec_ms = profiles[0].exec_ms;
        let sim = Simulation::new(&trace, profiles, &[1], SimConfig::paper_default(150.0));
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        let mean = report.latency_summary().mean;
        let expected = exec_ms * 5.5 + 0.8;
        assert!((mean - expected).abs() < 0.01, "mean {mean} vs {expected}");
    }

    #[test]
    fn allocation_tick_replaces_instances() {
        /// Allocator that moves everything onto the largest runtime.
        struct AllBig;
        impl Allocator for AllBig {
            fn allocate(
                &mut self,
                _now: Nanos,
                _window: &DemandWindow,
                view: &ClusterView<'_>,
            ) -> Option<Vec<u32>> {
                let n = view.profiles().len();
                let mut target = vec![0u32; n];
                target[n - 1] = view.committed_counts().iter().sum();
                Some(target)
            }
        }
        let trace = small_trace(50.0, 200.0, 5);
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 512]),
            &[3, 1],
            SimConfig::paper_default(150.0),
        );
        let report = sim.run(&mut IdealDispatcher, &mut AllBig);
        // After the first 120 s tick, all four instances run the big runtime.
        let final_alloc: Vec<f64> = report
            .allocation_timeline
            .iter()
            .map(|tw| tw.points().last().expect("recorded").1)
            .collect();
        assert_eq!(final_alloc, vec![0.0, 4.0]);
        assert!(report.alloc_count >= 1);
    }

    #[test]
    fn autoscaler_adds_gpus_under_overload() {
        // Overloaded single instance: p98 blows past the SLO, the scaler
        // must add workers.
        let trace = small_trace(400.0, 30.0, 6);
        let mut config = SimConfig::paper_default(150.0);
        config.autoscale = Some(AutoScaleConfig::paper_default(1, 10));
        let sim = Simulation::new(&trace, bert_profiles(&[64, 512]), &[0, 1], config);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        let max_gpus = report
            .gpu_timeline
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(max_gpus > 1.0, "scaler never scaled out");
        assert!(max_gpus <= 10.0);
    }

    #[test]
    fn scale_out_cooldown_paces_growth() {
        let trace = small_trace(1500.0, 20.0, 29);
        let run = |cooldown: f64| {
            let mut cfg = SimConfig::paper_default(150.0);
            cfg.journal_limit = 100_000;
            let mut auto = AutoScaleConfig::paper_default(1, 30);
            auto.scale_out_cooldown_secs = cooldown;
            cfg.autoscale = Some(auto);
            let sim = Simulation::new(&trace, bert_profiles(&[64, 512]), &[0, 1], cfg);
            sim.run(&mut IdealDispatcher, &mut NoopAllocator)
        };
        let unpaced = run(0.0);
        let paced = run(5.0);
        let scale_outs = |r: &SimReport| -> Vec<Nanos> {
            r.journal
                .iter()
                .filter(|(_, e)| matches!(e, crate::metrics::JournalEntry::ScaledOut { .. }))
                .map(|&(t, _)| t)
                .collect()
        };
        let paced_events = scale_outs(&paced);
        assert!(
            paced_events.len() < scale_outs(&unpaced).len(),
            "cooldown must reduce scale-out count"
        );
        // The precise property: consecutive scale-outs are ≥ 5 s apart.
        for w in paced_events.windows(2) {
            assert!(
                w[1] - w[0] >= 5_000_000_000,
                "scale-outs {}ns apart",
                w[1] - w[0]
            );
        }
    }

    #[test]
    fn completion_window_stays_empty_without_the_autoscaler() {
        let trace = small_trace(200.0, 5.0, 1);
        let mut sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 512]),
            &[1, 1],
            SimConfig::paper_default(150.0),
        );
        sim.start();
        while sim.step(&mut IdealDispatcher, &mut NoopAllocator) {
            assert!(sim.recent_completions.is_empty());
        }
        assert_eq!(sim.finish().records.len(), trace.len());
    }

    #[test]
    fn autoscaler_respects_max() {
        let trace = small_trace(2000.0, 10.0, 7);
        let mut config = SimConfig::paper_default(150.0);
        config.autoscale = Some(AutoScaleConfig::paper_default(1, 3));
        let sim = Simulation::new(&trace, bert_profiles(&[64, 512]), &[0, 1], config);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        let max_gpus = report
            .gpu_timeline
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(max_gpus <= 3.0, "exceeded max_gpus: {max_gpus}");
    }

    #[test]
    fn demand_window_scales_counts_to_slo_periods() {
        let w = DemandWindow::flat(vec![1200, 600], 120 * 1_000_000_000, 150.0);
        let q = w.demand_per_slo();
        // 1200 over 120 s = 10/s ⇒ 1.5 per 150 ms.
        assert!((q[0] - 1.5).abs() < 1e-9);
        assert!((q[1] - 0.75).abs() < 1e-9);
        assert_eq!(w.total(), 1800);
    }

    const SEC: Nanos = arlo_trace::NANOS_PER_SEC;

    /// Runtimes of 64 and 512 tokens, a 150 ms SLO, 120 s periods of 10 s
    /// sub-windows.
    fn recorder() -> DemandRecorder {
        DemandRecorder::new(vec![64, 512], 150.0, 120 * SEC, 10 * SEC)
    }

    #[test]
    fn recorder_bins_by_ideal_runtime_per_sub_window() {
        let mut r = recorder();
        assert_eq!(r.record(1, 0), Some(0));
        assert_eq!(r.record(64, 9 * SEC), Some(0));
        assert_eq!(r.record(65, 25 * SEC), Some(1));
        assert_eq!(r.record(512, 25 * SEC), Some(1));
        let w = r.take(120 * SEC);
        assert_eq!(w.bin_counts, vec![2, 2]);
        assert_eq!(w.sub_counts, vec![vec![2, 0], vec![0, 0], vec![0, 2]]);
        assert_eq!(
            (w.window, w.sub_window, w.slo_ms),
            (120 * SEC, 10 * SEC, 150.0)
        );
    }

    #[test]
    fn recorder_ignores_lengths_no_runtime_serves() {
        let mut r = recorder();
        assert_eq!(r.record(0, SEC), None);
        assert_eq!(r.record(513, SEC), None);
        let w = r.take(120 * SEC);
        assert_eq!(w.total(), 0);
        assert!(w.sub_counts.is_empty());
    }

    /// Memory bound: with no decision, arrivals past 4 × the period fold
    /// into sub-window 4 × 120 s / 10 s − 1 = 47.
    #[test]
    fn recorder_folds_arrivals_past_four_periods_into_the_last_sub_window() {
        let mut r = recorder();
        r.record(1, 475 * SEC);
        r.record(1, 480 * SEC);
        r.record(600, 480 * SEC);
        r.record(512, 100_000 * SEC);
        let w = r.take(100_001 * SEC);
        assert_eq!(w.sub_counts.len(), 48);
        assert_eq!(w.sub_counts[47], vec![2, 1]);
        assert_eq!(w.total(), 3);
    }

    #[test]
    fn recorder_take_restarts_the_window() {
        let mut r = recorder();
        r.record(1, 5 * SEC);
        r.take(120 * SEC);
        assert_eq!(r.started(), 120 * SEC);
        r.record(600, 121 * SEC);
        r.record(100, 135 * SEC);
        let w = r.take(240 * SEC);
        assert_eq!(w.window, 120 * SEC);
        assert_eq!(w.sub_counts, vec![vec![0, 0], vec![0, 1]]);
    }

    #[test]
    fn slowdown_fault_degrades_then_recovers() {
        // One instance runs 5× slower for 2 s; under queue pressure the
        // load-based dispatch routes around it and every request still
        // completes. (The load must be high enough that queues form —
        // at idle, ties break to the lowest id regardless of health.)
        let trace = small_trace(1200.0, 6.0, 21);
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 512]),
            &[2, 2],
            SimConfig::paper_default(150.0),
        )
        .with_faults(vec![FaultSpec {
            at: 1_000_000_000,
            instance: 0,
            kind: FaultKind::Slowdown {
                factor: 5.0,
                duration: 2_000_000_000,
            },
        }]);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.records.len(), trace.len());
        // The healthy sibling absorbs more work during the fault window.
        let in_window = |r: &&crate::metrics::RequestRecord| {
            r.started >= 1_000_000_000 && r.started < 3_000_000_000
        };
        let on_faulty = report
            .records
            .iter()
            .filter(in_window)
            .filter(|r| r.instance == 0)
            .count();
        let on_healthy = report
            .records
            .iter()
            .filter(in_window)
            .filter(|r| r.instance == 1)
            .count();
        assert!(
            on_healthy > on_faulty,
            "healthy {on_healthy} vs faulty {on_faulty}"
        );
    }

    #[test]
    fn crash_fault_loses_no_requests() {
        let trace = small_trace(400.0, 5.0, 22);
        let n = trace.len();
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 512]),
            &[2, 2],
            SimConfig::paper_default(150.0),
        )
        .with_faults(vec![
            FaultSpec {
                at: 1_500_000_000,
                instance: 0,
                kind: FaultKind::Crash,
            },
            FaultSpec {
                at: 2_500_000_000,
                instance: 3,
                kind: FaultKind::Crash,
            },
        ]);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.records.len(), n, "crashes must not lose requests");
        let mut ids: Vec<u64> = report.records.iter().map(|r| u64::from(r.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "crashes must not duplicate requests");
    }

    #[test]
    fn crash_of_idle_instance_is_benign() {
        let trace = small_trace(50.0, 3.0, 23);
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[512]),
            &[3],
            SimConfig::paper_default(150.0),
        )
        .with_faults(vec![FaultSpec {
            at: 2_900_000_000,
            instance: 2,
            kind: FaultKind::Crash,
        }]);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.records.len(), trace.len());
    }

    #[test]
    fn stepping_matches_run_exactly() {
        let trace = small_trace(300.0, 4.0, 26);
        let make = || {
            Simulation::new(
                &trace,
                bert_profiles(&[64, 256, 512]),
                &[2, 1, 1],
                SimConfig::paper_default(150.0),
            )
        };
        let whole = make().run(&mut IdealDispatcher, &mut NoopAllocator);
        let mut sim = make();
        sim.start();
        let mut d = IdealDispatcher;
        let mut a = NoopAllocator;
        let mut steps = 0u64;
        while sim.step(&mut d, &mut a) {
            steps += 1;
            // The clock never runs backwards.
            assert!(sim.next_event_at().is_none_or(|t| t >= sim.now()));
        }
        assert!(steps > 0);
        let stepped = sim.finish();
        assert_eq!(
            whole.records, stepped.records,
            "stepping must be equivalent"
        );
    }

    #[test]
    fn mid_run_cluster_inspection() {
        // Pause at t ≈ 1 s and observe outstanding work in flight.
        let trace = small_trace(800.0, 3.0, 27);
        let mut sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 512]),
            &[1, 1],
            SimConfig::paper_default(150.0),
        );
        sim.start();
        let mut d = IdealDispatcher;
        let mut a = NoopAllocator;
        while sim.now() < 1_000_000_000 {
            assert!(sim.step(&mut d, &mut a), "events must remain before 1 s");
        }
        let view = sim.cluster_view();
        assert_eq!(view.gpu_count(), 2);
        // Finish cleanly afterwards.
        while sim.step(&mut d, &mut a) {}
        assert_eq!(sim.finish().records.len(), trace.len());
    }

    #[test]
    #[should_panic(expected = "call start() before step()")]
    fn step_requires_start() {
        let trace = small_trace(10.0, 1.0, 28);
        let mut sim = Simulation::new(
            &trace,
            bert_profiles(&[512]),
            &[1],
            SimConfig::paper_default(150.0),
        );
        sim.step(&mut IdealDispatcher, &mut NoopAllocator);
    }

    #[test]
    #[should_panic(expected = "trace request id 4294967296 does not fit")]
    fn new_refuses_an_id_past_u32() {
        let trace = Trace::from_requests(
            vec![Request {
                id: u64::from(u32::MAX) + 1,
                arrival: 0,
                length: 64,
            }],
            1_000_000_000,
        );
        Simulation::new(
            &trace,
            bert_profiles(&[512]),
            &[1],
            SimConfig::paper_default(150.0),
        );
    }

    #[test]
    fn journal_records_decisions_in_order() {
        let trace = small_trace(100.0, 3.0, 24);
        let mut cfg = SimConfig::paper_default(150.0);
        cfg.journal_limit = 10_000;
        let sim = Simulation::new(&trace, bert_profiles(&[64, 512]), &[1, 1], cfg);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert!(!report.journal.is_empty());
        // Time-ordered.
        assert!(report.journal.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every dispatched entry corresponds to a completed record.
        let dispatched = report
            .journal
            .iter()
            .filter(|(_, e)| matches!(e, crate::metrics::JournalEntry::Dispatched { .. }))
            .count();
        assert_eq!(dispatched, trace.len());
    }

    #[test]
    fn journal_respects_limit_and_default_off() {
        let trace = small_trace(200.0, 2.0, 25);
        let mut cfg = SimConfig::paper_default(150.0);
        cfg.journal_limit = 5;
        let sim = Simulation::new(&trace, bert_profiles(&[512]), &[2], cfg);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.journal.len(), 5);
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[512]),
            &[2],
            SimConfig::paper_default(150.0),
        );
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert!(report.journal.is_empty(), "journaling defaults off");
    }

    #[test]
    fn utilization_accounting_is_exact() {
        // One instance, back-to-back requests: busy time = Σ exec; the
        // utilization over the makespan approaches 1.
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request {
                id: i,
                arrival: 0,
                length: 64,
            })
            .collect();
        let trace = Trace::from_requests(reqs, 1_000_000_000);
        let profiles = bert_profiles(&[64]);
        let exec_ns = profiles[0].runtime.exec_nanos(64);
        let sim = Simulation::new(&trace, profiles, &[1], SimConfig::paper_default(150.0));
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.total_busy_ns, 20 * exec_ns);
        // ST-style padding shows up as utilization without useful work:
        // a 10-token request on the same runtime is just as "busy".
        let short = Trace::from_requests(
            vec![Request {
                id: 0,
                arrival: 0,
                length: 10,
            }],
            1_000_000_000,
        );
        let profiles = bert_profiles(&[64]);
        let sim = Simulation::new(&short, profiles, &[1], SimConfig::paper_default(150.0));
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.total_busy_ns, exec_ns);
    }

    #[test]
    fn batching_amortizes_bursts() {
        // 8 simultaneous requests, batch size 4 at 0.5 marginal cost. The
        // first request starts alone on arrival (batch of 1, cost e); the
        // next four batch (cost 2.5e, done at 3.5e); the last three batch
        // (cost 2e, done at 5.5e). Mean = (e + 4·3.5e + 3·5.5e)/8 = 3.94e —
        // well under the 4.5e of sequential service.
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request {
                id: i,
                arrival: 0,
                length: 64,
            })
            .collect();
        let trace = Trace::from_requests(reqs, 1_000_000_000);
        let profiles = bert_profiles(&[64]);
        let exec_ms = profiles[0].exec_ms;
        let mut cfg = SimConfig::paper_default(150.0);
        cfg.batch = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let sim = Simulation::new(&trace, profiles, &[1], cfg);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        assert_eq!(report.records.len(), 8);
        let mean = report.latency_summary().mean;
        let expected = exec_ms * (1.0 + 4.0 * 3.5 + 3.0 * 5.5) / 8.0 + 0.8;
        assert!((mean - expected).abs() < 0.01, "mean {mean} vs {expected}");
        // Sequential service would have produced mean e·4.5 + 0.8 (worse).
        assert!(mean < exec_ms * 4.5 + 0.8);
    }

    #[test]
    fn crash_in_the_middle_of_a_batch_loses_and_duplicates_nothing() {
        // Eight requests at t = 0 on one instance batching up to four: the
        // first runs alone over [0, e], the next four batch over
        // [e, 3.5e]. The crash at 2e lands inside that batch. A second
        // wave arrives after the reload.
        let reqs: Vec<Request> = (0..16)
            .map(|i| Request {
                id: i,
                arrival: if i < 8 { 0 } else { 3_000_000_000 },
                length: 64,
            })
            .collect();
        let trace = Trace::from_requests(reqs, 4_000_000_000);
        let profiles = bert_profiles(&[64]);
        let crash_at = 2 * profiles[0].runtime.exec_nanos(64);
        for ft in [
            None,
            Some(FaultToleranceConfig::paper_default().with_shedding()),
        ] {
            let mut cfg = SimConfig::paper_default(150.0);
            cfg.batch = BatchSpec {
                max_batch: 4,
                marginal_cost: 0.5,
            };
            cfg.fault_tolerance = ft;
            let mut sim =
                Simulation::new(&trace, profiles.clone(), &[1], cfg).with_faults(vec![FaultSpec {
                    at: crash_at,
                    instance: 0,
                    kind: FaultKind::Crash,
                }]);
            sim.start();
            let (mut d, mut a) = (IdealDispatcher, NoopAllocator);
            while sim.next_event_at().is_some_and(|t| t < crash_at) {
                sim.step(&mut d, &mut a);
            }
            let running: Vec<u64> = sim.cluster_view().running(0).iter().map(|r| r.id).collect();
            assert_eq!(running, [1, 2, 3, 4], "the crash hits a running batch");
            while sim.step(&mut d, &mut a) {}
            let report = sim.finish();
            assert_eq!(report.records.len() + report.shed.len(), trace.len());
            let mut ids: Vec<u64> = report
                .records
                .iter()
                .map(|r| u64::from(r.id))
                .chain(report.shed.iter().map(|s| s.id))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), trace.len(), "a request finished twice");
            for r in report.records.iter().filter(|r| (1..5).contains(&r.id)) {
                assert!(
                    r.started > crash_at,
                    "request {} kept its crashed run",
                    r.id
                );
            }
            if ft.is_some() {
                assert!(!report.shed.is_empty(), "the reload outlasts the deadline");
                assert!(!report.records.is_empty(), "the second wave is served");
            }
        }
    }

    #[test]
    fn batch_pads_to_its_longest_member() {
        // A dynamic runtime batching a short and a long request pays the
        // long request's cost for both.
        let reqs = vec![
            Request {
                id: 0,
                arrival: 0,
                length: 500,
            },
            Request {
                id: 1,
                arrival: 0,
                length: 10,
            },
            Request {
                id: 2,
                arrival: 0,
                length: 400,
            },
        ];
        let trace = Trace::from_requests(reqs, 1_000_000_000);
        let model = arlo_runtime::models::ModelSpec::bert_base();
        let long_exec = model.dynamic_latency_ms(500);
        let profiles = arlo_runtime::profile::profile_runtimes(
            &[arlo_runtime::latency::CompiledRuntime::new_dynamic(model)],
            150.0,
            64,
        );
        let mut cfg = SimConfig::paper_default(150.0);
        cfg.batch = BatchSpec {
            max_batch: 4,
            marginal_cost: 0.5,
        };
        let sim = Simulation::new(&trace, profiles, &[1], cfg);
        let report = sim.run(&mut IdealDispatcher, &mut NoopAllocator);
        // Request 0 is running when 1 and 2 arrive in the same instant?
        // All three arrive at t=0 and are enqueued before the first start
        // only if dispatched together — the first dispatch starts request 0
        // alone; 1 and 2 batch afterwards at max(len)=400's cost.
        let r0 = report.records.iter().find(|r| r.id == 0).expect("served");
        assert!(((r0.completed - r0.started) as f64 / 1e6 - long_exec).abs() < 1e-6);
        let r1 = report.records.iter().find(|r| r.id == 1).expect("served");
        let r2 = report.records.iter().find(|r| r.id == 2).expect("served");
        assert_eq!(r1.completed, r2.completed, "batch completes together");
    }

    #[test]
    fn buffered_requests_eventually_served() {
        // Start with only a 64-token instance: long requests have no
        // accepting instance and must buffer until the first allocation tick
        // swaps the instance to the 512 runtime.
        struct SwapToBig;
        impl Allocator for SwapToBig {
            fn allocate(
                &mut self,
                _now: Nanos,
                _window: &DemandWindow,
                _view: &ClusterView<'_>,
            ) -> Option<Vec<u32>> {
                Some(vec![0, 1])
            }
        }
        let trace = small_trace(20.0, 130.0, 8);
        assert!(
            trace.requests().iter().any(|r| r.length > 64),
            "trace must contain long requests"
        );
        let n = trace.len();
        let sim = Simulation::new(
            &trace,
            bert_profiles(&[64, 512]),
            &[1, 0],
            SimConfig::paper_default(150.0),
        );
        let report = sim.run(&mut IdealDispatcher, &mut SwapToBig);
        assert_eq!(
            report.records.len(),
            n,
            "every request must eventually be served"
        );
        assert!(
            report.buffered_requests > 0,
            "long requests should have buffered"
        );
    }
}
