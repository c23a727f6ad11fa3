//! Multi-tenant serving primitives: SLO classes, tenant specs, the
//! sliding per-tenant demand window the re-granting coordinator consumes,
//! and the deterministic weighted tenant-tagging used by the load
//! generator.
//!
//! The live pieces — per-tenant engines and executors, admission
//! counters, and the coordinator thread itself — are wired in
//! [`crate::server`]; this module holds the pure, unit-testable logic:
//!
//! - [`SloClass`] maps a tenant's service tier to its admission share
//!   under overload (weighted shedding: lower classes shed first).
//! - [`TenantWindow`] is the streaming stats sink: every *offered* submit
//!   records `(arrival, length)`, the coordinator periodically drains the
//!   window into a [`StreamPlan`] via the same p95 provisioning pipeline
//!   the single-stream scheduler uses, and
//!   [`PoolCoordinator::partition`](arlo_core::multistream::PoolCoordinator)
//!   re-splits the pool across tenants.
//! - [`RegrantEvent`] is one entry of the structured reallocation log: a
//!   timestamped before/after of every tenant's GPU grant; a
//!   [`BoundedLog`] keeps the most recent [`LOG_CAPACITY`] of them (and of
//!   the server's panic, stall and escalation events).
//! - [`weighted_tenant`] partitions a request-id space across tenants by
//!   integer weights — exactly-once (a pure function of the id) and with
//!   no phantom shares (each cycle of `Σ weights` ids hits tenant `t`
//!   exactly `weights[t]` times).

use arlo_core::multistream::{plan_from_trace, StreamPlan};
use arlo_runtime::profile::RuntimeProfile;
use arlo_trace::workload::{Request, Trace};
use arlo_trace::Nanos;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Service tier of one tenant stream. Classes order admission under
/// overload: a gated tenant may only hold a fraction of the server's
/// `queue_capacity` in flight, so when the pool saturates, `Batch` submits
/// shed before `Standard`, and `Interactive` ones not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloClass {
    /// Latency-sensitive traffic: no class gate — identical to the
    /// single-tenant server's behaviour.
    Interactive,
    /// Default tier: admitted up to 3/4 of `queue_capacity` outstanding.
    Standard,
    /// Throughput traffic: admitted up to 1/2 of `queue_capacity`
    /// outstanding — first to shed, last to starve anyone else.
    Batch,
}

impl SloClass {
    /// Fraction of `queue_capacity` this class may hold in flight. `1.0`
    /// means "no class gate".
    pub fn admit_fraction(self) -> f64 {
        match self {
            SloClass::Interactive => 1.0,
            SloClass::Standard => 0.75,
            SloClass::Batch => 0.5,
        }
    }

    /// The concrete per-tenant outstanding limit for a server's
    /// `queue_capacity`, or `None` for the ungated `Interactive` class
    /// (admitted exactly as in single-tenant mode).
    pub fn admit_limit(self, queue_capacity: usize) -> Option<u64> {
        let fraction = self.admit_fraction();
        if fraction >= 1.0 {
            None
        } else {
            Some(((queue_capacity as f64 * fraction) as u64).max(1))
        }
    }

    /// Parse `interactive`, `standard`, or `batch` (case-insensitive).
    pub fn parse(s: &str) -> Option<SloClass> {
        match s.to_ascii_lowercase().as_str() {
            "interactive" => Some(SloClass::Interactive),
            "standard" => Some(SloClass::Standard),
            "batch" => Some(SloClass::Batch),
            _ => None,
        }
    }

    /// Short name for logs and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }
}

/// Static description of one tenant stream: everything the server needs
/// besides the engine itself.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (reports, regrant log).
    pub name: String,
    /// Admission tier under overload.
    pub class: SloClass,
    /// The stream's SLO in milliseconds — the coordinator's normalizer
    /// across tenants (streams with different SLO periods stay
    /// commensurable) and the bench's attainment threshold.
    pub slo_ms: f64,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, class: SloClass, slo_ms: f64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            class,
            slo_ms,
        }
    }
}

/// One entry of the coordinator's structured reallocation log: a GPU
/// re-grant between tenant engines.
#[derive(Debug, Clone, PartialEq)]
pub struct RegrantEvent {
    /// Virtual timestamp of the re-grant.
    pub at: Nanos,
    /// GPUs granted per tenant before the re-partition.
    pub gpus_before: Vec<u32>,
    /// GPUs granted per tenant after.
    pub gpus_after: Vec<u32>,
    /// GPUs that changed hands (half the L1 distance between the grant
    /// vectors — each moved GPU leaves one tenant and lands on another).
    pub moved_gpus: u32,
    /// The partition's total normalized objective (ms·requests/s).
    pub total_cost: f64,
}

impl RegrantEvent {
    /// Build an event from before/after grants.
    pub fn new(at: Nanos, gpus_before: Vec<u32>, gpus_after: Vec<u32>, total_cost: f64) -> Self {
        let moved: u32 = gpus_before
            .iter()
            .zip(&gpus_after)
            .map(|(&b, &a)| b.abs_diff(a))
            .sum();
        RegrantEvent {
            at,
            gpus_before,
            gpus_after,
            moved_gpus: moved / 2,
            total_cost,
        }
    }
}

/// How many entries a [`BoundedLog`] keeps. The multi-tenant e2e tests
/// (`tenants_e2e`) re-grant fewer than ten times and the supervision tests
/// (`supervisor_e2e`) flag a handful of stalls, so only a long-running
/// server drops an entry — one whose shard stalls again and again fills
/// the server's event log (`Snapshot::supervisor_events`) within minutes.
pub const LOG_CAPACITY: usize = 256;

/// A structured event log that keeps the most recent [`LOG_CAPACITY`]
/// entries, oldest first. A server that runs for days re-grants and
/// catches panics without end; its logs must not grow with it.
#[derive(Debug)]
pub struct BoundedLog<T> {
    events: VecDeque<T>,
}

impl<T> Default for BoundedLog<T> {
    fn default() -> Self {
        BoundedLog {
            events: VecDeque::new(),
        }
    }
}

impl<T: Clone> BoundedLog<T> {
    /// Append one entry, dropping the oldest once the log is full.
    pub fn push(&mut self, event: T) {
        if self.events.len() == LOG_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The retained entries, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.events.iter().cloned().collect()
    }
}

/// Fewest window samples worth running the provisioning pipeline over;
/// below this the tenant plans at zero demand (it still gets its Eq. 7
/// minimum — one GPU for the largest runtime — but concedes the rest).
const MIN_PLAN_SAMPLES: usize = 4;

/// Hard cap on buffered samples per tenant, so a flood cannot grow the
/// window without bound between coordinator passes.
const MAX_WINDOW_SAMPLES: usize = 65_536;

/// Sliding window of one tenant's *offered* arrivals — the streaming stats
/// feed between the admission path and the coordinator. Writers push
/// `(arrival, length)` pairs; the coordinator prunes anything older than
/// the configured window and converts the remainder into a [`StreamPlan`].
#[derive(Debug)]
pub struct TenantWindow {
    /// Window span in virtual nanoseconds.
    window: Nanos,
    /// `(arrival, length)` of offered submits, oldest first.
    samples: VecDeque<(Nanos, u32)>,
}

impl TenantWindow {
    /// An empty window spanning `window` virtual nanoseconds.
    pub fn new(window: Nanos) -> TenantWindow {
        TenantWindow {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Record one offered submit — the server feeds the window *before*
    /// the class gate, so re-granting sees what the tenant asked for, not
    /// just what survived admission. Arrivals from concurrent connections
    /// may be slightly out of order; the window sorts at plan time.
    pub fn record(&mut self, arrival: Nanos, length: u32) {
        if self.samples.len() >= MAX_WINDOW_SAMPLES {
            self.samples.pop_front();
        }
        self.samples.push_back((arrival, length));
    }

    /// Drop samples that have slid out of the window ending at `now`.
    pub fn prune(&mut self, now: Nanos) {
        let cutoff = now.saturating_sub(self.window);
        while self.samples.front().is_some_and(|&(at, _)| at < cutoff) {
            self.samples.pop_front();
        }
    }

    /// Samples currently buffered.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Convert the window into the tenant's [`StreamPlan`] as of `now`:
    /// prune, then run the windowed arrivals through the same p95
    /// sub-window provisioning the single-stream scheduler uses. A window
    /// with fewer than `MIN_PLAN_SAMPLES` samples plans at zero demand
    /// (the coordinator still grants the stream its Eq. 7 minimum).
    pub fn plan(
        &mut self,
        name: &str,
        profiles: &[RuntimeProfile],
        slo_ms: f64,
        now: Nanos,
    ) -> StreamPlan {
        self.prune(now);
        plan_from_samples(
            name,
            profiles,
            slo_ms,
            now,
            self.window,
            self.samples.iter().copied().collect(),
        )
    }
}

/// The shared tail of window planning: sort the (possibly merged)
/// samples, rebase arrivals onto the window, and run the p95 provisioning
/// pipeline. Fewer than [`MIN_PLAN_SAMPLES`] samples plan at zero demand.
fn plan_from_samples(
    name: &str,
    profiles: &[RuntimeProfile],
    slo_ms: f64,
    now: Nanos,
    window: Nanos,
    mut samples: Vec<(Nanos, u32)>,
) -> StreamPlan {
    if samples.len() < MIN_PLAN_SAMPLES {
        return StreamPlan {
            name: name.to_string(),
            profiles: profiles.to_vec(),
            demand: vec![0.0; profiles.len()],
            slo_ms,
        };
    }
    let start = now.saturating_sub(window);
    samples.sort_unstable_by_key(|&(at, _)| at);
    let requests: Vec<Request> = samples
        .into_iter()
        .enumerate()
        .map(|(i, (at, length))| Request {
            id: i as u64,
            // Clamp at the horizon: recorders keep appending while the
            // coordinator is between snapshotting `now` and taking the
            // window lock, so a sample can postdate `now` by a hair.
            arrival: at.saturating_sub(start).min(window),
            length: length.max(1),
        })
        .collect();
    let trace = Trace::from_requests(requests, window);
    plan_from_trace(name, profiles.to_vec(), &trace, slo_ms)
}

/// Lock-striped [`TenantWindow`]: a coordinated server's per-tenant demand
/// window. Every offered submit (shed ones included) appends its
/// `(arrival, length)` sample under the stripe its connection id picks,
/// so concurrent connections append to disjoint stripes, and only the
/// coordinator — a few times a second — pays the merge across all
/// stripes at plan time.
///
/// Semantics match [`TenantWindow`] exactly: arrivals across stripes may
/// interleave out of order, and [`ShardedTenantWindow::plan`] sorts the
/// merged samples, as the unsharded window already did for concurrent
/// connections. The `MAX_WINDOW_SAMPLES` flood cap applies per stripe.
#[derive(Debug)]
pub struct ShardedTenantWindow {
    stripes: Box<[Mutex<TenantWindow>]>,
    mask: u64,
}

impl ShardedTenantWindow {
    /// A window of `window` virtual nanoseconds striped `stripes` ways
    /// (min 1, rounded up to a power of two).
    pub fn new(window: Nanos, stripes: usize) -> ShardedTenantWindow {
        let n = stripes.max(1).next_power_of_two();
        ShardedTenantWindow {
            stripes: (0..n)
                .map(|_| Mutex::new(TenantWindow::new(window)))
                .collect(),
            mask: n as u64 - 1,
        }
    }

    fn stripe(&self, key: u64) -> &Mutex<TenantWindow> {
        // splitmix64 finalizer: keys are small sequential connection ids
        // and would pile onto the low stripes unmixed.
        let mut h = key;
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        &self.stripes[(h & self.mask) as usize]
    }

    /// Record one offered submit under the caller's stripe key (the
    /// connection id): two connections rarely contend, and a single
    /// connection's samples stay ordered within their stripe.
    pub fn record(&self, key: u64, arrival: Nanos, length: u32) {
        self.stripe(key)
            .lock()
            .expect("tenant window poisoned")
            .record(arrival, length);
    }

    /// Samples currently buffered across all stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("tenant window poisoned").len())
            .sum()
    }

    /// True when no stripe holds samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stripe count (post power-of-two rounding).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Drop samples that have slid out of the window ending at `now`.
    pub fn prune(&self, now: Nanos) {
        for stripe in self.stripes.iter() {
            stripe.lock().expect("tenant window poisoned").prune(now);
        }
    }

    /// Merge every stripe's windowed samples and plan, exactly as
    /// [`TenantWindow::plan`] would over the union. One stripe lock is
    /// held at a time — recorders on other stripes never stall behind the
    /// coordinator.
    pub fn plan(
        &self,
        name: &str,
        profiles: &[RuntimeProfile],
        slo_ms: f64,
        now: Nanos,
    ) -> StreamPlan {
        let mut merged: Vec<(Nanos, u32)> = Vec::new();
        let window = {
            let mut window = 0;
            for stripe in self.stripes.iter() {
                let mut stripe = stripe.lock().expect("tenant window poisoned");
                stripe.prune(now);
                merged.extend(stripe.samples.iter().copied());
                window = stripe.window;
            }
            window
        };
        plan_from_samples(name, profiles, slo_ms, now, window, merged)
    }
}

/// Deterministically assign request `id` to a tenant under integer
/// `weights`: position `id mod Σw` of the cycle falls in tenant `t`'s
/// contiguous block of `weights[t]` slots. Pure in `id`, so every id maps
/// to exactly one tenant (exactly-once), and each full cycle distributes
/// ids in exact proportion (no phantom shares). Zero-weight tenants never
/// receive traffic; empty or all-zero weights map everything to tenant 0.
pub fn weighted_tenant(id: u64, weights: &[u32]) -> u32 {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    if total == 0 {
        return 0;
    }
    let mut slot = id % total;
    for (tenant, &w) in weights.iter().enumerate() {
        let w = u64::from(w);
        if slot < w {
            return tenant as u32;
        }
        slot -= w;
    }
    unreachable!("slot < total is within the cumulative weight cycle")
}

/// Parse a `--tenant-mix` style weight list: colon-separated non-negative
/// integers, e.g. `3:2:1`. Rejects empty segments, non-numeric segments,
/// and all-zero mixes.
pub fn parse_mix(s: &str) -> Option<Vec<u32>> {
    let weights: Option<Vec<u32>> = s.split(':').map(|seg| seg.trim().parse().ok()).collect();
    let weights = weights?;
    if weights.is_empty() || weights.iter().all(|&w| w == 0) {
        return None;
    }
    Some(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::profile_runtimes;
    use arlo_runtime::runtime_set::RuntimeSet;
    use arlo_trace::NANOS_PER_SEC;

    #[test]
    fn admit_fractions_order_by_class() {
        assert!(SloClass::Interactive.admit_fraction() > SloClass::Standard.admit_fraction());
        assert!(SloClass::Standard.admit_fraction() > SloClass::Batch.admit_fraction());
        // Interactive is ungated: identical to single-tenant admission.
        assert_eq!(SloClass::Interactive.admit_limit(4096), None);
        assert_eq!(SloClass::Standard.admit_limit(4096), Some(3072));
        assert_eq!(SloClass::Batch.admit_limit(4096), Some(2048));
        // Tiny queues still admit at least one request per class.
        assert_eq!(SloClass::Batch.admit_limit(1), Some(1));
    }

    #[test]
    fn class_parse_round_trips() {
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert_eq!(SloClass::parse(class.name()), Some(class));
            assert_eq!(SloClass::parse(&class.name().to_uppercase()), Some(class));
        }
        assert_eq!(SloClass::parse("premium"), None);
    }

    #[test]
    fn bounded_log_keeps_the_last_entries_in_order() {
        let mut log = BoundedLog::default();
        for event in 0..300u32 {
            log.push(event);
        }
        let first_kept = 300 - LOG_CAPACITY as u32;
        assert_eq!(log.to_vec(), (first_kept..300).collect::<Vec<_>>());
    }

    // --- weighted tagging: exactly-once, no phantom shares ---

    #[test]
    fn weighted_tenant_partitions_each_cycle_exactly() {
        let weights = [3, 2, 1];
        let cycle: u64 = 6;
        // Every cycle of Σw consecutive ids hits tenant t exactly w_t
        // times — no phantom shares.
        for start in [0u64, 6, 600, u64::MAX - 5] {
            let mut counts = [0u64; 3];
            for off in 0..cycle {
                counts[weighted_tenant(start.wrapping_add(off) % cycle, &weights) as usize] += 1;
            }
            assert_eq!(counts, [3, 2, 1]);
        }
        // Exactly-once: the assignment is a pure function of the id.
        for id in 0..100 {
            assert_eq!(weighted_tenant(id, &weights), weighted_tenant(id, &weights));
        }
    }

    #[test]
    fn weighted_tenant_skips_zero_weight_tenants() {
        let weights = [2, 0, 1];
        for id in 0..300 {
            assert_ne!(weighted_tenant(id, &weights), 1, "zero weight got traffic");
        }
        // Degenerate mixes collapse to the default tenant.
        assert_eq!(weighted_tenant(42, &[]), 0);
        assert_eq!(weighted_tenant(42, &[0, 0]), 0);
    }

    #[test]
    fn round_robin_is_the_all_ones_mix() {
        for id in 0..12 {
            assert_eq!(weighted_tenant(id, &[1, 1, 1]), (id % 3) as u32);
        }
    }

    #[test]
    fn mix_parsing_rejects_garbage() {
        assert_eq!(parse_mix("3:2:1"), Some(vec![3, 2, 1]));
        assert_eq!(parse_mix("1"), Some(vec![1]));
        assert_eq!(parse_mix("0:0"), None);
        assert_eq!(parse_mix(""), None);
        assert_eq!(parse_mix("3:x"), None);
        assert_eq!(parse_mix("3::1"), None);
    }

    // --- the sliding window ---

    #[test]
    fn window_prunes_old_samples() {
        let mut w = TenantWindow::new(NANOS_PER_SEC);
        for i in 0..10u64 {
            w.record(i * NANOS_PER_SEC / 10, 64);
        }
        assert_eq!(w.len(), 10);
        // At t=1.55s the window [0.55s, 1.55s] keeps samples at 0.6s..0.9s.
        w.prune(NANOS_PER_SEC + NANOS_PER_SEC * 55 / 100);
        assert_eq!(w.len(), 4);
        w.prune(10 * NANOS_PER_SEC);
        assert!(w.is_empty());
    }

    #[test]
    fn sparse_window_plans_at_zero_demand() {
        let profiles = profile_runtimes(
            &RuntimeSet::with_count(ModelSpec::bert_base(), 4).compile(),
            150.0,
            256,
        );
        let mut w = TenantWindow::new(NANOS_PER_SEC);
        w.record(0, 64);
        let plan = w.plan("sparse", &profiles, 150.0, NANOS_PER_SEC / 2);
        assert!(plan.demand.iter().all(|&q| q == 0.0));
        // Zero demand still reserves the Eq. 7 minimum.
        assert_eq!(plan.min_gpus(), 1);
    }

    #[test]
    fn sharded_window_plans_identically_to_the_unsharded_window() {
        let profiles = profile_runtimes(
            &RuntimeSet::with_count(ModelSpec::bert_base(), 4).compile(),
            150.0,
            256,
        );
        let mut flat = TenantWindow::new(2 * NANOS_PER_SEC);
        let sharded = ShardedTenantWindow::new(2 * NANOS_PER_SEC, 8);
        assert_eq!(sharded.stripe_count(), 8);
        for i in 0..500u64 {
            let at = (i * 7919) % (2 * NANOS_PER_SEC);
            let len = 32 + (i % 200) as u32;
            flat.record(at, len);
            sharded.record(i % 37, at, len); // 37 "connections"
        }
        assert_eq!(sharded.len(), 500);
        let a = flat.plan("t", &profiles, 150.0, 2 * NANOS_PER_SEC);
        let b = sharded.plan("t", &profiles, 150.0, 2 * NANOS_PER_SEC);
        assert_eq!(a.demand, b.demand, "merge+sort reproduces the flat plan");
        let c = sharded.plan("t", &profiles, 150.0, 2 * NANOS_PER_SEC);
        assert_eq!(b.demand, c.demand, "planning does not consume samples");
    }

    #[test]
    fn sharded_window_spreads_keys_across_stripes() {
        let w = ShardedTenantWindow::new(NANOS_PER_SEC, 8);
        for key in 0..64u64 {
            w.record(key, 0, 1);
        }
        // Sequential conn-id keys must not pile onto one stripe: with 64
        // keys over 8 stripes, a degenerate hash would leave ≥7 empty.
        let occupied = w
            .stripes
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(occupied >= 4, "only {occupied}/8 stripes used");
        w.prune(10 * NANOS_PER_SEC);
        assert!(w.is_empty());
    }

    #[test]
    fn sharded_window_conserves_concurrent_records() {
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let w = Arc::new(ShardedTenantWindow::new(u64::MAX, 8));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        w.record(t, i, 64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.len() as u64, THREADS * PER_THREAD, "no sample lost");
    }

    #[test]
    fn busy_window_produces_positive_demand() {
        let profiles = profile_runtimes(
            &RuntimeSet::with_count(ModelSpec::bert_base(), 4).compile(),
            150.0,
            256,
        );
        let mut w = TenantWindow::new(2 * NANOS_PER_SEC);
        for i in 0..200u64 {
            // Out-of-order on purpose: concurrent admitters interleave.
            let at = (i * 7919) % (2 * NANOS_PER_SEC);
            w.record(at, 32 + (i % 200) as u32);
        }
        let plan = w.plan("busy", &profiles, 150.0, 2 * NANOS_PER_SEC);
        assert!(plan.demand.iter().sum::<f64>() > 0.0);
        assert!(plan.min_gpus() >= 1);
    }
}
