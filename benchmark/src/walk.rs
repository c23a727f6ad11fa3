//! The layer walk: an in-process, single-threaded replay of a live
//! workload's own request stream through each serving layer's public
//! function, in server order, with a span around every call.
//!
//! It is a small discrete-event replay in the workload's *virtual* time
//! (due time × time scale), so batch forming is exact for a seed: frames
//! arrive at their due times, armed coalescer deadlines fire in between,
//! and sealed batches complete at their `finished_at`. The calls, in order:
//! `FrameReader::next_frame`, `VirtualClock::now`,
//! `ShardedTenantWindow::record`, `BoundedQueue::{try_push, pop_many}`,
//! `ArloEngine::submit`, `Coalescer::{push, drain_ready}`,
//! `ArloEngine::report_batch`, `StripedMap::with`, `FrameWriteBuf::push`.
//!
//! What it cannot see — syscalls, thread wake-ups, queue waits between
//! threads — is exactly `unattributed_us`.

use crate::schedule::{frame_of, id_base, Req};
use crate::span::{SpanLog, NO_PARENT};
use crate::stats::{percentile_sorted, trimmed_mean};
use crate::workloads::{LiveWorkload, SLO_MS};
use arlo_core::engine::{ArloEngine, EngineConfig, Placement};
use arlo_runtime::batching::{Coalescer, SealedBatch};
use arlo_runtime::latency::JitterSpec;
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::clock::VirtualClock;
use arlo_serve::protocol::{Frame, FrameReader, FrameWriteBuf, Sub, WireVersion};
use arlo_serve::queue::BoundedQueue;
use arlo_serve::registry::StripedMap;
use arlo_serve::tenants::ShardedTenantWindow;
use arlo_trace::{Nanos, NANOS_PER_SEC};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Server constants the walk mirrors (`arlo serve` sets them; they are not
/// flags): dispatch queue depth, dispatch burst, demand-window span and
/// stripes, registry stripes.
const QUEUE_CAPACITY: usize = 8192;
const DISPATCH_BURST: usize = 256;
const WINDOW_NS: Nanos = 2 * NANOS_PER_SEC;
const STRIPES: usize = 8;

/// The Bert-Base runtime family the server profiles at start-up.
pub fn profiles() -> Vec<RuntimeProfile> {
    profile_runtimes(
        &RuntimeSet::natural(ModelSpec::bert_base()).compile(),
        SLO_MS,
        512,
    )
}

/// `arlo serve`'s seed allocation: GPUs spread evenly over the runtimes,
/// the longest runtime guaranteed one.
pub fn seed_allocation(gpus: u32, runtimes: usize) -> Vec<u32> {
    let mut counts = vec![gpus / runtimes as u32; runtimes];
    for slot in counts.iter_mut().take(gpus as usize % runtimes) {
        *slot += 1;
    }
    if counts[runtimes - 1] == 0 {
        let donor = counts.iter().position(|&c| c > 0).expect("gpus >= 1");
        counts[donor] -= 1;
        counts[runtimes - 1] += 1;
    }
    counts
}

/// One engine per tenant, built the way `arlo serve` builds them.
pub fn engines(workload: &LiveWorkload, profiles: &[RuntimeProfile]) -> Vec<ArloEngine> {
    let tenants = workload.tenant_mix.len() as u32;
    (0..tenants)
        .map(|i| {
            let share = workload.gpus / tenants + u32::from(i < workload.gpus % tenants);
            let mut cfg = EngineConfig::paper_default(SLO_MS);
            cfg.allocation_period = workload.period_secs_effective().max(1) * NANOS_PER_SEC;
            cfg.sub_window = (cfg.allocation_period / 12).max(NANOS_PER_SEC / 2);
            ArloEngine::new(
                profiles.to_vec(),
                seed_allocation(share, profiles.len()),
                cfg,
            )
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    conn: u64,
    id: u64,
    length: u32,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    id: u64,
    conn: u64,
    length: u32,
    arrival: Nanos,
}

/// One virtual instance of one tenant's deployment generation.
type Key = (u32, u64, usize, usize);

struct Instance {
    coalescer: Coalescer<Job>,
    armed: Option<Nanos>,
}

struct Completion {
    at: Nanos,
    seq: u64,
    tenant: u32,
    placement: Placement,
    batch: SealedBatch<Job>,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Span-name ids, interned once.
struct Names {
    request: u16,
    completion: u16,
    decode: u16,
    clock: u16,
    record: u16,
    push: u16,
    pop: u16,
    submit: u16,
    push_drain: u16,
    flush: u16,
    report: u16,
    with: u16,
    encode: u16,
}

impl Names {
    fn intern(log: &mut SpanLog) -> Names {
        Names {
            request: log.name("request"),
            completion: log.name("completion"),
            decode: log.name("protocol.decode"),
            clock: log.name("clock.now"),
            record: log.name("tenants.record"),
            push: log.name("queue.try_push"),
            pop: log.name("queue.pop_many"),
            submit: log.name("engine.submit"),
            push_drain: log.name("batching.push_drain"),
            flush: log.name("batching.flush"),
            report: log.name("engine.report_batch"),
            with: log.name("registry.with"),
            encode: log.name("protocol.encode"),
        }
    }
}

/// Counts the replay produces besides its spans; all exact for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalkCounts {
    /// Requests walked.
    pub requests: u64,
    /// Frames decoded.
    pub frames: u64,
    /// `engine.submit` calls that returned `None`.
    pub unplaced: u64,
    /// Batches sealed.
    pub batches: u64,
    /// Requests in sealed batches.
    pub batched_requests: u64,
    /// Bytes of request frames plus answer frames.
    pub wire_bytes: u64,
    /// Per request: virtual ms between arriving at the coalescer and its
    /// batch starting.
    pub waits_virtual_ms: Vec<f64>,
    /// Wall time of the event loop.
    pub wall_ns: u64,
}

macro_rules! span {
    ($on:expr, $log:expr, $name:expr, $parent:expr, $req:expr, $body:expr) => {{
        if $on {
            let idx = $log.begin($name, $parent, $req);
            let out = $body;
            $log.end(idx);
            out
        } else {
            $body
        }
    }};
}

/// Replay `conns` (the per-connection schedules of one repetition) through
/// the layers. `TRACE` compiles the spans in or out, so the two variants
/// differ by exactly the tracing.
pub fn replay<const TRACE: bool>(
    workload: &LiveWorkload,
    conns: &[Vec<Req>],
    log: &mut SpanLog,
) -> WalkCounts {
    let n = Names::intern(log);
    let scale = Nanos::from(workload.time_scale);
    let frame_subs = workload.load.frame_subs();
    let profiles = profiles();
    let engines = engines(workload, &profiles);
    let windows: Vec<ShardedTenantWindow> = engines
        .iter()
        .map(|_| ShardedTenantWindow::new(WINDOW_NS, STRIPES))
        .collect();
    let queues: Vec<BoundedQueue<Msg>> = engines
        .iter()
        .map(|_| BoundedQueue::new(QUEUE_CAPACITY))
        .collect();
    let clock = VirtualClock::new(workload.time_scale);
    let registry: StripedMap<Arc<u64>> = StripedMap::new(STRIPES);
    for c in 0..conns.len() as u64 {
        registry.insert(c, Arc::new(c));
    }
    let policy = workload.batch_policy();
    let spec = policy.spec;
    let mut instances: HashMap<Key, Instance> = HashMap::new();
    let mut flushes: BinaryHeap<Reverse<(Nanos, Key)>> = BinaryHeap::new();
    let mut completions: BinaryHeap<Reverse<Completion>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut counts = WalkCounts::default();

    // The client side, outside the walk: every frame each connection will
    // send, encoded into one byte stream per connection, and the global
    // arrival order of those frames.
    let mut readers: Vec<FrameReader> = Vec::new();
    let mut order: Vec<(Nanos, usize)> = Vec::new();
    for (c, reqs) in conns.iter().enumerate() {
        let mut bytes: Vec<u8> = Vec::new();
        for (k, frame) in reqs.chunks(frame_subs).enumerate() {
            frame_of(frame, id_base(c) + (k * frame_subs) as u64)
                .encode_into(WireVersion::V2, &mut bytes);
            order.push((frame[0].due_ns * scale, c));
        }
        counts.wire_bytes += bytes.len() as u64;
        let mut reader = FrameReader::new();
        let mut rest: &[u8] = &bytes;
        while !rest.is_empty() {
            reader.fill(&mut rest).expect("in-memory read");
        }
        readers.push(reader);
    }
    order.sort_by_key(|&(at, c)| (at, c));
    let mut wbufs: Vec<FrameWriteBuf> = conns.iter().map(|_| FrameWriteBuf::new()).collect();
    let mut burst: Vec<Msg> = Vec::with_capacity(DISPATCH_BURST);

    // Seal whatever is ready on one instance at `now`, queue the sealed
    // batches for completion and re-arm the flush deadline.
    let mut advance = |instances: &mut HashMap<Key, Instance>,
                       flushes: &mut BinaryHeap<Reverse<(Nanos, Key)>>,
                       completions: &mut BinaryHeap<Reverse<Completion>>,
                       counts: &mut WalkCounts,
                       key: Key,
                       push: Option<Job>,
                       now: Nanos| {
        let inst = instances.entry(key).or_insert_with(|| Instance {
            coalescer: Coalescer::new(policy),
            armed: None,
        });
        if let Some(job) = push {
            inst.coalescer.push(now, job);
        } else if inst.armed == Some(now) {
            inst.armed = None;
        }
        let profile = &profiles[key.2];
        let sealed = inst.coalescer.drain_ready(now, &mut |jobs: &[Job], b| {
            let longest = jobs
                .iter()
                .map(|j| j.length)
                .max()
                .expect("non-empty batch");
            let base = profile
                .runtime
                .exec_nanos_jittered(longest, JitterSpec::NONE, jobs[0].id);
            spec.exec_ns(base, b, 1.0, 1.0)
        });
        if let Some(deadline) = inst.coalescer.next_deadline() {
            if inst.armed.is_none_or(|armed| armed > deadline) {
                inst.armed = Some(deadline);
                flushes.push(Reverse((deadline, key)));
            }
        }
        for batch in sealed {
            counts.batches += 1;
            counts.batched_requests += batch.items.len() as u64;
            for job in &batch.items {
                counts
                    .waits_virtual_ms
                    .push(batch.started_at.saturating_sub(job.arrival) as f64 / 1e6);
            }
            seq += 1;
            completions.push(Reverse(Completion {
                at: batch.finished_at,
                seq,
                tenant: key.0,
                placement: Placement {
                    generation: key.1,
                    runtime_idx: key.2,
                    instance_idx: key.3,
                },
                batch,
            }));
        }
    };

    let started = Instant::now();
    let mut next_frame = 0usize;
    loop {
        // Next event in virtual time: a frame arriving, a flush deadline,
        // or a batch finishing. Ties go to completions, then flushes, as
        // the server's threads would have run before the new arrival.
        let t_frame = order.get(next_frame).map(|&(at, _)| at);
        let t_flush = flushes.peek().map(|r| r.0 .0);
        let t_done = completions.peek().map(|r| r.0.at);
        let Some(now) = [t_done, t_flush, t_frame].into_iter().flatten().min() else {
            break;
        };

        if t_done == Some(now) {
            let Reverse(done) = completions.pop().expect("peeked");
            let jobs = &done.batch.items;
            let root = if TRACE {
                log.begin(n.completion, NO_PARENT, jobs[0].id)
            } else {
                NO_PARENT
            };
            let per_request = done.batch.exec_ns as f64 / jobs.len() as f64;
            span!(TRACE, log, n.report, root, jobs[0].id, {
                engines[done.tenant as usize].report_batch(
                    done.placement,
                    jobs.len() as u32,
                    0,
                    done.at,
                    per_request,
                )
            });
            for job in jobs {
                let route = span!(TRACE, log, n.with, root, job.id, {
                    registry.with(job.conn, |handle| handle.map(Arc::clone))
                });
                let answer = Frame::Response {
                    id: job.id,
                    generation: done.placement.generation,
                    runtime_idx: done.placement.runtime_idx as u16,
                    instance_idx: done.placement.instance_idx as u16,
                    latency_ns: done.at.saturating_sub(job.arrival),
                };
                let conn = *route.expect("connection registered") as usize;
                span!(TRACE, log, n.encode, root, job.id, {
                    wbufs[conn].push(&answer, WireVersion::V2)
                });
            }
            if TRACE {
                log.end(root);
            }
            // The writer thread's side: flush to a sink, outside the walk.
            for wbuf in &mut wbufs {
                if wbuf.pending_bytes() >= 32 * 1024 {
                    counts.wire_bytes += wbuf.pending_bytes() as u64;
                    while !wbuf.is_empty() {
                        wbuf.write_some(&mut std::io::sink()).expect("sink write");
                    }
                }
            }
            continue;
        }

        if t_flush == Some(now) {
            let Reverse((_, key)) = flushes.pop().expect("peeked");
            span!(TRACE, log, n.flush, NO_PARENT, 0, {
                advance(
                    &mut instances,
                    &mut flushes,
                    &mut completions,
                    &mut counts,
                    key,
                    None,
                    now,
                )
            });
            continue;
        }

        // --- a frame arrives on connection `c` -----------------------
        let (_, c) = order[next_frame];
        next_frame += 1;
        counts.frames += 1;
        let conn = c as u64;
        let root = if TRACE {
            log.begin(n.request, NO_PARENT, counts.requests)
        } else {
            NO_PARENT
        };
        let frame = span!(TRACE, log, n.decode, root, counts.requests, {
            readers[c]
                .next_frame()
                .expect("frame decodes")
                .expect("a whole frame is buffered")
        });
        let single;
        let subs: &[Sub] = match &frame {
            Frame::Submit { id, length, tenant } => {
                single = [Sub {
                    id: *id,
                    length: *length,
                    tenant: *tenant,
                }];
                &single
            }
            Frame::BatchedSubmit { subs } => subs,
            other => panic!("walk decoded an unexpected frame: {other:?}"),
        };
        // Connection side: admission bookkeeping and hand-off.
        for sub in subs {
            counts.requests += 1;
            span!(TRACE, log, n.clock, root, sub.id, {
                std::hint::black_box(clock.now())
            });
            span!(TRACE, log, n.record, root, sub.id, {
                windows[sub.tenant as usize].record(conn, now, sub.length.max(1))
            });
            let msg = Msg {
                conn,
                id: sub.id,
                length: sub.length,
            };
            span!(TRACE, log, n.push, root, sub.id, {
                queues[sub.tenant as usize]
                    .try_push(msg)
                    .expect("walk never fills the queue")
            });
        }
        // Dispatch-worker side, one tenant at a time.
        for (tenant, queue) in queues.iter().enumerate() {
            while !queue.is_empty() {
                burst.clear();
                span!(TRACE, log, n.pop, root, 0, {
                    queue.pop_many(&mut burst, DISPATCH_BURST)
                });
                for msg in &burst {
                    span!(TRACE, log, n.clock, root, msg.id, {
                        std::hint::black_box(clock.now())
                    });
                    let placed = span!(TRACE, log, n.submit, root, msg.id, {
                        engines[tenant].submit(msg.length, now)
                    });
                    let Some(p) = placed else {
                        counts.unplaced += 1;
                        continue;
                    };
                    let key = (tenant as u32, p.generation, p.runtime_idx, p.instance_idx);
                    let job = Job {
                        id: msg.id,
                        conn: msg.conn,
                        length: msg.length,
                        arrival: now,
                    };
                    span!(TRACE, log, n.push_drain, root, msg.id, {
                        advance(
                            &mut instances,
                            &mut flushes,
                            &mut completions,
                            &mut counts,
                            key,
                            Some(job),
                            now,
                        )
                    });
                }
            }
        }
        if TRACE {
            log.end(root);
        }
    }
    counts.wall_ns = started.elapsed().as_nanos() as u64;
    for wbuf in &wbufs {
        counts.wire_bytes += wbuf.pending_bytes() as u64;
    }
    counts
}

/// The traced walk's result: per-layer metrics by name, and what they add
/// up to per request.
pub struct WalkReport {
    /// `(metric name, value)`; units are in the metric table.
    pub metrics: Vec<(&'static str, f64)>,
    /// Σ of every layer call's self time, per request, in µs.
    pub self_us_per_req: f64,
    /// Walk wall time with spans on against spans off.
    pub trace_overhead_pct: f64,
    /// The spans themselves.
    pub log: SpanLog,
    /// The exact counts.
    pub counts: WalkCounts,
}

/// Duration an empty `begin`/`end` pair records: subtracted from every
/// span's self time, since each span's interval contains one clock read.
fn timer_overhead_ns(origin: Instant) -> f64 {
    let mut log = SpanLog::new(origin);
    let name = log.name("empty");
    for _ in 0..20_000 {
        let idx = log.begin(name, NO_PARENT, 0);
        log.end(idx);
    }
    let mut durations = log.totals().remove(0).self_ns;
    trimmed_mean(&mut durations)
}

/// Run the walk twice over the same stream — spans off, then spans on —
/// and reduce the spans to the per-layer metrics.
pub fn run(workload: &LiveWorkload, conns: &[Vec<Req>], origin: Instant) -> WalkReport {
    let frame_subs = workload.load.frame_subs();
    let overhead = timer_overhead_ns(origin);
    let mut scratch = SpanLog::new(origin);
    // Spans-off first: it also warms caches and the allocator for the
    // traced pass, which is the one whose absolute numbers are reported.
    let plain = replay::<false>(workload, conns, &mut scratch);
    let mut log = SpanLog::new(origin);
    let counts = replay::<true>(workload, conns, &mut log);
    assert_eq!(
        (plain.requests, plain.batches, plain.unplaced),
        (counts.requests, counts.batches, counts.unplaced),
        "the walk is not deterministic"
    );

    // Net mean self time and call count of one span name.
    let totals = log.totals();
    let net = |name: &str| -> (f64, f64) {
        totals
            .iter()
            .find(|t| t.name == name)
            .map(|t| {
                let mut samples = t.self_ns.clone();
                (
                    (trimmed_mean(&mut samples) - overhead).max(0.0),
                    t.calls as f64,
                )
            })
            .unwrap_or((0.0, 0.0))
    };
    let requests = counts.requests.max(1) as f64;
    let total = |name: &str| {
        let (mean, calls) = net(name);
        mean * calls
    };
    let decode = net("protocol.decode").0;
    let leaf_names = [
        "protocol.decode",
        "clock.now",
        "tenants.record",
        "queue.try_push",
        "queue.pop_many",
        "engine.submit",
        "batching.push_drain",
        "batching.flush",
        "engine.report_batch",
        "registry.with",
        "protocol.encode",
    ];
    let self_us_per_req = leaf_names.iter().map(|n| total(n)).sum::<f64>() / requests / 1e3;
    let mut waits = counts.waits_virtual_ms.clone();
    waits.sort_by(f64::total_cmp);
    let metrics = vec![
        (
            "protocol.decode_submit_ns",
            if frame_subs == 1 { decode } else { 0.0 },
        ),
        (
            "protocol.decode_batched_ns_per_sub",
            if frame_subs > 1 {
                decode / frame_subs as f64
            } else {
                0.0
            },
        ),
        ("protocol.encode_response_ns", net("protocol.encode").0),
        (
            "protocol.wire_bytes_per_req",
            counts.wire_bytes as f64 / requests,
        ),
        ("tenants.window_record_ns", net("tenants.record").0),
        (
            "queue.push_pop_ns",
            net("queue.try_push").0 + total("queue.pop_many") / requests,
        ),
        ("registry.with_ns", net("registry.with").0),
        ("clock.now_ns", net("clock.now").0),
        ("engine.submit_ns", net("engine.submit").0),
        (
            "engine.report_batch_ns_per_req",
            total("engine.report_batch") / requests,
        ),
        ("engine.unplaced", counts.unplaced as f64),
        (
            "batching.push_drain_ns_per_req",
            (total("batching.push_drain") + total("batching.flush")) / requests,
        ),
        (
            "batching.mean_batch",
            counts.batched_requests as f64 / counts.batches.max(1) as f64,
        ),
        (
            "batching.wait_virtual_ms_p50",
            percentile_sorted(&waits, 50.0),
        ),
    ];
    WalkReport {
        metrics,
        self_us_per_req,
        trace_overhead_pct: 100.0 * (counts.wall_ns as f64 - plain.wall_ns as f64)
            / plain.wall_ns.max(1) as f64,
        log,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;
    use crate::workloads::{by_name, Workload};

    fn live(name: &str) -> LiveWorkload {
        match by_name(name) {
            Some(Workload::Live(w)) => w,
            _ => panic!("{name} is not a live workload"),
        }
    }

    #[test]
    fn single_workloads_never_batch() {
        let w = live("single_open");
        let conns = schedule::build(&w, 5, 0, 0.2);
        let sent: usize = conns.iter().map(Vec::len).sum();
        let mut log = SpanLog::new(Instant::now());
        let counts = replay::<false>(&w, &conns, &mut log);
        assert_eq!(counts.requests as usize, sent);
        assert_eq!(counts.unplaced, 0);
        assert_eq!(counts.batched_requests, counts.requests);
        assert_eq!(
            counts.batches, counts.requests,
            "batch-1 seals every job alone"
        );
        assert_eq!(log.len(), 0, "spans-off walk recorded spans");
    }

    #[test]
    fn batched_workload_coalesces_and_is_exact_for_a_seed() {
        let w = live("tenants_batched");
        let conns = schedule::build(&w, 5, 0, 0.3);
        let mut log = SpanLog::new(Instant::now());
        let a = replay::<true>(&w, &conns, &mut log);
        let b = replay::<false>(&w, &conns, &mut SpanLog::new(Instant::now()));
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.waits_virtual_ms, b.waits_virtual_ms);
        assert_eq!(a.batched_requests + a.unplaced, a.requests);
        let mean = a.batched_requests as f64 / a.batches as f64;
        assert!(mean >= 3.0, "mean batch {mean} on tenants_batched");
        assert!(
            log.len() as u64 > a.requests,
            "traced walk recorded no spans"
        );
    }
}
