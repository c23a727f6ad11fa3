//! Batch-1 parity: the coalescing executor under greedy
//! [`BatchSpec::SINGLE`] is a drop-in for the pre-refactor per-request
//! executor.
//!
//! The historical executor kept one busy-until clock per
//! `(generation, runtime, instance)` and charged each job
//! `start = max(busy, submitted_at)`, `done = start + exec_jittered(len)`.
//! This test replays a fixed seeded workload through the refactored
//! executor and recomputes that golden schedule independently, asserting
//! **identical** per-request start/finish/latency values and the identical
//! completion order — i.e. the refactor changed no observable timing at
//! batch size 1. Any deviation in the coalescer's seal rule, cost charging
//! or clock handling at batch 1 fails this test.

use arlo_core::engine::Placement;
use arlo_runtime::batching::{BatchPolicy, BatchSpec};
use arlo_runtime::latency::{CompiledRuntime, JitterSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::{profile_runtimes, RuntimeProfile};
use arlo_serve::clock::VirtualClock;
use arlo_serve::executor::{CompletedBatch, Executor, Job};
use arlo_trace::workload::TraceSpec;
use arlo_trace::Nanos;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const SCALE: u32 = 1_000;
/// ±5% execution jitter, keyed off request ids — exercises the jittered
/// cost path, deterministically.
const JITTER: JitterSpec = JitterSpec { amplitude: 0.05 };

fn profiles() -> Vec<RuntimeProfile> {
    let model = ModelSpec::bert_base();
    let rts = vec![
        CompiledRuntime::new_static(model.clone(), 64),
        CompiledRuntime::new_static(model.clone(), 128),
        CompiledRuntime::new_static(model, 512),
    ];
    profile_runtimes(&rts, 150.0, 64)
}

/// The pre-refactor executor's schedule, recomputed exactly: serial
/// busy-until chains per instance, one jittered execution per job.
fn golden_schedule(profiles: &[RuntimeProfile], jobs: &[Job]) -> HashMap<u64, (Nanos, Nanos)> {
    let mut busy: HashMap<(u64, usize, usize), Nanos> = HashMap::new();
    let mut out = HashMap::new();
    for job in jobs {
        let p = job.placement;
        let key = (p.generation, p.runtime_idx, p.instance_idx);
        let slot = busy.entry(key).or_insert(0);
        let start = (*slot).max(job.submitted_at);
        let exec =
            profiles[p.runtime_idx]
                .runtime
                .exec_nanos_jittered(job.length, JITTER, job.request_id);
        let done = start + exec;
        *slot = done;
        out.insert(job.request_id, (start, done));
    }
    out
}

#[test]
fn batch_1_reproduces_the_per_request_executor_schedule_exactly() {
    let profiles = profiles();
    let clock = Arc::new(VirtualClock::new(SCALE));
    let done: Arc<Mutex<Vec<CompletedBatch>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&done);
    let exec = Executor::new(
        profiles.clone(),
        4,
        Arc::clone(&clock),
        JITTER,
        BatchPolicy::greedy(BatchSpec::SINGLE),
        Box::new(move |b| sink.lock().push(b)),
    );

    // A fixed seeded trace, placed deterministically: requests land on the
    // smallest runtime that fits, spread round-robin over 3 instances.
    // Timestamps sit 200 virtual seconds (200 ms real) in the future so
    // every submit is registered before its arrival instant — the schedule
    // is then a pure function of the trace, independent of thread timing —
    // even in a debug build, or with the submitting thread preempted for
    // tens of milliseconds.
    let mut rng = StdRng::seed_from_u64(1234);
    let trace = TraceSpec::twitter_stable(400.0, 3.0).generate(&mut rng);
    let t0 = clock.now() + 200_000_000_000;
    let jobs: Vec<Job> = trace
        .requests()
        .iter()
        .map(|r| {
            let runtime_idx = profiles
                .iter()
                .position(|p| p.max_length() >= r.length)
                .expect("trace fits the largest runtime");
            Job {
                placement: Placement {
                    generation: 0,
                    runtime_idx,
                    instance_idx: (r.id % 3) as usize,
                },
                request_id: r.id,
                conn_id: 0,
                tenant: 0,
                length: r.length,
                submitted_at: t0 + r.arrival,
            }
        })
        .collect();
    assert!(jobs.len() > 1_000, "workload too small: {}", jobs.len());

    // The precondition, checked: the clock read after each submit returns
    // bounds the reading the executor took inside it, so a job whose
    // submit returned before its arrival instant kept its own stamp.
    let mut late = 0;
    for job in &jobs {
        exec.submit(*job);
        if clock.now() >= job.submitted_at {
            late += 1;
        }
    }
    let occupancy = exec.shutdown();
    assert_eq!(
        late,
        0,
        "precondition: {late} of {} submits returned at or after their arrival \
         instant, so the schedule depends on thread timing",
        jobs.len()
    );

    // Every execution is a singleton batch: the occupancy histogram must
    // show nothing but batch size 1.
    assert_eq!(occupancy.len(), 1, "occupancy {occupancy:?}");
    assert_eq!(occupancy[0], jobs.len() as u64);

    let golden = golden_schedule(&profiles, &jobs);
    let completed = done.lock();
    assert_eq!(completed.len(), jobs.len(), "one completion per job");
    for batch in completed.iter() {
        assert_eq!(batch.jobs.len(), 1);
        let job = batch.jobs[0];
        let (start, finish) = golden[&job.request_id];
        assert_eq!(
            (batch.started_at, batch.finished_at),
            (start, finish),
            "request {} deviates from the pre-refactor schedule",
            job.request_id
        );
        assert_eq!(batch.exec_ns, finish - start);
    }

    // Completion order (ties broken by id) matches the golden schedule's.
    let mut live: Vec<(Nanos, u64)> = completed
        .iter()
        .map(|b| (b.finished_at, b.jobs[0].request_id))
        .collect();
    live.sort_unstable();
    let mut expected: Vec<(Nanos, u64)> = golden.iter().map(|(&id, &(_, f))| (f, id)).collect();
    expected.sort_unstable();
    assert_eq!(live, expected, "completion order drifted");
}
