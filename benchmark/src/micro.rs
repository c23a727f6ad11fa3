//! Per-layer measurements the single-threaded walk cannot make: contended
//! primitives, the executor's thread pool, the solver at the paper's
//! Table 2 sizes, CRC cost, and an engine re-plan.

use crate::schedule::Req;
use crate::stats::{median, percentile_sorted, trimmed_mean};
use crate::walk;
use crate::workloads::LiveWorkload;
use arlo_core::engine::ArloEngine;
use arlo_runtime::latency::JitterSpec;
use arlo_runtime::profile::BatchLatencyMap;
use arlo_serve::clock::VirtualClock;
use arlo_serve::executor::{CompletedBatch, Executor, Job};
use arlo_serve::protocol::crc32c;
use arlo_serve::queue::{BoundedQueue, PushError};
use arlo_solver::dp::DpSolver;
use arlo_solver::problem::{AllocationProblem, RuntimeInput};
use arlo_trace::NANOS_PER_SEC;
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// `protocol.crc32c_ns_per_kib`: the v2 trailer's checksum over 1 KiB.
pub fn crc32c_ns_per_kib() -> f64 {
    let buf: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
    let rounds = 20_000;
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..rounds {
        acc ^= crc32c(black_box(&buf));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / f64::from(rounds)
}

/// `queue.contended_ns`: one producer thread pushing and one consumer
/// thread draining in bursts, per item.
pub fn queue_contended_ns() -> f64 {
    const ITEMS: u64 = 400_000;
    let queue: BoundedQueue<u64> = BoundedQueue::new(8192);
    let barrier = Barrier::new(2);
    let started = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut out = Vec::with_capacity(256);
            let mut seen = 0;
            barrier.wait();
            while seen < ITEMS {
                out.clear();
                seen += queue.pop_many(&mut out, 256) as u64;
            }
        });
        barrier.wait();
        let started = Instant::now();
        for i in 0..ITEMS {
            loop {
                match queue.try_push(i) {
                    Ok(()) => break,
                    Err(PushError::Full) => std::thread::yield_now(),
                    Err(PushError::Closed) => unreachable!("nobody closes the queue"),
                }
            }
        }
        consumer.join().expect("consumer thread panicked");
        started
    });
    started.elapsed().as_nanos() as f64 / ITEMS as f64
}

/// `engine.submit_contended_ns`: two threads each placing a request and
/// reporting it complete (so instance load stays flat), per pair.
pub fn engine_submit_contended_ns(workload: &LiveWorkload, lengths: &[u32]) -> f64 {
    const PAIRS_PER_THREAD: usize = 150_000;
    let profiles = walk::profiles();
    let engine = walk::engines(workload, &profiles).remove(0);
    let barrier = Barrier::new(2);
    let worker = |offset: usize| {
        barrier.wait();
        let started = Instant::now();
        for i in 0..PAIRS_PER_THREAD {
            let length = lengths[(offset + i) % lengths.len()];
            let now = i as u64 * 1000;
            if let Some(p) = engine.submit(length, now) {
                engine.report_batch(p, 1, 0, now, 1e6);
            }
        }
        started.elapsed().as_nanos() as f64 / PAIRS_PER_THREAD as f64
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| worker(lengths.len() / 2));
        let mine = worker(0);
        (mine, other.join().expect("engine thread panicked"))
    });
    (a + b) / 2.0
}

/// `engine.reallocate_ms`: feed one decision period of the stream into a
/// fresh engine, then time `maybe_reallocate` + `apply_allocation`.
pub fn engine_reallocate_ms(workload: &LiveWorkload, conns: &[Vec<Req>]) -> f64 {
    let profiles = walk::profiles();
    let engine: ArloEngine = walk::engines(workload, &profiles).remove(0);
    let period = workload.period_secs_effective() * NANOS_PER_SEC;
    // Stretch the stream over the period so every sub-window sees demand.
    let total: usize = conns.iter().map(Vec::len).sum();
    let mut i = 0u64;
    for reqs in conns {
        for r in reqs {
            engine.submit(r.length, i * period / total.max(1) as u64);
            i += 1;
        }
    }
    let gpus = workload.gpus / workload.tenant_mix.len() as u32;
    let t = Instant::now();
    if let Some(plan) = engine.maybe_reallocate(period, gpus) {
        engine.apply_allocation(&plan);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// The Table 2 problem generator (`tab02_ilp_time`): Twitter-skewed
/// demand, staircase execution costs, demand scaled to ~70 % of capacity.
fn table2_instance(gpus: u32, runtimes: u32) -> AllocationProblem {
    let slo = 150.0;
    let inputs: Vec<RuntimeInput> = (1..=runtimes)
        .map(|i| {
            let len = 512 * i / runtimes;
            let exec = 0.6 + 0.00833 * f64::from(len);
            let cap = (slo / exec) as u32;
            RuntimeInput {
                max_length: len.max(1),
                capacity: cap,
                demand: 0.0,
                batch_latency: BatchLatencyMap::from_measurements(
                    (1..=cap.max(1) as usize)
                        .map(|b| exec * (b as f64 + 1.0) / 2.0)
                        .collect(),
                ),
            }
        })
        .collect();
    let mut problem = AllocationProblem {
        gpus,
        runtimes: inputs,
    };
    let shares: Vec<f64> = (0..runtimes)
        .map(|i| 1.0 / f64::from(i + 1).powi(2))
        .collect();
    let share_sum: f64 = shares.iter().sum();
    let gpu_per_demand: f64 = shares
        .iter()
        .zip(&problem.runtimes)
        .map(|(s, rt)| s / share_sum / f64::from(rt.capacity.max(1)))
        .sum();
    let total_demand = f64::from(gpus) * 0.7 / gpu_per_demand;
    for (share, rt) in shares.iter().zip(problem.runtimes.iter_mut()) {
        rt.demand = share / share_sum * total_demand;
    }
    problem
}

/// `solver.dp_solve_ms_<gpus>x<runtimes>`: median of `runs` exact-DP
/// solves of one Table 2 instance.
pub fn dp_solve_ms(gpus: u32, runtimes: u32, runs: usize) -> Result<f64, String> {
    let problem = table2_instance(gpus, runtimes);
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        let solved = DpSolver::default()
            .solve(black_box(&problem))
            .map_err(|e| format!("Table 2 instance {gpus}x{runtimes}: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(solved);
    }
    Ok(median(&times))
}

/// What the executor probe measured.
pub struct ExecutorProbe {
    /// `Executor::submit` per call.
    pub submit_ns: f64,
    /// Real time between a batch's virtual `finished_at` and its callback.
    pub complete_lag_us_p50: f64,
    /// See `complete_lag_us_p50`.
    pub complete_lag_us_p99: f64,
}

/// Drive `Executor::new` / `Executor::submit` with the workload's stream,
/// paced in real time for at most `secs`, and time each batch's callback
/// against its virtual completion instant.
pub fn executor_probe(
    workload: &LiveWorkload,
    conns: &[Vec<Req>],
    secs: f64,
) -> Result<ExecutorProbe, String> {
    let profiles = walk::profiles();
    let engine = Arc::new(walk::engines(workload, &profiles).remove(0));
    let clock = Arc::new(VirtualClock::new(workload.time_scale));
    let scale = u64::from(workload.time_scale);
    let lags: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let on_done = {
        let (engine, clock, lags) = (Arc::clone(&engine), Arc::clone(&clock), Arc::clone(&lags));
        Box::new(move |done: CompletedBatch| {
            let late_virtual = clock.now().saturating_sub(done.finished_at);
            engine.report_batch(
                done.jobs[0].placement,
                done.jobs.len() as u32,
                0,
                done.finished_at,
                done.exec_ns as f64 / done.jobs.len() as f64,
            );
            lags.lock()
                .expect("lag store poisoned")
                .push(late_virtual as f64 / scale as f64 / 1e3);
        })
    };
    // 8 workers: `arlo serve`'s default `--workers`.
    let executor = Executor::new(
        profiles,
        8,
        Arc::clone(&clock),
        JitterSpec::NONE,
        workload.batch_policy(),
        on_done,
    );
    // One merged stream in due order, as the dispatch worker would see it.
    let mut stream: Vec<Req> = conns.iter().flatten().copied().collect();
    stream.sort_by_key(|r| r.due_ns);
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    let mut submit_ns: Vec<f64> = Vec::with_capacity(stream.len());
    for (i, req) in stream.iter().enumerate() {
        let due = Duration::from_nanos(req.due_ns);
        if due > budget {
            break;
        }
        while t0.elapsed() < due {
            std::hint::spin_loop();
        }
        let now = clock.now();
        let Some(placement) = engine.submit(req.length, now) else {
            continue;
        };
        let job = Job {
            placement,
            request_id: i as u64,
            conn_id: 0,
            tenant: 0,
            length: req.length,
            submitted_at: now,
        };
        let t = Instant::now();
        executor.submit(job);
        submit_ns.push(t.elapsed().as_nanos() as f64);
    }
    executor.shutdown();
    let mut lags = std::mem::take(&mut *lags.lock().expect("lag store poisoned"));
    if lags.is_empty() {
        return Err("executor probe completed no batch".into());
    }
    lags.sort_by(f64::total_cmp);
    Ok(ExecutorProbe {
        submit_ns: trimmed_mean(&mut submit_ns),
        complete_lag_us_p50: percentile_sorted(&lags, 50.0),
        complete_lag_us_p99: percentile_sorted(&lags, 99.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_instances_are_solvable() {
        for (gpus, runtimes) in [(50, 8), (200, 12)] {
            assert!(dp_solve_ms(gpus, runtimes, 1).expect("solvable") > 0.0);
        }
    }

    #[test]
    fn crc_cost_is_positive() {
        assert!(crc32c_ns_per_kib() > 0.0);
    }
}
