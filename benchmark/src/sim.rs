//! The `sim_largescale` workload: the Fig. 10(a) simulation, run in a
//! re-exec'd child of the harness so each repetition has its own address
//! space (peak RSS is a per-process high-water mark) and its own CPU
//! clock.
//!
//! The child reports on itself through one JSON line; the parent adds the
//! host's steal time over the repetition.

use crate::hostspeed;
use crate::procfs;
use crate::span::{SpanLog, NO_PARENT};
use crate::stats::median;
use crate::workloads::{SimWorkload, SLO_MS};
use arlo_core::system::SystemSpec;
use arlo_runtime::models::ModelSpec;
use arlo_sim::cluster::{ClusterView, InstanceId};
use arlo_sim::driver::{Allocator, DemandWindow, Dispatcher, Simulation};
use arlo_sim::metrics::SimReport;
use arlo_trace::workload::{Request, Trace, TraceSpec};
use arlo_trace::{Nanos, NANOS_PER_SEC};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `run` is stepped event by event and cut into slices at least this long;
/// the steady run time is the event count times the median slice's time
/// per event. On the reference host the vCPU's speed shifts by 20–40 % for
/// seconds at a time: a mean over the run moves with every such phase it
/// touches, the median slice only when phases cover half the run.
const SLICE: Duration = Duration::from_millis(400);

/// Events stepped between two looks at the clock.
const STEPS_PER_CLOCK_READ: u64 = 4096;

/// Dispatch calls whose spans are kept (every allocator call is kept): the
/// run makes millions of dispatch calls, and the totals cover all of them.
const DISPATCH_SPANS_KEPT: u64 = 2_000;

/// What one simulator child measured.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimRep {
    /// Child start → `run` start: profiles, trace generation, initial
    /// allocation, simulator construction.
    pub setup_s: f64,
    /// Wall time of `run`.
    pub run_s: f64,
    /// Wall time of `run` had every event taken the median slice's time
    /// per event (see [`SLICE`]); what the speed metrics are computed from.
    pub steady_run_s: f64,
    /// Requests in the trace.
    pub requests: u64,
    /// Child CPU (`utime + stime`) inside `run`, steadied the same way.
    pub steady_cpu_s: f64,
    /// Child `VmHWM`.
    pub peak_rss_mb: f64,
    /// Served / shed records in the report.
    pub records: u64,
    /// See `records`.
    pub shed: u64,
    /// Served requests whose virtual latency met the SLO.
    pub within_slo: u64,
    /// The paper's outputs, from `SimReport::latency_summary`.
    pub virt_mean_ms: f64,
    /// See `virt_mean_ms`.
    pub virt_p50_ms: f64,
    /// See `virt_mean_ms`.
    pub virt_p98_ms: f64,
    /// See `virt_mean_ms`.
    pub virt_p99_ms: f64,
    /// Median over the trace's one-second windows of the window's mean
    /// simulated round trip. Static shapes make per-request latency nearly
    /// discrete (one value per runtime while nothing queues), so a plain
    /// p50 reads the same for every seed; this does not.
    pub virt_window_p50_ms: f64,
    /// `SimReport::slo_violation_rate`.
    pub slo_violation_share: f64,
    /// `SimReport::buffered_requests`.
    pub buffered_requests: u64,
    /// Trace generation time per request.
    pub generate_ns_per_req: f64,
    /// Timing-decorator totals (traced children only).
    pub dispatch_ns: u64,
    /// See `dispatch_ns`.
    pub dispatch_calls: u64,
    /// See `dispatch_ns`.
    pub alloc_ns: u64,
    /// See `dispatch_ns`.
    pub alloc_calls: u64,
    /// Host steal over the repetition (filled in by the parent).
    pub steal_pct: f64,
    /// [`hostspeed::kernel_ms`], mean of a reading before the run and one
    /// after it.
    pub host_kernel_ms: f64,
}

impl SimRep {
    /// Simulated requests per wall second of `run`.
    pub fn sim_req_per_s(&self) -> f64 {
        self.requests as f64 / self.steady_run_s
    }

    /// Requests served within the SLO per wall second of `run`.
    pub fn goodput_rps(&self) -> f64 {
        self.within_slo as f64 / self.steady_run_s
    }

    /// Child CPU per simulated request.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.steady_cpu_s * 1e6 / self.requests.max(1) as f64
    }

    /// `(requests − served) / requests`.
    pub fn failed_share(&self) -> f64 {
        (self.requests - self.records.min(self.requests)) as f64 / self.requests.max(1) as f64
    }
}

/// Timing decorator over the public `Dispatcher` seat.
struct TimedDispatcher<'a> {
    inner: &'a mut dyn Dispatcher,
    log: &'a mut SpanLog,
    ns: u64,
    calls: u64,
}

impl Dispatcher for TimedDispatcher<'_> {
    fn dispatch(&mut self, req: &Request, view: &ClusterView<'_>) -> Option<InstanceId> {
        let t = Instant::now();
        let placed = self.inner.dispatch(req, view);
        let end = Instant::now();
        self.ns += (end - t).as_nanos() as u64;
        if self.calls < DISPATCH_SPANS_KEPT {
            self.log.record("sim.dispatch", t, end, NO_PARENT, req.id);
        }
        self.calls += 1;
        placed
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Timing decorator over the public `Allocator` seat.
struct TimedAllocator<'a> {
    inner: &'a mut dyn Allocator,
    log: &'a mut SpanLog,
    ns: u64,
    calls: u64,
}

impl Allocator for TimedAllocator<'_> {
    fn allocate(
        &mut self,
        now: Nanos,
        window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        let t = Instant::now();
        let target = self.inner.allocate(now, window, view);
        let end = Instant::now();
        self.ns += (end - t).as_nanos() as u64;
        self.log
            .record("sim.allocate", t, end, NO_PARENT, self.calls);
        self.calls += 1;
        target
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `Simulation::run`, stepped by hand so the clock can be read along the
/// way: fills in `rep.run_s` and the steadied `rep.steady_run_s` /
/// `rep.steady_cpu_s` (see [`SLICE`]).
fn run_sliced(
    mut sim: Simulation<'_>,
    dispatcher: &mut dyn Dispatcher,
    allocator: &mut dyn Allocator,
    rep: &mut SimRep,
) -> Result<SimReport, String> {
    // (events, wall seconds, CPU seconds) per slice.
    let mut slices: Vec<(u64, f64, f64)> = Vec::new();
    let started = Instant::now();
    let (mut slice_start, mut slice_cpu) = (started, procfs::cpu_seconds("self")?);
    let (mut steps, mut slice_steps) = (0u64, 0u64);
    sim.start();
    while sim.step(dispatcher, allocator) {
        steps += 1;
        if steps % STEPS_PER_CLOCK_READ == 0 && slice_start.elapsed() >= SLICE {
            let (now, cpu) = (Instant::now(), procfs::cpu_seconds("self")?);
            slices.push((
                steps - slice_steps,
                (now - slice_start).as_secs_f64(),
                cpu - slice_cpu,
            ));
            (slice_start, slice_cpu, slice_steps) = (now, cpu, steps);
        }
    }
    let report = sim.finish();
    rep.run_s = started.elapsed().as_secs_f64();
    if slices.is_empty() {
        // A run shorter than one slice (`--smoke`) is its own slice.
        slices.push((
            steps.max(1),
            rep.run_s,
            procfs::cpu_seconds("self")? - slice_cpu,
        ));
    }
    let per_event = |f: fn(&(u64, f64, f64)) -> f64| {
        median(
            &slices
                .iter()
                .map(|s| f(s) / s.0 as f64)
                .collect::<Vec<f64>>(),
        )
    };
    rep.steady_run_s = per_event(|s| s.1) * steps as f64;
    rep.steady_cpu_s = per_event(|s| s.2) * steps as f64;
    Ok(report)
}

/// The first `rate_rps × virtual_secs` requests of a Twitter-Bursty trace
/// at mean rate `rate_rps`. A bursty trace of fixed *duration* holds ±6 %
/// more or fewer requests depending on the seed, and set-up time and peak
/// memory follow the count; with the count fixed they compare across seeds.
fn fixed_count_trace(rate_rps: f64, virtual_secs: f64, seed: u64) -> Trace {
    let wanted = (rate_rps * virtual_secs) as usize;
    // A quarter more duration than the mean rate needs is nearly always
    // enough; a seed with long lulls gets a longer trace.
    let mut duration = virtual_secs * 1.25;
    loop {
        let generated = TraceSpec::twitter_bursty(rate_rps, duration)
            .generate(&mut StdRng::seed_from_u64(seed));
        if let Some(requests) = generated.requests().get(..wanted) {
            let horizon = requests.last().map_or(1, |r| r.arrival + 1);
            return Trace::from_requests(requests.to_vec(), horizon);
        }
        duration *= 1.5;
    }
}

/// Body of the re-exec'd child: simulate once, print one JSON line.
/// `started` is the instant `main` began. With `span_path` set the
/// dispatcher and allocator run inside timing decorators and the spans are
/// written there.
pub fn child_main(
    started: Instant,
    seed: u64,
    workload: &SimWorkload,
    virtual_secs: f64,
    span_path: Option<&str>,
) -> Result<(), String> {
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), workload.gpus, SLO_MS);
    let profiles = spec.build_profiles();
    let t_gen = Instant::now();
    let trace = fixed_count_trace(workload.rate_rps, virtual_secs, seed);
    let gen_ns = t_gen.elapsed().as_nanos() as f64;
    let initial = spec.initial_allocation(&profiles, &trace);
    let mut dispatcher = spec.build_dispatcher();
    let mut allocator = spec.build_allocator(&profiles, &trace);
    let sim = Simulation::new(&trace, profiles, &initial, spec.sim_config());

    let mut rep = SimRep {
        requests: trace.len() as u64,
        generate_ns_per_req: gen_ns / trace.len().max(1) as f64,
        setup_s: started.elapsed().as_secs_f64(),
        ..SimRep::default()
    };
    let host_before = hostspeed::kernel_ms();
    let report = match span_path {
        None => run_sliced(sim, dispatcher.as_mut(), allocator.as_mut(), &mut rep)?,
        Some(path) => {
            let mut dispatch_log = SpanLog::new(started);
            let mut alloc_log = SpanLog::new(started);
            let mut timed_dispatcher = TimedDispatcher {
                inner: dispatcher.as_mut(),
                log: &mut dispatch_log,
                ns: 0,
                calls: 0,
            };
            let mut timed_allocator = TimedAllocator {
                inner: allocator.as_mut(),
                log: &mut alloc_log,
                ns: 0,
                calls: 0,
            };
            let run_start = Instant::now();
            let report = run_sliced(sim, &mut timed_dispatcher, &mut timed_allocator, &mut rep)?;
            let run_end = Instant::now();
            rep.dispatch_ns = timed_dispatcher.ns;
            rep.dispatch_calls = timed_dispatcher.calls;
            rep.alloc_ns = timed_allocator.ns;
            rep.alloc_calls = timed_allocator.calls;
            let mut log = SpanLog::new(started);
            log.record("sim.run", run_start, run_end, NO_PARENT, 0);
            log.adopt(dispatch_log, 0);
            log.adopt(alloc_log, 0);
            log.write(path, workload.name)?;
            report
        }
    };

    rep.host_kernel_ms = (host_before + hostspeed::kernel_ms()) / 2.0;

    rep.records = report.records.len() as u64;
    rep.shed = report.shed.len() as u64;
    if rep.records + rep.shed != rep.requests {
        return Err(format!(
            "simulator lost requests: {} records + {} shed != {} in the trace",
            rep.records, rep.shed, rep.requests
        ));
    }
    let summary = report.latency_summary();
    rep.virt_mean_ms = summary.mean;
    rep.virt_p50_ms = summary.p50;
    rep.virt_p98_ms = summary.p98;
    rep.virt_p99_ms = summary.p99;
    rep.slo_violation_share = report.slo_violation_rate(SLO_MS);
    let mut windows: Vec<(f64, u64)> =
        vec![(0.0, 0); (trace.horizon() / NANOS_PER_SEC) as usize + 1];
    for r in &report.records {
        let w = &mut windows[(r.arrival / NANOS_PER_SEC) as usize];
        w.0 += r.latency_ns(report.overhead_ns) as f64 / 1e6;
        w.1 += 1;
    }
    let window_means: Vec<f64> = windows
        .iter()
        .filter(|w| w.1 > 0)
        .map(|w| w.0 / w.1 as f64)
        .collect();
    rep.virt_window_p50_ms = median(&window_means);
    rep.within_slo = report
        .latencies_ms()
        .iter()
        .filter(|&&l| l <= SLO_MS)
        .count() as u64;
    rep.buffered_requests = report.buffered_requests;
    rep.peak_rss_mb = procfs::peak_rss_mb("self")?;
    println!(
        "{}",
        serde_json::to_string(&rep).map_err(|e| format!("encode the report: {e}"))?
    );
    Ok(())
}

/// Run one repetition in a child process and parse its report.
pub fn run_rep(seed: u64, virtual_secs: f64, span_path: Option<&str>) -> Result<SimRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the harness binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("sim-child")
        .args(["--seed", &seed.to_string()])
        .args(["--virtual-secs", &virtual_secs.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = span_path {
        cmd.args(["--spans", path]);
    }
    let steal_before = procfs::host_cpu_jiffies()?;
    let output = cmd
        .output()
        .map_err(|e| format!("spawn simulator child: {e}"))?;
    let steal_after = procfs::host_cpu_jiffies()?;
    if !output.status.success() {
        return Err(format!("simulator child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("simulator child printed nothing")?;
    let mut rep: SimRep =
        serde_json::from_str(line).map_err(|e| format!("simulator child report: {e}"))?;
    rep.steal_pct = procfs::steal_pct(steal_before, steal_after);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_gets_the_same_request_count() {
        for seed in [1, 2, 3] {
            let trace = fixed_count_trace(2_000.0, 5.0, seed);
            assert_eq!(trace.len(), 10_000, "seed {seed}");
            let last = trace.requests().last().expect("non-empty").arrival;
            assert!(last < trace.horizon());
        }
        let (a, b) = (
            fixed_count_trace(2_000.0, 5.0, 1),
            fixed_count_trace(2_000.0, 5.0, 2),
        );
        assert_ne!(a.requests(), b.requests(), "the seed is ignored");
    }
}
