//! # arlo-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper's evaluation section (see
//! DESIGN.md §4 for the index), plus Criterion micro-benches for the solver,
//! the dispatcher and the simulator. Binaries print the same rows/series the
//! paper reports and additionally write machine-readable JSON under
//! `results/` so EXPERIMENTS.md can cite exact numbers.
//!
//! Run everything with:
//!
//! ```sh
//! for b in fig01_length_cdf fig02_latency_curves fig04_motivating \
//!          fig05_mlq_example tab02_ilp_time fig06_testbed_cdf \
//!          fig07_load_sweep fig08_autoscale fig09_dispatch_overhead \
//!          cal_fidelity fig10_largescale_cdf fig11_n_runtimes \
//!          tab03_alloc_ablation fig12_alloc_timeline tab04_dispatch_ablation \
//!          ext_multistream ext_batching ext_faults ext_compile_cost \
//!          ext_param_sweep ext_quantile_sweep ext_colocation ext_replicated \
//!          summary; do
//!   cargo run --release -p arlo-bench --bin $b
//! done
//! ```

pub mod chart;

use arlo_serve::loadgen::{burst, replay, LoadGenConfig, LoadGenReport, LoadMode};
use arlo_sim::metrics::SimReport;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Format an aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len() - 2));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Print an aligned table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    print!("{}", format_table(headers, rows));
}

/// Percentage reduction of `ours` relative to `baseline` (positive = we win).
pub fn reduction_pct(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return f64::NAN;
    }
    (1.0 - ours / baseline) * 100.0
}

/// The directory experiment JSON lands in (`results/` beside the workspace
/// root; override with `ARLO_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("ARLO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results dir");
    path
}

/// A float as a JSON value, mapping non-finite inputs to `null`.
///
/// Summary statistics over empty sample sets (a scheme that shed every
/// request, a window with no completions) are `NaN`, and `NaN`/`Infinity`
/// have no JSON representation — a writer that emits them verbatim produces
/// a file `from_str` rejects. Every float that reaches a `results/` file
/// goes through here so degenerate reports still round-trip.
pub fn json_f64(x: f64) -> serde_json::Value {
    if x.is_finite() {
        serde_json::json!(x)
    } else {
        serde_json::Value::Null
    }
}

/// Persist an experiment's machine-readable result.
pub fn write_json(experiment: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{experiment}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write result json");
    println!("[wrote {}]", path.display());
}

/// Evaluate independent sweep cells (policy × trace, policy × cluster-size,
/// seed replicates, …) concurrently on scoped threads, preserving input
/// order in the output. Cells are dealt round-robin onto at most
/// `max_threads` workers so a large grid does not spawn one OS thread per
/// cell; each cell itself runs single-threaded.
pub fn sweep_parallel<I, O, F>(cells: Vec<I>, max_threads: usize, eval: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = max_threads.max(1).min(cells.len().max(1));
    let mut buckets: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, cell) in cells.into_iter().enumerate() {
        buckets[i % workers].push((i, cell));
    }
    let mut results: Vec<Option<O>> = std::iter::repeat_with(|| None)
        .take(buckets.iter().map(Vec::len).sum())
        .collect();
    std::thread::scope(|scope| {
        let eval = &eval;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, cell)| (i, eval(cell)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, out) in handle.join().expect("sweep worker") {
                results[i] = Some(out);
            }
        }
    });
    results
        .into_iter()
        .map(|o| o.expect("every cell evaluated"))
        .collect()
}

/// Run several system specs over the same trace concurrently (each
/// simulation is independent and single-threaded; scheme comparisons are
/// embarrassingly parallel). Results come back in input order.
pub fn run_schemes_parallel(
    specs: &[arlo_core::system::SystemSpec],
    trace: &arlo_trace::workload::Trace,
) -> Vec<(String, SimReport)> {
    sweep_parallel(specs.iter().collect(), specs.len(), |spec| {
        (spec.name.clone(), spec.run(trace))
    })
}

/// Mean and half-width of a 95% confidence interval over replicate
/// measurements (normal approximation; replicate counts here are small, so
/// treat the interval as indicative).
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, f64::NAN);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

/// Run a spec over `seeds.len()` independently generated traces (same
/// `TraceSpec`, different seeds) in parallel; returns one report per seed.
pub fn replicate(
    spec: &arlo_core::system::SystemSpec,
    trace_spec: &arlo_trace::workload::TraceSpec,
    seeds: &[u64],
) -> Vec<SimReport> {
    use rand::SeedableRng;
    sweep_parallel(seeds.to_vec(), seeds.len(), |seed| {
        let trace = trace_spec.generate(&mut rand::rngs::StdRng::seed_from_u64(seed));
        spec.run(&trace)
    })
}

/// The latency row every scheme comparison prints.
pub fn latency_row(name: &str, report: &SimReport, slo_ms: f64) -> Vec<String> {
    let s = report.latency_summary();
    vec![
        name.to_string(),
        format!("{:.2}", s.mean),
        format!("{:.2}", s.p50),
        format!("{:.2}", s.p98),
        format!("{:.2}", s.p99),
        format!("{:.2}%", report.slo_violation_rate(slo_ms) * 100.0),
    ]
}

/// Standard headers matching [`latency_row`].
pub const LATENCY_HEADERS: [&str; 6] = ["scheme", "mean ms", "p50 ms", "p98 ms", "p99 ms", "viol"];

/// Summarize a report into a JSON fragment. Every float goes through
/// [`json_f64`]: a report with no served requests (everything shed) has a
/// `NaN` latency summary, which must land in the file as `null`, not as an
/// unparseable bare `NaN` token.
pub fn report_json(report: &SimReport, slo_ms: f64) -> serde_json::Value {
    let s = report.latency_summary();
    serde_json::json!({
        "requests": report.records.len(),
        "mean_ms": json_f64(s.mean),
        "p50_ms": json_f64(s.p50),
        "p90_ms": json_f64(s.p90),
        "p98_ms": json_f64(s.p98),
        "p99_ms": json_f64(s.p99),
        "max_ms": json_f64(s.max),
        "slo_violation_rate": json_f64(report.slo_violation_rate(slo_ms)),
        "time_weighted_gpus": json_f64(report.time_weighted_gpus()),
        "buffered_requests": report.buffered_requests,
    })
}

/// First argument of a re-exec'd [`ReplayChild`].
const REPLAY_CHILD_ARG: &str = "--replay-child";

/// A storm — [`replay`] of a [`burst`] of 64-token requests — running in a
/// re-exec'd copy of the current binary. The client's sockets are charged
/// to a second process — at 10k connections parent (server) and child
/// (client) each hold ~10k fds, and either alone fits under a per-process
/// fd rlimit where one process holding both ends would not — and its
/// threads stay out of the server process.
///
/// The storm travels as arguments; the child prints its report's counts,
/// one `name value` pair a line. A binary that spawns children calls
/// [`run_replay_child`] first thing in `main`.
pub struct ReplayChild(Child);

impl ReplayChild {
    /// Replay a burst of `requests` against `addr` under `config` in a
    /// child. Every submit carries the default tenant.
    pub fn spawn(addr: SocketAddr, requests: usize, config: &LoadGenConfig) -> Self {
        assert!(
            config.tenant_weights.is_empty(),
            "a replay child submits as the default tenant"
        );
        let child = Command::new(std::env::current_exe().expect("current_exe"))
            .arg(REPLAY_CHILD_ARG)
            .args(child_args(addr, requests, config))
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn replay child");
        ReplayChild(child)
    }

    /// Whether the child is still replaying.
    pub fn is_running(&mut self) -> bool {
        self.0.try_wait().expect("poll replay child").is_none()
    }

    /// Wait for the child and parse its report: every count and the wall
    /// time (the latencies stay in the child).
    pub fn report(self) -> LoadGenReport {
        let out = self.0.wait_with_output().expect("wait replay child");
        assert!(out.status.success(), "replay child failed: {}", out.status);
        parse_report(&String::from_utf8_lossy(&out.stdout))
    }
}

/// If this process is a [`ReplayChild`], run its replay, print the report
/// and return `true`; `main` then returns at once.
pub fn run_replay_child() -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some(REPLAY_CHILD_ARG) {
        return false;
    }
    let (addr, requests, config) = parse_child_args(&args[1..]);
    let report = replay(addr, &burst(requests, 64), &config).expect("replay");
    print!("{}", report_text(&report));
    true
}

/// A child's arguments: address, requests, clients, window (0 for open
/// loop, whose time scale is moot when every request arrives at 0),
/// submit batch and hold in ms.
fn child_args(addr: SocketAddr, requests: usize, config: &LoadGenConfig) -> Vec<String> {
    let window = match config.mode {
        LoadMode::Open { .. } => 0,
        LoadMode::Closed { window } => window,
    };
    let hold_ms = config.hold.as_millis() as usize;
    let counts = [
        requests,
        config.clients,
        window,
        config.submit_batch,
        hold_ms,
    ];
    std::iter::once(addr.to_string())
        .chain(counts.iter().map(usize::to_string))
        .collect()
}

fn parse_child_args(args: &[String]) -> (SocketAddr, usize, LoadGenConfig) {
    let num = |i: usize| -> usize { args[i].parse().expect("numeric replay child argument") };
    let config = match num(3) {
        0 => LoadGenConfig::open(num(2), 1),
        window => LoadGenConfig::closed(num(2), window),
    };
    let config = LoadGenConfig {
        hold: Duration::from_millis(num(5) as u64),
        ..config.with_submit_batch(num(4))
    };
    let addr = args[0].parse().expect("replay child address");
    (addr, num(1), config)
}

/// `report`'s counts by name, as a replay child prints them: every
/// counter, `conserved` (1 when [`LoadGenReport::accounted`] equals
/// `sent`) and `wall_ms`.
fn report_counts(report: &LoadGenReport) -> Vec<(&'static str, u64)> {
    vec![
        ("connected", report.connected),
        ("refused", report.refused),
        ("connect_errors", report.connect_errors),
        ("sent", report.sent),
        ("ok", report.ok),
        ("shed", report.shed),
        ("unserviceable", report.unserviceable),
        ("draining", report.draining),
        ("failed", report.failed),
        ("unknown_tenant", report.unknown_tenant),
        ("lost", report.lost),
        ("conserved", u64::from(report.accounted() == report.sent)),
        ("wall_ms", report.wall.as_millis() as u64),
    ]
}

fn report_text(report: &LoadGenReport) -> String {
    report_counts(report)
        .into_iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

fn parse_report(text: &str) -> LoadGenReport {
    let mut report = LoadGenReport::default();
    for line in text.lines() {
        let (name, value) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("not a count: {line}"));
        let value: u64 = value.parse().expect("numeric count");
        match name {
            "connected" => report.connected = value,
            "refused" => report.refused = value,
            "connect_errors" => report.connect_errors = value,
            "sent" => report.sent = value,
            "ok" => report.ok = value,
            "shed" => report.shed = value,
            "unserviceable" => report.unserviceable = value,
            "draining" => report.draining = value,
            "failed" => report.failed = value,
            "unknown_tenant" => report.unknown_tenant = value,
            "lost" => report.lost = value,
            "wall_ms" => report.wall = Duration::from_millis(value),
            "conserved" => {}
            _ => panic!("unknown count {name}"),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].contains("longer-name"));
    }

    #[test]
    fn ci_math() {
        let (m, h) = mean_ci95(&[10.0, 12.0, 8.0, 10.0]);
        assert!((m - 10.0).abs() < 1e-12);
        // s² = (0+4+4+0)/3 = 8/3; hw = 1.96·sqrt(8/12) ≈ 1.6.
        assert!((h - 1.96 * (8.0f64 / 3.0 / 4.0).sqrt()).abs() < 1e-9);
        let (m, h) = mean_ci95(&[5.0]);
        assert_eq!(m, 5.0);
        assert!(h.is_nan());
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(3.0, 10.0) - 70.0).abs() < 1e-12);
        assert!((reduction_pct(10.0, 10.0)).abs() < 1e-12);
        assert!(reduction_pct(1.0, 0.0).is_nan());
    }

    #[test]
    fn sweep_parallel_preserves_order() {
        let out = sweep_parallel((0..37).collect(), 4, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(
            sweep_parallel(Vec::<u32>::new(), 4, |i| i),
            Vec::<u32>::new()
        );
        // More workers than cells must not panic or drop cells.
        assert_eq!(sweep_parallel(vec![1, 2], 16, |i| i + 1), vec![2, 3]);
    }

    #[test]
    fn json_f64_maps_non_finite_to_null() {
        assert_eq!(json_f64(1.5), serde_json::json!(1.5));
        assert!(json_f64(f64::NAN).is_null());
        assert!(json_f64(f64::INFINITY).is_null());
        assert!(json_f64(f64::NEG_INFINITY).is_null());
    }

    /// A scheme that sheds every request produces a `NaN` latency summary;
    /// the JSON fragment must still serialize to valid, re-parseable JSON
    /// with those fields as `null`.
    #[test]
    fn shed_everything_report_round_trips() {
        use arlo_sim::metrics::{ShedReason, ShedRecord, SimReport};
        let mut report = SimReport {
            horizon: 1_000,
            ..SimReport::default()
        };
        for id in 0..5 {
            report.shed.push(ShedRecord {
                id,
                length: 8,
                arrival: id * 10,
                shed_at: id * 10 + 1,
                reason: ShedReason::DeadlineHopeless,
            });
        }
        let value = report_json(&report, 100.0);
        let text = serde_json::to_string(&value).expect("serialize");
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("round-trip");
        assert_eq!(parsed["requests"].as_f64(), Some(0.0));
        assert!(parsed["mean_ms"].is_null());
        assert!(parsed["p99_ms"].is_null());
        assert!(parsed["max_ms"].is_null());
        // Finite fields survive as numbers.
        assert_eq!(parsed["slo_violation_rate"].as_f64(), Some(0.0));
    }

    #[test]
    fn replay_child_round_trips_args_and_report() {
        let addr: SocketAddr = "127.0.0.1:4242".parse().unwrap();
        let config = LoadGenConfig {
            hold: Duration::from_millis(1_500),
            ..LoadGenConfig::closed(8, 4).with_submit_batch(32)
        };
        let (back_addr, requests, back) = parse_child_args(&child_args(addr, 640, &config));
        assert_eq!((back_addr, requests), (addr, 640));
        assert_eq!(back.clients, 8);
        assert_eq!(back.mode, LoadMode::Closed { window: 4 });
        assert_eq!(back.submit_batch, 32);
        assert_eq!(back.hold, config.hold);
        let (_, _, open) = parse_child_args(&child_args(addr, 1, &LoadGenConfig::open(2, 100)));
        assert_eq!(open.mode, LoadMode::Open { time_scale: 1 });
        assert_eq!((open.submit_batch, open.hold), (1, Duration::ZERO));

        let report = LoadGenReport {
            connected: 8,
            refused: 1,
            sent: 70,
            ok: 60,
            shed: 4,
            lost: 6,
            wall: Duration::from_millis(1_234),
            ..LoadGenReport::default()
        };
        let parsed = parse_report(&report_text(&report));
        assert_eq!(report_counts(&parsed), report_counts(&report));
    }
}
