//! The metric tables (names, units, directions, bounds, predictions) and
//! the result file they are reported in.

use crate::stats::{median, spread};
use serde_json::{json, Map, Value};

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound_rel: f64,
    /// Absolute worsening always tolerated (for metrics whose baseline is
    /// 0 or a few milliseconds); the allowance is the larger of the two.
    pub bound_abs: f64,
    /// Workloads the metric is reported on; empty = all four.
    pub workloads: &'static [&'static str],
    /// Whether `BENCHMARK.json` lists it: reported on all four workloads,
    /// never 0, with a relative bound.
    pub contract: bool,
}

impl E2eMetric {
    /// Whether `workload` reports this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

const LIVE: &[&str] = &["single_open", "single_closed", "tenants_batched"];
const SIM: &[&str] = &["sim_largescale"];

/// Every end-to-end metric. See `benchmark/README.md` for the glossary.
///
/// Everything that scales with CPU speed is bounded at 25 %: on the
/// reference host ten back-to-back runs of one commit spread those metrics
/// by 5–19 % (IQR/median), because the vCPUs' speed shifts by 20–40 % for
/// up to minutes at a time — longer than a run, so no estimator inside a
/// run removes it. A tighter bound would report noise as regressions.
pub const E2E: &[E2eMetric] = &[
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound_rel: 0.25,
        bound_abs: 0.005,
        contract: true,
        workloads: &[],
    },
    E2eMetric {
        name: "rtt_p50_us",
        unit: "us",
        better: Better::Lower,
        bound_rel: 0.25,
        bound_abs: 0.0,
        contract: true,
        workloads: &[],
    },
    E2eMetric {
        name: "rtt_p99_us",
        unit: "us",
        better: Better::Lower,
        bound_rel: 0.25,
        bound_abs: 0.0,
        contract: false,
        workloads: LIVE,
    },
    E2eMetric {
        name: "goodput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound_rel: 0.25,
        bound_abs: 0.0,
        contract: true,
        workloads: &[],
    },
    E2eMetric {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound_rel: 0.25,
        bound_abs: 0.0,
        contract: false,
        workloads: &["single_closed"],
    },
    E2eMetric {
        name: "cpu_us_per_req",
        unit: "us",
        better: Better::Lower,
        bound_rel: 0.25,
        bound_abs: 0.0,
        contract: true,
        workloads: &[],
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound_rel: 0.15,
        bound_abs: 0.0,
        contract: true,
        workloads: &[],
    },
    E2eMetric {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound_rel: 0.0,
        bound_abs: 0.001,
        contract: false,
        workloads: &[],
    },
    E2eMetric {
        name: "sim_req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound_rel: 0.25,
        bound_abs: 0.0,
        contract: false,
        workloads: SIM,
    },
    E2eMetric {
        name: "virt_mean_ms",
        unit: "ms",
        better: Better::Lower,
        bound_rel: 0.01,
        bound_abs: 0.0,
        contract: false,
        workloads: SIM,
    },
    E2eMetric {
        name: "virt_p98_ms",
        unit: "ms",
        better: Better::Lower,
        bound_rel: 0.01,
        bound_abs: 0.0,
        contract: false,
        workloads: SIM,
    },
    E2eMetric {
        name: "slo_violation_share",
        unit: "share",
        better: Better::Lower,
        bound_rel: 0.0,
        bound_abs: 0.001,
        contract: false,
        workloads: SIM,
    },
];

/// One per-layer metric of the traced run. A layer the workload never
/// enters reports 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetric {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// The end-to-end metric and workload this is predicted to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in the order they are printed.
pub const LAYERS: &[LayerMetric] = &[
    layer(
        "protocol.decode_submit_ns",
        "ns",
        Lower,
        "rtt_p50_us, cpu_us_per_req on single_open, single_closed; no move on tenants_batched",
    ),
    layer(
        "protocol.encode_response_ns",
        "ns",
        Lower,
        "rtt_p50_us, cpu_us_per_req on single_open, single_closed",
    ),
    layer(
        "protocol.wire_bytes_per_req",
        "B",
        Lower,
        "cpu_us_per_req on single_open, single_closed",
    ),
    layer(
        "protocol.decode_batched_ns_per_sub",
        "ns",
        Lower,
        "cpu_us_per_req on tenants_batched",
    ),
    layer(
        "protocol.crc32c_ns_per_kib",
        "ns",
        Lower,
        "cpu_us_per_req on tenants_batched",
    ),
    layer(
        "tenants.window_record_ns",
        "ns",
        Lower,
        "cpu_us_per_req on every live workload",
    ),
    layer(
        "queue.push_pop_ns",
        "ns",
        Lower,
        "cpu_us_per_req on single_open",
    ),
    layer(
        "queue.contended_ns",
        "ns",
        Lower,
        "goodput_rps on single_closed",
    ),
    layer(
        "registry.with_ns",
        "ns",
        Lower,
        "goodput_rps on single_closed",
    ),
    layer("clock.now_ns", "ns", Lower, "goodput_rps on single_closed"),
    layer(
        "engine.submit_ns",
        "ns",
        Lower,
        "goodput_rps on single_closed; rtt_p50_us on single_open",
    ),
    layer(
        "engine.report_batch_ns_per_req",
        "ns",
        Lower,
        "goodput_rps on single_closed; rtt_p50_us on single_open",
    ),
    layer(
        "engine.submit_contended_ns",
        "ns",
        Lower,
        "goodput_rps on single_closed",
    ),
    layer(
        "engine.unplaced",
        "count",
        Lower,
        "goodput_rps on every live workload (must stay 0)",
    ),
    layer(
        "engine.reallocate_ms",
        "ms",
        Lower,
        "loadgen.rtt_p99_window_us on tenants_batched",
    ),
    layer(
        "batching.push_drain_ns_per_req",
        "ns",
        Lower,
        "cpu_us_per_req on tenants_batched",
    ),
    layer(
        "batching.mean_batch",
        "count",
        Higher,
        "rtt_p50_us, cpu_us_per_req on tenants_batched (exactly 1 on single_*)",
    ),
    layer(
        "batching.wait_virtual_ms_p50",
        "ms",
        Lower,
        "rtt_p50_us on tenants_batched",
    ),
    layer(
        "executor.submit_ns",
        "ns",
        Lower,
        "cpu_us_per_req on tenants_batched",
    ),
    layer(
        "executor.complete_lag_us_p50",
        "us",
        Lower,
        "rtt_p50_us on tenants_batched; no move on single_*",
    ),
    layer(
        "executor.complete_lag_us_p99",
        "us",
        Lower,
        "rtt_p99_us on tenants_batched; no move on single_*",
    ),
    layer(
        "solver.dp_solve_ms_50x8",
        "ms",
        Lower,
        "engine.reallocate_ms; weakly goodput_rps on sim_largescale",
    ),
    layer(
        "solver.dp_solve_ms_200x12",
        "ms",
        Lower,
        "engine.reallocate_ms; weakly goodput_rps on sim_largescale",
    ),
    layer(
        "solver.dp_solve_ms_1000x16",
        "ms",
        Lower,
        "engine.reallocate_ms; weakly goodput_rps on sim_largescale",
    ),
    layer(
        "sim.dispatch_ns_per_req",
        "ns",
        Lower,
        "goodput_rps, cpu_us_per_req on sim_largescale",
    ),
    layer(
        "sim.dispatch_calls",
        "count",
        Lower,
        "goodput_rps on sim_largescale",
    ),
    layer(
        "sim.alloc_ms_per_call",
        "ms",
        Lower,
        "goodput_rps on sim_largescale",
    ),
    layer(
        "sim.alloc_calls",
        "count",
        Lower,
        "goodput_rps on sim_largescale",
    ),
    layer(
        "sim.driver_self_ns_per_req",
        "ns",
        Lower,
        "goodput_rps, cpu_us_per_req on sim_largescale",
    ),
    layer(
        "sim.buffered_requests",
        "count",
        Lower,
        "rtt_p50_us, peak_rss_mb on sim_largescale",
    ),
    layer(
        "trace.generate_ns_per_req",
        "ns",
        Lower,
        "setup_s on sim_largescale",
    ),
    layer(
        "server.ctx_switches_per_req",
        "count",
        Lower,
        "cpu_us_per_req, rtt_p50_us on single_open",
    ),
    layer(
        "server.threads",
        "count",
        Lower,
        "peak_rss_mb on every live workload",
    ),
    layer(
        "server.reallocations",
        "count",
        Lower,
        "loadgen.rtt_p99_window_us on tenants_batched",
    ),
    layer(
        "server.shed",
        "count",
        Lower,
        "goodput_rps on every live workload (must stay 0)",
    ),
    layer(
        "server.virt_latency_p50_ms",
        "ms",
        Lower,
        "rtt_p50_us on tenants_batched",
    ),
    layer(
        "loadgen.gen_lag_p99_us",
        "us",
        Lower,
        "none: validity of rtt_* (generator lateness)",
    ),
    layer(
        "loadgen.client_cpu_us_per_req",
        "us",
        Lower,
        "none: harness cost, competes with the server for 2 vCPUs",
    ),
    layer(
        "loadgen.rtt_p99_window_us",
        "us",
        Lower,
        "none: whole-window p99, host stalls included",
    ),
    layer(
        "unattributed_us",
        "us",
        Lower,
        "rtt_p50_us on single_open: syscalls, wake-ups and queue waits the walk cannot see",
    ),
    layer(
        "trace_overhead_pct",
        "%",
        Lower,
        "none: cost of the spans themselves",
    ),
];

/// `BENCHMARK.json`, generated from the tables above and the workload
/// list (`benchmark/run.sh spec` prints it), so the contract file cannot
/// drift from what the harness measures.
pub fn contract_spec() -> Value {
    let workloads: Vec<Value> = crate::workloads::all()
        .iter()
        .map(|w| json!({"name": w.name(), "why": w.why()}))
        .collect();
    let end_to_end: Vec<Value> = E2E
        .iter()
        .filter(|m| m.contract)
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.bound_rel,
            })
        })
        .collect();
    let per_layer: Vec<Value> = LAYERS
        .iter()
        .map(|l| json!({"name": l.name, "unit": l.unit, "better": l.better.as_str()}))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": crate::workloads::RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// The repetitions of one end-to-end metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Which metric.
    pub metric: &'static E2eMetric,
    /// One value per repetition.
    pub reps: Vec<f64>,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// End-to-end series, in table order.
    pub e2e: Vec<Series>,
    /// Per-layer values (traced runs only), in table order.
    pub layers: Vec<(&'static str, f64)>,
    /// Requests attempted / not answered `Ok`, summed over repetitions.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// RTT samples behind each repetition's percentiles.
    pub samples: Vec<usize>,
    /// Host steal per repetition.
    pub steal_pct: Vec<f64>,
    /// [`crate::hostspeed::kernel_ms`] per repetition.
    pub host_kernel_ms: Vec<f64>,
    /// Whether each repetition's generator lag was acceptable.
    pub valid: Vec<bool>,
    /// Repetitions that were repeated because the server hung up on a
    /// generator connection (see `live::RepError::Disrupted`).
    pub disruptions: u64,
    /// Wall seconds the whole run took.
    pub wall_s: f64,
}

impl WorkloadResult {
    /// Indices of the repetitions the medians are taken over: the valid
    /// ones when they are a majority, otherwise all (and the caller is
    /// told, see `invalid_reps`).
    pub fn used_reps(&self) -> Vec<usize> {
        let valid: Vec<usize> = (0..self.valid.len()).filter(|&i| self.valid[i]).collect();
        if valid.len() * 2 > self.valid.len() {
            valid
        } else {
            (0..self.valid.len()).collect()
        }
    }

    /// Repetitions marked invalid.
    pub fn invalid_reps(&self) -> Vec<usize> {
        (0..self.valid.len()).filter(|&i| !self.valid[i]).collect()
    }

    fn used_values(&self, series: &Series) -> Vec<f64> {
        let used = self.used_reps();
        if used.is_empty() {
            return series.reps.clone();
        }
        used.iter()
            .filter_map(|&i| series.reps.get(i).copied())
            .collect()
    }

    /// Median of a metric over the used repetitions.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|s| s.metric.name == name)
            .map(|s| median(&self.used_values(s)))
    }

    /// The JSON object stored per workload in a result file.
    pub fn to_json(&self, why: &str, pinned: Value) -> Value {
        let mut e2e = Map::new();
        for s in &self.e2e {
            let values = self.used_values(s);
            e2e.insert(
                s.metric.name.to_string(),
                json!({
                    "unit": s.metric.unit,
                    "better": s.metric.better.as_str(),
                    "bound_rel": s.metric.bound_rel,
                    "bound_abs": s.metric.bound_abs,
                    "reps": s.reps.clone(),
                    "median": median(&values),
                    "spread": spread(&values),
                }),
            );
        }
        let mut layers = Map::new();
        for &(name, value) in &self.layers {
            let meta = LAYERS.iter().find(|l| l.name == name);
            layers.insert(
                name.to_string(),
                json!({
                    "unit": meta.map_or("", |l| l.unit),
                    "value": value,
                    "moves": meta.map_or("", |l| l.moves),
                }),
            );
        }
        json!({
            "why": why,
            "pinned": pinned,
            "end_to_end": Value::Object(e2e),
            "per_layer": Value::Object(layers),
            "attempted": self.attempted,
            "failed": self.failed,
            "samples_per_rep": self.samples.iter().map(|&n| n as u64).collect::<Vec<u64>>(),
            "steal_pct_per_rep": self.steal_pct.clone(),
            "host_kernel_ms_per_rep": self.host_kernel_ms.clone(),
            "invalid_reps": self.invalid_reps().iter().map(|&i| i as u64).collect::<Vec<u64>>(),
            "disrupted_reps_repeated": self.disruptions,
            "wall_s": self.wall_s,
        })
    }

    /// Print the human-readable block `run.sh` shows for this workload.
    pub fn print(&self) {
        println!(
            "\n== {} ({:.1} s; {} requests attempted, {} failed)",
            self.name, self.wall_s, self.attempted, self.failed
        );
        let used = self.used_reps();
        println!(
            "   repetitions {} (medians over {}{}); RTT samples per repetition {:?}",
            self.valid.len(),
            used.len(),
            if used.len() < self.valid.len() {
                format!(", invalid by generator lag: {:?}", self.invalid_reps())
            } else if !self.invalid_reps().is_empty() {
                format!(
                    ", too many invalid by generator lag to drop: {:?}",
                    self.invalid_reps()
                )
            } else {
                String::new()
            },
            self.samples
        );
        if let Some(n) = self.samples.iter().min().filter(|&&n| n > 0) {
            println!("   at least {} samples beyond p99 per repetition", n / 100);
        }
        if self.disruptions > 0 {
            println!(
                "   {} repetition(s) repeated after the server hung up on the generator",
                self.disruptions
            );
        }
        let rounded =
            |v: &[f64]| -> Vec<f64> { v.iter().map(|x| (x * 100.0).round() / 100.0).collect() };
        println!(
            "   per repetition: steal % {:?}, host kernel ms {:?}",
            rounded(&self.steal_pct),
            rounded(&self.host_kernel_ms)
        );
        println!(
            "   {:<24} {:>14} {:<6} {:>8}  bound",
            "end-to-end metric", "median", "unit", "spread"
        );
        for s in &self.e2e {
            let values = self.used_values(s);
            let bound = match (s.metric.bound_rel, s.metric.bound_abs) {
                (rel, 0.0) => format!("{:.0} %", rel * 100.0),
                (0.0, abs) => format!("+{abs} abs"),
                (rel, abs) => format!("max({:.0} %, {abs})", rel * 100.0),
            };
            println!(
                "   {:<24} {:>14.4} {:<6} {:>7.1}%  {} ({} is better)",
                s.metric.name,
                median(&values),
                s.metric.unit,
                spread(&values) * 100.0,
                bound,
                s.metric.better.as_str()
            );
        }
        if !self.layers.is_empty() {
            println!("   {:<38} {:>14} unit", "per-layer metric", "value");
            for &(name, value) in &self.layers {
                let unit = LAYERS
                    .iter()
                    .find(|l| l.name == name)
                    .map_or("", |l| l.unit);
                println!("   {name:<38} {value:>14.4} {unit}");
            }
        }
    }

    /// The one-line result the benchmark contract asks for: every
    /// contract end-to-end metric (untraced run) or every per-layer metric
    /// (traced run).
    pub fn contract_line(&self, traced: bool, correct: bool) -> String {
        let mut metrics = Map::new();
        if traced {
            for l in LAYERS {
                let value = self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == l.name)
                    .map_or(0.0, |&(_, v)| v);
                metrics.insert(l.name.to_string(), json!({"value": value, "unit": l.unit}));
            }
        } else {
            for m in E2E.iter().filter(|m| m.contract) {
                let value = self.value(m.name).unwrap_or(0.0);
                metrics.insert(m.name.to_string(), json!({"value": value, "unit": m.unit}));
            }
        }
        json!({
            "correct": correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e(name: &str) -> &'static E2eMetric {
        E2E.iter().find(|m| m.name == name).expect("metric exists")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|l| l.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_is_the_generated_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            contract_spec(),
            "regenerate it: benchmark/run.sh spec > BENCHMARK.json"
        );
        let spec = contract_spec();
        assert!(spec["end_to_end"]
            .as_array()
            .expect("list")
            .iter()
            .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
        for m in E2E.iter().filter(|m| m.contract) {
            assert!(
                m.workloads.is_empty(),
                "{} must cover every workload",
                m.name
            );
            assert!(m.bound_rel > 0.0 && m.bound_rel <= 0.25, "{} bound", m.name);
        }
    }

    #[test]
    fn medians_prefer_valid_repetitions() {
        let mut r = WorkloadResult {
            name: "x",
            e2e: vec![Series {
                metric: e2e("rtt_p50_us"),
                reps: vec![100.0, 900.0, 110.0, 120.0, 800.0],
            }],
            valid: vec![true, false, true, true, false],
            ..WorkloadResult::default()
        };
        assert_eq!(r.used_reps(), vec![0, 2, 3]);
        assert_eq!(r.value("rtt_p50_us"), Some(110.0));
        // Too few valid repetitions: fall back to all of them.
        r.valid = vec![true, false, false, true, false];
        assert_eq!(r.used_reps().len(), 5);
        assert_eq!(r.value("rtt_p50_us"), Some(120.0));
        assert_eq!(r.invalid_reps(), vec![1, 2, 4]);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = WorkloadResult {
            name: "x",
            e2e: E2E
                .iter()
                .map(|m| Series {
                    metric: m,
                    reps: vec![1.5, 2.5, 3.5],
                })
                .collect(),
            valid: vec![true; 3],
            attempted: 10,
            ..WorkloadResult::default()
        };
        let line: Value = serde_json::from_str(&r.contract_line(false, true)).expect("json");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line["metrics"].as_object().expect("metrics");
        assert_eq!(metrics.len(), E2E.iter().filter(|m| m.contract).count());
        assert_eq!(metrics["rtt_p50_us"]["value"].as_f64(), Some(2.5));
        let traced: Value = serde_json::from_str(&r.contract_line(true, true)).expect("json");
        assert_eq!(
            traced["metrics"].as_object().expect("metrics").len(),
            LAYERS.len()
        );
    }
}
