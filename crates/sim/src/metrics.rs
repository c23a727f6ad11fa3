//! Measurement plumbing: per-request records, latency summaries, SLO
//! accounting, GPU-usage and allocation timelines.
//!
//! Everything the paper's evaluation reports — mean/tail latency CDFs
//! (Figs. 6, 10, 11), time-weighted GPU counts (Fig. 8), per-runtime
//! allocation timelines (Fig. 12) — is derived from this module's output.

use crate::cluster::InstanceId;
use crate::health::HealthTransition;
use arlo_trace::stats::{Cdf, Summary, TimeWeighted};
use arlo_trace::{nanos_to_ms, Nanos};
use serde::{Deserialize, Serialize};
use std::io::Write;

/// The full life-cycle of one served request.
///
/// A simulation keeps one per served request, so the record is 48 bytes
/// with no padding: the four times first, then the four 32-bit fields.
/// `Simulation::new` refuses a trace whose ids do not fit in `u32`; read
/// the narrow fields with `u64::from` / `as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Arrival time (ns).
    pub arrival: Nanos,
    /// When the dispatcher bound it to an instance (ns).
    pub dispatched: Nanos,
    /// When execution began (ns).
    pub started: Nanos,
    /// When execution finished (ns).
    pub completed: Nanos,
    /// Trace request id.
    pub id: u32,
    /// Token length.
    pub length: u32,
    /// Runtime index that served it.
    pub runtime_idx: u32,
    /// Instance that served it.
    pub instance: u32,
}

const _: () = assert!(std::mem::size_of::<RequestRecord>() == 48);

impl RequestRecord {
    /// End-to-end latency in ns, including the fixed per-request overhead
    /// `overhead_ns` (the paper's simulator adds 0.8 ms for network + PCIe).
    pub fn latency_ns(&self, overhead_ns: Nanos) -> Nanos {
        (self.completed - self.arrival) + overhead_ns
    }

    /// Queueing delay (arrival → execution start) in ns.
    pub fn queueing_ns(&self) -> Nanos {
        self.started - self.arrival
    }
}

/// One scheduler decision, for the optional journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// A request was bound to an instance.
    Dispatched {
        /// Request id.
        id: u64,
        /// Chosen instance.
        instance: InstanceId,
        /// Its runtime level.
        runtime_idx: usize,
    },
    /// No accepting instance could serve the request; it entered the
    /// central buffer.
    Buffered {
        /// Request id.
        id: u64,
    },
    /// The Runtime Scheduler adopted a new target allocation.
    AllocationAdopted {
        /// Target instance counts per runtime.
        target: Vec<u32>,
    },
    /// The auto-scaler added a GPU.
    ScaledOut {
        /// The new instance.
        instance: InstanceId,
    },
    /// The auto-scaler retired a GPU.
    ScaledIn {
        /// The victim instance.
        instance: InstanceId,
    },
    /// An injected fault fired.
    FaultFired {
        /// Index into the fault plan.
        index: usize,
    },
    /// The fault-tolerance layer quarantined an instance (circuit opened).
    Quarantined {
        /// The condemned instance.
        instance: InstanceId,
    },
    /// A quarantined instance passed probation and rejoined (circuit
    /// closed).
    Recovered {
        /// The recovered instance.
        instance: InstanceId,
    },
    /// A failed execution was scheduled for re-dispatch after backoff.
    Retried {
        /// Request id.
        id: u64,
    },
    /// The admission controller dropped a request (deadline hopeless or
    /// retry budget exhausted).
    Shed {
        /// Request id.
        id: u64,
    },
}

/// Why the admission controller dropped a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// Even an immediate dispatch could not meet the deadline — serving it
    /// would burn GPU time on a guaranteed SLO violation while punctual
    /// requests queue behind it.
    DeadlineHopeless,
    /// The request failed more times than its retry budget allows.
    RetryBudget,
}

/// A request dropped by the fault-tolerance layer's admission controller —
/// a distinct outcome from completion, kept out of [`SimReport::records`]
/// so latency statistics only describe requests that were actually served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedRecord {
    /// Trace request id.
    pub id: u64,
    /// Token length.
    pub length: u32,
    /// Arrival time (ns).
    pub arrival: Nanos,
    /// When the request was dropped (ns).
    pub shed_at: Nanos,
    /// Why it was dropped.
    pub reason: ShedReason,
}

/// Collected simulation output.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// One record per completed request, completion order.
    pub records: Vec<RequestRecord>,
    /// Fixed per-request overhead included in latency accounting (ns).
    pub overhead_ns: Nanos,
    /// GPUs held over time (Fig. 8).
    pub gpu_timeline: TimeWeighted,
    /// Committed instances per runtime over time (Fig. 12): one step
    /// function per runtime.
    pub allocation_timeline: Vec<TimeWeighted>,
    /// Requests that could not be dispatched immediately and waited in the
    /// scheduler buffer at least once.
    pub buffered_requests: u64,
    /// Trace horizon (ns).
    pub horizon: Nanos,
    /// Wall-clock spent inside the allocator (ILP solve time, Table 2).
    pub alloc_wall_ns: u64,
    /// Number of allocator invocations.
    pub alloc_count: u64,
    /// Total GPU execution time across all instances (ns).
    pub total_busy_ns: Nanos,
    /// Scheduler decision journal (`SimConfig::journal_limit` > 0),
    /// time-ordered, truncated at the limit.
    pub journal: Vec<(Nanos, JournalEntry)>,
    /// Requests dropped by the fault-tolerance layer (empty with the layer
    /// off). Every trace request ends up in exactly one of `records` or
    /// `shed`.
    pub shed: Vec<ShedRecord>,
    /// Re-dispatch attempts scheduled after failed executions.
    pub retries_total: u64,
    /// Executions that returned a failure (transient faults).
    pub exec_failures: u64,
    /// Queued requests pulled off quarantined instances back into the
    /// central buffer.
    pub evicted_requests: u64,
    /// Health state machine transitions, time-ordered (empty with the layer
    /// off). `ext_recovery` derives time-to-detect / time-to-recover here.
    pub health_transitions: Vec<HealthTransition>,
}

impl SimReport {
    /// A copy with the warm-up period removed: records of requests that
    /// arrived before `warmup_ns` are dropped from latency accounting.
    /// Standard discrete-event-simulation methodology — the initial
    /// transient (empty queues, un-converged allocation, the arrival
    /// process's initial state) is not part of steady-state behaviour.
    pub fn trimmed(&self, warmup_ns: Nanos) -> SimReport {
        let mut out = self.clone();
        out.records.retain(|r| r.arrival >= warmup_ns);
        out.shed.retain(|s| s.arrival >= warmup_ns);
        out
    }

    /// Fraction of requests dropped by the admission controller, out of all
    /// requests that reached an outcome (served or shed). Zero with the
    /// fault-tolerance layer off.
    pub fn shed_rate(&self) -> f64 {
        let total = self.records.len() + self.shed.len();
        if total == 0 {
            return 0.0;
        }
        self.shed.len() as f64 / total as f64
    }

    /// End-to-end latencies in milliseconds (the paper's reporting unit).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| nanos_to_ms(r.latency_ns(self.overhead_ns)))
            .collect()
    }

    /// Summary (mean, p50/p90/p98/p99, …) of end-to-end latency in ms.
    pub fn latency_summary(&self) -> Summary {
        Summary::from_vec(self.latencies_ms())
    }

    /// Latency CDF in ms.
    pub fn latency_cdf(&self) -> Cdf {
        Cdf::from_samples(&self.latencies_ms())
    }

    /// Summary of the queueing component alone (arrival → execution start,
    /// ms). End-to-end latency = queueing + execution + fixed overhead; the
    /// split shows whether a scheme loses to padding (execution) or to
    /// contention (queueing) — the distinction behind Fig. 6's analysis of
    /// ST ("elongated queuing times") vs DT ("suboptimal performance").
    pub fn queueing_summary(&self) -> Summary {
        Summary::from_vec(
            self.records
                .iter()
                .map(|r| nanos_to_ms(r.queueing_ns()))
                .collect(),
        )
    }

    /// Summary of pure execution time (start → completion, ms).
    pub fn execution_summary(&self) -> Summary {
        Summary::from_vec(
            self.records
                .iter()
                .map(|r| nanos_to_ms(r.completed - r.started))
                .collect(),
        )
    }

    /// Fraction of requests exceeding `slo_ms`.
    pub fn slo_violation_rate(&self, slo_ms: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let violations = self
            .records
            .iter()
            .filter(|r| nanos_to_ms(r.latency_ns(self.overhead_ns)) > slo_ms)
            .count();
        violations as f64 / self.records.len() as f64
    }

    /// Time-weighted mean GPU count over the trace horizon (Fig. 8).
    pub fn time_weighted_gpus(&self) -> f64 {
        self.gpu_timeline.average(0, self.horizon.max(1))
    }

    /// Requests served per runtime.
    pub fn per_runtime_counts(&self) -> Vec<u64> {
        let n = self.allocation_timeline.len().max(
            self.records
                .iter()
                .map(|r| r.runtime_idx as usize + 1)
                .max()
                .unwrap_or(0),
        );
        let mut counts = vec![0u64; n];
        for r in &self.records {
            counts[r.runtime_idx as usize] += 1;
        }
        counts
    }

    /// Mean padding (tokens) across served requests, given the runtime
    /// family's `max_length`s — the resource-waste view of §2.2.
    pub fn mean_padding(&self, max_lengths: &[u32]) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .records
            .iter()
            .map(|r| u64::from(max_lengths[r.runtime_idx as usize].saturating_sub(r.length)))
            .sum();
        total as f64 / self.records.len() as f64
    }

    /// Mean allocator solve time per invocation (ns) — Table 2's metric.
    pub fn mean_alloc_time_ns(&self) -> f64 {
        if self.alloc_count == 0 {
            return 0.0;
        }
        self.alloc_wall_ns as f64 / self.alloc_count as f64
    }

    /// Write per-request records as CSV (one row per request) for external
    /// plotting: `id,length,arrival_ns,dispatched_ns,started_ns,\
    /// completed_ns,runtime_idx,instance,latency_ms`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "id,length,arrival_ns,dispatched_ns,started_ns,completed_ns,runtime_idx,instance,latency_ms"
        )?;
        for r in &self.records {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{:.6}",
                r.id,
                r.length,
                r.arrival,
                r.dispatched,
                r.started,
                r.completed,
                r.runtime_idx,
                r.instance,
                nanos_to_ms(r.latency_ns(self.overhead_ns))
            )?;
        }
        Ok(())
    }

    /// Mean cluster utilization over the horizon: GPU busy time divided by
    /// GPU-nanoseconds held (the step-function integral of the GPU
    /// timeline over `[0, horizon]`). The quantity the paper's abstract
    /// targets — zero-padding shows up here as busy time spent computing
    /// zeros, so compare together with [`SimReport::mean_padding`].
    ///
    /// The integral is taken directly rather than as
    /// `time_weighted_gpus() × horizon`: the average only covers time at or
    /// after the first timeline point (and clamps a zero horizon), so the
    /// product overstates GPU-time held whenever the timeline starts after
    /// t = 0.
    pub fn utilization(&self) -> f64 {
        let gpu_ns = self.gpu_timeline.integral(0, self.horizon);
        if !gpu_ns.is_finite() || gpu_ns <= 0.0 {
            return f64::NAN;
        }
        self.total_busy_ns as f64 / gpu_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, arrival: Nanos, completed: Nanos, runtime_idx: u32) -> RequestRecord {
        RequestRecord {
            id,
            length: 50,
            arrival,
            dispatched: arrival,
            started: arrival,
            completed,
            runtime_idx,
            instance: 0,
        }
    }

    #[test]
    fn latency_includes_overhead() {
        let r = record(1, 1_000_000, 3_000_000, 0);
        assert_eq!(r.latency_ns(800_000), 2_800_000);
        assert_eq!(r.queueing_ns(), 0);
    }

    #[test]
    fn report_summary_and_violations() {
        let mut report = SimReport {
            overhead_ns: 0,
            horizon: 10,
            ..Default::default()
        };
        // Latencies: 1 ms, 2 ms, 10 ms.
        report.records = vec![
            record(1, 0, 1_000_000, 0),
            record(2, 0, 2_000_000, 0),
            record(3, 0, 10_000_000, 1),
        ];
        let s = report.latency_summary();
        assert_eq!(s.count, 3);
        assert!((s.mean - 13.0 / 3.0).abs() < 1e-9);
        assert!((report.slo_violation_rate(5.0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.slo_violation_rate(100.0), 0.0);
        assert_eq!(report.per_runtime_counts(), vec![2, 1]);
    }

    #[test]
    fn breakdown_sums_to_end_to_end() {
        let report = SimReport {
            overhead_ns: 800_000,
            records: vec![RequestRecord {
                id: 1,
                length: 64,
                arrival: 0,
                dispatched: 0,
                started: 2_000_000,   // 2 ms of queueing
                completed: 5_000_000, // 3 ms of execution
                runtime_idx: 0,
                instance: 0,
            }],
            ..Default::default()
        };
        let q = report.queueing_summary().mean;
        let e = report.execution_summary().mean;
        let total = report.latency_summary().mean;
        assert!((q - 2.0).abs() < 1e-9);
        assert!((e - 3.0).abs() < 1e-9);
        assert!((total - (q + e + 0.8)).abs() < 1e-9);
    }

    #[test]
    fn trimmed_drops_warmup_arrivals() {
        let mut report = SimReport {
            horizon: 100,
            ..Default::default()
        };
        report.records = vec![record(1, 5, 10, 0), record(2, 50, 60, 0)];
        let t = report.trimmed(20);
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].id, 2);
        assert_eq!(report.records.len(), 2, "original untouched");
    }

    #[test]
    fn mean_padding_uses_runtime_lengths() {
        let report = SimReport {
            records: vec![record(1, 0, 1, 0), record(2, 0, 1, 1)],
            ..Default::default()
        };
        // lengths 50, runtimes 64 and 512 ⇒ paddings 14 and 462.
        let pad = report.mean_padding(&[64, 512]);
        assert!((pad - 238.0).abs() < 1e-12);
    }

    #[test]
    fn csv_export_round_trips_fields() {
        let report = SimReport {
            overhead_ns: 800_000,
            records: vec![record(7, 1_000_000, 3_000_000, 2)],
            ..Default::default()
        };
        let mut buf = Vec::new();
        report.write_csv(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let mut lines = text.lines();
        assert!(lines.next().expect("header").starts_with("id,length"));
        let row = lines.next().expect("one row");
        assert_eq!(row, "7,50,1000000,1000000,1000000,3000000,2,0,2.800000");
        assert!(lines.next().is_none());
    }

    #[test]
    fn csv_export_prints_u32_max_fields_in_full() {
        // The narrow fields print the same digits the old 64-bit ones did.
        let report = SimReport {
            overhead_ns: 800_000,
            records: vec![RequestRecord {
                instance: u32::MAX,
                ..record(u32::MAX, 1_000_000, 3_000_000, u32::MAX)
            }],
            ..Default::default()
        };
        let mut buf = Vec::new();
        report.write_csv(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(
            text.lines().nth(1).expect("one row"),
            "4294967295,50,1000000,1000000,1000000,3000000,4294967295,4294967295,2.800000"
        );
    }

    #[test]
    fn utilization_integrates_late_start_timeline() {
        // Regression: the old `time_weighted_gpus() × horizon` treated the
        // covered-time average as if it spanned the whole horizon. With one
        // GPU held only over [5, 10] and 2 ns of busy time, utilization is
        // 2 / 5 — not 2 / 10.
        let mut report = SimReport {
            horizon: 10,
            total_busy_ns: 2,
            ..Default::default()
        };
        report.gpu_timeline.record(5, 1.0);
        assert!((report.utilization() - 0.4).abs() < 1e-12);
        // A zero horizon has held no GPU-time at all: NaN, not a clamped
        // 1-ns denominator.
        report.horizon = 0;
        assert!(report.utilization().is_nan());
        // An empty timeline is NaN too.
        let empty = SimReport {
            horizon: 10,
            total_busy_ns: 2,
            ..Default::default()
        };
        assert!(empty.utilization().is_nan());
    }

    #[test]
    fn mean_alloc_time() {
        let report = SimReport {
            alloc_wall_ns: 50_000,
            alloc_count: 5,
            ..Default::default()
        };
        assert_eq!(report.mean_alloc_time_ns(), 10_000.0);
        assert_eq!(SimReport::default().mean_alloc_time_ns(), 0.0);
    }
}
