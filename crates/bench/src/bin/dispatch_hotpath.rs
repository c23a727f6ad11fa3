//! `dispatch_hotpath` — ns/decision of the simulator dispatch hot path vs
//! cluster size, for every dispatch policy, with the pre-index O(N) scan as
//! the baseline.
//!
//! The cluster's dispatch reads (`least_loaded`, `instances_of`) used to
//! scan every instance on every decision; they now run off an incremental
//! per-runtime index (membership lists + exact load-bucket indexes, see
//! `arlo-sim::cluster`). This binary measures the decision cost directly:
//! each cell spins one policy against a populated cluster of a given size
//! and reports mean wall-clock per decision. `arlo-rs-scan` runs Algorithm
//! 1's one walk (`mlq_walk`) over the retained `least_loaded_scan` reference
//! path — the pre-index baseline the speedup column compares against.
//!
//! Those cells only read, so the indexes never take an update.
//! `arlo-rs-steady` is the simulator's steady state: every decision is
//! followed by an enqueue and a completion on the chosen instance, so loads
//! hold still while the chosen instance's bit moves up a bucket and back
//! (two `LoadIndex::set`s per request).
//!
//! Cells are independent, so the policy × size grid runs through the
//! bench crate's `sweep_parallel` runner. Results land in
//! `results/BENCH_dispatch.json`.

use arlo_bench::{json_f64, print_table, sweep_parallel, write_json};
use arlo_core::policies::{InfaasBinPacking, InterGroupGreedy, IntraGroupLoadBalance, LoadBalance};
use arlo_core::request_scheduler::{mlq_walk, ArloRequestScheduler, Peek, RequestSchedulerConfig};
use arlo_runtime::latency::{CompiledRuntime, JitterSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_sim::cluster::{Cluster, ClusterView, InstanceId};
use arlo_sim::driver::Dispatcher;
use arlo_trace::workload::Request;
use std::hint::black_box;
use std::time::Instant;

/// Runtime ladder used by every cell (the paper's 8-runtime Bert-Base
/// setup: max lengths 64..512 in steps of 64).
const RUNTIME_LENGTHS: [u32; 8] = [64, 128, 192, 256, 320, 384, 448, 512];

/// Cluster sizes swept (total instances across all runtimes).
const SIZES: [u32; 3] = [16, 64, 256];

const WARMUP: u64 = 10_000;
const ITERS: u64 = 100_000;

/// Algorithm 1 as `ArloRequestScheduler::select` runs it — the same
/// [`mlq_walk`] at the paper's parameters — but reading level heads through
/// the naive `least_loaded_scan`: the pre-index hot path. Decision-for-
/// decision identical (same tie-breaks); only the data structure behind the
/// peek differs.
fn select_scan(length: u32, view: &ClusterView<'_>) -> Option<InstanceId> {
    let profiles = view.profiles();
    let max_lengths = profiles.iter().map(|p| p.max_length());
    let config = RequestSchedulerConfig::default();
    mlq_walk(&config, length, max_lengths, |level, bar| {
        match view.least_loaded_scan(level) {
            None => Peek::Empty,
            Some((head, load)) if bar.admits(load, profiles[level].capacity_within_slo) => {
                Peek::Taken(head)
            }
            Some(_) => Peek::Congested,
        }
    })
}

/// One benchmarked decision procedure.
enum Policy {
    ArloIndexed(ArloRequestScheduler),
    ArloScan,
    Boxed(Box<dyn Dispatcher>),
}

impl Policy {
    fn from_name(name: &str) -> Policy {
        match name {
            "arlo-rs" => Policy::ArloIndexed(ArloRequestScheduler::paper_default()),
            "arlo-rs-scan" => Policy::ArloScan,
            "ilb" => Policy::Boxed(Box::new(IntraGroupLoadBalance)),
            "ig" => Policy::Boxed(Box::new(InterGroupGreedy)),
            "load-balance" => Policy::Boxed(Box::new(LoadBalance)),
            "infaas-pack" => Policy::Boxed(Box::new(InfaasBinPacking::default())),
            other => panic!("unknown policy {other}"),
        }
    }

    fn decide(&mut self, length: u32, view: &ClusterView<'_>) -> Option<InstanceId> {
        let req = Request {
            id: 0,
            arrival: 0,
            length,
        };
        match self {
            Policy::ArloIndexed(rs) => rs.select(length, view),
            Policy::ArloScan => select_scan(length, view),
            Policy::Boxed(d) => d.dispatch(&req, view),
        }
    }
}

/// A populated cluster: `total` instances spread evenly over the runtime
/// ladder, with a 0..7 outstanding-load gradient so heads differ per level
/// and the congestion test exercises both branches.
fn build_cluster(total: u32) -> Cluster {
    let model = ModelSpec::bert_base();
    let rts: Vec<CompiledRuntime> = RUNTIME_LENGTHS
        .iter()
        .map(|&l| CompiledRuntime::new_static(model.clone(), l))
        .collect();
    let profiles = profile_runtimes(&rts, 150.0, 256);
    let k = RUNTIME_LENGTHS.len() as u32;
    let per = total / k;
    let extra = total % k;
    let counts: Vec<u32> = (0..k).map(|i| per + u32::from(i < extra)).collect();
    let mut cluster = Cluster::new(profiles, &counts, JitterSpec::NONE, 1_000_000_000);
    let mut req_id = 0u64;
    for inst in 0..total as usize {
        for _ in 0..(inst % 7) {
            cluster.enqueue(
                inst,
                Request {
                    id: req_id,
                    arrival: 0,
                    length: 1,
                },
                0,
            );
            req_id += 1;
        }
    }
    cluster
}

/// Mean ns per steady-state request: an indexed Arlo-RS decision, then an
/// enqueue on the chosen instance and the completion of its running head.
fn run_steady_cell(total: u32) -> f64 {
    let mut cluster = build_cluster(total);
    let scheduler = ArloRequestScheduler::paper_default();
    let mut finished = Vec::new();
    let mut step = |k: u64| {
        let length = 1 + (k % 512) as u32;
        let id = scheduler
            .select(length, &cluster.view())
            .expect("every level is deployed");
        let req = Request {
            id: k,
            arrival: k,
            length,
        };
        cluster.enqueue(id, req, k);
        black_box(cluster.complete(id, k, &mut finished));
    };
    let mut k = 0u64;
    for _ in 0..WARMUP {
        k = k.wrapping_add(263);
        step(k);
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        k = k.wrapping_add(263);
        step(k);
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Mean ns/decision for one policy × size cell.
fn run_cell(policy_name: &str, total: u32) -> f64 {
    if policy_name == "arlo-rs-steady" {
        return run_steady_cell(total);
    }
    let cluster = build_cluster(total);
    let view = cluster.view();
    let mut policy = Policy::from_name(policy_name);
    // Cycle request lengths coprime to the table size so every level is hit.
    let mut k = 0u64;
    for _ in 0..WARMUP {
        k = k.wrapping_add(263);
        black_box(policy.decide(1 + (k % 512) as u32, &view));
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        k = k.wrapping_add(263);
        black_box(policy.decide(1 + (k % 512) as u32, &view));
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

fn main() {
    let policies = [
        "arlo-rs",
        "arlo-rs-scan",
        "arlo-rs-steady",
        "ilb",
        "ig",
        "load-balance",
        "infaas-pack",
    ];
    let cells: Vec<(String, u32)> = policies
        .iter()
        .flat_map(|&p| SIZES.iter().map(move |&s| (p.to_string(), s)))
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let measured = sweep_parallel(cells.clone(), threads, |(policy, size)| {
        run_cell(&policy, size)
    });

    let ns_of = |policy: &str, size: u32| -> f64 {
        cells
            .iter()
            .zip(&measured)
            .find(|((p, s), _)| p == policy && *s == size)
            .map(|(_, &ns)| ns)
            .expect("cell measured")
    };

    let rows: Vec<Vec<String>> = policies
        .iter()
        .map(|&p| {
            let mut row = vec![p.to_string()];
            row.extend(SIZES.iter().map(|&s| format!("{:.0}", ns_of(p, s))));
            row
        })
        .collect();
    print_table(
        "dispatch hot path — ns/decision vs cluster size (8 runtimes, load gradient)",
        &["policy", "16 inst", "64 inst", "256 inst"],
        &rows,
    );

    let speedup_256 = ns_of("arlo-rs-scan", 256) / ns_of("arlo-rs", 256);
    println!(
        "\nindexed Arlo-RS vs pre-index scan at 256 instances: {speedup_256:.1}x \
         ({:.0} ns -> {:.0} ns)",
        ns_of("arlo-rs-scan", 256),
        ns_of("arlo-rs", 256),
    );

    let cells_json: Vec<serde_json::Value> = cells
        .iter()
        .zip(&measured)
        .map(|((policy, size), &ns)| {
            serde_json::json!({
                "policy": policy,
                "instances": size,
                "ns_per_decision": json_f64(ns),
            })
        })
        .collect();
    write_json(
        "BENCH_dispatch",
        &serde_json::json!({
            "runtimes": RUNTIME_LENGTHS.len(),
            "iters_per_cell": ITERS,
            "cells": cells_json,
            "arlo_rs_speedup_256": json_f64(speedup_256),
        }),
    );
}
