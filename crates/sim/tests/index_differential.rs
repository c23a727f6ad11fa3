//! Differential tests for the cluster's indexed dispatch hot path.
//!
//! The incremental index (per-runtime membership lists + exact load
//! indexes, see `cluster.rs`) must make **exactly** the decisions the naive O(N)
//! scans made — same instances, same `(load, id)` tie-breaks — or every
//! figure downstream silently changes. The property test below drives a
//! cluster through random sequences of every index-relevant event
//! (enqueue, completion, allocation steps, health bans/recoveries,
//! evictions, crashes, scale-out/in) and cross-checks the indexed reads
//! against the reference `*_scan` implementations after each one. A second
//! property reads only every few hundred events, weighted toward bans,
//! swaps, retirements and scale-ins: no read happens in between, so only
//! eager maintenance keeps each index exact, and `debug_validate_index`
//! asserts that it holds exactly the accepting instances at their loads,
//! and nothing else, at every check. Parity with the live frontend, bans
//! included, is the root crate's Algorithm 1 differential
//! (`tests/properties.rs`).

use arlo_runtime::latency::{CompiledRuntime, JitterSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_sim::cluster::{AdmitGate, Cluster, InstanceId};
use arlo_trace::workload::Request;
use proptest::prelude::*;
use std::collections::BTreeSet;

const SWAP_LATENCY: u64 = 1_000_000_000;

fn profiles() -> Vec<RuntimeProfile> {
    let model = ModelSpec::bert_base();
    [64u32, 256, 512]
        .iter()
        .map(|&l| RuntimeProfile::measure(CompiledRuntime::new_static(model.clone(), l), 150.0, 64))
        .collect()
}

/// Test harness state alongside the cluster: which instances are mid
/// execution (safe to `complete`) and which are loading (ready times for
/// `load_done`).
struct Harness {
    cluster: Cluster,
    busy: BTreeSet<InstanceId>,
    loading: Vec<(InstanceId, u64)>,
    now: u64,
    next_req: u64,
    /// The completion buffer the harness hands back on every `complete`,
    /// as the driver does.
    finished: Vec<Request>,
}

impl Harness {
    fn new(counts: &[u32]) -> Self {
        Harness {
            cluster: Cluster::new(profiles(), counts, JitterSpec::NONE, SWAP_LATENCY),
            busy: BTreeSet::new(),
            loading: Vec::new(),
            now: 0,
            next_req: 0,
            finished: Vec::new(),
        }
    }

    fn pick<T: Copy>(items: &[T], roll: u64) -> Option<T> {
        if items.is_empty() {
            None
        } else {
            Some(items[(roll as usize) % items.len()])
        }
    }

    /// Ids of non-retired instances.
    fn live_ids(&self) -> Vec<InstanceId> {
        use arlo_sim::cluster::InstanceState;
        let view = self.cluster.view();
        (0..view.instance_count())
            .filter(|&id| view.state_of(id) != InstanceState::Retired)
            .collect()
    }

    fn enqueue(&mut self, rt_roll: u64, inst_roll: u64) {
        let view = self.cluster.view();
        let rt = (rt_roll as usize) % view.profiles().len();
        let candidates: Vec<InstanceId> = view.instances_of(rt).map(|(id, _)| id).collect();
        let Some(id) = Self::pick(&candidates, inst_roll) else {
            return;
        };
        let req = Request {
            id: self.next_req,
            arrival: self.now,
            length: 1,
        };
        self.next_req += 1;
        if self.cluster.enqueue(id, req, self.now).is_some() {
            self.busy.insert(id);
        }
    }

    fn complete(&mut self, roll: u64) {
        let ids: Vec<InstanceId> = self.busy.iter().copied().collect();
        let Some(id) = Self::pick(&ids, roll) else {
            return;
        };
        let out = self.cluster.complete(id, self.now, &mut self.finished);
        if out.next.is_none() {
            self.busy.remove(&id);
        }
        if let Some(ready) = out.loading_until {
            self.loading.push((id, ready));
        }
    }

    fn load_done(&mut self, roll: u64) {
        if self.loading.is_empty() {
            return;
        }
        let idx = (roll as usize) % self.loading.len();
        let (id, ready) = self.loading.swap_remove(idx);
        self.now = self.now.max(ready);
        self.cluster.load_done(id, self.now);
    }

    fn apply_allocation(&mut self, src_roll: u64, dst_roll: u64) {
        let committed = self.cluster.view().committed_counts();
        let k = committed.len();
        let mut target = committed.clone();
        let src = (src_roll as usize) % k;
        let dst = (dst_roll as usize) % k;
        if target[src] == 0 || src == dst {
            return;
        }
        target[src] -= 1;
        target[dst] += 1;
        for (id, ready) in self.cluster.apply_allocation(&target, self.now, 2) {
            self.loading.push((id, ready));
        }
    }

    fn set_gate(&mut self, id_roll: u64, gate_roll: u64) {
        let ids = self.live_ids();
        let Some(id) = Self::pick(&ids, id_roll) else {
            return;
        };
        let gate = match gate_roll % 3 {
            0 => AdmitGate::Open,
            1 => AdmitGate::Probe,
            _ => AdmitGate::Closed,
        };
        self.cluster.set_admit_gate(id, gate);
    }

    fn evict(&mut self, roll: u64) {
        let ids = self.live_ids();
        if let Some(id) = Self::pick(&ids, roll) {
            self.cluster.evict_queued(id);
        }
    }

    fn crash(&mut self, roll: u64) {
        let ids = self.live_ids();
        let Some(id) = Self::pick(&ids, roll) else {
            return;
        };
        let (_orphans, ready, _had_running) = self.cluster.crash_instance(id, self.now);
        self.busy.remove(&id);
        self.loading.push((id, ready));
    }

    fn add_instance(&mut self, rt_roll: u64) {
        let rt = (rt_roll as usize) % self.cluster.view().profiles().len();
        let (id, ready) = self.cluster.add_instance(rt, self.now);
        self.loading.push((id, ready));
    }

    fn retire(&mut self, roll: u64) {
        // Keep at least a couple of instances around so the sequence stays
        // interesting.
        if self.cluster.view().gpu_count() <= 2 {
            return;
        }
        let ids = self.live_ids();
        if let Some(id) = Self::pick(&ids, roll) {
            self.cluster.retire_instance(id, self.now);
        }
    }

    /// The full differential check: incremental index vs reference scans.
    fn check(&self) {
        self.cluster.debug_validate_index();
        // Global scale-in victim agrees with a whole-cluster scan.
        let view = self.cluster.view();
        let scan_victim = (0..view.profiles().len())
            .flat_map(|rt| view.instances_of_scan(rt).collect::<Vec<_>>())
            .min_by_key(|&(id, load)| (load, id))
            .map(|(id, _)| id);
        assert_eq!(self.cluster.least_busy_instance(), scan_victim);
        // Per-runtime accepting sets agree element-wise.
        for rt in 0..view.profiles().len() {
            let indexed: Vec<(InstanceId, u32)> = view.instances_of(rt).collect();
            let scanned: Vec<(InstanceId, u32)> = view.instances_of_scan(rt).collect();
            assert_eq!(indexed, scanned, "instances_of diverges on runtime {rt}");
        }
    }
}

/// Replay `ops` on a cluster of `counts` instances, running the full
/// differential check after every `check_every`-th op.
fn replay(counts: &[u32], ops: &[(u8, u64, u64)], check_every: usize) {
    // Ensure at least one instance exists.
    let mut counts = counts.to_vec();
    if counts.iter().sum::<u32>() == 0 {
        counts[0] = 1;
    }
    let mut h = Harness::new(&counts);
    h.check();
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        h.now += 1 + a % 50_000_000;
        match op {
            // Enqueue dominates the mix, as in a real trace.
            0..=2 => h.enqueue(a, b),
            3 => h.complete(a),
            4 => h.load_done(a),
            5 => h.apply_allocation(a, b),
            6 => h.set_gate(a, b),
            7 => match b % 3 {
                0 => h.evict(a),
                1 => h.crash(a),
                _ => h.retire(a),
            },
            _ => h.add_instance(a),
        }
        if (step + 1) % check_every == 0 {
            h.check();
        }
    }
    h.check();
}

#[test]
fn indexed_dispatch_matches_naive_scan_under_random_events() {
    proptest!(ProptestConfig::with_cases(96), |(
        counts in proptest::collection::vec(0u32..4, 3),
        ops in proptest::collection::vec((0u8..9, 0u64..1 << 48, 0u64..1 << 48), 1..250),
    )| {
        replay(&counts, &ops, 1);
    });
}

/// The same differential with reads only every 300 events, and op codes
/// 9–13 folded onto allocation steps, gates, evictions / crashes /
/// retirements and scale-outs, so long unread runs of bans, swaps,
/// retirements and scale-ins pile up between checks — after which every
/// index is still exact.
#[test]
fn indexes_stay_exact_after_long_unread_runs_of_random_events() {
    proptest!(ProptestConfig::with_cases(24), |(
        counts in proptest::collection::vec(0u32..4, 3),
        ops in proptest::collection::vec((0u8..14, 0u64..1 << 48, 0u64..1 << 48), 600..1_500),
    )| {
        let ops: Vec<_> = ops
            .into_iter()
            .map(|(op, a, b)| (if op < 9 { op } else { 5 + (op - 9) % 4 }, a, b))
            .collect();
        replay(&counts, &ops, 300);
    });
}
