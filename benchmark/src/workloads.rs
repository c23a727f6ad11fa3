//! The four named workloads and their pinned constants. Everything a
//! later change is compared under lives here: rates, window, server flags,
//! RTT limits. The seed is the only input that varies between runs.

use arlo_runtime::batching::{BatchPolicy, BatchSpec};

/// Fresh-server repetitions per live run. Every reported metric is the
/// median over them.
pub const REPS: usize = 5;

/// Simulator children per sim run. Twice [`REPS`], each half as long: on
/// the reference host one child's speed differs from the next's by 20 %
/// (IQR/median) for its whole life — where the process's memory and vCPU
/// landed — so the median needs draws more than it needs length.
pub const SIM_REPS: usize = 10;

/// Measured seconds per run the contract (`BENCHMARK.json`) asks for:
/// [`REPS`] live windows of 5 s.
pub const RUN_SECONDS: u64 = 25;

/// Generator threads, one connection each: `nproc` on the reference host.
pub const CONNS: usize = 2;

/// Model every workload serves.
pub const MODEL: &str = "bert-base";

/// Stream SLO in virtual milliseconds (the paper's Bert-Base setting).
pub const SLO_MS: f64 = 150.0;

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Requests are due on a seeded Poisson schedule regardless of
    /// answers. `frame_subs` > 1 sends v2 `BatchedSubmit` frames of that
    /// many requests, due when the frame's last member arrives.
    Open {
        /// Offered rate summed over all connections (requests/s).
        rate_rps: f64,
        /// Requests per frame.
        frame_subs: usize,
    },
    /// Each connection keeps `window` requests outstanding.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
    },
}

impl Load {
    /// Requests per frame the generator sends (1 on the closed loop).
    pub fn frame_subs(self) -> usize {
        match self {
            Load::Open { frame_subs, .. } => frame_subs.max(1),
            Load::Closed { .. } => 1,
        }
    }
}

/// One live workload: a server shape plus a load shape.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Load shape.
    pub load: Load,
    /// `--gpus`.
    pub gpus: u32,
    /// `--time-scale`.
    pub time_scale: u32,
    /// `--period-secs`; `None` leaves the server default.
    pub period_secs: Option<u64>,
    /// `--tenants` value and the integer traffic mix over those tenants;
    /// empty = single-tenant server.
    pub tenants: &'static str,
    /// Traffic weights per tenant (`[1]` on a single-tenant server).
    pub tenant_mix: &'static [u32],
    /// `--max-batch`, `--marginal-cost`, `--max-wait-ms`.
    pub max_batch: u32,
    /// See `max_batch`.
    pub marginal_cost: f64,
    /// See `max_batch`.
    pub max_wait_ms: f64,
    /// An `Ok` answer later than this misses goodput. `None` on the closed
    /// loop, whose RTT is `window / throughput` by Little's law.
    pub rtt_limit_us: Option<f64>,
}

impl LiveWorkload {
    /// The exact flag list the server child is started with (plus
    /// `--addr`, chosen per repetition). Only flags the benchmark README
    /// lists may appear here.
    pub fn server_args(&self, addr: &str) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "serve".into(),
            "--model".into(),
            MODEL.into(),
            "--gpus".into(),
            self.gpus.to_string(),
            "--slo-ms".into(),
            SLO_MS.to_string(),
            "--addr".into(),
            addr.into(),
            "--time-scale".into(),
            self.time_scale.to_string(),
        ];
        if let Some(period) = self.period_secs {
            args.extend(["--period-secs".into(), period.to_string()]);
        }
        args.extend([
            "--max-batch".into(),
            self.max_batch.to_string(),
            "--marginal-cost".into(),
            self.marginal_cost.to_string(),
            "--max-wait-ms".into(),
            self.max_wait_ms.to_string(),
        ]);
        if !self.tenants.is_empty() {
            args.extend(["--tenants".into(), self.tenants.into()]);
        }
        args
    }

    /// The coalescing policy those flags configure, for the layer walk.
    pub fn batch_policy(&self) -> BatchPolicy {
        BatchPolicy {
            spec: BatchSpec {
                max_batch: self.max_batch,
                marginal_cost: self.marginal_cost,
            },
            max_wait_ns: (self.max_wait_ms * 1e6) as u64,
        }
    }

    /// The engine decision period the server runs with (120 s default).
    pub fn period_secs_effective(&self) -> u64 {
        self.period_secs.unwrap_or(120)
    }
}

/// The large-scale simulation workload (Fig. 10(a) shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Simulated GPUs.
    pub gpus: u32,
    /// Mean arrival rate of the Twitter-Bursty trace (requests per
    /// virtual second).
    pub rate_rps: f64,
    /// Virtual seconds of trace (at the mean rate) simulated per wall
    /// second of `--seconds` asked of a run; each of the [`SIM_REPS`]
    /// children simulates its share. 120 makes a `--seconds 25` repetition
    /// 300 virtual seconds (2.4 M requests, half of Fig. 10(a)'s 600 s); the
    /// simulator manages 1.0–1.6 M requests per wall second on the reference
    /// host, so a run takes 20–30 s.
    pub virtual_secs_per_wall_sec: f64,
}

/// A workload of either kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Drives a server child over the wire.
    Live(LiveWorkload),
    /// Runs the simulator in a harness child.
    Sim(SimWorkload),
}

impl Workload {
    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Live(w) => w.name,
            Workload::Sim(w) => w.name,
        }
    }

    /// One sentence on why the workload exists.
    pub fn why(&self) -> &'static str {
        match self.name() {
            "single_open" => {
                "open loop, one Submit per frame at 40 krps: every request pays the whole \
                 per-request chain once, so codec, connection-plane and hand-off latency show here"
            }
            "single_closed" => {
                "closed loop, 2 connections x window 512: saturation, where lock and queue \
                 contention in registry, queue and engine sets throughput"
            }
            "tenants_batched" => {
                "open loop, 60 krps as BatchedSubmit x32 over three tenants with batch-8 \
                 coalescing: framing amortised, flusher deadlines, routing and re-planning live"
            }
            "sim_largescale" => {
                "Fig. 10(a) simulation, Arlo on 90 GPUs under Twitter-Bursty 8000 rps: only sim, \
                 solver and the request scheduler run; guards the paper's outputs"
            }
            _ => "",
        }
    }
}

const SINGLE_TENANT_MIX: &[u32] = &[1];

/// Every workload, in the order `run.sh` runs them.
pub fn all() -> Vec<Workload> {
    let single = |name, load, rtt_limit_us| LiveWorkload {
        name,
        load,
        gpus: 8,
        time_scale: 1000,
        period_secs: Some(100_000),
        tenants: "",
        tenant_mix: SINGLE_TENANT_MIX,
        max_batch: 1,
        marginal_cost: 0.6,
        max_wait_ms: 0.0,
        rtt_limit_us,
    };
    vec![
        Workload::Live(single(
            "single_open",
            Load::Open {
                rate_rps: 40_000.0,
                frame_subs: 1,
            },
            Some(2_000.0),
        )),
        Workload::Live(single("single_closed", Load::Closed { window: 512 }, None)),
        Workload::Live(LiveWorkload {
            name: "tenants_batched",
            load: Load::Open {
                rate_rps: 60_000.0,
                frame_subs: 32,
            },
            gpus: 6,
            time_scale: 100,
            period_secs: None,
            tenants: "a=interactive,b=standard,c=batch",
            tenant_mix: &[6, 3, 1],
            max_batch: 8,
            marginal_cost: 0.6,
            max_wait_ms: 40.0,
            rtt_limit_us: Some(3_000.0),
        }),
        Workload::Sim(SimWorkload {
            name: "sim_largescale",
            gpus: 90,
            rate_rps: 8_000.0,
            virtual_secs_per_wall_sec: 120.0,
        }),
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_workloads_with_unique_names_and_reasons() {
        let all = all();
        assert_eq!(all.len(), 4);
        for w in &all {
            assert!(!w.why().is_empty(), "{} has no reason", w.name());
            assert!(w.why().len() <= 200, "{} reason too long", w.name());
            assert_eq!(by_name(w.name()).as_ref(), Some(w));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn server_flags_are_only_the_documented_ones() {
        let allowed = [
            "--model",
            "--gpus",
            "--slo-ms",
            "--addr",
            "--time-scale",
            "--period-secs",
            "--max-batch",
            "--marginal-cost",
            "--max-wait-ms",
            "--tenants",
        ];
        for w in all() {
            let Workload::Live(w) = w else { continue };
            let args = w.server_args("127.0.0.1:1");
            assert_eq!(args[0], "serve");
            for flag in args.iter().filter(|a| a.starts_with("--")) {
                assert!(allowed.contains(&flag.as_str()), "undocumented flag {flag}");
            }
        }
    }
}
