//! # arlo — serving Transformer LMs with dynamic input lengths
//!
//! A from-scratch Rust reproduction of *"Arlo: Serving Transformer-based
//! Language Models with Dynamic Input Lengths"* (ICPP 2024).
//!
//! Requests to discriminative Transformer models (BERT-style classifiers,
//! rerankers, embedders) carry wildly varying token lengths. Serving them
//! from one statically compiled runtime wastes most of the GPU on
//! zero-padding; dynamic-shape compilation avoids padding but pays a 1.2–3.6×
//! kernel penalty. Arlo's **polymorphing** takes a third path: compile
//! *several* static runtimes at staircase-spaced `max_length`s, allocate GPU
//! instances across them with a periodic integer program (the **Runtime
//! Scheduler**), and dispatch each request through a multi-level queue with
//! congestion-gated demotion (the **Request Scheduler**).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`trace`] | calibrated Twitter-like workloads: lengths, arrivals, stats |
//! | [`runtime`] | model zoo, static/dynamic latency models, profiler, runtime sets |
//! | [`solver`] | the Eq. 1–7 allocation problem, exact DP, simplex + B&B MILP |
//! | [`sim`] | discrete-event GPU-cluster simulator with auto-scaling |
//! | [`core`] | the Arlo schedulers, baselines (ST/DT/INFaaS/ILB/IG), system presets |
//! | [`serve`] | live TCP serving stack: wire protocol, epoll server, load generator |
//!
//! ## Quickstart
//!
//! ```
//! use arlo::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. A Twitter-calibrated workload: 500 req/s for 10 s.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let trace = TraceSpec::twitter_stable(500.0, 10.0).generate(&mut rng);
//!
//! // 2. Arlo serving Bert-Base on 8 GPUs with a 150 ms SLO.
//! let report = SystemSpec::arlo(ModelSpec::bert_base(), 8, 150.0).run(&trace);
//!
//! // 3. Every request completes; inspect the paper's metrics.
//! assert_eq!(report.records.len(), trace.len());
//! let s = report.latency_summary();
//! println!("mean {:.2} ms, p98 {:.2} ms", s.mean, s.p98);
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the
//! per-figure/table reproduction harness.

pub use arlo_core as core;
pub use arlo_runtime as runtime;
pub use arlo_serve as serve;
pub use arlo_sim as sim;
pub use arlo_solver as solver;
pub use arlo_trace as trace;

/// One-stop imports for applications.
pub mod prelude {
    pub use arlo_core::prelude::*;
    pub use arlo_runtime::prelude::*;
    pub use arlo_sim::prelude::*;
    pub use arlo_solver::prelude::*;
    pub use arlo_trace::prelude::*;
}
