//! # arlo-core — the Arlo inference scheduler
//!
//! Reproduction of *"Arlo: Serving Transformer-based Language Models with
//! Dynamic Input Lengths"* (ICPP 2024). Arlo serves discriminative
//! Transformer models whose request lengths vary widely by **polymorphing**:
//! compiling multiple static-shape runtimes of one model at different
//! `max_length` values, then scheduling both GPUs and requests across them:
//!
//! * [`runtime_scheduler`] — the **Runtime Scheduler** (§3.3): every
//!   decision period it observes the request-length distribution and solves
//!   the Eq. 1–7 integer program (exact DP from `arlo-solver`) to reassign
//!   GPU instances across runtimes; includes the Table 3 baseline
//!   allocators and INFaaS's length-oblivious vertical scaler.
//! * [`request_scheduler`] — the **Request Scheduler** (§3.4, Algorithm 1):
//!   a multi-level queue that dispatches each request to the least-padded
//!   runtime whose head instance is sufficiently idle, demoting to larger
//!   runtimes under a geometrically decaying congestion threshold.
//! * [`policies`] — dispatch baselines: ILB, IG (Table 4), plain load
//!   balancing (ST/DT) and INFaaS bin packing.
//! * [`system`] — complete scheme presets (Arlo / ST / DT / INFaaS) wired
//!   into the `arlo-sim` discrete-event cluster; the entry point for every
//!   figure and table reproduction.
//! * [`frontend`] — the standalone thread-safe multi-level-queue frontend
//!   measured in the Fig. 9 overhead study (exact per-level load indexes
//!   behind `parking_lot` mutexes).
//! * [`motivating`] — the Fig. 4 example reproduced exactly (ideal policy:
//!   5 violations; greedy: 8; clairvoyant split: 0).
//! * [`multistream`] — the §6 extension: a pool coordinator that splits a
//!   shared GPU pool across several per-stream Arlos by exact two-level
//!   optimization.
//! * [`engine`] — the live embedding API ("works with existing serving
//!   systems", §1): submit/complete dispatching plus periodic replacement
//!   plans, driven by the host's clock, for use outside the simulator.
//!
//! ```
//! use arlo_core::system::SystemSpec;
//! use arlo_runtime::models::ModelSpec;
//! use arlo_trace::workload::TraceSpec;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let trace = TraceSpec::twitter_stable(300.0, 5.0).generate(&mut rng);
//! let report = SystemSpec::arlo(ModelSpec::bert_base(), 6, 150.0).run(&trace);
//! assert_eq!(report.records.len(), trace.len());
//! println!("mean latency: {:.2} ms", report.latency_summary().mean);
//! ```

pub mod engine;
pub mod frontend;
pub mod motivating;
pub mod multistream;
pub mod policies;
pub mod request_scheduler;
pub mod runtime_scheduler;
pub mod system;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{ArloEngine, EngineConfig, Placement, ReplacementPlan};
    pub use crate::frontend::{InstanceHandle, SchedulerFrontend};
    pub use crate::multistream::{plan_from_trace, PoolCoordinator, PoolPartition, StreamPlan};
    pub use crate::policies::{
        InfaasBinPacking, InterGroupGreedy, IntraGroupLoadBalance, LoadBalance,
    };
    pub use crate::request_scheduler::{ArloRequestScheduler, RequestSchedulerConfig};
    pub use crate::runtime_scheduler::{
        ArloRuntimeScheduler, EvenRuntimeAllocator, GlobalDistributionAllocator,
        InfaasVerticalScaler, LinearizedRuntimeScheduler, RuntimeSchedulerConfig,
    };
    pub use crate::system::{AllocPolicy, DispatchPolicy, RuntimeChoice, SystemSpec};
}
