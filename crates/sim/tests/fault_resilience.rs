//! End-to-end fault-resilience invariants, swept across real dispatch
//! policies (from `arlo-core`, a dev-dependency) and every injected fault
//! kind.
//!
//! The central invariant — **no request is ever lost**, whatever breaks —
//! used to live as an assert inside the `ext_faults` bench binary, where it
//! only covered one fault plan and only ran when someone invoked the
//! binary. Here it is a first-class test: every dispatch policy × every
//! fault kind, with the fault-tolerance layer off *and* on.

use arlo_core::request_scheduler::RequestSchedulerConfig;
use arlo_core::system::{DispatchPolicy, SystemSpec};
use arlo_runtime::models::ModelSpec;
use arlo_sim::driver::{FaultKind, FaultSpec, FaultToleranceConfig, NoopAllocator, Simulation};
use arlo_sim::health::HealthState;
use arlo_sim::metrics::SimReport;
use arlo_trace::workload::{Trace, TraceSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const SEC: u64 = 1_000_000_000;
const SLO: f64 = 150.0;
const GPUS: u32 = 6;

fn trace(rate: f64, secs: f64, seed: u64) -> Trace {
    TraceSpec::twitter_stable(rate, secs).generate(&mut StdRng::seed_from_u64(seed))
}

fn policies() -> Vec<(&'static str, DispatchPolicy)> {
    vec![
        (
            "RS",
            DispatchPolicy::ArloRs(RequestSchedulerConfig::default()),
        ),
        (
            "RS+meas",
            DispatchPolicy::ArloRs(RequestSchedulerConfig {
                use_measured_capacity: true,
                ..RequestSchedulerConfig::default()
            }),
        ),
        ("ILB", DispatchPolicy::Ilb),
        ("IG", DispatchPolicy::Ig),
    ]
}

/// Fault plans: each kind exercised against the initial deployment.
fn fault_plans(initial: &[u32]) -> Vec<(&'static str, Vec<FaultSpec>)> {
    let last = (initial.iter().sum::<u32>() - 1) as usize;
    vec![
        (
            "slowdown",
            vec![FaultSpec {
                at: 2 * SEC,
                instance: 0,
                kind: FaultKind::Slowdown {
                    factor: 4.0,
                    duration: 3 * SEC,
                },
            }],
        ),
        (
            "crash",
            vec![FaultSpec {
                at: 2 * SEC,
                instance: last,
                kind: FaultKind::Crash,
            }],
        ),
        (
            "transient",
            vec![FaultSpec {
                at: 2 * SEC,
                instance: 0,
                kind: FaultKind::Transient {
                    error_rate: 0.5,
                    duration: 3 * SEC,
                },
            }],
        ),
        (
            "fail-slow",
            vec![FaultSpec {
                at: 2 * SEC,
                instance: 0,
                kind: FaultKind::FailSlow {
                    ramp_per_sec: 1.0,
                    duration: 3 * SEC,
                },
            }],
        ),
    ]
}

fn run(spec: &SystemSpec, t: &Trace, initial: &[u32], faults: Vec<FaultSpec>) -> SimReport {
    let sim =
        Simulation::new(t, spec.build_profiles(), initial, spec.sim_config()).with_faults(faults);
    let mut dispatcher = spec.build_dispatcher();
    sim.run(dispatcher.as_mut(), &mut NoopAllocator)
}

fn assert_complete_and_unique(report: &SimReport, t: &Trace, ctx: &str) {
    assert_eq!(
        report.records.len() + report.shed.len(),
        t.len(),
        "{ctx}: requests lost"
    );
    let mut seen = HashSet::new();
    for r in &report.records {
        assert!(
            seen.insert(u64::from(r.id)),
            "{ctx}: request {} served twice",
            r.id
        );
    }
    for s in &report.shed {
        assert!(seen.insert(s.id), "{ctx}: request {} double-counted", s.id);
    }
}

#[test]
fn no_requests_lost_for_any_policy_and_fault_kind() {
    let t = trace(500.0, 6.0, 11);
    let base = SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO);
    let initial = base.initial_allocation(&base.build_profiles(), &t);
    for (pname, dispatch) in policies() {
        for (fname, plan) in fault_plans(&initial) {
            for (ft_name, ft) in [
                ("ft-off", None),
                ("ft-on", Some(FaultToleranceConfig::paper_default())),
            ] {
                let mut spec = base.clone().with_dispatch(dispatch, pname);
                if let Some(ft) = ft {
                    spec = spec.with_fault_tolerance(ft);
                }
                let report = run(&spec, &t, &initial, plan.clone());
                let ctx = format!("{pname}/{fname}/{ft_name}");
                assert!(
                    report.shed.is_empty(),
                    "{ctx}: shedding disabled yet requests were shed"
                );
                assert_complete_and_unique(&report, &t, &ctx);
            }
        }
    }
}

#[test]
fn crash_orphans_are_recovered_with_layer_on() {
    let t = trace(600.0, 6.0, 12);
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO)
        .with_fault_tolerance(FaultToleranceConfig::paper_default());
    let initial = spec.initial_allocation(&spec.build_profiles(), &t);
    let last = (initial.iter().sum::<u32>() - 1) as usize;
    let report = run(
        &spec,
        &t,
        &initial,
        vec![FaultSpec {
            at: 2 * SEC,
            instance: last,
            kind: FaultKind::Crash,
        }],
    );
    assert_complete_and_unique(&report, &t, "crash/ft-on");
    // The crash must be *observed* by the health layer: an immediate
    // quarantine of the crashed instance.
    assert!(
        report
            .health_transitions
            .iter()
            .any(|tr| tr.instance == last && tr.to == HealthState::Quarantined && tr.at >= 2 * SEC),
        "crash not reflected in health transitions: {:?}",
        report.health_transitions
    );
}

#[test]
fn transient_failures_are_retried_to_completion() {
    let t = trace(600.0, 6.0, 13);
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO)
        .with_fault_tolerance(FaultToleranceConfig::paper_default());
    let initial = spec.initial_allocation(&spec.build_profiles(), &t);
    let report = run(
        &spec,
        &t,
        &initial,
        vec![FaultSpec {
            at: SEC,
            instance: 0,
            kind: FaultKind::Transient {
                error_rate: 0.6,
                duration: 3 * SEC,
            },
        }],
    );
    assert!(report.exec_failures > 0, "fault injected but never fired");
    assert!(
        report.retries_total >= report.exec_failures,
        "every failed execution must be retried (shedding is off): {} failures, {} retries",
        report.exec_failures,
        report.retries_total
    );
    assert_complete_and_unique(&report, &t, "transient/ft-on");
}

#[test]
fn detection_and_recovery_bracket_the_fault_window() {
    let t = trace(800.0, 10.0, 14);
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO)
        .with_fault_tolerance(FaultToleranceConfig::paper_default());
    let initial = spec.initial_allocation(&spec.build_profiles(), &t);
    let (start, end) = (2 * SEC, 6 * SEC);
    let report = run(
        &spec,
        &t,
        &initial,
        vec![FaultSpec {
            at: start,
            instance: 0,
            kind: FaultKind::Slowdown {
                factor: 5.0,
                duration: end - start,
            },
        }],
    );
    assert_complete_and_unique(&report, &t, "slowdown/ft-on");
    let detect = report
        .health_transitions
        .iter()
        .find(|tr| tr.instance == 0 && tr.to == HealthState::Quarantined)
        .expect("the 5x slowdown must be detected");
    assert!(
        detect.at >= start,
        "detected before the fault fired: {} < {start}",
        detect.at
    );
    assert!(
        detect.at < end,
        "detection must happen during the fault window, got {}",
        detect.at
    );
    let recover = report
        .health_transitions
        .iter()
        .find(|tr| tr.instance == 0 && tr.to == HealthState::Healthy && tr.at >= end);
    assert!(
        recover.is_some(),
        "instance must re-earn Healthy after the fault clears: {:?}",
        report.health_transitions
    );
}

#[test]
fn shedding_keeps_request_accounting_exact() {
    // Saturate: every instance slows 8x for most of the run, so the buffer
    // backs up far beyond the deadline and the admission controller must
    // shed. Every request still reaches exactly one outcome.
    let t = trace(800.0, 8.0, 15);
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO)
        .with_fault_tolerance(FaultToleranceConfig::paper_default().with_shedding());
    let initial = spec.initial_allocation(&spec.build_profiles(), &t);
    let plan: Vec<FaultSpec> = (0..initial.iter().sum::<u32>() as usize)
        .map(|i| FaultSpec {
            at: SEC,
            instance: i,
            kind: FaultKind::Slowdown {
                factor: 8.0,
                duration: 6 * SEC,
            },
        })
        .collect();
    let report = run(&spec, &t, &initial, plan);
    assert!(
        !report.shed.is_empty(),
        "a saturated cluster with shedding on must shed"
    );
    assert_complete_and_unique(&report, &t, "saturated/shed");
    let trace_ids: HashSet<u64> = t.requests().iter().map(|r| r.id).collect();
    let outcome_ids: HashSet<u64> = report
        .records
        .iter()
        .map(|r| u64::from(r.id))
        .chain(report.shed.iter().map(|s| s.id))
        .collect();
    assert_eq!(trace_ids, outcome_ids, "outcomes must cover the trace");
}
