//! Cross-crate integration tests: full trace → profile → allocate →
//! simulate pipelines for every scheme, checking the paper's qualitative
//! claims and global invariants.

use arlo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stable_trace(rate: f64, secs: f64, seed: u64) -> Trace {
    TraceSpec::twitter_stable(rate, secs).generate(&mut StdRng::seed_from_u64(seed))
}

fn bursty_trace(rate: f64, secs: f64, seed: u64) -> Trace {
    TraceSpec::twitter_bursty(rate, secs).generate(&mut StdRng::seed_from_u64(seed))
}

/// Every scheme serves every request exactly once, on a runtime that fits.
#[test]
fn conservation_across_all_schemes() {
    let trace = stable_trace(400.0, 15.0, 10);
    for spec in [
        SystemSpec::arlo(ModelSpec::bert_base(), 8, 150.0),
        SystemSpec::st(ModelSpec::bert_base(), 8, 150.0),
        SystemSpec::dt(ModelSpec::bert_base(), 8, 150.0),
        SystemSpec::infaas(ModelSpec::bert_base(), 8, 150.0),
    ] {
        let profiles = spec.build_profiles();
        let lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        let report = spec.run(&trace);
        assert_eq!(
            report.records.len(),
            trace.len(),
            "{}: lost requests",
            spec.name
        );
        let mut ids: Vec<u64> = report.records.iter().map(|r| u64::from(r.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len(), "{}: duplicated requests", spec.name);
        for r in &report.records {
            assert!(
                r.length <= lens[r.runtime_idx as usize],
                "{}: oversized dispatch (len {} on runtime {})",
                spec.name,
                r.length,
                lens[r.runtime_idx as usize]
            );
            assert!(r.arrival <= r.dispatched && r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
    }
}

/// Fig. 6's qualitative ordering at testbed scale: Arlo < DT < ST on mean
/// latency, and Arlo < INFaaS. (Run at a load where queueing matters; the
/// paper notes that below ~1k req/s "all systems exhibit good performance
/// and their metrics do not differ significantly".)
#[test]
fn fig6_ordering_bert_base() {
    let trace = stable_trace(1500.0, 30.0, 11);
    let arlo = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let st = SystemSpec::st(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let dt = SystemSpec::dt(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let infaas = SystemSpec::infaas(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let (a, s, d, i) = (
        arlo.latency_summary().mean,
        st.latency_summary().mean,
        dt.latency_summary().mean,
        infaas.latency_summary().mean,
    );
    assert!(a < d, "Arlo {a:.2} should beat DT {d:.2}");
    assert!(a < s, "Arlo {a:.2} should beat ST {s:.2}");
    assert!(a < i, "Arlo {a:.2} should beat INFaaS {i:.2}");
    assert!(d < s, "DT {d:.2} should beat ST {s:.2}");
    // Tail latency too.
    let (ap, sp) = (arlo.latency_summary().p98, st.latency_summary().p98);
    assert!(ap < sp, "Arlo p98 {ap:.2} should beat ST p98 {sp:.2}");
}

/// Bert-Large under its 450 ms SLO shows the same ordering (Fig. 6b).
#[test]
fn fig6_ordering_bert_large() {
    let trace = stable_trace(450.0, 25.0, 12);
    let arlo = SystemSpec::arlo(ModelSpec::bert_large(), 10, 450.0).run(&trace);
    let st = SystemSpec::st(ModelSpec::bert_large(), 10, 450.0).run(&trace);
    let dt = SystemSpec::dt(ModelSpec::bert_large(), 10, 450.0).run(&trace);
    let (a, s, d) = (
        arlo.latency_summary().mean,
        st.latency_summary().mean,
        dt.latency_summary().mean,
    );
    assert!(
        a < d && d < s,
        "expected Arlo {a:.2} < DT {d:.2} < ST {s:.2}"
    );
}

/// Bursty traffic (Fig. 10 regime): Arlo still wins and violates the SLO
/// less often than ST.
#[test]
fn bursty_traffic_ordering() {
    let trace = bursty_trace(900.0, 40.0, 13);
    let arlo = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    let st = SystemSpec::st(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    assert!(arlo.latency_summary().mean < st.latency_summary().mean);
    assert!(arlo.slo_violation_rate(150.0) <= st.slo_violation_rate(150.0));
}

/// Fig. 11's shape: too few runtimes hurt; 8 ≈ 16 within tolerance.
#[test]
fn fig11_runtime_count_ablation_shape() {
    // The paper's Fig. 11 regime: Bert-Large stream on 40 GPUs. Too few
    // runtimes waste capacity on padding; 8 ≈ 16.
    let trace = bursty_trace(1500.0, 30.0, 14);
    let mean_for = |n: u32| {
        SystemSpec::arlo(ModelSpec::bert_large(), 40, 450.0)
            .with_runtimes(RuntimeChoice::Count(n))
            .run(&trace)
            .latency_summary()
            .mean
    };
    let m2 = mean_for(2);
    let m8 = mean_for(8);
    let m16 = mean_for(16);
    assert!(
        m2 > 1.4 * m8,
        "2 runtimes ({m2:.2}) should be much worse than 8 ({m8:.2})"
    );
    let gap = (m8 - m16).abs() / m16;
    assert!(
        gap < 0.25,
        "8 vs 16 runtimes should be close: {m8:.2} vs {m16:.2}"
    );
}

/// Table 4's shape: the Request Scheduler's tail beats IG's on bursty
/// Bert-Large traffic.
#[test]
fn table4_rs_beats_ig_tail() {
    let trace = bursty_trace(500.0, 30.0, 15);
    let base = SystemSpec::arlo(ModelSpec::bert_large(), 10, 450.0);
    let rs = base.clone().run(&trace);
    let ig = base
        .clone()
        .with_dispatch(DispatchPolicy::Ig, "IG")
        .run(&trace);
    let (r, g) = (rs.latency_summary().p98, ig.latency_summary().p98);
    assert!(
        r <= g * 1.05,
        "RS p98 {r:.2} should not lose to IG p98 {g:.2}"
    );
}

/// Auto-scaling (Fig. 8 regime): the cluster grows under load and the
/// time-weighted GPU count stays within bounds.
#[test]
fn autoscaling_grows_and_bounds() {
    let trace = bursty_trace(700.0, 60.0, 16);
    let spec = SystemSpec::arlo(ModelSpec::bert_large(), 5, 450.0)
        .with_autoscale(AutoScaleConfig::paper_default(5, 15));
    let report = spec.run(&trace);
    assert_eq!(report.records.len(), trace.len());
    let tw = report.time_weighted_gpus();
    assert!(
        (5.0 - 1e-9..=15.0 + 1e-9).contains(&tw),
        "time-weighted GPUs {tw}"
    );
}

/// Padding accounting: Arlo's mean padding is far below ST's full padding.
#[test]
fn arlo_slashes_padding_waste() {
    let trace = stable_trace(600.0, 15.0, 17);
    let arlo_spec = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0);
    let arlo_profiles = arlo_spec.build_profiles();
    let arlo_lens: Vec<u32> = arlo_profiles.iter().map(|p| p.max_length()).collect();
    let arlo = arlo_spec.run(&trace);
    let st_spec = SystemSpec::st(ModelSpec::bert_base(), 10, 150.0);
    let st = st_spec.run(&trace);
    let arlo_pad = arlo.mean_padding(&arlo_lens);
    let st_pad = st.mean_padding(&[512]);
    assert!(
        arlo_pad < st_pad / 3.0,
        "Arlo padding {arlo_pad:.1} vs ST {st_pad:.1} tokens"
    );
}

/// The allocation timeline responds to a mid-trace length-distribution
/// shift (the reason periodic reallocation exists, Table 3 / Fig. 12).
#[test]
fn periodic_allocation_tracks_distribution_shift() {
    // First half short-dominated, second half long-dominated.
    let mut rng = StdRng::seed_from_u64(18);
    let first = TraceSpec {
        lengths: LengthSpec::LogNormal {
            mu: 4.0,
            sigma: 0.4,
            min: 1,
            max: 512,
        },
        arrivals: ArrivalSpec::Poisson { rate: 600.0 },
        duration_secs: 150.0,
    }
    .generate(&mut rng);
    let second = TraceSpec {
        lengths: LengthSpec::LogNormal {
            mu: 5.8,
            sigma: 0.3,
            min: 1,
            max: 512,
        },
        arrivals: ArrivalSpec::Poisson { rate: 600.0 },
        duration_secs: 150.0,
    }
    .generate(&mut rng);
    let trace = first.concat(&second);
    let report = SystemSpec::arlo(ModelSpec::bert_base(), 10, 150.0).run(&trace);
    assert_eq!(report.records.len(), trace.len());
    // Compare full allocation-period windows: after the first tick (120 s)
    // the scheduler has seen only short traffic; after the 240 s tick it has
    // seen the long-dominated second half. The large runtimes must gain GPUs.
    let big_gpus = |from: u64, to: u64| -> f64 {
        report.allocation_timeline[4..]
            .iter()
            .map(|tw| tw.average(from, to))
            .sum()
    };
    let big_before = big_gpus(130_000_000_000, 230_000_000_000);
    let big_after = big_gpus(250_000_000_000, 299_000_000_000);
    assert!(
        big_after > big_before + 1.0,
        "allocation should shift to long runtimes: before {big_before:.2}, after {big_after:.2}"
    );
}

/// Trace serialization round-trips through the text format and replays to
/// identical simulation results.
#[test]
fn serialized_trace_replays_identically() {
    let trace = stable_trace(200.0, 5.0, 19);
    let mut buf = Vec::new();
    arlo::trace::io::write_trace(&trace, &mut buf).expect("write");
    let back = arlo::trace::io::read_trace(std::io::Cursor::new(buf)).expect("read");
    let spec = SystemSpec::arlo(ModelSpec::bert_base(), 4, 150.0);
    let a = spec.run(&trace);
    let b = spec.run(&back);
    assert_eq!(a.records, b.records);
}
