//! `arlo-benchmark compare <a.json> <b.json>`: one row per workload ×
//! end-to-end metric with both medians, both spreads, the bound and a
//! verdict. The tool for the repeatability check (two runs of one commit)
//! and for later issues' parent-versus-change runs.

use serde_json::Value;

/// What a row concludes about `b` against `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Unchanged,
    /// Better than `a` by more than the bound.
    Improved,
    /// Worse than `a` by more than the bound.
    Regressed,
    /// Either side's run-to-run spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decide one row. `bound_rel` is a share of `a`'s median, `bound_abs` an
/// absolute amount; the allowance is the larger. A spread is a share of
/// its own median, so it is compared against the allowance as a share of
/// `a`'s median (or, for absolute-bounded metrics around 0, not at all:
/// IQR/median is undefined there and those metrics repeat exactly).
pub fn verdict(
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
    lower_is_better: bool,
    bound_rel: f64,
    bound_abs: f64,
) -> Verdict {
    let allowance = (bound_rel * a.abs()).max(bound_abs);
    let allowance_share = if a == 0.0 {
        f64::INFINITY
    } else {
        allowance / a.abs()
    };
    if spread_a.max(spread_b) > allowance_share {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { b - a } else { a - b };
    if worse_by > allowance {
        Verdict::Regressed
    } else if -worse_by > allowance {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Print the comparison; `Ok(true)` when any row regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("a = {path_a}\nb = {path_b}");

    // Fingerprints: a difference does not stop the comparison, but a
    // speed-up recorded on other hardware than its baseline is not one.
    for key in ["nproc", "cpu_model", "kernel", "rustc", "git_rev"] {
        let (va, vb) = (&a["host"][key], &b["host"][key]);
        if va != vb {
            println!("warning: host.{key} differs: a = {va}, b = {vb}");
        }
    }
    for (label, file) in [("a", &a), ("b", &b)] {
        let Some(workloads) = file["workloads"].as_object() else {
            return Err(format!("{label}: result file has no workloads"));
        };
        for (name, w) in workloads {
            let noisy: Vec<String> = w["steal_pct_per_rep"]
                .as_array()
                .map(|reps| {
                    reps.iter()
                        .enumerate()
                        .filter(|(_, s)| s.as_f64().is_some_and(|s| s > 15.0))
                        .map(|(i, s)| format!("rep {i}: {:.1} %", s.as_f64().unwrap_or(0.0)))
                        .collect()
                })
                .unwrap_or_default();
            if !noisy.is_empty() {
                println!(
                    "warning: {label} {name}: steal above 15 % in {}",
                    noisy.join(", ")
                );
            }
        }
    }

    println!(
        "\n{:<16} {:<22} {:>14} {:>14} {:>8} {:>8} {:>10}  verdict",
        "workload", "metric", "median a", "median b", "spread a", "spread b", "bound"
    );
    let mut regressed = false;
    let workloads_a = a["workloads"].as_object().expect("checked above");
    for (name, wa) in workloads_a {
        let wb = &b["workloads"][name.as_str()];
        if wb.is_null() {
            println!("{name:<16} (missing from b)");
            continue;
        }
        // The same commit reads 10–20 % slower while the host is: say so
        // next to the rows it colours.
        let host_ms = |w: &Value| {
            let reps: Vec<f64> = w["host_kernel_ms_per_rep"]
                .as_array()
                .map(|reps| reps.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            crate::stats::median(&reps)
        };
        let (host_a, host_b) = (host_ms(wa), host_ms(wb));
        if host_a > 0.0 && (host_b - host_a).abs() > 0.10 * host_a {
            println!(
                "warning: {name}: the host's speed kernel took {host_a:.2} ms during a, \
                 {host_b:.2} ms during b"
            );
        }
        // Table order, not the file's alphabetical order.
        for metric in crate::report::E2E {
            let (ma, mb) = (
                &wa["end_to_end"][metric.name],
                &wb["end_to_end"][metric.name],
            );
            let (Some(med_a), Some(med_b)) = (ma["median"].as_f64(), mb["median"].as_f64()) else {
                continue;
            };
            let (sp_a, sp_b) = (
                ma["spread"].as_f64().unwrap_or(0.0),
                mb["spread"].as_f64().unwrap_or(0.0),
            );
            let rel = ma["bound_rel"].as_f64().unwrap_or(metric.bound_rel);
            let abs = ma["bound_abs"].as_f64().unwrap_or(metric.bound_abs);
            let lower = ma["better"].as_str() != Some("higher");
            let v = verdict(med_a, med_b, sp_a, sp_b, lower, rel, abs);
            regressed |= v == Verdict::Regressed;
            let bound = if abs == 0.0 {
                format!("{:.0} %", rel * 100.0)
            } else if rel == 0.0 {
                format!("+{abs}")
            } else {
                format!("{:.0}%|{abs}", rel * 100.0)
            };
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>10}  {}",
                name,
                metric.name,
                med_a,
                med_b,
                sp_a * 100.0,
                sp_b * 100.0,
                bound,
                v.as_str()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_the_bound_edges() {
        // Lower is better, 10 % bound on a median of 100.
        let v = |b: f64| verdict(100.0, b, 0.02, 0.02, true, 0.10, 0.0);
        assert_eq!(v(100.0), Verdict::Unchanged);
        assert_eq!(v(110.0), Verdict::Unchanged, "exactly the bound is allowed");
        assert_eq!(v(110.01), Verdict::Regressed);
        assert_eq!(v(90.0), Verdict::Unchanged);
        assert_eq!(v(89.99), Verdict::Improved);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let v = |b: f64| verdict(1000.0, b, 0.0, 0.0, false, 0.10, 0.0);
        assert_eq!(v(899.0), Verdict::Regressed);
        assert_eq!(v(900.0), Verdict::Unchanged);
        assert_eq!(v(1101.0), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_whatever_the_medians_say() {
        assert_eq!(
            verdict(100.0, 150.0, 0.11, 0.02, true, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, 0.02, 0.101, true, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, 0.10, 0.10, true, 0.10, 0.0),
            Verdict::Unchanged,
            "a spread exactly at the bound still resolves"
        );
    }

    #[test]
    fn absolute_bounds_cover_zero_baselines_and_small_setups() {
        // failed_share: +0.001 absolute on a baseline of 0.
        let v = |b: f64| verdict(0.0, b, 0.0, 0.0, true, 0.0, 0.001);
        assert_eq!(v(0.0), Verdict::Unchanged);
        assert_eq!(v(0.001), Verdict::Unchanged);
        assert_eq!(v(0.0011), Verdict::Regressed);
        // setup_s: max(25 %, 5 ms) on a 3 ms baseline tolerates +5 ms.
        let s = |b: f64| verdict(0.003, b, 0.5, 0.5, true, 0.25, 0.005);
        assert_eq!(s(0.0079), Verdict::Unchanged);
        assert_eq!(s(0.0081), Verdict::Regressed);
    }
}
