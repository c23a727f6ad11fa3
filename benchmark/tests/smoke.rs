//! `--smoke`: one repetition × one second of every workload with every
//! output check on, end to end through `run.sh` (which builds the server
//! and the harness first). The harness's own share must stay under 20 s.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_runs_all_four_workloads_and_all_checks() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = package.join("out").join("smoke-test.json");
    let status = Command::new("bash")
        .arg(package.join("run.sh"))
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("run.sh starts");
    assert!(status.success(), "run.sh --smoke failed: {status}");

    let text = std::fs::read_to_string(&out).expect("smoke result file");
    let result: serde_json::Value = serde_json::from_str(&text).expect("result file parses");
    assert!(result["claim"].is_null(), "the benchmark claims no gain");
    let workloads = result["workloads"].as_object().expect("workloads");
    let names: Vec<&str> = workloads.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "sim_largescale",
            "single_closed",
            "single_open",
            "tenants_batched"
        ]
    );
    let mut wall_s = 0.0;
    for (name, w) in workloads {
        assert_eq!(w["failed"].as_u64(), Some(0), "{name} had failed requests");
        assert!(
            w["attempted"].as_u64().unwrap_or(0) > 0,
            "{name} attempted nothing"
        );
        for metric in [
            "setup_s",
            "rtt_p50_us",
            "goodput_rps",
            "cpu_us_per_req",
            "peak_rss_mb",
        ] {
            let value = w["end_to_end"][metric]["median"].as_f64();
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name} {metric} = {value:?}"
            );
        }
        wall_s += w["wall_s"].as_f64().expect("wall_s");
    }
    assert!(wall_s < 20.0, "smoke took {wall_s:.1} s of harness time");
}
