//! End-to-end tests of the `arlo` CLI binary, driven as a subprocess.

use std::process::Command;

fn arlo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arlo"))
}

fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn arlo");
    assert!(
        out.status.success(),
        "arlo failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn help_prints_usage() {
    let text = stdout_of(arlo().arg("help"));
    assert!(text.contains("USAGE"));
    assert!(text.contains("gen-trace"));
    assert!(text.contains("simulate"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = arlo().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_flags_fail_cleanly() {
    let out = arlo()
        .args(["simulate", "--scheme", "arlo"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --model"));
}

#[test]
fn profile_prints_the_staircase() {
    let text = stdout_of(arlo().args(["profile", "--model", "bert-base"]));
    assert!(text.contains("staircase step 64 tokens"));
    assert!(text.contains("8 runtimes"));
    // The full-length runtime's capacity under the default 150 ms SLO.
    assert!(text.contains("512"));
}

#[test]
fn gen_analyze_simulate_roundtrip() {
    let dir = std::env::temp_dir().join(format!("arlo-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace_path = dir.join("trace.txt");
    let csv_path = dir.join("run.csv");

    // gen-trace → file
    let text = stdout_of(arlo().args([
        "gen-trace",
        "--rate",
        "300",
        "--secs",
        "5",
        "--seed",
        "9",
        "--out",
        trace_path.to_str().expect("utf8 path"),
    ]));
    assert!(text.contains("wrote"));

    // analyze the file
    let text = stdout_of(arlo().args(["analyze", "--trace", trace_path.to_str().unwrap()]));
    assert!(text.contains("mean rate"));
    assert!(text.contains("lengths"));

    // simulate from the file with CSV export
    let text = stdout_of(arlo().args([
        "simulate",
        "--scheme",
        "arlo",
        "--model",
        "bert-base",
        "--gpus",
        "4",
        "--trace",
        trace_path.to_str().unwrap(),
        "--csv",
        csv_path.to_str().unwrap(),
    ]));
    assert!(text.contains("mean"));
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    let lines = csv.lines().count();
    assert!(lines > 1000, "expected ~1500 request rows, got {lines}");
    assert!(csv.starts_with("id,length,arrival_ns"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_lists_all_schemes() {
    let text = stdout_of(arlo().args([
        "compare",
        "--model",
        "bert-base",
        "--gpus",
        "4",
        "--rate",
        "200",
        "--secs",
        "3",
    ]));
    for scheme in ["Arlo", "ST", "DT", "INFaaS"] {
        assert!(text.contains(scheme), "missing {scheme} in:\n{text}");
    }
}

#[test]
fn plan_shows_per_runtime_allocation() {
    let text = stdout_of(arlo().args([
        "plan",
        "--model",
        "bert-large",
        "--gpus",
        "8",
        "--rate",
        "300",
        "--secs",
        "5",
    ]));
    assert!(text.contains("allocation plan"));
    assert!(text.contains("max_len"));
    // Eight runtime rows.
    assert!(
        text.lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count()
            >= 8
    );
}

/// Kills the child on drop, so a failing assertion never leaks a server.
struct Reaped(std::process::Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `arlo loadgen --drain` is how `arlo serve` tells operators to stop it:
/// the drain must be decoded and acknowledged, and the server must flush,
/// print its final accounting and exit cleanly.
#[test]
fn loadgen_drain_stops_a_running_server() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let mut server = Reaped(
        arlo()
            .args([
                "serve",
                "--model",
                "bert-base",
                "--gpus",
                "4",
                "--addr",
                "127.0.0.1:0",
                "--time-scale",
                "50",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn arlo serve"),
    );
    // Lines arrive over a channel so a wedged server fails the test on a
    // timeout instead of hanging it on a read.
    let stdout = server.0.stdout.take().expect("piped stdout");
    let (tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let next_line = |what: &str| {
        lines
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("arlo serve printed no {what}"))
    };
    let addr = loop {
        let line = next_line("address");
        if line.starts_with("serving ") {
            let addr = line.split_whitespace().skip_while(|w| *w != "on").nth(1);
            break addr.expect("address after `on`").to_string();
        }
    };

    let text = stdout_of(arlo().args([
        "loadgen",
        "--addr",
        &addr,
        "--rate",
        "200",
        "--secs",
        "1",
        "--time-scale",
        "50",
        "--drain",
    ]));
    assert!(text.contains("lost 0"), "{text}");
    assert!(text.contains("drain acknowledged"), "{text}");

    let served = loop {
        let line = next_line("final accounting");
        if line.starts_with("served ") {
            break line;
        }
    };
    assert!(served.contains(" / shed "), "{served}");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll arlo serve") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "arlo serve still running after drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "arlo serve exited with {status}");
}

/// A flag `arlo serve` does not read — one an earlier version had, or one
/// it never had — stops the command before it binds anything, with a
/// non-zero exit that names the flag. A server still running after the
/// grace period accepted the flag: it is killed and the test fails.
#[test]
fn serve_rejects_flags_it_does_not_read() {
    use std::time::{Duration, Instant};

    let base = [
        "serve",
        "--model",
        "bert-base",
        "--gpus",
        "2",
        "--addr",
        "127.0.0.1:0",
    ];
    for (flag, value) in [("--front-door", "epoll"), ("--server-chaos", "corrupt")] {
        let mut child = Reaped(
            arlo()
                .args(base)
                .args([flag, value])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn arlo serve"),
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.0.try_wait().expect("poll arlo serve") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "arlo serve accepted {flag} and is serving"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(child.0.stderr.as_mut().expect("piped stderr"), &mut stderr)
            .expect("read stderr");
        assert!(!status.success(), "{flag}: exited {status}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn deterministic_across_invocations() {
    let run = || {
        stdout_of(arlo().args([
            "simulate",
            "--scheme",
            "st",
            "--model",
            "bert-base",
            "--gpus",
            "2",
            "--rate",
            "100",
            "--secs",
            "3",
            "--seed",
            "4",
        ]))
    };
    assert_eq!(run(), run());
}
