//! What the harness reads from `/proc`: a child's CPU time, memory
//! high-water mark, thread count and context switches; the host's steal
//! time; and the host fingerprint stored in every result file.

use std::fs;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI this benchmark runs on; without `libc` there
/// is no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// `utime + stime` of process `pid` (all threads), in seconds. `pid` may
/// be `"self"`.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = read(&format!("/proc/{pid}/stat"))?;
    // The command name (field 2) is parenthesised and may contain spaces:
    // fields are counted after the last ')'. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the command.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("/proc/{pid}/stat has no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat field {} missing", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// `VmHWM` (peak resident set) of `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = read(&format!("/proc/{pid}/status"))?;
    status_field(&status, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
}

/// Live thread count of `pid`.
pub fn threads(pid: &str) -> Result<u64, String> {
    let status = read(&format!("/proc/{pid}/status"))?;
    status_field(&status, "Threads").ok_or_else(|| format!("/proc/{pid}/status has no Threads"))
}

/// Voluntary plus involuntary context switches summed over every live
/// thread of `pid` (`/proc/<pid>/status` alone covers only the main
/// thread).
pub fn ctx_switches(pid: &str) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0;
    for entry in fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
        let entry = entry.map_err(|e| format!("read {dir}: {e}"))?;
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        total += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(total)
}

/// Cumulative `(steal, total)` jiffies of the whole host from the first
/// line of `/proc/stat`.
pub fn host_cpu_jiffies() -> Result<(u64, u64), String> {
    let stat = read("/proc/stat")?;
    let line = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or("/proc/stat has no aggregate cpu line")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    Ok((steal, total))
}

/// Steal time between two [`host_cpu_jiffies`] readings, as a percentage
/// of all CPU time in the interval.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What identifies the host and toolchain a result was recorded on.
/// `compare` warns when two result files disagree on any field.
pub fn fingerprint() -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = read("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    serde_json::json!({
        "nproc": nproc,
        "cpu_model": cpu_model,
        "kernel": kernel,
        "rustc": command_line("rustc", &["-V"]),
        "git_rev": command_line("git", &["rev-parse", "--short", "HEAD"]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_seconds("self").expect("stat") >= 0.0);
        assert!(peak_rss_mb("self").expect("status") > 0.0);
        assert!(threads("self").expect("status") >= 1);
        assert!(ctx_switches("self").is_ok());
    }

    #[test]
    fn steal_is_a_share_of_the_interval() {
        assert_eq!(steal_pct((10, 1000), (15, 1100)), 5.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
        let (steal, total) = host_cpu_jiffies().expect("/proc/stat");
        assert!(steal <= total);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), Some(2048));
        assert_eq!(status_field(status, "Threads"), Some(7));
        assert_eq!(status_field(status, "Missing"), None);
    }
}
