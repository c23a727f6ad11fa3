//! The harness's own load generator: one thread per connection, a
//! non-blocking socket, `Instant`-paced sends.
//!
//! Generator honesty rules this file keeps:
//!
//! - the socket is non-blocking and nothing is ever paced by a read
//!   timeout (`SO_RCVTIMEO` rounds to jiffies: a 250 µs median once read
//!   as 3.3 ms that way);
//! - an idle generator sleeps at most [`MAX_SLEEP`];
//! - every open-loop request is timed from the instant it was *due*, not
//!   from when the generator got round to sending it, and how late the
//!   generator ran is recorded per frame.
//!
//! It speaks to the server only through `arlo_serve::protocol`.

use crate::schedule::{frame_of, Req};
use crate::workloads::Load;
use arlo_serve::protocol::{
    ErrorCode, Frame, FrameReader, FrameWriteBuf, WireVersion, CONN_ERROR_ID,
};
use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest the generator sleeps when it has nothing to send or read.
const MAX_SLEEP: Duration = Duration::from_micros(200);

/// How long after its last send a connection keeps waiting for answers
/// before declaring the rest lost.
const ANSWER_GRACE_NS: u64 = 5_000_000_000;

/// Terminal answer to one request. `Unanswered` after the grace period
/// means the request was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    /// No answer arrived.
    Unanswered = 0,
    /// `Frame::Response`.
    Ok = 1,
    /// `ErrorCode::Shed`.
    Shed = 2,
    /// `ErrorCode::Unserviceable`.
    Unserviceable = 3,
    /// `ErrorCode::Draining`.
    Draining = 4,
    /// `ErrorCode::Failed`.
    Failed = 5,
}

/// Everything one connection observed, indexed by send order.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Open loop: when the request was due. Closed loop: when it was sent.
    /// Nanoseconds after the common start; RTT is `recv_ns - due_ns`.
    pub due_ns: Vec<u64>,
    /// When the answer was read (0 while unanswered).
    pub recv_ns: Vec<u64>,
    /// The terminal answer.
    pub outcome: Vec<Outcome>,
    /// The server's virtual latency of each `Ok` answer (ns; 0 otherwise).
    pub virt_latency_ns: Vec<u64>,
    /// Open loop: `(due_ns, how late the frame was pushed)` per frame.
    pub lag_ns: Vec<(u64, u32)>,
    /// Answers naming an id that was already answered.
    pub duplicates: u64,
    /// Answers naming an id this connection never sent.
    pub unknown_ids: u64,
    /// Connection-level errors (`CONN_ERROR_ID`) or undecodable frames.
    pub conn_errors: u64,
    /// The server closed (or reset) the connection before every request
    /// was answered — what its slow-consumer doom looks like from here.
    pub closed_by_server: bool,
    /// Bytes written to / read from the socket.
    pub bytes_sent: u64,
    /// See `bytes_sent`.
    pub bytes_received: u64,
}

fn would_block(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

fn peer_gone(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
    )
}

/// Drive one connection until every request sent before `send_until_ns`
/// is answered (or the grace period lapses). `stream` must be non-blocking
/// and already negotiated to v2; request ids start at `id_base`.
pub fn drive(
    stream: &TcpStream,
    reqs: &[Req],
    load: Load,
    id_base: u64,
    t0: Instant,
    send_until_ns: u64,
) -> io::Result<ConnResult> {
    let mut res = ConnResult::default();
    let mut reader = FrameReader::new();
    let mut wbuf = FrameWriteBuf::new();
    let mut sock = stream;
    let mut next = 0usize; // requests sent so far
    let mut answered = 0usize;
    let mut last_send_ns = 0u64;
    let mut hung_up = false;
    let frame_subs = load.frame_subs();

    // Wait out the gap to the common start so both connections begin
    // together.
    while Instant::now() < t0 {
        std::thread::sleep(Duration::from_micros(100));
    }

    loop {
        let mut progressed = false;
        let elapsed = t0.elapsed().as_nanos() as u64;

        // --- send whatever is due ------------------------------------
        match load {
            Load::Open { .. } => {
                while next < reqs.len() && reqs[next].due_ns <= elapsed {
                    let frame = &reqs[next..next + frame_subs];
                    let due = frame[0].due_ns;
                    wbuf.push(&frame_of(frame, id_base + next as u64), WireVersion::V2);
                    for _ in frame {
                        res.due_ns.push(due);
                    }
                    res.lag_ns
                        .push((due, (elapsed - due).min(u64::from(u32::MAX)) as u32));
                    next += frame_subs;
                    last_send_ns = elapsed;
                }
            }
            Load::Closed { window } => {
                while elapsed < send_until_ns && next - answered < window {
                    let req = reqs[next % reqs.len()];
                    wbuf.push(&frame_of(&[req], id_base + next as u64), WireVersion::V2);
                    res.due_ns.push(elapsed);
                    next += 1;
                    last_send_ns = elapsed;
                }
            }
        }
        res.recv_ns.resize(next, 0);
        res.outcome.resize(next, Outcome::Unanswered);
        res.virt_latency_ns.resize(next, 0);
        if !wbuf.is_empty() {
            let before = wbuf.pending_bytes();
            match wbuf.write_some(&mut sock) {
                Ok(_) => {
                    res.bytes_sent += (before - wbuf.pending_bytes()) as u64;
                    progressed = true;
                }
                Err(e) if would_block(&e) => {}
                Err(e) if peer_gone(&e) => hung_up = true,
                Err(e) => return Err(e),
            }
        }

        // --- read whatever has arrived -------------------------------
        loop {
            match reader.fill(&mut sock) {
                Ok(0) => {
                    hung_up = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    res.bytes_received += n as u64;
                    let now_ns = t0.elapsed().as_nanos() as u64;
                    loop {
                        match reader.next_frame() {
                            Ok(Some(frame)) => {
                                account(&mut res, &frame, id_base, next, now_ns, &mut answered)
                            }
                            Ok(None) => break,
                            Err(_) => res.conn_errors += 1,
                        }
                    }
                }
                Err(e) if would_block(&e) => break,
                Err(e) if peer_gone(&e) => {
                    hung_up = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if hung_up {
            // Nothing more can arrive; the caller decides what a hang-up
            // with requests outstanding means.
            res.closed_by_server = true;
            break;
        }

        // --- done, or idle -------------------------------------------
        let sending_over = match load {
            Load::Open { .. } => next >= reqs.len(),
            Load::Closed { .. } => elapsed >= send_until_ns,
        };
        if sending_over && wbuf.is_empty() {
            if answered >= next {
                break;
            }
            if elapsed > last_send_ns.max(send_until_ns) + ANSWER_GRACE_NS {
                break; // the rest are lost; the caller's checks report it
            }
        }
        if !progressed {
            let nap = match load {
                Load::Open { .. } if next < reqs.len() => {
                    Duration::from_nanos(reqs[next].due_ns.saturating_sub(elapsed)).min(MAX_SLEEP)
                }
                _ => MAX_SLEEP,
            };
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    Ok(res)
}

fn account(
    res: &mut ConnResult,
    frame: &Frame,
    id_base: u64,
    sent: usize,
    now_ns: u64,
    answered: &mut usize,
) {
    let (id, outcome, virt) = match *frame {
        Frame::Response { id, latency_ns, .. } => (id, Outcome::Ok, latency_ns),
        Frame::Error { id, code } => {
            let outcome = match code {
                ErrorCode::Shed => Outcome::Shed,
                ErrorCode::Unserviceable => Outcome::Unserviceable,
                ErrorCode::Draining => Outcome::Draining,
                ErrorCode::Failed => Outcome::Failed,
                ErrorCode::Protocol | ErrorCode::Corrupt | ErrorCode::UnknownTenant => {
                    res.conn_errors += 1;
                    return;
                }
            };
            if id == CONN_ERROR_ID {
                res.conn_errors += 1;
                return;
            }
            (id, outcome, 0)
        }
        _ => {
            res.conn_errors += 1;
            return;
        }
    };
    let idx = id.wrapping_sub(id_base) as usize;
    if id < id_base || idx >= sent {
        res.unknown_ids += 1;
    } else if res.outcome[idx] != Outcome::Unanswered {
        res.duplicates += 1;
    } else {
        res.outcome[idx] = outcome;
        res.recv_ns[idx] = now_ns.max(1);
        res.virt_latency_ns[idx] = virt;
        *answered += 1;
    }
}
