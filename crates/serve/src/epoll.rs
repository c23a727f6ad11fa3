//! A minimal, dependency-free epoll wrapper for the readiness-based front
//! door.
//!
//! The workspace is hermetic (no `libc` crate, no `mio`), so this module
//! declares the five syscall wrappers it needs — `epoll_create1`,
//! `epoll_ctl`, `epoll_pwait2`, `eventfd`, `prctl` — as raw `extern "C"`
//! bindings against the C library `std` already links on Linux, and owns
//! the file descriptors through [`std::os::fd::OwnedFd`] so they close on
//! drop.
//!
//! Design choices, all deliberately boring:
//!
//! * **Level-triggered** (no `EPOLLET`): a connection that still has
//!   buffered bytes or queued frames keeps reporting ready, so the event
//!   loop never needs to remember "I stopped early". Shards bound the work
//!   per wakeup instead (see `server::shard_loop`).
//! * **One `u64` token per registration** — the connection id. The wrapper
//!   never dereferences it.
//! * **[`Waker`]** is an `eventfd` registered like any other fd; writing 1
//!   to it makes a wait return, and [`Waker::drain`] resets it. This is
//!   how other threads (shard 0 handing over a socket, `respond` queuing a
//!   frame, a deadline parked in another shard's heap, `drain`
//!   broadcasting shutdown) interrupt a sleeping shard.
//! * **Nanosecond timeouts, as precise as the thread's timer slack**:
//!   [`Epoll::wait`] passes its `Duration` to `epoll_pwait2` as a
//!   `timespec`, so a deadline a few hundred microseconds out is not
//!   rounded up to a whole millisecond. The kernel still lets the wait run
//!   up to the calling thread's timer slack past it — 50 µs by default —
//!   so every shard first sets its own slack to 1 ns
//!   ([`set_min_timer_slack`]) and wakes at its deadline.
//!
//! # File-descriptor ownership
//!
//! * [`Epoll`] and [`Waker`] own their fds as [`OwnedFd`]s, so each is
//!   closed exactly once, when its owner drops. The server keeps both in
//!   the shard's handle, which lives as long as the server.
//! * A registered socket is not owned here: [`Epoll::add`] borrows it, and
//!   its owner (a connection's state machine, shard 0's listener) closes it
//!   by dropping it. The rule is **delete, then close**: the server calls
//!   [`Epoll::delete`] before it drops a connection, and before it drops
//!   the listener on drain. The one exception is the listener of a shard 0
//!   that exits without draining (a panic, or a failed spawn). No fd is
//!   ever duplicated, so closing it closes its last descriptor, and the
//!   kernel then drops the registration itself.
//! * A stale registration cannot alias a new socket. The token is the
//!   connection id, which counts up and is never reused; the fd number is
//!   reused by the kernel at once. An event for a connection closed
//!   earlier in the same pass still carries the old id, which its shard
//!   no longer holds, so the event is skipped even when a socket accepted
//!   since has the same fd.
//!
//! Everything unsafe is confined to this module; the rest of the crate
//! (and workspace) keeps `unsafe_code = "deny"`/`forbid`. Every `unsafe`
//! block states why it is sound in a `// SAFETY:` comment, which clippy
//! enforces.
#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// The token [`Epoll::wait`] reports for the registered [`Waker`].
pub const WAKER_TOKEN: u64 = u64::MAX;

mod ffi {
    use std::os::raw::{c_int, c_long, c_uint, c_void};

    /// `struct timespec`: `time_t` is a C `long` on Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    /// `struct epoll_event`. On x86/x86-64 the kernel ABI packs it (the
    /// `u64` payload is unaligned); other architectures use natural
    /// alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_pwait2(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn prctl(option: c_int, ...) -> c_int;
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness events a registration asks for. `EPOLLERR`/`EPOLLHUP`
/// are always reported by the kernel and need not be requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Report when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read+write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// No events at all: the registration stays, muted, without churning
    /// add/del (shard 0 mutes its listener this way after an accept error
    /// until its next sweep).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = ffi::EPOLLRDHUP;
        if self.readable {
            m |= ffi::EPOLLIN;
        }
        if self.writable {
            m |= ffi::EPOLLOUT;
        }
        m
    }
}

/// One readiness report from [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes peer half-close, so a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup: the connection is dead or dying; a subsequent
    /// read/write will report the specific error.
    pub closed: bool,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec). A zero-timeout wait
    /// probes `epoll_pwait2`, so a kernel without it (before 5.11) or a
    /// seccomp filter that forbids it fails here, not in every later wait.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer arguments; the result is checked before use.
        let fd = cvt(unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) })?;
        let epoll = Epoll {
            // SAFETY: epoll_create1 returned a fresh fd we now own.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        };
        epoll.wait(&mut Vec::new(), Some(Duration::ZERO))?;
        Ok(epoll)
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<ffi::EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(ffi::EpollEvent { events: 0, data: 0 });
        // SAFETY: `ev` is a live `epoll_event` across the call; a bad fd is
        // an error return, not undefined behaviour.
        cvt(unsafe { ffi::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given `token` and `interest`.
    pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            ffi::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            Some(ffi::EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            ffi::EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            Some(ffi::EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Deregister `fd`. Safe to call right before closing it.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd.as_raw_fd(), None)
    }

    /// Block for up to `timeout` (`None` = forever) and fill `events` with
    /// readiness reports. Returns the number of events. `EINTR` retries;
    /// any other error leaves `events` empty.
    /// The timeout is not rounded to a millisecond: a 300 µs wait ends
    /// 300 µs out, plus at most the calling thread's timer slack
    /// ([`set_min_timer_slack`]).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const CAPACITY: usize = 1024;
        events.clear();
        let mut raw = [ffi::EpollEvent { events: 0, data: 0 }; CAPACITY];
        let timespec = timeout.map(|d| ffi::Timespec {
            tv_sec: d.as_secs().try_into().unwrap_or(std::os::raw::c_long::MAX),
            tv_nsec: d.subsec_nanos().into(),
        });
        let timeout_ptr = timespec
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const ffi::Timespec);
        let n = loop {
            // SAFETY: `raw` holds CAPACITY events; `timeout_ptr` is null or
            // points at `timespec`, alive across the call; no signal mask.
            let r = unsafe {
                ffi::epoll_pwait2(
                    self.fd.as_raw_fd(),
                    raw.as_mut_ptr(),
                    CAPACITY as i32,
                    timeout_ptr,
                    std::ptr::null(),
                )
            };
            match cvt(r) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(Event {
                token: { ev.data },
                readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLHUP) != 0,
                writable: bits & ffi::EPOLLOUT != 0,
                closed: bits & (ffi::EPOLLERR | ffi::EPOLLHUP | ffi::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// Set the calling thread's timer slack to 1 ns, the least the kernel
/// takes (0 restores the default, 50 µs), so its timed waits, an
/// [`Epoll::wait`] timeout among them, end at their deadline instead of up
/// to the default slack after it. Only the calling
/// thread changes; a thread it spawns later starts with the same slack.
/// A refusal (a seccomp profile that forbids `prctl`) costs only that
/// precision, so callers may go on without it.
pub fn set_min_timer_slack() -> io::Result<()> {
    use std::os::raw::c_ulong;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and no pointer;
    // all four of prctl's optional arguments are passed as the `unsigned
    // long` it reads them as, and it changes only the calling thread.
    let r = unsafe {
        ffi::prctl(
            ffi::PR_SET_TIMERSLACK,
            1 as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
        )
    };
    cvt(r)?;
    Ok(())
}

/// A cross-thread wakeup handle: an `eventfd` registered on an [`Epoll`]
/// under [`WAKER_TOKEN`]. Shared across threads by reference: [`Waker::wake`]
/// takes `&self`.
#[derive(Debug)]
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Create a waker and register it (read interest) on `epoll`.
    pub fn new(epoll: &Epoll) -> io::Result<Waker> {
        // SAFETY: no pointer arguments; the result is checked before use.
        let fd = cvt(unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh fd we now own.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        epoll.add(&fd, WAKER_TOKEN, Interest::READ)?;
        Ok(Waker { fd })
    }

    /// Wake the owning event loop. Non-blocking; a full counter (already
    /// pending wakeups) is success.
    pub fn wake(&self) {
        let one: u64 = 1;
        // Failure modes are EAGAIN (counter saturated — a wakeup is already
        // pending, which is all we want) or the fd dying with its loop.
        // SAFETY: the buffer is `one`, a live `u64`, and the count its 8
        // bytes; `self.fd` is open while `self` lives.
        let _ = unsafe {
            ffi::write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Consume pending wakeups so level-triggered readiness stops firing.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        // SAFETY: the buffer is `counter`, a live, exclusively borrowed
        // `u64`, and the count its 8 bytes; `self.fd` is open while `self`
        // lives.
        let _ = unsafe {
            ffi::read(
                self.fd.as_raw_fd(),
                (&mut counter as *mut u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_after_peer_writes() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(&server, 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Nothing pending: a short wait times out empty.
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].closed);
    }

    #[test]
    fn peer_close_reports_closed() {
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(&server, 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].closed, "{:?}", events[0]);
    }

    #[test]
    fn modify_gates_write_readiness() {
        let (_client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        // Read-only first: an idle writable socket must not report.
        ep.add(&server, 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        // Ask for write: an empty send buffer reports immediately.
        ep.modify(&server, 3, Interest::READ_WRITE).unwrap();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
        // And NONE mutes it again.
        ep.modify(&server, 3, Interest::NONE).unwrap();
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        // Deregister cleanly.
        ep.delete(&server).unwrap();
    }

    #[test]
    fn sub_millisecond_timeouts_are_not_rounded_up() {
        let ep = Epoll::new().unwrap();
        let mut events = Vec::new();
        let mut waits: Vec<Duration> = (0..20)
            .map(|_| {
                let start = std::time::Instant::now();
                let n = ep
                    .wait(&mut events, Some(Duration::from_micros(300)))
                    .unwrap();
                assert_eq!(n, 0);
                start.elapsed()
            })
            .collect();
        waits.sort_unstable();
        assert!(
            waits[10] < Duration::from_millis(1),
            "median 300 µs wait took {:?}",
            waits[10]
        );
    }

    /// The calling thread's timer slack in ns. `timerslack_ns` is listed
    /// under `/proc/<pid>` only, not under a task's directory, so the
    /// thread's id comes from `/proc/thread-self` (`<pid>/task/<tid>`); a
    /// thread may read its own without `CAP_SYS_NICE`.
    pub(crate) fn own_timer_slack() -> u64 {
        let task = std::fs::read_link("/proc/thread-self").expect("procfs");
        let tid = task
            .file_name()
            .expect("tid")
            .to_string_lossy()
            .into_owned();
        std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns"))
            .expect("timerslack_ns")
            .trim()
            .parse()
            .expect("a number")
    }

    #[test]
    fn min_timer_slack_is_the_calling_threads_alone() {
        let before = own_timer_slack();
        assert_ne!(before, 1, "the test thread already runs at the floor");
        let (set, sibling_reads) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let sibling = s.spawn(move || {
                sibling_reads.recv().expect("setter ran");
                own_timer_slack()
            });
            let set_to = s
                .spawn(move || {
                    set_min_timer_slack().expect("prctl");
                    let slack = own_timer_slack();
                    set.send(()).expect("sibling waits");
                    slack
                })
                .join()
                .expect("setter");
            assert_eq!(set_to, 1, "the calling thread's slack");
            assert_eq!(sibling.join().expect("sibling"), before, "a sibling's");
        });
        assert_eq!(own_timer_slack(), before, "the spawning thread's");
    }

    #[test]
    fn waker_crosses_threads_and_drains() {
        let ep = Epoll::new().unwrap();
        let waker = Waker::new(&ep).unwrap();
        let mut events = Vec::new();

        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
                waker.wake(); // coalesces with the first
            });
            let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1);
            assert_eq!(events[0].token, WAKER_TOKEN);
        });
        waker.drain();
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained waker must stop reporting readiness");
    }
}
