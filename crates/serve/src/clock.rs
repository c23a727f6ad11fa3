//! Scaled monotonic time for the serving stack.
//!
//! [`ArloEngine`](arlo_core::engine::ArloEngine) never reads a wall clock:
//! every call takes monotonic nanoseconds from the embedder. The serving
//! stack anchors those at server start and multiplies real elapsed time by
//! a **time scale**, so a 120-second virtual decision period elapses in
//! 120 s / scale of real time and the calibrated latency model's execution
//! times shrink by the same factor. At scale 1 virtual time *is* real time
//! (production); tests and benches run at 50–200× so a multi-minute serving
//! scenario — including several Runtime Scheduler decisions — completes in
//! well under a second of wall clock.

use arlo_trace::Nanos;
use std::time::{Duration, Instant};

/// The emulation's "due now" granule: a virtual instant less than this
/// much real time away counts as due ([`VirtualClock::is_due`]), so a
/// completion that close is answered at once rather than waited for, and
/// [`VirtualClock::sleep_until`] does not sleep such a remainder. It is a
/// rule of the emulation, not the timers' resolution: a shard sets its
/// timer slack to 1 ns and wakes at its deadline, not up to 50 µs after.
pub const MIN_SLEEP_REAL_NS: u64 = 100_000;

/// A monotonic clock whose virtual time advances `scale` times faster than
/// real time. Cheap to clone-by-`Arc` and share across threads.
#[derive(Debug)]
pub struct VirtualClock {
    anchor: Instant,
    scale: u32,
}

impl VirtualClock {
    /// Anchor a clock at the current instant. `scale` must be ≥ 1.
    pub fn new(scale: u32) -> Self {
        assert!(scale >= 1, "time scale must be >= 1");
        VirtualClock {
            anchor: Instant::now(),
            scale,
        }
    }

    /// The speed-up factor.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Virtual nanoseconds since the anchor.
    pub fn now(&self) -> Nanos {
        (self.anchor.elapsed().as_nanos() as Nanos).saturating_mul(Nanos::from(self.scale))
    }

    /// The real wait from the reading `now` until virtual instant `t`
    /// (zero if `t` is past), rounded **up** to a whole real nanosecond: a
    /// wait this long that ends on time finds `t <= now`, where a
    /// rounded-down one can end a hair short of `t` and cost another pass.
    pub fn real_until(&self, t: Nanos, now: Nanos) -> Duration {
        Duration::from_nanos(t.saturating_sub(now).div_ceil(Nanos::from(self.scale)))
    }

    /// Whether virtual instant `t` is **due now** as of the reading `now`:
    /// already past, or less than [`MIN_SLEEP_REAL_NS`] of real time away.
    /// The one rule behind both [`VirtualClock::sleep_until`] (which does
    /// not sleep such a remainder) and the executor (which completes such
    /// a batch on the thread that sealed it instead of parking it).
    pub fn is_due(&self, t: Nanos, now: Nanos) -> bool {
        t.saturating_sub(now) / Nanos::from(self.scale) < MIN_SLEEP_REAL_NS
    }

    /// Sleep until virtual time `t` is due ([`VirtualClock::is_due`]):
    /// returns immediately if `t` is already past, and sub-100 µs real
    /// remainders are not slept.
    pub fn sleep_until(&self, t: Nanos) {
        loop {
            let now = self.now();
            if self.is_due(t, now) {
                return;
            }
            std::thread::sleep(self.real_until(t, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_is_scaled() {
        let clock = VirtualClock::new(1000);
        std::thread::sleep(Duration::from_millis(2));
        let v = clock.now();
        // 2 ms real at 1000× is 2 s virtual; allow generous scheduler slack.
        assert!(v >= 2_000_000_000, "virtual now {v}");
        assert!(v < 60_000_000_000, "virtual now {v}");
    }

    #[test]
    fn sleep_until_reaches_target() {
        let clock = VirtualClock::new(100);
        let target = clock.now() + 500_000_000; // 0.5 virtual s = 5 ms real
        clock.sleep_until(target);
        // Within one OS-timer granule of the target (sub-100 µs real
        // remainders — 10 ms virtual at 100× — are deliberately not slept).
        assert!(clock.now() + 10_000_000 >= target);
        // Past targets return immediately.
        clock.sleep_until(0);
    }

    #[test]
    fn is_due_is_the_rule_sleep_until_applies() {
        let clock = VirtualClock::new(1_000);
        let granule = MIN_SLEEP_REAL_NS * 1_000; // 100 µs real, in virtual ns
        let now = 5_000_000_000;
        assert!(clock.is_due(0, now), "past instants are due");
        assert!(clock.is_due(now, now));
        assert!(clock.is_due(now + granule - 1, now), "inside the granule");
        assert!(!clock.is_due(now + granule, now), "a sleepable remainder");
    }

    #[test]
    #[should_panic(expected = "time scale")]
    fn zero_scale_is_rejected() {
        VirtualClock::new(0);
    }

    #[test]
    fn real_until_rounds_up_never_down() {
        // A wake-up `real_until(t, now)` after the reading `now` reads at
        // least `now + real * scale >= t`, and overshoots by less than one
        // scale quantum.
        for scale in [1u32, 100, 1_000, 1_024, 100_000] {
            let clock = VirtualClock::new(scale);
            let now = 7_000_000_000;
            for v in [1u64, 99, 999, 1_000, 1_001, 123_456_789, u32::MAX as u64] {
                let real = clock.real_until(now + v, now).as_nanos() as u64;
                let back = real * u64::from(scale);
                assert!(back >= v, "scale {scale}: real_until(+{v}) rounded down");
                assert!(back - v < u64::from(scale), "scale {scale}: +{v} overshot");
            }
            assert_eq!(clock.real_until(now, now), Duration::ZERO);
            assert_eq!(clock.real_until(0, now), Duration::ZERO, "past instants");
        }
    }

    #[test]
    fn sleep_until_never_sleeps_past_target_at_high_scale() {
        // sleep_until's real remainder rounds up by less than one real ns,
        // so a sleep overshoots the virtual target by under one quantum
        // (then re-checks); the loop must never oversleep a whole extra
        // quantum per iteration. Bound: wall time spent must not exceed the
        // ideal real duration by more than scheduler slack.
        let scale = 1_000u32;
        let clock = VirtualClock::new(scale);
        let start_real = Instant::now();
        // 5 ms real = 5e9 virtual ns at 1000×; plus a deliberately
        // non-multiple remainder to exercise the rounding on every iteration.
        let target = clock.now() + 5_000_000_123;
        clock.sleep_until(target);
        let waited = start_real.elapsed();
        // Sub-100 µs remainders are abandoned, so now may sit just short of
        // target — but never by a full real-time granule.
        let now = clock.now();
        let max_abandoned = MIN_SLEEP_REAL_NS * u64::from(scale);
        assert!(
            now + max_abandoned >= target,
            "stopped {} virtual ns short",
            target.saturating_sub(now)
        );
        // And it must not have slept *past* the target by more than
        // generous scheduler slack (the rounding adds under one real ns;
        // only the OS can overshoot by more).
        assert!(
            waited < Duration::from_millis(200),
            "slept {waited:?} for a ~5 ms target"
        );
    }

    #[test]
    fn sleep_until_quantum_remainder_returns_immediately() {
        // A remainder below one real-time quantum (v < scale) is due now —
        // sleep_until must return without sleeping rather than looping or
        // stalling.
        let clock = VirtualClock::new(100_000);
        let start = Instant::now();
        let target = clock.now() + 99_999; // < one quantum of virtual ns
        clock.sleep_until(target);
        assert!(start.elapsed() < Duration::from_millis(50));
    }
}
