//! Deterministic, seeded network-fault injection for the serving stack.
//!
//! Production transports fail in a handful of characteristic ways: packets
//! are delayed, segments arrive in tiny fragments, bytes are corrupted by
//! broken middleboxes, connections are reset mid-frame, and slowloris-style
//! peers dribble one byte per stall window. This module reproduces all of
//! them *inside the process*, deterministically, so the whole stack —
//! protocol → server → executor → engine — can be exercised under failure
//! in ordinary tests and benches:
//!
//! - [`ChaosConfig`] names a fault [`FaultClass`], an `intensity` in
//!   `[0, 1]`, and a single `u64` seed. Everything downstream derives from
//!   those three values.
//! - [`ChaosPlan`] is the per-connection schedule: a seeded splitmix64
//!   stream of per-operation [`Action`]s. Two plans built from the same
//!   `(config, conn)` pair emit the identical action sequence, so a failing
//!   chaos run reproduces from its seed alone.
//! - [`FaultyStream`] wraps any `Read + Write` transport and applies the
//!   plan to every I/O operation. It is used by the load generator's
//!   `--chaos` mode over real sockets and by in-process loopback tests over
//!   `Cursor`s.
//!
//! The wrapper attaches on the client side of the wire only (the load
//! generator's `--chaos` mode): the server under test sees genuine network
//! weather — fragmented frames, flipped bits, vanished peers — through an
//! unmodified `TcpStream`, and it reads and writes its sockets the one way
//! production does. A client's plan governs both directions of its
//! connection, so corruption reaches the server (the client's writes) and
//! the server's answers reach the client corrupted (the client's reads).
//!
//! [`ComponentChaos`] is the other half: seeded panics and stalls for the
//! server's own threads, reachable only through
//! [`crate::server::ServeConfig::with_component_chaos`].

use std::io::{self, Read, Write};
use std::time::Duration;

/// splitmix64: a tiny, high-quality, dependency-free deterministic PRNG.
/// (Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.)
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[lo, hi]` (inclusive; `lo <= hi`).
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The classes of network fault the chaos layer can inject. Each class
/// isolates one failure mode so a bench cell attributes degradation to a
/// single cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Extra latency on individual I/O operations: tens of microseconds to
    /// a few milliseconds, scaled by intensity. Exercises timeout slack and
    /// pacing, never correctness.
    Delay,
    /// Reads and writes deliver only a 1–4 byte prefix per operation, so
    /// frames cross the wire in many fragments. Exercises the server's
    /// incremental frame reassembly and the client's split-read paths.
    PartialIo,
    /// A bit is flipped somewhere in the transferred bytes. Exercises total
    /// decoding, the malformed-frame error budget, and client resync.
    Corrupt,
    /// The connection is abruptly killed mid-stream; every subsequent
    /// operation fails with `ConnectionReset`. Exercises reconnect + retry
    /// and server-side reader cleanup.
    Reset,
    /// Slowloris: long stalls (tens to hundreds of milliseconds) combined
    /// with single-byte transfers. Exercises idle reaping and slow-client
    /// isolation.
    Stall,
}

impl FaultClass {
    /// Every fault class, in declaration order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Delay,
        FaultClass::PartialIo,
        FaultClass::Corrupt,
        FaultClass::Reset,
        FaultClass::Stall,
    ];

    /// Stable lowercase name (CLI flag values and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Delay => "delay",
            FaultClass::PartialIo => "partial",
            FaultClass::Corrupt => "corrupt",
            FaultClass::Reset => "reset",
            FaultClass::Stall => "stall",
        }
    }

    /// Parse a [`FaultClass::name`] back into the class.
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// A complete chaos recipe: one fault class at one intensity, reproducible
/// from a single seed. Per-connection plans derive from this via
/// [`ChaosConfig::plan_for`], so N connections under one config see
/// distinct but individually deterministic fault schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Root seed; the whole run's fault schedule is a pure function of it.
    pub seed: u64,
    /// Which failure mode to inject.
    pub class: FaultClass,
    /// How hard to inject it, in `[0, 1]`. Zero disables the class; one is
    /// the most hostile setting.
    pub intensity: f64,
}

impl ChaosConfig {
    /// A recipe for `class` at `intensity` under `seed`.
    pub fn new(class: FaultClass, intensity: f64, seed: u64) -> Self {
        ChaosConfig {
            seed,
            class,
            intensity,
        }
    }

    /// The deterministic per-connection fault schedule for connection
    /// number `conn`. Same `(self, conn)` ⇒ same schedule, always.
    pub fn plan_for(&self, conn: u64) -> ChaosPlan {
        // Derive the per-connection stream by hashing the root seed with
        // the connection index through one splitmix step, so plans for
        // different connections are decorrelated but reproducible.
        let mut mixer = SplitMix64::new(self.seed ^ conn.wrapping_mul(0xA24B_AED4_963E_E407));
        ChaosPlan {
            rng: SplitMix64::new(mixer.next_u64()),
            class: self.class,
            intensity: self.intensity.clamp(0.0, 1.0),
            dead: false,
        }
    }
}

/// What the plan decides to do to one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Pass the operation through untouched.
    None,
    /// Sleep this long, then perform the operation normally.
    Delay(Duration),
    /// Transfer at most this many bytes (a short read/write).
    Partial(usize),
    /// Perform the operation, then flip one bit of the transferred bytes.
    CorruptBit,
    /// Kill the connection: this and every later operation fails with
    /// [`io::ErrorKind::ConnectionReset`].
    Reset,
    /// Sleep this long *and* transfer at most one byte (slowloris).
    Stall(Duration),
}

/// A per-connection deterministic fault schedule: consult [`ChaosPlan::decide`]
/// once per I/O operation. [`FaultyStream`] does this automatically.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    rng: SplitMix64,
    class: FaultClass,
    intensity: f64,
    dead: bool,
}

impl ChaosPlan {
    /// A plan that never injects anything (intensity 0).
    pub fn quiet() -> ChaosPlan {
        ChaosConfig::new(FaultClass::Delay, 0.0, 0).plan_for(0)
    }

    /// Whether a [`Action::Reset`] has already fired on this plan.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The next action in the schedule. Deterministic: the k-th call on two
    /// plans built from the same `(config, conn)` returns the same action.
    pub fn decide(&mut self) -> Action {
        if self.dead {
            return Action::Reset;
        }
        let i = self.intensity;
        if i <= 0.0 {
            // Keep the stream position advancing even at zero intensity so
            // raising the intensity is the *only* thing that changes the
            // schedule shape, not also its phase.
            let _ = self.rng.next_u64();
            return Action::None;
        }
        match self.class {
            FaultClass::Delay => {
                if self.rng.chance(0.35 * i + 0.05) {
                    let hi = (50.0 + 2_000.0 * i) as u64; // µs
                    Action::Delay(Duration::from_micros(self.rng.range(20, hi)))
                } else {
                    Action::None
                }
            }
            FaultClass::PartialIo => {
                if self.rng.chance(0.60 * i + 0.20) {
                    Action::Partial(self.rng.range(1, 4) as usize)
                } else {
                    Action::None
                }
            }
            FaultClass::Corrupt => {
                if self.rng.chance(0.12 * i) {
                    Action::CorruptBit
                } else {
                    Action::None
                }
            }
            FaultClass::Reset => {
                if self.rng.chance(0.004 * i) {
                    self.dead = true;
                    Action::Reset
                } else {
                    Action::None
                }
            }
            FaultClass::Stall => {
                if self.rng.chance(0.03 * i) {
                    let hi = (20.0 + 180.0 * i) as u64; // ms
                    Action::Stall(Duration::from_millis(self.rng.range(10, hi)))
                } else {
                    Action::None
                }
            }
        }
    }

    /// Pick which bit of an `n`-byte transfer to flip (byte index, bit
    /// index). `n` must be non-zero.
    fn corrupt_site(&mut self, n: usize) -> (usize, u32) {
        let byte = self.rng.range(0, n as u64 - 1) as usize;
        let bit = (self.rng.next_u64() % 8) as u32;
        (byte, bit)
    }
}

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected reset")
}

/// A `Read + Write` wrapper that applies a [`ChaosPlan`] to every I/O
/// operation on the wrapped transport. Short transfers and injected errors
/// honour the standard `io` contracts, so well-behaved callers (e.g.
/// `write_all`, buffered frame readers) survive everything except resets —
/// exactly like a real network.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: ChaosPlan,
}

impl<S> FaultyStream<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: ChaosPlan) -> Self {
        FaultyStream { inner, plan }
    }

    /// Whether an injected reset has killed this stream.
    pub fn is_dead(&self) -> bool {
        self.plan.is_dead()
    }

    /// Unwrap, discarding the plan.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        match self.plan.decide() {
            Action::None => self.inner.read(buf),
            Action::Delay(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            Action::Partial(n) => {
                let cap = n.min(buf.len());
                self.inner.read(&mut buf[..cap])
            }
            Action::CorruptBit => {
                let got = self.inner.read(buf)?;
                if got > 0 {
                    let (byte, bit) = self.plan.corrupt_site(got);
                    buf[byte] ^= 1 << bit;
                }
                Ok(got)
            }
            Action::Reset => Err(reset_err()),
            Action::Stall(d) => {
                std::thread::sleep(d);
                self.inner.read(&mut buf[..1])
            }
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match self.plan.decide() {
            Action::None => self.inner.write(buf),
            Action::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            Action::Partial(n) => self.inner.write(&buf[..n.min(buf.len())]),
            Action::CorruptBit => {
                // Corrupt a copy of (a prefix of) the caller's bytes; the
                // short write is legal and the caller's buffer stays pristine.
                let mut scratch = [0u8; 64];
                let n = buf.len().min(scratch.len());
                scratch[..n].copy_from_slice(&buf[..n]);
                let (byte, bit) = self.plan.corrupt_site(n);
                scratch[byte] ^= 1 << bit;
                self.inner.write(&scratch[..n])
            }
            Action::Reset => Err(reset_err()),
            Action::Stall(d) => {
                std::thread::sleep(d);
                self.inner.write(&buf[..1])
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.plan.is_dead() {
            return Err(reset_err());
        }
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Component chaos: deterministic in-process faults for the server's own
// threads (the supervision tree's injection substrate).
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string: folds a component *name* into the seed so
/// two components matched by the same target prefix still draw
/// decorrelated schedules.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A recipe for in-process component faults, reproducible from a single
/// seed. Where [`ChaosConfig`] attacks the *wire*, `ComponentChaos`
/// attacks the server's own threads: a component (`shard-{i}`, `planner`)
/// whose name starts with `target` draws from a deterministic schedule on
/// every heartbeat or planner tick and may panic (a shard dies and
/// escalates; a planner tick is caught on shard 0 and skipped) or stall
/// (sleeping unparked long enough for the stall check to flag the shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentChaos {
    /// Root seed; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Component-name prefix to target (`"shard"` hits every epoll shard,
    /// `"shard-0"` exactly one).
    pub target: String,
    /// Panic on roughly one beat in `n` (deterministic draw). `None` or
    /// `Some(0)` disables panics.
    pub panic_one_in: Option<u64>,
    /// Stall on roughly one beat in `n`. `None` or `Some(0)` disables
    /// stalls.
    pub stall_one_in: Option<u64>,
    /// How long a stall sleeps, in milliseconds. Must exceed the stall
    /// grace to be detectable.
    pub stall_ms: u64,
}

impl ComponentChaos {
    /// Panic-only chaos against components whose name starts with `target`.
    pub fn panics(target: &str, one_in: u64, seed: u64) -> Self {
        ComponentChaos {
            seed,
            target: target.to_string(),
            panic_one_in: Some(one_in),
            stall_one_in: None,
            stall_ms: 0,
        }
    }

    /// Stall-only chaos against components whose name starts with `target`.
    pub fn stalls(target: &str, one_in: u64, stall_ms: u64, seed: u64) -> Self {
        ComponentChaos {
            seed,
            target: target.to_string(),
            panic_one_in: None,
            stall_one_in: Some(one_in),
            stall_ms,
        }
    }

    /// The deterministic fault schedule for a named component, or `None`
    /// if the name is not targeted.
    pub fn plan_for(&self, component: &str) -> Option<ComponentChaosPlan> {
        if !component.starts_with(self.target.as_str()) {
            return None;
        }
        let mut mixer = SplitMix64::new(self.seed ^ fnv1a(component.as_bytes()));
        Some(ComponentChaosPlan {
            component: component.to_string(),
            rng: SplitMix64::new(mixer.next_u64()),
            panic_one_in: self.panic_one_in.filter(|&n| n > 0),
            stall_one_in: self.stall_one_in.filter(|&n| n > 0),
            stall: Duration::from_millis(self.stall_ms),
        })
    }
}

/// One component's fault schedule: consulted once per heartbeat by its
/// shard's loop, or once per planner wake-up on shard 0.
#[derive(Debug, Clone)]
pub struct ComponentChaosPlan {
    component: String,
    rng: SplitMix64,
    panic_one_in: Option<u64>,
    stall_one_in: Option<u64>,
    stall: Duration,
}

impl ComponentChaosPlan {
    /// Draw the next beat's fate: possibly panic (at the loop boundary,
    /// where conservation guards are armed), possibly sleep out a stall
    /// window.
    pub fn on_beat(&mut self) {
        if let Some(n) = self.panic_one_in {
            if self.rng.next_u64().is_multiple_of(n) {
                panic!("chaos: injected panic in component '{}'", self.component);
            }
        }
        if let Some(n) = self.stall_one_in {
            if self.rng.next_u64().is_multiple_of(n) {
                std::thread::sleep(self.stall);
            }
        }
    }

    /// Whether the next `k` beats would panic, without side effects —
    /// lets tests find schedules with the shape they need.
    pub fn panics_within(&self, k: u64) -> bool {
        let mut probe = self.clone();
        for _ in 0..k {
            let panics = probe
                .panic_one_in
                .map(|n| probe.rng.next_u64().is_multiple_of(n))
                .unwrap_or(false);
            if panics {
                return true;
            }
            if probe.stall_one_in.is_some() {
                let _ = probe.rng.next_u64();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn actions(config: &ChaosConfig, conn: u64, k: usize) -> Vec<Action> {
        let mut plan = config.plan_for(conn);
        (0..k).map(|_| plan.decide()).collect()
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_connection() {
        for class in FaultClass::ALL {
            let config = ChaosConfig::new(class, 0.8, 42);
            assert_eq!(
                actions(&config, 3, 256),
                actions(&config, 3, 256),
                "{class:?}: same (seed, conn) must give the same schedule"
            );
        }
    }

    #[test]
    fn different_seeds_or_connections_give_different_schedules() {
        let a = ChaosConfig::new(FaultClass::PartialIo, 0.9, 1);
        let b = ChaosConfig::new(FaultClass::PartialIo, 0.9, 2);
        assert_ne!(
            actions(&a, 0, 512),
            actions(&b, 0, 512),
            "seed decorrelates"
        );
        assert_ne!(
            actions(&a, 0, 512),
            actions(&a, 1, 512),
            "conn decorrelates"
        );
    }

    #[test]
    fn zero_intensity_injects_nothing() {
        for class in FaultClass::ALL {
            let config = ChaosConfig::new(class, 0.0, 7);
            assert!(actions(&config, 0, 512).iter().all(|a| *a == Action::None));
        }
    }

    #[test]
    fn intensity_scales_fault_frequency() {
        for class in FaultClass::ALL {
            let faults = |intensity: f64| {
                let config = ChaosConfig::new(class, intensity, 99);
                actions(&config, 0, 4096)
                    .iter()
                    .filter(|a| **a != Action::None)
                    .count()
            };
            assert!(
                faults(1.0) > faults(0.1),
                "{class:?}: intensity 1.0 must fault more often than 0.1"
            );
        }
    }

    #[test]
    fn partial_io_still_delivers_everything() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let config = ChaosConfig::new(FaultClass::PartialIo, 1.0, 5);
        let mut reader = FaultyStream::new(Cursor::new(payload.clone()), config.plan_for(0));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("fragmented, not lost");
        assert_eq!(out, payload, "partial reads reassemble to the same bytes");

        let mut writer = FaultyStream::new(Cursor::new(Vec::new()), config.plan_for(1));
        writer
            .write_all(&payload)
            .expect("write_all loops over shorts");
        assert_eq!(writer.into_inner().into_inner(), payload);
    }

    #[test]
    fn corruption_flips_bits_but_preserves_length() {
        let payload = vec![0u8; 8192];
        let config = ChaosConfig::new(FaultClass::Corrupt, 1.0, 11);
        let mut reader = FaultyStream::new(Cursor::new(payload.clone()), config.plan_for(0));
        let mut out = Vec::new();
        reader
            .read_to_end(&mut out)
            .expect("corruption is not loss");
        assert_eq!(out.len(), payload.len());
        let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert!(flipped > 0, "full intensity over 8 KiB must flip something");
    }

    #[test]
    // Discard reads: the test probes for the injected error, the byte
    // counts are irrelevant.
    #[allow(clippy::unused_io_amount)]
    fn reset_kills_the_stream_permanently() {
        let config = ChaosConfig::new(FaultClass::Reset, 1.0, 3);
        // Find a conn whose plan resets within the horizon (intensity keeps
        // per-op reset probability small so most ops pass through).
        let mut stream = None;
        for conn in 0..64 {
            let mut plan = config.plan_for(conn);
            if (0..2048).any(|_| plan.decide() == Action::Reset) {
                stream = Some(FaultyStream::new(
                    Cursor::new(vec![0u8; 1 << 20]),
                    config.plan_for(conn),
                ));
                break;
            }
        }
        let mut stream = stream.expect("some plan resets within 2048 ops");
        let mut sink = [0u8; 256];
        let mut saw_reset = false;
        for _ in 0..4096 {
            match stream.read(&mut sink) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                    saw_reset = true;
                    break;
                }
            }
        }
        assert!(saw_reset, "plan found above must reset this stream");
        assert!(stream.is_dead());
        // Dead is forever: every later operation fails the same way.
        for _ in 0..4 {
            let e = stream.read(&mut sink).expect_err("dead stream stays dead");
            assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        }
    }

    #[test]
    fn class_names_round_trip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.name()), Some(class));
        }
        assert_eq!(FaultClass::parse("nope"), None);
    }

    #[test]
    fn component_chaos_targets_by_name_prefix() {
        let shards = ComponentChaos::panics("shard", 4, 7);
        assert!(shards.plan_for("shard-0").is_some());
        assert!(shards.plan_for("shard-2").is_some());
        assert!(shards.plan_for("planner").is_none());
        let one_shard = ComponentChaos::panics("shard-1", 4, 7);
        assert!(one_shard.plan_for("shard-1").is_some());
        assert!(one_shard.plan_for("shard-0").is_none());
        assert!(one_shard.plan_for("planner").is_none());
    }

    #[test]
    fn component_chaos_is_deterministic_and_decorrelated() {
        let chaos = ComponentChaos::panics("d", 64, 1234);
        let horizon = |name: &str| -> Vec<bool> {
            (1..=512u64)
                .map(|k| chaos.plan_for(name).unwrap().panics_within(k))
                .collect()
        };
        // Same name ⇒ the identical schedule.
        assert_eq!(horizon("d-0"), horizon("d-0"));
        // Sibling components draw different schedules from the same root
        // seed.
        assert_ne!(horizon("d-0"), horizon("d-1"));
    }

    #[test]
    fn component_chaos_zero_rates_are_inert() {
        let chaos = ComponentChaos {
            seed: 3,
            target: "x".into(),
            panic_one_in: Some(0),
            stall_one_in: Some(0),
            stall_ms: 50,
        };
        let mut plan = chaos.plan_for("x-1").unwrap();
        for _ in 0..256 {
            plan.on_beat(); // must neither panic nor sleep
        }
        assert!(!chaos.plan_for("x-1").unwrap().panics_within(1024));
    }
}
