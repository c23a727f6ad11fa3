//! Request records and trace synthesis.
//!
//! A [`Trace`] is the unit of workload the simulator and schedulers consume:
//! a time-ordered sequence of [`Request`]s, each with an arrival timestamp
//! and a token length. [`TraceSpec`] describes how to synthesize one — which
//! length distribution and arrival process — and provides the two presets
//! the paper evaluates: **Twitter-Stable** (Poisson arrivals) and
//! **Twitter-Bursty** (MMPP arrivals with AR(1) length drift).

use crate::arrivals::{ArrivalProcess, Deterministic, Diurnal, Mmpp, Poisson};
use crate::lengths::{
    EmpiricalLengths, LengthDistribution, LogNormalLengths, ModulatedLengths, ParetoLengths,
    TwitterLengths,
};
use crate::stats::Summary;
use crate::{secs_to_nanos, Nanos, NANOS_PER_SEC};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Dense identifier of a request within one trace.
pub type RequestId = u64;

/// Hasher for integer keys a program chose itself — trace request ids,
/// connection ids, `(generation, runtime, instance)` placements: a rotate,
/// XOR and Fibonacci multiply per written word instead of SipHash. A lone
/// `u64` hashes to `id.wrapping_mul(0x9E37_79B9_7F4A_7C15)`. It does not
/// resist chosen keys, so never key it by anything a client picks.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

/// Builds [`WordHasher`]s: `HashMap<K, V, BuildWordHasher>`.
pub type BuildWordHasher = std::hash::BuildHasherDefault<WordHasher>;

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One inference request: when it arrives and how many tokens it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Dense per-trace identifier, in arrival order.
    pub id: RequestId,
    /// Arrival timestamp (ns since trace start).
    pub arrival: Nanos,
    /// Input sequence length in tokens (≥ 1).
    pub length: u32,
}

/// A time-ordered request trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<Request>,
    horizon: Nanos,
}

impl Trace {
    /// Build from pre-sorted requests. Panics if arrivals are unsorted or if
    /// any request arrives after `horizon`.
    pub fn from_requests(requests: Vec<Request>, horizon: Nanos) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival time"
        );
        if let Some(last) = requests.last() {
            assert!(last.arrival <= horizon, "request after trace horizon");
        }
        Trace { requests, horizon }
    }

    /// All requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Trace horizon (ns): the duration the trace covers, independent of
    /// when the last request happens to arrive.
    pub fn horizon(&self) -> Nanos {
        self.horizon
    }

    /// Mean arrival rate over the horizon (req/s).
    pub fn mean_rate(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        self.requests.len() as f64 / crate::nanos_to_secs(self.horizon)
    }

    /// Request lengths as `f64`, for the statistics helpers.
    pub fn lengths_f64(&self) -> Vec<f64> {
        self.requests.iter().map(|r| f64::from(r.length)).collect()
    }

    /// Request lengths as `u32`.
    pub fn lengths(&self) -> Vec<u32> {
        self.requests.iter().map(|r| r.length).collect()
    }

    /// Summary statistics of the length distribution.
    pub fn length_summary(&self) -> Summary {
        Summary::from_samples(&self.lengths_f64())
    }

    /// The requests arriving within `[start_sec, start_sec + dur_secs)` —
    /// used to cut the one-second clips of Fig. 1b out of longer traces.
    pub fn window(&self, start_sec: f64, dur_secs: f64) -> Vec<Request> {
        let lo = secs_to_nanos(start_sec);
        let hi = secs_to_nanos(start_sec + dur_secs);
        let a = self.requests.partition_point(|r| r.arrival < lo);
        let b = self.requests.partition_point(|r| r.arrival < hi);
        self.requests[a..b].to_vec()
    }

    /// Per-second request counts over the horizon (for burstiness analysis).
    pub fn per_second_counts(&self) -> Vec<u64> {
        let secs = self.horizon.div_ceil(NANOS_PER_SEC).max(1) as usize;
        let mut counts = vec![0u64; secs];
        for r in &self.requests {
            let idx = ((r.arrival / NANOS_PER_SEC) as usize).min(secs - 1);
            counts[idx] += 1;
        }
        counts
    }

    /// Interleave another trace's requests by arrival time (two request
    /// classes sharing one stream, e.g. queries + documents). Ids are
    /// re-densified; the horizon is the later of the two.
    pub fn merge(&self, other: &Trace) -> Trace {
        let mut all: Vec<Request> = self
            .requests
            .iter()
            .chain(other.requests())
            .copied()
            .collect();
        all.sort_by_key(|r| r.arrival);
        for (i, r) in all.iter_mut().enumerate() {
            r.id = i as RequestId;
        }
        Trace {
            requests: all,
            horizon: self.horizon.max(other.horizon()),
        }
    }

    /// The sub-trace arriving in `[from_sec, to_sec)`, re-based so the
    /// slice starts at zero with dense ids.
    pub fn slice(&self, from_sec: f64, to_sec: f64) -> Trace {
        assert!(to_sec > from_sec, "empty slice range");
        let base = secs_to_nanos(from_sec);
        let requests: Vec<Request> = self
            .window(from_sec, to_sec - from_sec)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Request {
                id: i as RequestId,
                arrival: r.arrival - base,
                length: r.length,
            })
            .collect();
        Trace {
            requests,
            horizon: secs_to_nanos(to_sec - from_sec),
        }
    }

    /// Split the trace round-robin into `n` sub-traces for concurrent
    /// replay (one per load-generator client). Arrival times, lengths, and
    /// — deliberately — **original ids** are preserved, so ids stay
    /// globally unique across the partitions; each sub-trace keeps the full
    /// horizon. Every request appears in exactly one partition.
    pub fn partition(&self, n: usize) -> Vec<Trace> {
        assert!(n >= 1, "need at least one partition");
        let mut parts: Vec<Vec<Request>> = vec![Vec::with_capacity(self.len() / n + 1); n];
        for (i, r) in self.requests.iter().enumerate() {
            parts[i % n].push(*r);
        }
        parts
            .into_iter()
            .map(|requests| Trace {
                requests,
                horizon: self.horizon,
            })
            .collect()
    }

    /// Concatenate another trace after this one, shifting its arrivals by
    /// this trace's horizon. Ids are re-densified.
    pub fn concat(mut self, other: &Trace) -> Trace {
        let shift = self.horizon;
        for r in other.requests() {
            self.requests.push(Request {
                id: 0,
                arrival: r.arrival + shift,
                length: r.length,
            });
        }
        self.horizon += other.horizon;
        for (i, r) in self.requests.iter_mut().enumerate() {
            r.id = i as RequestId;
        }
        self
    }
}

/// Length-distribution choices for trace synthesis, serializable so
/// experiment configurations can be recorded alongside results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LengthSpec {
    /// Raw Twitter calibration: median 21, p98 72, max 125.
    TwitterRaw,
    /// §5 recalibration of the Twitter distribution to span `max` tokens.
    TwitterRecalibrated {
        /// Maximum token length (512 in the paper's evaluation).
        max: u32,
    },
    /// Recalibrated Twitter lengths with AR(1) per-second drift (Fig. 1b).
    TwitterModulated {
        /// Maximum token length.
        max: u32,
        /// AR(1) persistence in `[0, 1)`.
        rho: f64,
        /// Per-second innovation std on the log-median.
        step_std: f64,
    },
    /// Explicit log-normal parameters.
    LogNormal {
        /// `ln` median.
        mu: f64,
        /// Log-space standard deviation.
        sigma: f64,
        /// Minimum length.
        min: u32,
        /// Maximum length.
        max: u32,
    },
    /// Bounded Pareto lengths — the heavy document tails of search/RAG
    /// corpora, heavier than any log-normal.
    Pareto {
        /// Scale (minimum length).
        min: u32,
        /// Tail exponent α (smaller ⇒ heavier tail), > 0.
        alpha: f64,
        /// Truncation (tokenizer limit).
        max: u32,
    },
    /// An explicit `(length, count)` histogram — e.g. measured from a
    /// production log and replayed here.
    Empirical(Vec<(u32, u64)>),
    /// Every request has the same length (tests, microbenchmarks).
    Fixed(u32),
}

impl LengthSpec {
    /// Instantiate the sampling distribution.
    pub fn build(&self) -> Box<dyn LengthDistribution + Send> {
        match self {
            LengthSpec::TwitterRaw => Box::new(TwitterLengths::raw()),
            LengthSpec::TwitterRecalibrated { max } => Box::new(TwitterLengths::recalibrated(*max)),
            LengthSpec::TwitterModulated { max, rho, step_std } => Box::new(ModulatedLengths::new(
                TwitterLengths::recalibrated(*max),
                *rho,
                *step_std,
            )),
            LengthSpec::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => Box::new(LogNormalLengths {
                mu: *mu,
                sigma: *sigma,
                min: *min,
                max: *max,
            }),
            LengthSpec::Pareto { min, alpha, max } => {
                Box::new(ParetoLengths::new(*min, *alpha, *max))
            }
            LengthSpec::Empirical(hist) => Box::new(EmpiricalLengths::from_histogram(hist)),
            LengthSpec::Fixed(len) => Box::new(FixedLength(*len)),
        }
    }

    /// Upper bound on produced lengths.
    pub fn max_length(&self) -> u32 {
        match self {
            LengthSpec::TwitterRaw => 125,
            LengthSpec::TwitterRecalibrated { max }
            | LengthSpec::TwitterModulated { max, .. }
            | LengthSpec::LogNormal { max, .. }
            | LengthSpec::Pareto { max, .. } => *max,
            LengthSpec::Empirical(hist) => hist
                .iter()
                .filter(|&&(_, c)| c > 0)
                .map(|&(l, _)| l)
                .max()
                .unwrap_or(1),
            LengthSpec::Fixed(len) => *len,
        }
    }
}

/// Fixed-length distribution used by [`LengthSpec::Fixed`].
#[derive(Debug, Clone, Copy)]
struct FixedLength(u32);

impl LengthDistribution for FixedLength {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> u32 {
        self.0
    }

    fn max_length(&self) -> u32 {
        self.0
    }
}

/// Arrival-process choices for trace synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Poisson arrivals (Twitter-Stable).
    Poisson {
        /// Rate in req/s.
        rate: f64,
    },
    /// Paper-style two-state MMPP with the given long-run mean (Twitter-Bursty).
    Bursty {
        /// Long-run mean rate in req/s.
        mean_rate: f64,
    },
    /// Fully parameterized MMPP.
    Mmpp {
        /// Calm-state rate (req/s).
        calm_rate: f64,
        /// Burst-state rate (req/s).
        burst_rate: f64,
        /// Mean calm sojourn (s).
        calm_sojourn: f64,
        /// Mean burst sojourn (s).
        burst_sojourn: f64,
    },
    /// Deterministic arrivals at a fixed rate.
    Deterministic {
        /// Rate in req/s.
        rate: f64,
    },
    /// Sinusoidal-rate (diurnal) Poisson arrivals.
    Diurnal {
        /// Long-run mean rate (req/s).
        base_rate: f64,
        /// Relative swing in `[0, 1)`.
        amplitude: f64,
        /// Cycle length (s).
        period_secs: f64,
    },
}

impl ArrivalSpec {
    /// Instantiate the arrival process.
    pub fn build(&self) -> Box<dyn ArrivalProcess + Send> {
        match *self {
            ArrivalSpec::Poisson { rate } => Box::new(Poisson::new(rate)),
            ArrivalSpec::Bursty { mean_rate } => Box::new(Mmpp::bursty(mean_rate)),
            ArrivalSpec::Mmpp {
                calm_rate,
                burst_rate,
                calm_sojourn,
                burst_sojourn,
            } => Box::new(Mmpp::new(
                calm_rate,
                burst_rate,
                calm_sojourn,
                burst_sojourn,
            )),
            ArrivalSpec::Deterministic { rate } => Box::new(Deterministic::from_rate(rate)),
            ArrivalSpec::Diurnal {
                base_rate,
                amplitude,
                period_secs,
            } => Box::new(Diurnal::new(base_rate, amplitude, period_secs, 0.0)),
        }
    }

    /// Long-run mean rate (req/s).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate } | ArrivalSpec::Deterministic { rate } => rate,
            ArrivalSpec::Diurnal { base_rate, .. } => base_rate,
            ArrivalSpec::Bursty { mean_rate } => mean_rate,
            ArrivalSpec::Mmpp {
                calm_rate,
                burst_rate,
                calm_sojourn,
                burst_sojourn,
            } => {
                let pi = calm_sojourn / (calm_sojourn + burst_sojourn);
                pi * calm_rate + (1.0 - pi) * burst_rate
            }
        }
    }
}

/// A complete trace recipe: lengths × arrivals × duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Length distribution.
    pub lengths: LengthSpec,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Trace duration in seconds.
    pub duration_secs: f64,
}

impl TraceSpec {
    /// **Twitter-Stable**: Poisson arrivals over recalibrated (512-token)
    /// Twitter lengths with mild per-second drift — the paper's testbed
    /// workload (§5.1).
    pub fn twitter_stable(rate: f64, duration_secs: f64) -> Self {
        TraceSpec {
            lengths: LengthSpec::TwitterModulated {
                max: 512,
                rho: 0.9,
                step_std: 0.05,
            },
            arrivals: ArrivalSpec::Poisson { rate },
            duration_secs,
        }
    }

    /// **Twitter-Bursty**: MMPP arrivals with stronger per-second length
    /// drift — the paper's large-scale / auto-scaling workload (§5.1.3, §5.2).
    pub fn twitter_bursty(mean_rate: f64, duration_secs: f64) -> Self {
        TraceSpec {
            lengths: LengthSpec::TwitterModulated {
                max: 512,
                rho: 0.9,
                step_std: 0.09,
            },
            arrivals: ArrivalSpec::Bursty { mean_rate },
            duration_secs,
        }
    }

    /// **Twitter-Diurnal**: a compressed day/night cycle over recalibrated
    /// Twitter lengths — the auto-scaling stress the §4 scaler is built for.
    pub fn twitter_diurnal(base_rate: f64, period_secs: f64, duration_secs: f64) -> Self {
        TraceSpec {
            lengths: LengthSpec::TwitterModulated {
                max: 512,
                rho: 0.9,
                step_std: 0.05,
            },
            arrivals: ArrivalSpec::Diurnal {
                base_rate,
                amplitude: 0.6,
                period_secs,
            },
            duration_secs,
        }
    }

    /// Synthesize a trace with the supplied RNG. Deterministic given the
    /// RNG seed.
    pub fn generate(&self, rng: &mut dyn RngCore) -> Trace {
        assert!(self.duration_secs > 0.0, "trace duration must be positive");
        let horizon = secs_to_nanos(self.duration_secs);
        let mut lengths = self.lengths.build();
        let mut arrivals = self.arrivals.build();
        let mut requests = Vec::with_capacity(
            (self.arrivals.mean_rate() * self.duration_secs * 1.1) as usize + 16,
        );
        let mut last_tick: Option<u64> = None;
        let mut id: RequestId = 0;
        loop {
            let t = arrivals.next_arrival(rng);
            if t >= horizon {
                break;
            }
            let second = t / NANOS_PER_SEC;
            if last_tick != Some(second) {
                lengths.on_tick(second, rng);
                last_tick = Some(second);
            }
            requests.push(Request {
                id,
                arrival: t,
                length: lengths.sample(rng),
            });
            id += 1;
        }
        Trace { requests, horizon }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::hash::BuildHasher;

    #[test]
    fn word_hasher_multiplies_a_lone_id_and_keeps_tuple_fields_apart() {
        for id in [0u64, 1, 2, 7, 1 << 40, u64::MAX] {
            let expected = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(BuildWordHasher::default().hash_one(id), expected);
        }
        let placements = [(1u64, 0usize, 0usize), (0, 1, 0), (0, 0, 1)];
        let hashes: Vec<u64> = placements
            .iter()
            .map(|p| BuildWordHasher::default().hash_one(p))
            .collect();
        assert!(
            hashes[0] != hashes[1] && hashes[1] != hashes[2] && hashes[0] != hashes[2],
            "{hashes:?}"
        );
    }

    #[test]
    fn stable_trace_has_expected_rate_and_lengths() {
        let mut rng = StdRng::seed_from_u64(11);
        let trace = TraceSpec::twitter_stable(1000.0, 30.0).generate(&mut rng);
        assert!(
            (trace.mean_rate() - 1000.0).abs() < 50.0,
            "rate {}",
            trace.mean_rate()
        );
        let s = trace.length_summary();
        assert!(s.max <= 512.0);
        assert!(s.p50 > 40.0 && s.p50 < 160.0, "p50 {}", s.p50);
        // Ids are dense and arrival-ordered.
        assert!(trace
            .requests()
            .iter()
            .enumerate()
            .all(|(i, r)| r.id == i as u64));
        assert!(trace
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn bursty_trace_is_bursty() {
        let mut rng = StdRng::seed_from_u64(12);
        let trace = TraceSpec::twitter_bursty(1000.0, 120.0).generate(&mut rng);
        let counts: Vec<f64> = trace
            .per_second_counts()
            .iter()
            .map(|&c| c as f64)
            .collect();
        let m = crate::stats::mean(&counts);
        let var = crate::stats::std_dev(&counts).powi(2);
        assert!(var / m > 2.0, "dispersion {}", var / m);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = TraceSpec::twitter_stable(200.0, 5.0);
        let a = spec.generate(&mut StdRng::seed_from_u64(42));
        let b = spec.generate(&mut StdRng::seed_from_u64(42));
        let c = spec.generate(&mut StdRng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn window_slices_by_time() {
        let reqs = vec![
            Request {
                id: 0,
                arrival: 0,
                length: 10,
            },
            Request {
                id: 1,
                arrival: NANOS_PER_SEC,
                length: 20,
            },
            Request {
                id: 2,
                arrival: 2 * NANOS_PER_SEC,
                length: 30,
            },
        ];
        let t = Trace::from_requests(reqs, 3 * NANOS_PER_SEC);
        assert_eq!(t.window(0.0, 1.0).len(), 1);
        assert_eq!(t.window(1.0, 1.0)[0].length, 20);
        assert_eq!(t.window(0.0, 10.0).len(), 3);
        assert!(t.window(2.5, 0.4).is_empty());
    }

    #[test]
    fn merge_interleaves_by_arrival() {
        let a = Trace::from_requests(
            vec![
                Request {
                    id: 0,
                    arrival: 10,
                    length: 1,
                },
                Request {
                    id: 1,
                    arrival: 30,
                    length: 1,
                },
            ],
            100,
        );
        let b = Trace::from_requests(
            vec![Request {
                id: 0,
                arrival: 20,
                length: 2,
            }],
            50,
        );
        let m = a.merge(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.horizon(), 100);
        let arrivals: Vec<u64> = m.requests().iter().map(|r| r.arrival).collect();
        assert_eq!(arrivals, vec![10, 20, 30]);
        assert!(m
            .requests()
            .iter()
            .enumerate()
            .all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn slice_rebases_time_and_ids() {
        let t = Trace::from_requests(
            vec![
                Request {
                    id: 0,
                    arrival: NANOS_PER_SEC / 2,
                    length: 1,
                },
                Request {
                    id: 1,
                    arrival: 3 * NANOS_PER_SEC / 2,
                    length: 2,
                },
                Request {
                    id: 2,
                    arrival: 5 * NANOS_PER_SEC / 2,
                    length: 3,
                },
            ],
            3 * NANOS_PER_SEC,
        );
        let s = t.slice(1.0, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.horizon(), NANOS_PER_SEC);
        assert_eq!(
            s.requests()[0],
            Request {
                id: 0,
                arrival: NANOS_PER_SEC / 2,
                length: 2
            }
        );
    }

    #[test]
    fn pareto_and_empirical_specs_build() {
        let mut rng = StdRng::seed_from_u64(77);
        let spec = TraceSpec {
            lengths: LengthSpec::Pareto {
                min: 4,
                alpha: 1.1,
                max: 512,
            },
            arrivals: ArrivalSpec::Poisson { rate: 500.0 },
            duration_secs: 4.0,
        };
        assert_eq!(spec.lengths.max_length(), 512);
        let t = spec.generate(&mut rng);
        assert!(t.requests().iter().all(|r| (4..=512).contains(&r.length)));

        let spec = TraceSpec {
            lengths: LengthSpec::Empirical(vec![(16, 3), (64, 1), (99, 0)]),
            arrivals: ArrivalSpec::Poisson { rate: 500.0 },
            duration_secs: 2.0,
        };
        assert_eq!(spec.lengths.max_length(), 64);
        let t = spec.generate(&mut rng);
        assert!(t
            .requests()
            .iter()
            .all(|r| r.length == 16 || r.length == 64));
    }

    #[test]
    fn concat_shifts_and_redensifies() {
        let a = Trace::from_requests(
            vec![Request {
                id: 0,
                arrival: 5,
                length: 1,
            }],
            10,
        );
        let b = Trace::from_requests(
            vec![Request {
                id: 0,
                arrival: 3,
                length: 2,
            }],
            10,
        );
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.horizon(), 20);
        assert_eq!(c.requests()[1].arrival, 13);
        assert_eq!(c.requests()[1].id, 1);
    }

    #[test]
    fn partition_round_robins_and_preserves_ids() {
        let mut rng = StdRng::seed_from_u64(21);
        let trace = TraceSpec::twitter_stable(200.0, 5.0).generate(&mut rng);
        let parts = trace.partition(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Trace::len).sum::<usize>(), trace.len());
        // Every original id appears exactly once, arrivals stay sorted,
        // and each partition keeps the full horizon.
        let mut ids: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.requests().iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &id)| id == i as u64));
        for p in &parts {
            assert_eq!(p.horizon(), trace.horizon());
            assert!(p
                .requests()
                .windows(2)
                .all(|w| w[0].arrival <= w[1].arrival));
        }
        // n = 1 is the identity.
        assert_eq!(trace.partition(1)[0], trace);
    }

    #[test]
    fn partition_edge_cases_produce_no_phantom_shares() {
        // Empty trace: n well-formed empty partitions, horizon preserved.
        let empty = Trace::from_requests(Vec::new(), 42);
        let parts = empty.partition(3);
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.len(), 0);
            assert_eq!(p.horizon(), 42);
        }

        // More partitions than requests: each request lands in exactly one
        // partition and the surplus partitions are empty, not phantom
        // duplicates.
        let trace = Trace::from_requests(
            (0..3)
                .map(|i| Request {
                    id: i,
                    arrival: i * 5,
                    length: 32,
                })
                .collect(),
            100,
        );
        let parts = trace.partition(8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.iter().map(Trace::len).sum::<usize>(), trace.len());
        let mut ids: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.requests().iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2], "every request exactly once");
        assert!(parts[3..].iter().all(|p| p.requests().is_empty()));
        assert!(parts.iter().all(|p| p.horizon() == 100));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn from_requests_rejects_unsorted() {
        Trace::from_requests(
            vec![
                Request {
                    id: 0,
                    arrival: 10,
                    length: 1,
                },
                Request {
                    id: 1,
                    arrival: 5,
                    length: 1,
                },
            ],
            20,
        );
    }

    #[test]
    fn fixed_lengths_and_deterministic_arrivals() {
        let spec = TraceSpec {
            lengths: LengthSpec::Fixed(64),
            arrivals: ArrivalSpec::Deterministic { rate: 10.0 },
            duration_secs: 1.0,
        };
        let trace = spec.generate(&mut StdRng::seed_from_u64(0));
        assert_eq!(trace.len(), 9); // arrivals at 0.1..0.9 s; 1.0 s is past horizon
        assert!(trace.requests().iter().all(|r| r.length == 64));
    }

    #[test]
    fn per_second_counts_cover_horizon() {
        let mut rng = StdRng::seed_from_u64(13);
        let trace = TraceSpec::twitter_stable(100.0, 10.0).generate(&mut rng);
        let counts = trace.per_second_counts();
        assert_eq!(counts.len(), 10);
        assert_eq!(counts.iter().sum::<u64>(), trace.len() as u64);
    }
}
