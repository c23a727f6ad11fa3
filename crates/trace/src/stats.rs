//! Summary statistics used throughout the evaluation harness.
//!
//! The paper reports mean and tail (98th-percentile) latency, cumulative
//! distribution functions of request length and latency (Figs. 1, 6, 10, 11),
//! and derived quantities such as the fraction of FLOPs wasted on
//! zero-padding (§2.2). This module implements those primitives over plain
//! `f64` samples with deterministic, allocation-conscious code.

/// Sort ascending with [`f64::total_cmp`], dropping NaN samples first.
///
/// NaN handling is a deliberate policy, not an accident of the comparator:
/// a NaN sample carries no ordering information (it typically means "this
/// replicate produced no data" — e.g. a summary statistic of an empty
/// window fed back in as a sample), so it is excluded rather than allowed
/// to poison every rank after it or panic the sort. Callers that consider
/// NaN a bug should assert on their inputs; the statistics layer stays
/// total.
fn sorted_finite_order(samples: &[f64]) -> Vec<f64> {
    into_sorted_finite_order(samples.to_vec())
}

/// [`sorted_finite_order`] of an owned buffer, in place. Under
/// [`f64::total_cmp`] equal keys are bit-equal, so the unstable sort gives
/// the same sequence a stable one would, without its scratch buffer.
fn into_sorted_finite_order(mut samples: Vec<f64>) -> Vec<f64> {
    samples.retain(|x| !x.is_nan());
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of a sample set (`p` in `[0, 100]`).
///
/// Uses linear interpolation between closest ranks (the "linear" method, same
/// as NumPy's default), which is stable for the small-to-medium sample counts
/// produced by simulation runs. NaN samples are excluded (see
/// `sorted_finite_order`); returns `NaN` when no samples remain.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_of_sorted(&sorted_finite_order(samples), p)
}

/// Percentile of an already-sorted (ascending) sample set.
///
/// Callers computing many percentiles over the same data should sort once and
/// use this to avoid repeated `O(n log n)` work.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let w = rank - lo as f64;
                sorted[lo] * (1.0 - w) + sorted[hi] * w
            }
        }
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Population standard deviation; `NaN` for an empty slice.
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let m = mean(samples);
    (samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

/// A compact summary of a sample set: the statistics the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 98th percentile — the paper's tail-latency metric.
    pub p98: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set. NaN samples are excluded up front (they carry
    /// no ordering information — see `sorted_finite_order`); when nothing
    /// remains the summary propagates `NaN` in every statistic with
    /// `count == 0`.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::from_vec(samples.to_vec())
    }

    /// [`Summary::from_samples`] over an owned buffer, sorted in place: no
    /// copy and no merge-sort scratch.
    pub fn from_vec(samples: Vec<f64>) -> Self {
        let sorted = into_sorted_finite_order(samples);
        if sorted.is_empty() {
            return Summary {
                count: 0,
                mean: f64::NAN,
                min: f64::NAN,
                p50: f64::NAN,
                p90: f64::NAN,
                p98: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
            };
        }
        Summary {
            count: sorted.len(),
            mean: mean(&sorted),
            min: sorted[0],
            p50: percentile_of_sorted(&sorted, 50.0),
            p90: percentile_of_sorted(&sorted, 90.0),
            p98: percentile_of_sorted(&sorted, 98.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// Construction sorts the samples once; evaluation is `O(log n)`. Used to
/// regenerate the CDF figures (Figs. 1, 6, 10, 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples. NaN samples are excluded (they have no
    /// place on the x-axis of a distribution — see `sorted_finite_order`).
    pub fn from_samples(samples: &[f64]) -> Self {
        Cdf {
            sorted: sorted_finite_order(samples),
        }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)` — the fraction of samples at or below `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the `q`-quantile for `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Sample `(x, F(x))` pairs on a uniform grid of `points` quantiles —
    /// the series the paper plots in its CDF figures.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// The underlying sorted samples.
    pub fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Fraction of FLOPs wasted on zero-padding when every request in `lengths`
/// is padded to `max_length` (§2.2: the paper reports 80.6% waste for one
/// Twitter clip padded to 125).
///
/// Under the linear-in-length compute model that dominates at these sequence
/// lengths, waste is `1 − Σ len / (n · max_length)`.
pub fn wasted_flops_fraction(lengths: &[u32], max_length: u32) -> f64 {
    assert!(max_length > 0, "max_length must be positive");
    if lengths.is_empty() {
        return 0.0;
    }
    let useful: u64 = lengths.iter().map(|&l| u64::from(l.min(max_length))).sum();
    let total = lengths.len() as u64 * u64::from(max_length);
    1.0 - useful as f64 / total as f64
}

/// A time-weighted average of a step function, e.g. the number of GPUs in use
/// over a trace (the paper's Fig. 8 reports time-weighted GPU counts).
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    points: Vec<(u64, f64)>, // (timestamp_ns, value-from-here-on)
}

impl TimeWeighted {
    /// Create an empty step function.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the tracked value becomes `value` at time `t` (ns).
    /// Timestamps must be non-decreasing.
    pub fn record(&mut self, t: u64, value: f64) {
        if let Some(&(last_t, last_v)) = self.points.last() {
            assert!(t >= last_t, "timestamps must be non-decreasing");
            if last_v == value {
                return;
            }
            if last_t == t {
                // Same-timestamp update: the new value supersedes the old
                // point, which may make it redundant against the point now
                // exposed as the predecessor.
                self.points.pop();
                if self.points.last().is_some_and(|&(_, v)| v == value) {
                    return;
                }
            }
        }
        self.points.push((t, value));
    }

    /// Time-weighted mean of the step function over `[start, end]`.
    /// Returns `NaN` when no points fall in the window or the window is empty.
    pub fn average(&self, start: u64, end: u64) -> f64 {
        if end <= start || self.points.is_empty() {
            return f64::NAN;
        }
        let mut acc = 0.0;
        let mut covered = 0u64;
        // Value in effect at `start`: last point at or before it.
        let mut current = self
            .points
            .iter()
            .take_while(|&&(t, _)| t <= start)
            .last()
            .map(|&(_, v)| v);
        let mut cursor = start;
        for &(t, v) in self.points.iter().filter(|&&(t, _)| t > start && t < end) {
            if let Some(cv) = current {
                acc += cv * (t - cursor) as f64;
                covered += t - cursor;
            }
            current = Some(v);
            cursor = t;
        }
        if let Some(cv) = current {
            acc += cv * (end - cursor) as f64;
            covered += end - cursor;
        }
        if covered == 0 {
            f64::NAN
        } else {
            acc / covered as f64
        }
    }

    /// Integral of the step function over the *covered* part of
    /// `[start, end]` (value × ns). Time before the first change point
    /// contributes nothing; an empty window or empty function integrates
    /// to zero. Unlike [`TimeWeighted::average`] × window-length, this is
    /// exact when the function starts after `start` — the uncovered prefix
    /// is not extrapolated.
    pub fn integral(&self, start: u64, end: u64) -> f64 {
        if end <= start || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        // Value in effect at `start`: last point at or before it.
        let mut current = self
            .points
            .iter()
            .take_while(|&&(t, _)| t <= start)
            .last()
            .map(|&(_, v)| v);
        let mut cursor = start;
        for &(t, v) in self.points.iter().filter(|&&(t, _)| t > start && t < end) {
            if let Some(cv) = current {
                acc += cv * (t - cursor) as f64;
            }
            current = Some(v);
            cursor = t;
        }
        if let Some(cv) = current {
            acc += cv * (end - cursor) as f64;
        }
        acc
    }

    /// The raw change points `(timestamp_ns, value)`.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 10.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn percentile_empty_and_singleton() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[42.0], 98.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        percentile_of_sorted(&[1.0], 101.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
    }

    #[test]
    fn nan_samples_are_excluded_not_fatal() {
        // Regression: these all used to panic on `partial_cmp().expect(..)`.
        // NaN carries no ordering information, so it is dropped up front and
        // the remaining samples summarize exactly as if it never arrived.
        let dirty = [5.0, f64::NAN, 1.0, 3.0, f64::NAN, 4.0, 2.0];
        let clean = [5.0, 1.0, 3.0, 4.0, 2.0];
        assert_eq!(percentile(&dirty, 50.0), percentile(&clean, 50.0));
        assert_eq!(percentile(&dirty, 98.0), percentile(&clean, 98.0));

        let s = Summary::from_samples(&dirty);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);

        let cdf = Cdf::from_samples(&dirty);
        assert_eq!(cdf.len(), 5);
        assert!((cdf.eval(3.0) - 0.6).abs() < 1e-12);
        assert!(cdf.sorted_samples().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn all_nan_behaves_like_empty() {
        let v = [f64::NAN, f64::NAN];
        assert!(percentile(&v, 50.0).is_nan());
        let s = Summary::from_samples(&v);
        assert_eq!(s.count, 0);
        assert!(s.mean.is_nan() && s.p98.is_nan());
        let cdf = Cdf::from_samples(&v);
        assert!(cdf.is_empty());
        assert!(cdf.eval(1.0).is_nan());
    }

    #[test]
    fn infinities_still_sort_to_the_ends() {
        // total_cmp keeps ±inf ordered; only NaN is filtered.
        let v = [f64::INFINITY, 1.0, f64::NEG_INFINITY, 2.0];
        assert_eq!(percentile(&v, 0.0), f64::NEG_INFINITY);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
        let s = Summary::from_samples(&v);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, f64::NEG_INFINITY);
        assert_eq!(s.max, f64::INFINITY);
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(std_dev(&[]).is_nan());
    }

    #[test]
    fn summary_reports_paper_metrics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::from_samples(&v);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p98 - 98.02).abs() < 1e-9);
    }

    #[test]
    fn from_vec_matches_a_stable_sort_bit_for_bit() {
        let bits = |s: Summary| {
            (
                s.count,
                [s.mean, s.min, s.p50, s.p90, s.p98, s.p99, s.max].map(f64::to_bits),
            )
        };
        // The summary as a stable sort of the samples gives it.
        let stable = |v: &[f64]| {
            let mut sorted: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
            sorted.sort_by(f64::total_cmp);
            Summary {
                count: sorted.len(),
                mean: mean(&sorted),
                min: sorted.first().copied().unwrap_or(f64::NAN),
                p50: percentile_of_sorted(&sorted, 50.0),
                p90: percentile_of_sorted(&sorted, 90.0),
                p98: percentile_of_sorted(&sorted, 98.0),
                p99: percentile_of_sorted(&sorted, 99.0),
                max: sorted.last().copied().unwrap_or(f64::NAN),
            }
        };
        let inputs: [Vec<f64>; 5] = [
            vec![3.0, f64::NAN, 1.0, f64::NAN, 2.0],
            vec![0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0],
            vec![2.5, 1.0, 2.5, 2.5, 1.0, 0.1 + 0.2, 0.3, 2.5],
            (0..1_000)
                .map(|i| f64::from((i * 37) % 101) / 7.0)
                .collect(),
            Vec::new(),
        ];
        for v in inputs {
            let owned = Summary::from_vec(v.clone());
            assert_eq!(bits(owned), bits(Summary::from_samples(&v)), "{v:?}");
            assert_eq!(bits(owned), bits(stable(&v)), "{v:?}");
        }
    }

    #[test]
    fn summary_empty_is_nan() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert!(s.mean.is_nan() && s.p98.is_nan());
    }

    #[test]
    fn cdf_eval_and_quantile() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let cdf = Cdf::from_samples(&samples);
        assert_eq!(cdf.len(), 10);
        assert!((cdf.eval(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(10.0), 1.0);
        assert_eq!(cdf.eval(100.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 10.0);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        let curve = cdf.curve(64);
        assert_eq!(curve.len(), 64);
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0, "x not monotone");
            assert!(w[1].1 >= w[0].1, "q not monotone");
        }
    }

    #[test]
    fn wasted_flops_matches_paper_shape() {
        // All requests of length 25 padded to 125 ⇒ 80% waste, close to the
        // 80.6% the paper reports for a real clip.
        let lengths = vec![25u32; 1000];
        let waste = wasted_flops_fraction(&lengths, 125);
        assert!((waste - 0.8).abs() < 1e-12);
        // No waste when requests already fill the runtime.
        assert_eq!(wasted_flops_fraction(&[125, 125], 125), 0.0);
        // Lengths above max_length are clipped, never negative waste.
        assert!(wasted_flops_fraction(&[500], 125) >= 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.record(0, 5.0);
        tw.record(100, 10.0);
        tw.record(300, 0.0);
        // [0,100): 5, [100,300): 10, [300,400): 0 ⇒ (500+2000+0)/400 = 6.25
        assert!((tw.average(0, 400) - 6.25).abs() < 1e-12);
        // Window fully inside a single segment.
        assert!((tw.average(120, 180) - 10.0).abs() < 1e-12);
        // Degenerate window.
        assert!(tw.average(50, 50).is_nan());
    }

    #[test]
    fn time_weighted_dedupes_same_value() {
        let mut tw = TimeWeighted::new();
        tw.record(0, 3.0);
        tw.record(10, 3.0);
        tw.record(20, 4.0);
        assert_eq!(tw.points().len(), 2);
    }

    #[test]
    fn time_weighted_same_timestamp_update_keeps_dedupe_invariant() {
        // Regression: [(0,3),(10,4)] + record(10,3) used to leave the
        // adjacent duplicate-value points [(0,3),(10,3)] — the pop never
        // re-checked the new predecessor.
        let mut tw = TimeWeighted::new();
        tw.record(0, 3.0);
        tw.record(10, 4.0);
        tw.record(10, 3.0);
        assert_eq!(tw.points(), &[(0, 3.0)]);
        // A same-timestamp update to a genuinely new value still lands.
        tw.record(20, 5.0);
        tw.record(20, 6.0);
        assert_eq!(tw.points(), &[(0, 3.0), (20, 6.0)]);
        // And the invariant holds across every adjacent pair afterwards.
        for w in tw.points().windows(2) {
            assert_ne!(w[0].1, w[1].1, "adjacent duplicate values");
        }
    }

    #[test]
    fn time_weighted_integral_covers_only_known_time() {
        let mut tw = TimeWeighted::new();
        tw.record(100, 2.0);
        tw.record(200, 5.0);
        // [100,200): 2, [200,300): 5 — nothing before t=100.
        assert!((tw.integral(0, 300) - (2.0 * 100.0 + 5.0 * 100.0)).abs() < 1e-9);
        // Window fully inside one segment.
        assert!((tw.integral(120, 150) - 2.0 * 30.0).abs() < 1e-9);
        // Uncovered or degenerate windows integrate to zero.
        assert_eq!(tw.integral(0, 50), 0.0);
        assert_eq!(tw.integral(150, 150), 0.0);
        assert_eq!(TimeWeighted::new().integral(0, 100), 0.0);
    }

    #[test]
    fn time_weighted_window_before_first_point() {
        let mut tw = TimeWeighted::new();
        tw.record(100, 7.0);
        // Nothing known before t=100.
        assert!(tw.average(0, 50).is_nan());
        // Half-covered window: only [100,200) has a value.
        assert!((tw.average(100, 200) - 7.0).abs() < 1e-12);
    }
}
