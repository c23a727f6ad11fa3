//! Percentiles, medians and the quartile spread every reported metric
//! carries.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is the function the
//! acceptance check for this benchmark is written against: a spread
//! computed here and one computed by the check agree to the last digit.

/// Linear-interpolated percentile (`p` in 0..=100) of ascending `sorted`
/// (`f64`s, or the `u32` nanosecond samples the RTT and lag vectors are
/// kept as to stay small at hundreds of thousands per repetition). Empty
/// input yields 0.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0].into(),
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let (at_lo, at_hi): (f64, f64) = (sorted[lo].into(), sorted[hi].into());
            at_lo + (at_hi - at_lo) * (rank - lo as f64)
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts). Empty
/// input yields 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` exactly as `statistics.quantiles(values, n=4)` returns
/// them. Needs at least two values; fewer yield the single value thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median: the run-to-run spread a
/// metric is reported with. 0 when the median is 0 or there is one value.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, _, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Mean of the lowest 99 % of `samples` (sorted in place). The layer walk
/// uses it for per-call times: one preemption inside a 30 ns span would
/// otherwise move the mean of 100k calls by tens of nanoseconds.
pub fn trimmed_mean(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let keep = ((samples.len() as f64) * 0.99).ceil().max(1.0) as usize;
    let kept = &samples[..keep.min(samples.len())];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 50.0), 30.0);
        assert_eq!(percentile_sorted(&v, 100.0), 50.0);
        assert_eq!(percentile_sorted(&v, 25.0), 20.0);
        assert!((percentile_sorted(&v, 90.0) - 46.0).abs() < 1e-9);
        assert_eq!(percentile_sorted::<f64>(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn integer_samples_interpolate_like_floats() {
        let sorted: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 499.5);
        assert_eq!(percentile_sorted(&sorted, 99.0), 989.01);
        assert_eq!(percentile_sorted(&sorted, 100.0), 999.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 2.0, 7.0, 4.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(spread(&[100.0; 5]), 0.0);
        assert_eq!(spread(&[42.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn trimmed_mean_ignores_the_top_percent() {
        let mut v = vec![10.0; 199];
        v.push(1_000_000.0);
        assert_eq!(trimmed_mean(&mut v), 10.0);
        assert_eq!(trimmed_mean(&mut []), 0.0);
    }
}
