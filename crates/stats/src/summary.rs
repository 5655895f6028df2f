//! Scalar summaries.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median by nearest-rank (lower of the two middles for even lengths).
/// Panics on empty input.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The nearest-rank rule: the value at quantile `q` (in `[0, 1]`) of an
/// ascending-sorted slice is the smallest sample with at least a `q` share
/// of the samples at or below it — rank `ceil(q·n)`, clamped to `1..=n`.
/// `None` for an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// p-th percentile by [`nearest_rank`]. `p` in `[0, 100]`.
///
/// NaN policy: NaN samples are ignored — the percentile is taken over the
/// remaining ordered values, the same way a figure ignores a point it
/// cannot place on an axis. (The old `partial_cmp().expect("no NaNs")`
/// sort aborted the whole report instead; `f64::total_cmp` keeps the sort
/// total.) Panics when no non-NaN sample remains, including empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    assert!(!v.is_empty(), "percentile of empty slice");
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p / 100.0).expect("non-empty")
}

/// `numerator / denominator` as a fraction, 0 when the denominator is 0.
pub fn fraction(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Render a fraction as a percentage string ("15.3%").
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0); // lower middle
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
    }

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.001), Some(1));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7u64], 0.999), Some(7));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn percentile_ignores_nan_samples() {
        // Regression: this input used to panic inside sort_by via
        // `partial_cmp().expect("no NaNs")`.
        let v = [f64::NAN, 3.0, 1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_all_nan_panics() {
        percentile(&[f64::NAN, f64::NAN], 50.0);
    }

    #[test]
    fn fraction_handles_zero_denominator() {
        assert_eq!(fraction(1, 0), 0.0);
        assert_eq!(fraction(3, 4), 0.75);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.153), "15.3%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
