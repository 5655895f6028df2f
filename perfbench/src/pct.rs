//! Nearest-rank percentiles, kept in the benchmark so a change to the
//! program's statistics code cannot change how it is measured.

/// Percentiles as tenths of a percent, so ranks come from integer
/// arithmetic (`0.99 * 1000.0` is not exactly 990 in floating point).
fn rank(n: usize, p_tenths: u64) -> usize {
    let r = (p_tenths * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n)
}

/// The nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    sorted[rank(sorted.len(), (p * 10.0).round() as u64) - 1]
}

/// Sort a copy and take its nearest-rank percentile.
pub fn of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

pub fn median(values: &[f64]) -> f64 {
    of(values, 50.0)
}

/// The highest of p99.9, p99, p95, p90 and p75 that leaves at least ten
/// samples above its rank, as `(percentile, value)`. `None` below forty
/// samples, where no such percentile would describe a tail.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 40 {
        return None;
    }
    [999u64, 990, 950, 900, 750].into_iter().find_map(|p| {
        let r = rank(n, p);
        (n - r >= 10).then(|| (p as f64 / 10.0, sorted[r - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v = one_to(10);
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        let v = one_to(1000);
        assert_eq!(nearest_rank(&v, 99.0), 990.0);
        assert_eq!(nearest_rank(&v, 99.9), 999.0);
        assert_eq!(nearest_rank(&[4.0], 50.0), 4.0);
    }

    #[test]
    fn of_sorts_its_input() {
        assert_eq!(of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[9.0, 7.0, 8.0, 6.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&one_to(39)), None);
        assert_eq!(tail(&one_to(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&one_to(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&one_to(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&one_to(9999)), Some((99.0, 9900.0)));
        assert_eq!(tail(&one_to(10_000)), Some((99.9, 9990.0)));
    }
}
