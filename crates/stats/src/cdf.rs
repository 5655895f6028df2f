//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
///
/// Construction sorts the samples once; evaluation is a binary search.
/// NaNs are rejected at construction (they have no place on any axis of the
/// paper's figures).
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples. Panics on NaN — unlike [`crate::percentile`],
    /// which silently ignores NaNs, a CDF's sample count is part of its
    /// meaning (every `eval` divides by it), so dropping points here would
    /// quietly reshape a figure. The sort itself uses the IEEE-754 total
    /// order and cannot panic.
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in CDF input"
        );
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` = fraction of samples ≤ x. Zero for an empty CDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (q in `[0,1]`), by the nearest-rank method.
    /// Panics when empty or q out of range.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The full step function as `(x, F(x))` points, one per distinct value.
    /// This is what the repro binaries print for each figure.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n as f64));
            i = j;
        }
        out
    }

    /// Evaluate at a fixed grid (for compact series comparison).
    pub fn sample_at(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter().map(|&x| (x, self.eval(x))).collect()
    }

    /// Kolmogorov–Smirnov distance to another CDF — used by tests that
    /// compare the March-style and September-style samples ("largely
    /// identical" distributions, §2.4).
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        let mut xs: Vec<f64> = self
            .sorted
            .iter()
            .chain(other.sorted.iter())
            .copied()
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        xs.iter()
            .map(|&x| (self.eval(x) - other.eval(x)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_basics() {
        let c = Cdf::new(vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.0), 0.75);
        assert_eq!(c.eval(3.0), 0.75);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(99.0), 1.0);
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
        assert_eq!(c.min(), None);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::new((1..=100).map(f64::from).collect());
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.01), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn points_step_function() {
        let c = Cdf::new(vec![1.0, 1.0, 3.0]);
        assert_eq!(c.points(), vec![(1.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn ks_distance_identical_zero() {
        let a = Cdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&a.clone()), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_one() {
        let a = Cdf::new(vec![1.0, 2.0]);
        let b = Cdf::new(vec![10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    proptest! {
        #[test]
        fn monotone_and_bounded(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let c = Cdf::new(xs.clone());
            let mut prev = 0.0;
            for x in &xs {
                let f = c.eval(*x);
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(f >= prev);
                prev = f;
            }
            prop_assert_eq!(c.eval(f64::INFINITY), 1.0);
        }

        #[test]
        fn quantile_eval_consistency(xs in proptest::collection::vec(0f64..100.0, 1..40), q in 0.01f64..1.0) {
            let c = Cdf::new(xs);
            let v = c.quantile(q);
            // at least q of the mass is ≤ quantile(q)
            prop_assert!(c.eval(v) + 1e-9 >= q);
        }

        #[test]
        fn ks_symmetric(a in proptest::collection::vec(0f64..10.0, 1..20), b in proptest::collection::vec(0f64..10.0, 1..20)) {
            let ca = Cdf::new(a);
            let cb = Cdf::new(b);
            prop_assert!((ca.ks_distance(&cb) - cb.ks_distance(&ca)).abs() < 1e-12);
        }
    }
}
