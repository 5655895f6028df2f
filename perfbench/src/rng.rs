//! Seeded input generation. The benchmark keeps its own generator so that
//! its inputs for a given `--seed` never change with the program's RNG.

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Exponential inter-arrival gap, seconds, for a Poisson process.
    pub fn exp_gap(&mut self, rate_hz: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_hz
    }
}

/// Draws indices with fixed weights by inverse-CDF lookup.
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: &[f64]) -> Weighted {
        let mut total = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        Weighted { cumulative }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("no weights");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }

    #[test]
    fn weighted_pick_follows_weights() {
        let w = Weighted::new(&[0.0, 3.0, 1.0]);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[w.pick(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 2 * counts[2], "{counts:?}");
    }
}
