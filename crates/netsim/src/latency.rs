//! Deterministic latency model.
//!
//! §4.1's central finding is an artifact of latency: IABot queries the
//! Wayback Availability API with a client-side timeout, and when the API
//! responds slowly the bot concludes "never archived". To reproduce that we
//! need response latencies with a realistic heavy tail, generated
//! deterministically from `(seed, request key, time)` so runs are replayable.
//!
//! The model is log-normal (median `m`, shape `sigma`) plus a Pareto-ish
//! tail: with probability `tail_p`, the draw is multiplied by a factor in
//! `[tail_min_factor, tail_max_factor]`. Log-normals fit measured service
//! latency well in practice, and the explicit tail knob lets ablations dial
//! the timeout-miss rate (EXPERIMENTS.md §7).

use permadead_url::fnv1a;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Milliseconds of simulated latency.
pub type Millis = u64;

/// A deterministic latency distribution.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    seed: u64,
    /// Median latency, ms.
    pub median_ms: f64,
    /// Log-normal shape parameter.
    pub sigma: f64,
    /// Probability of a heavy-tail event.
    pub tail_p: f64,
    /// Multiplier range for tail events.
    pub tail_factor: (f64, f64),
}

impl LatencyModel {
    /// A model shaped like a public lookup API under load: 300 ms median
    /// with occasional multi-second stalls.
    pub fn lookup_api(seed: u64) -> Self {
        LatencyModel {
            seed,
            median_ms: 300.0,
            sigma: 0.8,
            tail_p: 0.15,
            tail_factor: (8.0, 60.0),
        }
    }

    /// A fast, well-behaved service (used for origin servers).
    pub fn origin(seed: u64) -> Self {
        LatencyModel {
            seed,
            median_ms: 120.0,
            sigma: 0.5,
            tail_p: 0.02,
            tail_factor: (4.0, 20.0),
        }
    }

    pub fn with_median(mut self, ms: f64) -> Self {
        self.median_ms = ms;
        self
    }

    pub fn with_tail(mut self, p: f64, lo: f64, hi: f64) -> Self {
        self.tail_p = p;
        self.tail_factor = (lo, hi);
        self
    }

    /// Latency for one request, identified by an arbitrary key and a nonce
    /// (e.g. the request time). Same inputs ⇒ same latency.
    pub fn sample(&self, key: &str, nonce: u64) -> Millis {
        let h = fnv1a(key.as_bytes()) ^ nonce.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ h);
        // log-normal via Box–Muller on two uniform draws
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let mut ms = self.median_ms * (self.sigma * z).exp();
        if rng.gen_bool(self.tail_p.clamp(0.0, 1.0)) {
            ms *= rng.gen_range(self.tail_factor.0..=self.tail_factor.1);
        }
        ms.round().max(1.0) as Millis
    }

    /// Would a request with this key/nonce exceed a client timeout of
    /// `timeout_ms`? This is the exact predicate IABot's availability lookup
    /// evaluates (§4.1).
    pub fn exceeds_timeout(&self, key: &str, nonce: u64, timeout_ms: Millis) -> bool {
        self.sample(key, nonce) > timeout_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let m = LatencyModel::lookup_api(42);
        assert_eq!(m.sample("k", 1), m.sample("k", 1));
        let other = LatencyModel::lookup_api(43);
        // different seed almost surely differs for some key
        assert!((0..64).any(|i| m.sample("k", i) != other.sample("k", i)));
    }

    #[test]
    fn median_is_roughly_right() {
        let m = LatencyModel::lookup_api(7).with_tail(0.0, 1.0, 1.0);
        let mut samples: Vec<u64> = (0..2000).map(|i| m.sample("key", i)).collect();
        samples.sort();
        let med = samples[samples.len() / 2] as f64;
        assert!((150.0..600.0).contains(&med), "median {med}");
    }

    #[test]
    fn tail_events_occur_at_configured_rate() {
        let m = LatencyModel::lookup_api(7);
        let timeout = 5_000; // ms
        let misses = (0..5000u64).filter(|&i| m.exceeds_timeout("k", i, timeout)).count();
        let rate = misses as f64 / 5000.0;
        // with tail_p = 0.15 and factors 8–60x off a 300ms median, a 5s
        // timeout should trip on a noticeable but minority fraction
        assert!((0.02..0.30).contains(&rate), "rate {rate}");
    }

    #[test]
    fn no_tail_rarely_exceeds_generous_timeout() {
        let m = LatencyModel::origin(7).with_tail(0.0, 1.0, 1.0);
        let misses = (0..2000u64).filter(|&i| m.exceeds_timeout("k", i, 10_000)).count();
        assert!(misses < 5, "{misses}");
    }

    #[test]
    fn latency_is_positive() {
        let m = LatencyModel::origin(1);
        for i in 0..200 {
            assert!(m.sample("x", i) >= 1);
        }
    }
}
