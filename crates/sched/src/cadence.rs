//! Re-check cadence policies.
//!
//! How often to go back and knock: a fixed interval (IABot's production
//! behaviour), exponential aging (a link that keeps answering the same way
//! earns longer and longer gaps — crawler-style politeness toward stable
//! origins), or a seeded jitter around a base interval (spreads the herd
//! without losing determinism — the jitter is a pure hash of
//! `(seed, url, check#)`, never a clock or a global RNG).

use permadead_net::Duration;
use permadead_url::fnv1a;
use std::fmt;

/// Aging stretches the interval by ×2 per stable check, capped at this many
/// doublings (base × 8).
const AGING_MAX_DOUBLINGS: u32 = 3;

/// A re-check interval policy. All variants are pure: the next delay depends
/// only on the watcher's own history, never on wall clocks or shared state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cadence {
    /// Re-check every `every`, forever.
    Fixed { every: Duration },
    /// Start at `base`; every consecutive same-outcome check doubles the
    /// interval (up to ×8). Any outcome flip snaps back to `base`.
    Aging { base: Duration },
    /// `base` ±25%, drawn from a hash of `(seed, url, check#)`.
    Jitter { base: Duration, seed: u64 },
}

impl Cadence {
    /// Parse a CLI spec: `fixed[:DAYS]`, `aging[:DAYS]`, or `jitter[:DAYS]`
    /// (DAYS defaults to 1). `seed` feeds the jitter variant only.
    pub fn parse(spec: &str, seed: u64) -> Result<Cadence, String> {
        let (kind, days) = match spec.split_once(':') {
            Some((k, d)) => {
                let days: i64 = d
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("cadence {spec:?}: interval must be a positive day count"))?;
                (k, days)
            }
            None => (spec, 1),
        };
        let base = Duration::days(days);
        match kind {
            "fixed" => Ok(Cadence::Fixed { every: base }),
            "aging" => Ok(Cadence::Aging { base }),
            "jitter" => Ok(Cadence::Jitter { base, seed }),
            other => Err(format!(
                "unknown cadence {other:?} (expected fixed[:DAYS], aging[:DAYS], or jitter[:DAYS])"
            )),
        }
    }

    /// The delay until a watcher's next check, given its current stability
    /// streak and how many checks it has seen. Never shorter than a second
    /// (a zero delay would let one watcher re-enter the same batch forever).
    pub fn next_delay(&self, url: &str, stable_streak: u32, checks: u64) -> Duration {
        let secs = match *self {
            Cadence::Fixed { every } => every.as_seconds(),
            Cadence::Aging { base } => {
                base.as_seconds() << stable_streak.min(AGING_MAX_DOUBLINGS)
            }
            Cadence::Jitter { base, seed } => {
                // pure draw in [0, 1): splitmix-style fold of the identity
                let mut h = seed ^ fnv1a(url.as_bytes()) ^ checks.wrapping_mul(0x9E3779B97F4A7C15);
                h ^= h >> 30;
                h = h.wrapping_mul(0xBF58476D1CE4E5B9);
                h ^= h >> 27;
                let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
                // ±25% around base
                (base.as_seconds() as f64 * (0.75 + 0.5 * frac)) as i64
            }
        };
        Duration::seconds(secs.max(1))
    }
}

impl fmt::Display for Cadence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Cadence::Fixed { every } => write!(f, "fixed:{}d", every.as_days()),
            Cadence::Aging { base } => write!(f, "aging:{}d", base.as_days()),
            Cadence::Jitter { base, .. } => write!(f, "jitter:{}d", base.as_days()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_variants_and_defaults_to_one_day() {
        assert_eq!(
            Cadence::parse("fixed", 0).unwrap(),
            Cadence::Fixed { every: Duration::days(1) }
        );
        assert_eq!(
            Cadence::parse("fixed:7", 0).unwrap(),
            Cadence::Fixed { every: Duration::days(7) }
        );
        assert_eq!(
            Cadence::parse("aging:2", 0).unwrap(),
            Cadence::Aging { base: Duration::days(2) }
        );
        assert!(matches!(
            Cadence::parse("jitter:3", 9).unwrap(),
            Cadence::Jitter { base, seed: 9 } if base == Duration::days(3)
        ));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cadence::parse("hourly", 0).is_err());
        assert!(Cadence::parse("fixed:0", 0).is_err());
        assert!(Cadence::parse("fixed:-2", 0).is_err());
        assert!(Cadence::parse("fixed:x", 0).is_err());
    }

    #[test]
    fn fixed_ignores_history() {
        let c = Cadence::parse("fixed:2", 0).unwrap();
        assert_eq!(c.next_delay("u", 0, 1), Duration::days(2));
        assert_eq!(c.next_delay("u", 9, 55), Duration::days(2));
    }

    #[test]
    fn aging_doubles_with_stability_and_caps() {
        let c = Cadence::Aging { base: Duration::days(1) };
        assert_eq!(c.next_delay("u", 0, 1), Duration::days(1));
        assert_eq!(c.next_delay("u", 1, 2), Duration::days(2));
        assert_eq!(c.next_delay("u", 2, 3), Duration::days(4));
        assert_eq!(c.next_delay("u", 3, 4), Duration::days(8));
        assert_eq!(c.next_delay("u", 30, 31), Duration::days(8), "capped at x8");
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_varies() {
        let c = Cadence::Jitter { base: Duration::days(4), seed: 42 };
        let lo = Duration::days(3); // 4d - 25%
        let hi = Duration::days(5); // 4d + 25%
        let mut distinct = std::collections::HashSet::new();
        for check in 0..50u64 {
            let d = c.next_delay("http://a.org/x", 0, check);
            assert_eq!(d, c.next_delay("http://a.org/x", 0, check), "same draw twice");
            assert!(d >= lo && d <= hi, "{d:?} out of ±25% band");
            distinct.insert(d.as_seconds());
        }
        assert!(distinct.len() > 10, "jitter should actually spread");
        // different URLs draw differently
        assert_ne!(
            c.next_delay("http://a.org/x", 0, 0),
            c.next_delay("http://b.org/y", 0, 0)
        );
    }

    #[test]
    fn delays_never_hit_zero() {
        // a pathological 1-second jitter base must still move time forward
        let c = Cadence::Jitter { base: Duration::seconds(1), seed: 1 };
        for check in 0..20u64 {
            assert!(c.next_delay("u", 0, check) >= Duration::seconds(1));
        }
    }

    #[test]
    fn display_round_trips_the_spec() {
        for spec in ["fixed:1d", "aging:2d", "jitter:3d"] {
            let parsed = Cadence::parse(spec.trim_end_matches('d'), 7).unwrap();
            assert_eq!(parsed.to_string(), spec);
        }
    }
}
