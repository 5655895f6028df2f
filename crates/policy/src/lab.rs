//! The fault lab: scripted link populations with known ground truth.
//!
//! The paper could only characterize links *after* IABot tagged them —
//! nobody knows how many deaths IABot missed or how many tags were
//! premature. Here the simulator writes the script, so every link's true
//! fate is known and a policy's tags can be scored: precision (tags that
//! were really permanent deaths), recall (permanent deaths that got
//! tagged), time-to-tag, wasted checks, and resurrection misses.
//!
//! Each [`GroundTruth`] is a pure function `(day, url, seed) → up?`:
//! deterministic, jobs-independent, and identical for every policy under
//! test — the whole point is that all policies replay the *same* fault
//! timeline.

use permadead_url::{fnv1a, Url};

/// The scripted fate of one lab link. Days are offsets from the lab start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundTruth {
    /// Never dies; individual checks fail with `noise_pct`% probability
    /// (transient 5xx, timeouts) — the false-positive bait.
    AliveForever { noise_pct: u8 },
    /// Hard death at `day`: every check from then on fails.
    DeadFrom { day: u32 },
    /// Degrades from `onset_day` (failure probability ramps linearly up)
    /// until the hard death at `dead_day`.
    SlowDeath { onset_day: u32, dead_day: u32 },
    /// Periodic outage: each cycle of `period_days` ends with `dead_days`
    /// consecutive down days. Never permanently dead.
    Flapping { period_days: u32, dead_days: u32 },
    /// Dies at `dead_day`, comes back for good at `revive_day` — the
    /// resurrection (§3's ~3% "genuinely alive again" population).
    Reviving { dead_day: u32, revive_day: u32 },
}

impl GroundTruth {
    /// Is the link up on `day`? Pure in `(day, url, seed)`.
    pub fn up_on_day(&self, day: u32, url: &Url, seed: u64) -> bool {
        match *self {
            GroundTruth::AliveForever { noise_pct } => {
                !noise_draw(url, day, seed, u32::from(noise_pct))
            }
            GroundTruth::DeadFrom { day: d } => day < d,
            GroundTruth::SlowDeath { onset_day, dead_day } => {
                if day < onset_day {
                    true
                } else if day >= dead_day {
                    false
                } else {
                    // failure probability ramps 0% → 100% across the window
                    let window = (dead_day - onset_day).max(1);
                    let pct = (day - onset_day) * 100 / window;
                    !noise_draw(url, day, seed, pct)
                }
            }
            GroundTruth::Flapping { period_days, dead_days } => {
                let period = period_days.max(1);
                day % period < period.saturating_sub(dead_days)
            }
            GroundTruth::Reviving { dead_day, revive_day } => {
                day < dead_day || day >= revive_day
            }
        }
    }

    /// Is the link permanently dead as of `day` — down now *and* forever
    /// after? This is the ground truth a tag is scored against.
    pub fn permanently_dead_at(&self, day: u32) -> bool {
        match *self {
            GroundTruth::AliveForever { .. } => false,
            GroundTruth::DeadFrom { day: d } => day >= d,
            GroundTruth::SlowDeath { dead_day, .. } => day >= dead_day,
            GroundTruth::Flapping { .. } => false,
            GroundTruth::Reviving { dead_day, revive_day } => {
                // dead during the outage window only if it never ends
                day >= dead_day && revive_day == u32::MAX
            }
        }
    }

    /// The first day of permanent death, if the script has one.
    pub fn death_day(&self) -> Option<u32> {
        match *self {
            GroundTruth::DeadFrom { day } => Some(day),
            GroundTruth::SlowDeath { dead_day, .. } => Some(dead_day),
            _ => None,
        }
    }

    /// Does the script ever revive a tagged-worthy outage?
    pub fn revives(&self) -> bool {
        matches!(self, GroundTruth::Reviving { .. })
    }
}

/// One lab link: a URL and its scripted fate.
#[derive(Debug, Clone)]
pub struct LabLink {
    pub url: Url,
    pub truth: GroundTruth,
}

/// The scoreboard's fault profiles, in table order.
pub const PROFILES: [&str; 3] = ["stable", "flapping", "slow-death"];

/// Deterministic Bernoulli draw: true with `pct`% probability, keyed on
/// `(url, day, seed)` so every policy replays the identical timeline.
fn noise_draw(url: &Url, day: u32, seed: u64, pct: u32) -> bool {
    if pct == 0 {
        return false;
    }
    let mut h = fnv1a(url.host().as_bytes());
    h ^= fnv1a(url.path().as_bytes()).rotate_left(21);
    h ^= seed.wrapping_mul(0x9e3779b97f4a7c15);
    h = h.wrapping_add(u64::from(day)).wrapping_mul(0x100000001b3);
    h ^= h >> 29;
    (h % 100) < u64::from(pct)
}

/// A small deterministic parameter stream per link index.
fn param(profile: &str, i: usize, salt: u64, seed: u64, lo: u32, hi: u32) -> u32 {
    let mut h = fnv1a(profile.as_bytes());
    h ^= seed.rotate_left(17);
    h = h.wrapping_add(i as u64).wrapping_mul(0x100000001b3);
    h ^= salt.wrapping_mul(0x9e3779b97f4a7c15);
    h ^= h >> 31;
    lo + (h % u64::from(hi - lo + 1)) as u32
}

fn link(profile: &str, i: usize, truth: GroundTruth) -> LabLink {
    let url = Url::parse(&format!("http://{profile}{i}.lab/x"))
        .expect("lab URLs are well-formed");
    LabLink { url, truth }
}

/// Build one profile's population (~120 links). Pure in `(name, seed)`.
///
/// * `stable` — mostly-reliable web: 70 immortal links with 8% transient
///   noise + 50 clean hard deaths. Tests precision against noise and
///   baseline recall.
/// * `flapping` — the pathological middle: 60 periodic flappers + 30
///   revivers + 30 hard deaths. Tests false tags on outages and
///   resurrection handling.
/// * `slow-death` — links that fade: 60 linear degradations + 30 immortal
///   (5% noise) + 30 hard deaths. Tests time-to-tag on ambiguous decline.
pub fn profile_links(name: &str, seed: u64) -> Vec<LabLink> {
    let mut links = Vec::new();
    match name {
        "stable" => {
            for i in 0..70 {
                links.push(link(name, i, GroundTruth::AliveForever { noise_pct: 8 }));
            }
            for i in 70..120 {
                let day = param(name, i, 1, seed, 5, 25);
                links.push(link(name, i, GroundTruth::DeadFrom { day }));
            }
        }
        "flapping" => {
            for i in 0..60 {
                let period_days = param(name, i, 2, seed, 6, 12);
                let dead_days = param(name, i, 3, seed, 2, 4);
                links.push(link(name, i, GroundTruth::Flapping { period_days, dead_days }));
            }
            for i in 60..90 {
                let dead_day = param(name, i, 4, seed, 5, 15);
                let revive_day = dead_day + param(name, i, 5, seed, 5, 15);
                links.push(link(name, i, GroundTruth::Reviving { dead_day, revive_day }));
            }
            for i in 90..120 {
                let day = param(name, i, 6, seed, 5, 25);
                links.push(link(name, i, GroundTruth::DeadFrom { day }));
            }
        }
        "slow-death" => {
            for i in 0..60 {
                let onset_day = param(name, i, 7, seed, 5, 15);
                let dead_day = onset_day + param(name, i, 8, seed, 5, 15);
                links.push(link(name, i, GroundTruth::SlowDeath { onset_day, dead_day }));
            }
            for i in 60..90 {
                links.push(link(name, i, GroundTruth::AliveForever { noise_pct: 5 }));
            }
            for i in 90..120 {
                let day = param(name, i, 9, seed, 5, 25);
                links.push(link(name, i, GroundTruth::DeadFrom { day }));
            }
        }
        other => panic!("unknown lab profile {other:?} (have {PROFILES:?})"),
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_deterministic_and_sized() {
        for name in PROFILES {
            let a = profile_links(name, 42);
            let b = profile_links(name, 42);
            assert_eq!(a.len(), 120, "{name}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.url.to_string(), y.url.to_string());
                assert_eq!(x.truth, y.truth);
            }
            // a different seed perturbs at least one scripted parameter
            let c = profile_links(name, 43);
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.truth != y.truth),
                "{name}: seed had no effect"
            );
        }
    }

    #[test]
    fn dead_from_is_permanent() {
        let t = GroundTruth::DeadFrom { day: 10 };
        let url = Url::parse("http://x.lab/x").unwrap();
        for day in 0..10 {
            assert!(t.up_on_day(day, &url, 1));
            assert!(!t.permanently_dead_at(day));
        }
        for day in 10..40 {
            assert!(!t.up_on_day(day, &url, 1));
            assert!(t.permanently_dead_at(day));
        }
        assert_eq!(t.death_day(), Some(10));
    }

    #[test]
    fn flapping_cycles_and_never_permanently_dies() {
        let t = GroundTruth::Flapping { period_days: 7, dead_days: 2 };
        let url = Url::parse("http://x.lab/x").unwrap();
        for day in 0..28 {
            assert_eq!(t.up_on_day(day, &url, 1), day % 7 < 5, "day {day}");
            assert!(!t.permanently_dead_at(day));
        }
        assert_eq!(t.death_day(), None);
    }

    #[test]
    fn reviving_comes_back_for_good() {
        let t = GroundTruth::Reviving { dead_day: 5, revive_day: 12 };
        let url = Url::parse("http://x.lab/x").unwrap();
        assert!(t.up_on_day(4, &url, 1));
        assert!(!t.up_on_day(5, &url, 1));
        assert!(!t.up_on_day(11, &url, 1));
        assert!(t.up_on_day(12, &url, 1));
        assert!(t.up_on_day(400, &url, 1));
        assert!(!t.permanently_dead_at(30));
        assert!(t.revives());
    }

    #[test]
    fn slow_death_ramps_into_permanence() {
        let t = GroundTruth::SlowDeath { onset_day: 10, dead_day: 20 };
        let url = Url::parse("http://x.lab/x").unwrap();
        for day in 0..10 {
            assert!(t.up_on_day(day, &url, 7), "pre-onset day {day} must be up");
        }
        for day in 20..40 {
            assert!(!t.up_on_day(day, &url, 7), "post-death day {day} must be down");
        }
        assert!(t.permanently_dead_at(20));
        assert!(!t.permanently_dead_at(19));
    }

    #[test]
    fn noise_is_a_function_of_url_day_seed() {
        let url = Url::parse("http://noisy.lab/x").unwrap();
        let t = GroundTruth::AliveForever { noise_pct: 50 };
        let a: Vec<bool> = (0..100).map(|d| t.up_on_day(d, &url, 9)).collect();
        let b: Vec<bool> = (0..100).map(|d| t.up_on_day(d, &url, 9)).collect();
        assert_eq!(a, b);
        let ups = a.iter().filter(|&&u| u).count();
        assert!((20..=80).contains(&ups), "50% noise gave {ups}/100 up days");
    }
}
