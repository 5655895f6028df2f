//! Per-host politeness token buckets.
//!
//! A flapping host under an aggressive cadence would otherwise soak up the
//! whole check budget (every one of its links re-queues daily, forever).
//! This is the `OriginLedger` pattern from `permadead-serve` applied to
//! scheduling: FNV-1a-sharded per-host maps behind short mutexes, `&self`
//! admission so concurrent pumps never contend on one lock — except here
//! the unit is *checks per UTC day* instead of retry-backoff milliseconds.
//!
//! A refused check is not dropped: the scheduler defers it to the next UTC
//! midnight, where it competes again under a fresh bucket.

use parking_lot::Mutex;
use permadead_net::SimTime;
use permadead_url::fnv1a;
use std::collections::HashMap;

const SHARDS: usize = 16;

#[derive(Default)]
struct Bucket {
    /// UTC day (unix days) the count below belongs to.
    day: i64,
    served: u32,
}

/// Sharded per-host daily check budget.
pub struct HostBudget {
    per_day: u32,
    shards: Vec<Mutex<HashMap<String, Bucket>>>,
}

impl HostBudget {
    /// `per_day` is clamped to at least 1 — a zero budget would defer every
    /// check to a midnight that refuses it again, forever.
    pub fn new(per_day: u32) -> HostBudget {
        HostBudget {
            per_day: per_day.max(1),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, host: &str) -> &Mutex<HashMap<String, Bucket>> {
        &self.shards[(fnv1a(host.as_bytes()) % SHARDS as u64) as usize]
    }

    /// Admit one check against `host` at `t`? Admission charges the day's
    /// bucket; a new day resets it (only the current day is ever tracked,
    /// so the map never grows with time, only with distinct hosts).
    pub fn admit(&self, host: &str, t: SimTime) -> bool {
        let day = t.as_unix().div_euclid(86_400);
        let mut shard = self.shard(host).lock();
        let bucket = shard.entry(host.to_string()).or_default();
        if bucket.day != day {
            bucket.day = day;
            bucket.served = 0;
        }
        if bucket.served < self.per_day {
            bucket.served += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::Duration;

    fn noon(d: i64) -> SimTime {
        SimTime::from_ymd(2022, 3, 1) + Duration::days(d) + Duration::hours(12)
    }

    #[test]
    fn budget_caps_one_host_per_day() {
        let b = HostBudget::new(2);
        assert!(b.admit("a.org", noon(0)));
        assert!(b.admit("a.org", noon(0)));
        assert!(!b.admit("a.org", noon(0)), "third check the same day refused");
        // an unrelated host has its own bucket
        assert!(b.admit("b.org", noon(0)));
    }

    #[test]
    fn a_new_day_refills_the_bucket() {
        let b = HostBudget::new(1);
        assert!(b.admit("a.org", noon(0)));
        assert!(!b.admit("a.org", noon(0)));
        assert!(b.admit("a.org", noon(1)), "midnight refills");
    }

    #[test]
    fn zero_budget_is_clamped_to_one() {
        let b = HostBudget::new(0);
        assert!(b.admit("a.org", noon(0)), "clamp guarantees progress");
        assert!(!b.admit("a.org", noon(0)));
    }

    #[test]
    fn hosts_spread_over_shards() {
        let b = HostBudget::new(1);
        for i in 0..64 {
            assert!(b.admit(&format!("h{i}.example.org"), noon(0)));
        }
        let occupied = b.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(occupied > 4, "only {occupied}/16 shards used");
    }
}
