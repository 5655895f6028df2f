//! Fault injection.
//!
//! The paper is careful about confounders: a timeout or a 403 "is hard to
//! tell" apart from true death — the service may be temporarily down, rate
//! limiting, or geo-blocking the measurement vantage (§3, citing the CDN
//! geo-blocking study). The simulated web reproduces those behaviours so the
//! pipeline's "Timeout"/"Other" buckets are populated for the right reasons,
//! and so tests can inject adversity deliberately (smoltcp-style fault
//! options).

use crate::http::Vantage;
use crate::time::SimTime;
use parking_lot::Mutex;
use permadead_url::fnv1a;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Per-origin fault behaviour. All probabilities are evaluated
/// deterministically from `(origin seed, url, day)` so that a re-fetch on the
/// same day reproduces the same outcome, while fetches months apart can
/// differ — exactly the property behind "links that were dysfunctional in
/// the past work fine today".
#[derive(Debug, Clone)]
pub struct FaultProfile {
    seed: u64,
    /// Probability that any request experiences a connect timeout that day.
    pub timeout_p: f64,
    /// Probability of answering 503 instead of the real response that day.
    pub unavailable_p: f64,
    /// Vantages that receive 403 Forbidden for every request.
    pub geo_blocked: Vec<Vantage>,
    /// If set, requests beyond this many per day answer 429.
    pub daily_rate_limit: Option<DailyRateLimiter>,
    /// Deterministic fault windows: within `[from, to)` every request hits
    /// `fault`. Used to script outages that cover a bot sweep (the paper's
    /// links that were "dysfunctional in the past but functional now").
    pub windows: Vec<FaultWindow>,
}

/// A scripted fault interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    pub from: SimTime,
    pub to: SimTime,
    pub fault: Fault,
}

impl FaultProfile {
    /// A well-behaved origin: no faults.
    pub fn none(seed: u64) -> Self {
        FaultProfile {
            seed,
            timeout_p: 0.0,
            unavailable_p: 0.0,
            geo_blocked: Vec::new(),
            daily_rate_limit: None,
            windows: Vec::new(),
        }
    }

    /// The seed the probabilistic faults draw from (for serialization; a
    /// profile round-trips through [`FaultProfile::none`] + the builders).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Script a fault for every request in `[from, to)`.
    pub fn with_window(mut self, from: SimTime, to: SimTime, fault: Fault) -> Self {
        self.windows.push(FaultWindow { from, to, fault });
        self
    }

    /// Answer at most `per_day` requests per day; the rest get 429.
    pub fn with_daily_rate_limit(mut self, per_day: u32) -> Self {
        self.daily_rate_limit = Some(DailyRateLimiter::new(per_day));
        self
    }

    pub fn with_timeouts(mut self, p: f64) -> Self {
        self.timeout_p = p;
        self
    }

    pub fn with_unavailable(mut self, p: f64) -> Self {
        self.unavailable_p = p;
        self
    }

    pub fn with_geo_block(mut self, vantages: &[Vantage]) -> Self {
        self.geo_blocked = vantages.to_vec();
        self
    }

    /// The fault, if any, this request hits. Evaluated before the origin's
    /// real handler.
    pub fn check(&self, url_key: &str, vantage: Vantage, t: SimTime) -> Option<Fault> {
        self.check_attempt(url_key, vantage, t, 0)
    }

    /// Like [`check`](Self::check), but for the `attempt`-th retry of the
    /// same request. Geo-blocks, scripted windows and the rate limiter are
    /// attempt-independent (a 403 does not clear on retry; every retry still
    /// burns daily budget), while the probabilistic faults re-roll — a retry
    /// is a genuinely new draw, which is the whole premise of the §4.1 retry
    /// counterfactual. `attempt == 0` is bit-identical to `check`.
    pub fn check_attempt(
        &self,
        url_key: &str,
        vantage: Vantage,
        t: SimTime,
        attempt: u32,
    ) -> Option<Fault> {
        if self.geo_blocked.contains(&vantage) {
            return Some(Fault::GeoBlocked);
        }
        if let Some(w) = self.windows.iter().find(|w| w.from <= t && t < w.to) {
            return Some(w.fault);
        }
        if let Some(limiter) = &self.daily_rate_limit {
            if !limiter.admit(t) {
                return Some(Fault::RateLimited);
            }
        }
        let day = t.as_unix().div_euclid(86_400) as u64;
        let mut rng = SmallRng::seed_from_u64(
            self.seed
                ^ fnv1a(url_key.as_bytes())
                ^ day.wrapping_mul(0x9E3779B97F4A7C15)
                ^ (attempt as u64).wrapping_mul(0xD1B54A32D192ED03),
        );
        if self.timeout_p > 0.0 && rng.gen_bool(self.timeout_p.clamp(0.0, 1.0)) {
            return Some(Fault::ConnectTimeout);
        }
        if self.unavailable_p > 0.0 && rng.gen_bool(self.unavailable_p.clamp(0.0, 1.0)) {
            return Some(Fault::Unavailable);
        }
        None
    }

    /// The `Retry-After` value (delta-seconds) an origin advertises alongside
    /// a 429/503 it just served at `t`. Deterministic in `(profile, t)` and
    /// capped at [`MAX_RETRY_AFTER_SECS`] so a hinted backoff can never dwarf
    /// a retry budget:
    ///
    /// - 429: the daily budget resets at the next UTC midnight, so the honest
    ///   hint is the time until then (capped);
    /// - a scripted 503 window: time until the window's end (capped);
    /// - a probabilistic 503: the origin has no idea either — a token 1s.
    ///
    /// Timeouts and geo-blocks produce no response, hence no header.
    pub fn retry_after_secs(&self, fault: Fault, t: SimTime) -> Option<u64> {
        match fault {
            Fault::RateLimited => {
                let next_midnight = (t.as_unix().div_euclid(86_400) + 1) * 86_400;
                let secs = (next_midnight - t.as_unix()).max(1) as u64;
                Some(secs.min(MAX_RETRY_AFTER_SECS))
            }
            Fault::Unavailable => {
                let window_end = self
                    .windows
                    .iter()
                    .find(|w| w.fault == Fault::Unavailable && w.from <= t && t < w.to)
                    .map(|w| (w.to.as_unix() - t.as_unix()).max(1) as u64);
                Some(window_end.unwrap_or(1).min(MAX_RETRY_AFTER_SECS))
            }
            Fault::ConnectTimeout | Fault::GeoBlocked => None,
        }
    }
}

/// Ceiling on advertised `Retry-After` values, seconds. Real origins clamp
/// too (nobody says "retry in 14 hours"); here it also keeps hinted waits
/// commensurate with retry budgets like serve's default 30s.
pub const MAX_RETRY_AFTER_SECS: u64 = 30;

/// A deterministic per-day admission counter. Shared behind a mutex because
/// the network trait takes `&self`; cloning copies the day-count table, so a
/// profile cloned mid-run (fault campaigns swap profiles onto sites, config
/// structs derive `Clone`) remembers what the day has already served instead
/// of silently handing the origin a second budget.
#[derive(Debug, Default)]
pub struct DailyRateLimiter {
    per_day: u32,
    served: Mutex<HashMap<i64, u32>>,
}

impl DailyRateLimiter {
    pub fn new(per_day: u32) -> Self {
        DailyRateLimiter {
            per_day,
            served: Mutex::new(HashMap::new()),
        }
    }

    /// Admit a request at `t`? Increments the day's count when admitted.
    ///
    /// Counts for days earlier than `t`'s are pruned on the way in: a
    /// long-lived `permadead serve` process walks its serving clock forward
    /// monotonically, so stale days can never be consulted again and keeping
    /// them was a slow leak.
    pub fn admit(&self, t: SimTime) -> bool {
        let day = t.as_unix().div_euclid(86_400);
        let mut served = self.served.lock();
        served.retain(|&d, _| d >= day);
        let count = served.entry(day).or_insert(0);
        if *count < self.per_day {
            *count += 1;
            true
        } else {
            false
        }
    }

    /// Days currently tracked (the regression surface for the prune above).
    pub fn tracked_days(&self) -> usize {
        self.served.lock().len()
    }

    /// The configured per-day budget. Day counts are runtime state and are
    /// *not* serialized with a world: [`DailyRateLimiter::admit`] prunes every
    /// day earlier than the query's, so a freshly-constructed limiter behaves
    /// identically from the first post-load request onward.
    pub fn per_day(&self) -> u32 {
        self.per_day
    }
}

impl Clone for DailyRateLimiter {
    fn clone(&self) -> Self {
        DailyRateLimiter {
            per_day: self.per_day,
            served: Mutex::new(self.served.lock().clone()),
        }
    }
}

/// An injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Connection setup never completes → the client reports a timeout.
    ConnectTimeout,
    /// 503 Service Unavailable.
    Unavailable,
    /// 403 Forbidden for this vantage.
    GeoBlocked,
    /// 429 Too Many Requests: the per-day budget is exhausted.
    RateLimited,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noon(y: i32, m: u32, d: u32) -> SimTime {
        SimTime::from_ymd(y, m, d) + crate::time::Duration::hours(12)
    }

    #[test]
    fn no_faults_by_default() {
        let f = FaultProfile::none(1);
        assert_eq!(f.check("http://e.org/x", Vantage::UsEducation, noon(2022, 3, 1)), None);
    }

    #[test]
    fn geo_block_hits_configured_vantage_only() {
        let f = FaultProfile::none(1).with_geo_block(&[Vantage::UsEducation]);
        assert_eq!(
            f.check("u", Vantage::UsEducation, noon(2022, 3, 1)),
            Some(Fault::GeoBlocked)
        );
        assert_eq!(f.check("u", Vantage::Europe, noon(2022, 3, 1)), None);
    }

    #[test]
    fn same_day_same_outcome() {
        let f = FaultProfile::none(9).with_timeouts(0.5);
        let morning = SimTime::from_ymd(2022, 3, 5) + crate::time::Duration::hours(2);
        let evening = SimTime::from_ymd(2022, 3, 5) + crate::time::Duration::hours(22);
        assert_eq!(
            f.check("u", Vantage::UsEducation, morning),
            f.check("u", Vantage::UsEducation, evening)
        );
    }

    #[test]
    fn outcomes_vary_across_days() {
        let f = FaultProfile::none(9).with_timeouts(0.5);
        let outcomes: Vec<_> = (1..=20)
            .map(|d| f.check("u", Vantage::UsEducation, noon(2022, 3, d)))
            .collect();
        assert!(outcomes.contains(&Some(Fault::ConnectTimeout)));
        assert!(outcomes.contains(&None));
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let f = FaultProfile::none(3).with_unavailable(0.2);
        let hits = (0..1000)
            .filter(|i| {
                f.check(
                    &format!("http://e.org/{i}"),
                    Vantage::UsEducation,
                    noon(2022, 3, 1),
                ) == Some(Fault::Unavailable)
            })
            .count();
        assert!((120..280).contains(&hits), "{hits}");
    }

    #[test]
    fn daily_rate_limit_admits_then_429s_and_resets() {
        let f = FaultProfile::none(1).with_daily_rate_limit(3);
        let day1 = noon(2022, 3, 1);
        for _ in 0..3 {
            assert_eq!(f.check("u", Vantage::UsEducation, day1), None);
        }
        assert_eq!(
            f.check("u", Vantage::UsEducation, day1),
            Some(Fault::RateLimited)
        );
        // next day the budget is fresh
        assert_eq!(f.check("u", Vantage::UsEducation, noon(2022, 3, 2)), None);
    }

    /// Regression: `Clone` used to construct a fresh limiter, so any profile
    /// clone mid-run silently reset the day's spend and an exhausted origin
    /// came back with a full budget.
    #[test]
    fn rate_limiter_clone_preserves_the_days_spend() {
        let f = FaultProfile::none(1).with_daily_rate_limit(2);
        let day1 = noon(2022, 3, 1);
        for _ in 0..2 {
            assert_eq!(f.check("u", Vantage::UsEducation, day1), None);
        }
        assert_eq!(f.check("u", Vantage::UsEducation, day1), Some(Fault::RateLimited));
        // the clone inherits the exhausted budget, not a fresh one
        let g = f.clone();
        assert_eq!(
            g.check("u", Vantage::UsEducation, day1),
            Some(Fault::RateLimited),
            "clone forgot the day's spend"
        );
        // and it is a copy, not a shared handle: the original rolling over
        // to a new day does not refill the clone retroactively for day 1
        assert_eq!(f.check("u", Vantage::UsEducation, noon(2022, 3, 2)), None);
        assert_eq!(g.check("u", Vantage::UsEducation, day1), Some(Fault::RateLimited));

        // the bare limiter, for the same contract without the profile wrap
        let limiter = DailyRateLimiter::new(1);
        assert!(limiter.admit(day1));
        let copied = limiter.clone();
        assert!(!copied.admit(day1), "cloned limiter must remember the spend");
    }

    #[test]
    fn fault_window_is_deterministic_and_bounded() {
        let y = |yr| SimTime::from_ymd(yr, 1, 1);
        let f = FaultProfile::none(1).with_window(y(2020), y(2021), Fault::Unavailable);
        assert_eq!(f.check("u", Vantage::UsEducation, y(2020)), Some(Fault::Unavailable));
        assert_eq!(
            f.check("u", Vantage::UsEducation, y(2020) + crate::time::Duration::days(100)),
            Some(Fault::Unavailable)
        );
        // half-open: the end instant is healthy again
        assert_eq!(f.check("u", Vantage::UsEducation, y(2021)), None);
        assert_eq!(f.check("u", Vantage::UsEducation, y(2019)), None);
    }

    #[test]
    fn rate_limiter_prunes_past_days() {
        let limiter = DailyRateLimiter::new(2);
        for d in 1..=30 {
            assert!(limiter.admit(noon(2022, 3, d)));
            assert_eq!(limiter.tracked_days(), 1, "day {d}: stale entries kept");
        }
        // same-day counting still works after pruning
        let last = noon(2022, 3, 30);
        assert!(limiter.admit(last));
        assert!(!limiter.admit(last));
    }

    #[test]
    fn attempt_zero_matches_check_and_retries_reroll() {
        let f = FaultProfile::none(9).with_timeouts(0.5);
        let t = noon(2022, 3, 5);
        for d in 1..=10 {
            let t = noon(2022, 3, d);
            assert_eq!(
                f.check("u", Vantage::UsEducation, t),
                f.check_attempt("u", Vantage::UsEducation, t, 0)
            );
        }
        // retries draw independently: across attempts both outcomes appear
        let outcomes: Vec<_> = (0..20)
            .map(|a| f.check_attempt("u", Vantage::UsEducation, t, a))
            .collect();
        assert!(outcomes.contains(&Some(Fault::ConnectTimeout)));
        assert!(outcomes.contains(&None));
        // and each attempt's roll is itself deterministic
        for a in 0..20 {
            assert_eq!(
                f.check_attempt("u", Vantage::UsEducation, t, a),
                f.check_attempt("u", Vantage::UsEducation, t, a)
            );
        }
    }

    #[test]
    fn attempts_do_not_clear_geo_blocks_and_burn_rate_budget() {
        let f = FaultProfile::none(1).with_geo_block(&[Vantage::UsEducation]);
        let t = noon(2022, 3, 1);
        for a in 0..5 {
            assert_eq!(
                f.check_attempt("u", Vantage::UsEducation, t, a),
                Some(Fault::GeoBlocked)
            );
        }
        let f = FaultProfile::none(1).with_daily_rate_limit(2);
        assert_eq!(f.check_attempt("u", Vantage::UsEducation, t, 0), None);
        assert_eq!(f.check_attempt("u", Vantage::UsEducation, t, 1), None);
        assert_eq!(
            f.check_attempt("u", Vantage::UsEducation, t, 2),
            Some(Fault::RateLimited)
        );
    }

    #[test]
    fn retry_after_hints_are_bounded_and_fault_shaped() {
        let t = noon(2022, 3, 1); // 12h before midnight — beyond the cap
        let f = FaultProfile::none(1).with_daily_rate_limit(0);
        assert_eq!(f.retry_after_secs(Fault::RateLimited, t), Some(MAX_RETRY_AFTER_SECS));
        // one second before midnight the honest hint fits under the cap
        let almost = SimTime::from_ymd(2022, 3, 2) - crate::time::Duration::seconds(1);
        assert_eq!(f.retry_after_secs(Fault::RateLimited, almost), Some(1));
        // scripted window: hint is the time to the window's end, capped
        let from = noon(2022, 3, 3);
        let f = FaultProfile::none(1).with_window(
            from,
            from + crate::time::Duration::seconds(10),
            Fault::Unavailable,
        );
        assert_eq!(
            f.retry_after_secs(Fault::Unavailable, from + crate::time::Duration::seconds(4)),
            Some(6)
        );
        assert_eq!(f.retry_after_secs(Fault::Unavailable, from - crate::time::Duration::seconds(5)), Some(1), "outside any window: the token hint");
        // no response, no header
        assert_eq!(f.retry_after_secs(Fault::ConnectTimeout, t), None);
        assert_eq!(f.retry_after_secs(Fault::GeoBlocked, t), None);
    }

    #[test]
    fn timeout_checked_before_unavailable() {
        let f = FaultProfile::none(3).with_timeouts(1.0).with_unavailable(1.0);
        assert_eq!(
            f.check("u", Vantage::UsEducation, noon(2022, 3, 1)),
            Some(Fault::ConnectTimeout)
        );
    }
}
