//! The per-link monitoring record.
//!
//! The *tagging decision* lives in `permadead-policy`: each watcher owns a
//! boxed [`DeadPolicy`] state machine (IABot strikes by default) and
//! delegates every observed outcome to it. What stays here is the
//! policy-agnostic bookkeeping the scheduler needs — check and revival
//! totals, the stable-streak the aging cadence reads, and the wasted-check
//! counter the policy scoreboard reports.

use permadead_net::SimTime;
use permadead_policy::{DeadPolicy, LinkState, Observation, Transition};
use permadead_url::Url;

/// One watched link: its URL, its policy state machine, and the
/// policy-agnostic monitoring counters.
#[derive(Debug, Clone)]
pub struct Watcher {
    pub url: Url,
    /// Cached `url.host()` — politeness buckets key on it every pop.
    pub host: String,
    /// The tagging decision: observes outcomes, owns the link state.
    policy: Box<dyn DeadPolicy>,
    /// Total checks observed.
    pub checks: u64,
    /// Times this link came back from the tag.
    pub revivals: u64,
    /// Consecutive checks with the same outcome as the previous one —
    /// the aging cadence stretches intervals for stable links.
    pub stable_streak: u32,
    /// Outcome of the most recent check (`None` before the first).
    pub last_ok: Option<bool>,
    /// Checks that only re-confirmed a settled belief: a healthy link
    /// answering 200 yet again, or an already-tagged link failing yet
    /// again. The policy scoreboard's cost-of-monitoring column.
    pub wasted: u64,
}

impl Watcher {
    pub fn new(url: Url, policy: Box<dyn DeadPolicy>) -> Watcher {
        let host = url.host().to_string();
        Watcher {
            url,
            host,
            policy,
            checks: 0,
            revivals: 0,
            stable_streak: 0,
            last_ok: None,
            wasted: 0,
        }
    }

    /// Feed one check outcome (`ok` = answered 200 after redirects) observed
    /// at `at`. Updates the generic counters, then delegates the tagging
    /// decision to the policy.
    pub fn observe(&mut self, ok: bool, at: SimTime) -> Observation {
        self.checks += 1;
        self.stable_streak = match self.last_ok {
            Some(prev) if prev == ok => self.stable_streak.saturating_add(1),
            _ => 0,
        };
        let was_tagged = self.policy.state() == LinkState::Tagged;
        let obs = self.policy.observe(ok, at);
        if (obs.transition == Transition::Healthy && self.last_ok == Some(true))
            || (was_tagged && !ok)
        {
            self.wasted += 1;
        }
        self.last_ok = Some(ok);
        if obs.transition == Transition::Revived {
            self.revivals += 1;
        }
        obs
    }

    /// Where the link currently stands, per its policy.
    pub fn state(&self) -> LinkState {
        self.policy.state()
    }

    pub fn is_tagged(&self) -> bool {
        self.policy.state() == LinkState::Tagged
    }

    /// When the current tag landed, if currently tagged.
    pub fn tagged_at(&self) -> Option<SimTime> {
        self.policy.tagged_at()
    }

    /// Accumulated evidence toward (or since) the tag — the policy's
    /// strike / confirmation / consecutive-failure count.
    pub fn evidence(&self) -> u32 {
        self.policy.evidence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::Duration;
    use permadead_policy::PolicySpec;

    fn day(d: i64) -> SimTime {
        SimTime::from_ymd(2022, 3, 1) + Duration::days(d)
    }

    fn watcher() -> Watcher {
        Watcher::new(
            Url::parse("http://example.org/page").unwrap(),
            PolicySpec::default().build(),
        )
    }

    #[test]
    fn default_policy_walks_the_iabot_ladder() {
        let mut w = watcher();
        assert_eq!(w.observe(false, day(0)).transition, Transition::Strike);
        assert_eq!(w.observe(false, day(1)).transition, Transition::Strike);
        assert_eq!(w.observe(false, day(2)).transition, Transition::Tagged);
        assert!(w.is_tagged());
        assert_eq!(w.tagged_at(), Some(day(2)));
        assert_eq!(w.observe(true, day(3)).transition, Transition::Revived);
        assert_eq!(w.revivals, 1);
        assert!(!w.is_tagged());
    }

    #[test]
    fn healthy_checks_are_healthy_and_streaks_count_stability() {
        let mut w = watcher();
        assert_eq!(w.observe(true, day(0)).transition, Transition::Healthy);
        assert_eq!(w.stable_streak, 0, "first check has no predecessor");
        assert_eq!(w.observe(true, day(1)).transition, Transition::Healthy);
        assert_eq!(w.stable_streak, 1);
        assert_eq!(w.observe(true, day(2)).transition, Transition::Healthy);
        assert_eq!(w.stable_streak, 2);
        w.observe(false, day(3));
        assert_eq!(w.stable_streak, 0, "an outcome flip resets the streak");
    }

    #[test]
    fn wasted_counts_reconfirmations_only() {
        let mut w = watcher();
        w.observe(true, day(0));
        assert_eq!(w.wasted, 0, "first check establishes the belief");
        w.observe(true, day(1));
        w.observe(true, day(2));
        assert_eq!(w.wasted, 2, "healthy re-confirmations are wasted");
        for d in 3..6 {
            w.observe(false, day(d)); // strikes then tag: evidence, not waste
        }
        assert_eq!(w.wasted, 2);
        assert!(w.is_tagged());
        w.observe(false, day(6));
        w.observe(false, day(7));
        assert_eq!(w.wasted, 4, "post-tag failures re-confirm the tag");
        w.observe(true, day(8)); // the revival is pure signal
        assert_eq!(w.wasted, 4);
    }

    #[test]
    fn watcher_clones_with_its_policy_state() {
        let mut w = watcher();
        w.observe(false, day(0));
        w.observe(false, day(1));
        let mut fork = w.clone();
        assert_eq!(fork.evidence(), 2);
        assert_eq!(fork.observe(false, day(2)).transition, Transition::Tagged);
        assert!(!w.is_tagged(), "the original is unaffected");
    }
}
