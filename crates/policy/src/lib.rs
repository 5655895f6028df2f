//! `permadead-policy` — pluggable dead-link detection policies.
//!
//! The paper's dataset exists because IABot applies **one** rule: N
//! consecutive failed checks spread over a minimum wall-clock span. But real
//! checkers disagree about what "dead" means. pywikibot's weblinkchecker
//! only reports a link "which was reported dead at least two times, with a
//! time lag of at least one week"; umbrix's detector keeps a continuous
//! health score and walks links through
//! HEALTHY → SUSPICIOUS → QUARANTINED → DEAD with adaptive check cadence.
//! McCown et al. showed decades ago how sensitive decay estimates are to
//! the detection procedure — and since our simulated web knows ground
//! truth, this workspace can be the test bench IABot never had.
//!
//! This crate holds the per-link decision machinery, decoupled from the
//! scheduler that drives it:
//!
//! * [`DeadPolicy`] — the trait: observe one check outcome, emit a
//!   [`Transition`], optionally request a cadence override (adaptive
//!   back-off), and report a four-way [`LinkState`].
//! * [`IabotStrikes`] — today's production rule, bit-identical to the
//!   original `sched::Watcher` ladder.
//! * [`PywikibotWeekly`] — dead at least K times, at least one week apart,
//!   cleared the moment the link answers again.
//! * [`HealthScore`] — the umbrix-style scored state machine with adaptive
//!   re-check intervals per state.
//! * [`PolicySpec`] — the parsed `--policy NAME[:ARGS]` CLI surface, the
//!   one place specs are validated and policies are built.
//! * [`lab`] — scripted ground-truth link populations (stable / flapping /
//!   slow-death) for scoring tagging precision and recall.
//!
//! Determinism contract: a policy's state is a pure fold over the sequence
//! of `(ok, at)` observations it is fed — no clocks, no RNG, no floats that
//! depend on summation order (the health score is integer fixed-point). The
//! scheduler applies observations sequentially in `(due, seq)` order, so
//! every policy's timeline is bit-identical for any worker count.

pub mod health;
pub mod iabot;
pub mod lab;
pub mod pywikibot;
pub mod spec;

pub use health::HealthScore;
pub use iabot::IabotStrikes;
pub use pywikibot::PywikibotWeekly;
pub use spec::{PolicySpec, USAGE as POLICY_USAGE};

use permadead_net::{Duration, SimTime};
use std::fmt;

/// Where a watched link currently stands, as the union of every policy's
/// state machine. `iabot-strikes` and `pywikibot-weekly` use Healthy /
/// Suspicious (evidence outstanding) / Tagged; `health-score` uses all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// No evidence of death outstanding.
    Healthy,
    /// Some failures observed, not yet enough to tag.
    Suspicious,
    /// Likely dead (health score deeply degraded), reduced checking.
    Quarantined,
    /// Tagged permanently dead; still re-checked so revivals are caught.
    Tagged,
}

impl LinkState {
    pub fn as_str(self) -> &'static str {
        match self {
            LinkState::Healthy => "healthy",
            LinkState::Suspicious => "suspicious",
            LinkState::Quarantined => "quarantined",
            LinkState::Tagged => "tagged",
        }
    }

    pub const ALL: [LinkState; 4] = [
        LinkState::Healthy,
        LinkState::Suspicious,
        LinkState::Quarantined,
        LinkState::Tagged,
    ];
}

/// What one observed check did to a link's policy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Success with no evidence outstanding: nothing changed.
    Healthy,
    /// Success that wiped outstanding evidence (the link flapped back).
    StrikeCleared,
    /// A failure that did not (yet) satisfy the tagging rule.
    Strike,
    /// This failure satisfied the rule: the link is now tagged.
    Tagged,
    /// A previously-tagged link answered 200 again: revival.
    Revived,
}

/// The result of feeding one check outcome to a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    pub transition: Transition,
    /// `Some(d)`: the policy requests its next check in `d`, overriding the
    /// scheduler's cadence — adaptive back-off. `None`: scheduler decides.
    pub next_check_in: Option<Duration>,
}

impl Observation {
    pub fn of(transition: Transition) -> Observation {
        Observation {
            transition,
            next_check_in: None,
        }
    }
}

/// A per-link dead-link detection policy: a deterministic state machine fed
/// one `(ok, at)` pair per check.
///
/// `Send + Sync` because the scheduler is shared across worker threads (the
/// fetch half of a re-check runs in parallel; observation application is
/// sequential). `Debug` so watchers stay debuggable.
pub trait DeadPolicy: Send + Sync + fmt::Debug {
    /// The spec name this policy was built from (`iabot-strikes`, …).
    fn name(&self) -> &'static str;

    /// Feed one check outcome (`ok` = answered 200 after redirects)
    /// observed at `at`.
    fn observe(&mut self, ok: bool, at: SimTime) -> Observation;

    /// Where the link currently stands.
    fn state(&self) -> LinkState;

    /// When the current tag landed, if currently tagged.
    fn tagged_at(&self) -> Option<SimTime>;

    /// Accumulated evidence toward (or since) a tag — consecutive strikes,
    /// dead confirmations, or health-deficit steps. Rendered as the
    /// `strikes` column in `/watchlist`.
    fn evidence(&self) -> u32;

    fn boxed_clone(&self) -> Box<dyn DeadPolicy>;
}

impl Clone for Box<dyn DeadPolicy> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// How a watchlist population is distributed over [`LinkState`]s — the
/// `permadead_watch_state{state=…}` gauge family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDist {
    pub healthy: usize,
    pub suspicious: usize,
    pub quarantined: usize,
    pub tagged: usize,
}

impl StateDist {
    pub fn add(&mut self, state: LinkState) {
        match state {
            LinkState::Healthy => self.healthy += 1,
            LinkState::Suspicious => self.suspicious += 1,
            LinkState::Quarantined => self.quarantined += 1,
            LinkState::Tagged => self.tagged += 1,
        }
    }

    /// `(state name, count)` in fixed order, for stable metric rendering.
    pub fn iter(&self) -> [(&'static str, usize); 4] {
        [
            ("healthy", self.healthy),
            ("suspicious", self.suspicious),
            ("quarantined", self.quarantined),
            ("tagged", self.tagged),
        ]
    }

    pub fn total(&self) -> usize {
        self.healthy + self.suspicious + self.quarantined + self.tagged
    }
}

#[cfg(test)]
mod proptests {
    //! Cross-policy invariants, property-tested over random outcome
    //! sequences:
    //!
    //! 1. **No tag without the required evidence.** `iabot-strikes` never
    //!    tags without N consecutive failures spanning the minimum window;
    //!    `pywikibot-weekly` never tags without K dead observations at
    //!    least the gap apart with no success in between; `health-score`
    //!    never tags without at least two consecutive failures (a success
    //!    always buys the score back above one penalty step).
    //! 2. **A post-tag success always revives.** No policy can strand a
    //!    link in `Tagged` once it answers 200 again.

    use super::*;
    use permadead_net::{Duration, SimTime};
    use proptest::prelude::*;

    fn specs() -> [PolicySpec; 3] {
        [
            PolicySpec::default(),
            PolicySpec::PywikibotWeekly {
                confirmations: 2,
                gap: Duration::weeks(1),
            },
            PolicySpec::HealthScore {
                base: Duration::days(1),
            },
        ]
    }

    proptest! {
        #[test]
        fn no_policy_tags_without_evidence_and_success_always_revives(
            seq in proptest::collection::vec((any::<bool>(), 1i64..4), 1..60),
        ) {
            for spec in specs() {
                let mut policy = spec.build();
                let mut at = SimTime::from_ymd(2022, 3, 1);
                let mut consecutive_fails = 0u32;
                let mut first_fail_at: Option<SimTime> = None;
                for &(ok, gap_days) in &seq {
                    let was_tagged = policy.state() == LinkState::Tagged;
                    let obs = policy.observe(ok, at);
                    if ok {
                        if was_tagged {
                            prop_assert_eq!(obs.transition, Transition::Revived,
                                "{}: post-tag success must revive", policy.name());
                        }
                        prop_assert!(policy.state() != LinkState::Tagged,
                            "{}: a successful check can never leave a link tagged", policy.name());
                        consecutive_fails = 0;
                        first_fail_at = None;
                    } else {
                        first_fail_at.get_or_insert(at);
                        consecutive_fails += 1;
                        if obs.transition == Transition::Tagged {
                            let span = at - first_fail_at.unwrap();
                            match spec {
                                PolicySpec::IabotStrikes { strikes, min_span } => {
                                    prop_assert!(consecutive_fails >= strikes);
                                    prop_assert!(span >= min_span);
                                }
                                PolicySpec::PywikibotWeekly { confirmations, gap } => {
                                    prop_assert!(consecutive_fails >= confirmations);
                                    prop_assert!(span >= gap);
                                }
                                PolicySpec::HealthScore { .. } => {
                                    // a success always restores at least one
                                    // penalty step of score, so death takes
                                    // two consecutive failures minimum
                                    prop_assert!(consecutive_fails >= 2);
                                }
                            }
                        }
                    }
                    at += Duration::days(gap_days);
                }
            }
        }

        #[test]
        fn tag_only_ever_lands_on_a_failure(
            seq in proptest::collection::vec(any::<bool>(), 1..60),
        ) {
            for spec in specs() {
                let mut policy = spec.build();
                let mut at = SimTime::from_ymd(2022, 3, 1);
                for &ok in &seq {
                    let obs = policy.observe(ok, at);
                    if obs.transition == Transition::Tagged {
                        prop_assert!(!ok, "{}: tagged on a success", policy.name());
                        prop_assert_eq!(policy.state(), LinkState::Tagged);
                        prop_assert_eq!(policy.tagged_at(), Some(at));
                    }
                    at += Duration::days(1);
                }
            }
        }
    }
}
