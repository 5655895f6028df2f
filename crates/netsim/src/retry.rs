//! Deterministic retry with exponential backoff — the §4.1 counterfactual.
//!
//! IABot issues exactly one availability lookup per link and treats a
//! client-side timeout as "never archived"; the paper shows 11% of links
//! with usable 200-status copies are misclassified that way. A retry layer
//! is the obvious fix, and because transient failures here are *simulated*
//! (latency draws, per-day fault rolls), a retry schedule can be replayed
//! bit-for-bit: same `(seed, policy, fault profile)` ⇒ same attempt trace.
//!
//! Retryability is classified per cause. Transient failures — connect
//! timeouts, 503s, 429s, the availability API's client-side timeout — are
//! worth another attempt. Permanent answers — DNS `NXDOMAIN`, 404, a
//! vantage geo-block — are terminal: retrying cannot change them, and a
//! correct bot should not burn budget trying.

use crate::dns::DnsError;
use crate::error::FetchError;
use crate::http::StatusCode;
use crate::latency::Millis;
use permadead_url::fnv1a;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Why an attempt failed, at the granularity retry decisions are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryCause {
    /// Connection setup or response never completed (live web).
    ConnectTimeout,
    /// 503 Service Unavailable.
    Unavailable,
    /// 429 Too Many Requests.
    RateLimited,
    /// The availability API missed the client-side timeout (§4.1).
    AvailabilityTimeout,
    /// DNS SERVFAIL or resolver timeout — the resolver, not the zone.
    DnsTransient,
    /// DNS NXDOMAIN: the name does not exist. Terminal.
    DnsNxDomain,
    /// 404 Not Found: a definitive answer. Terminal.
    NotFound,
    /// 403 at this vantage. Retrying from the same vantage is futile.
    GeoBlocked,
    /// Anything else (other status codes, redirect pathologies). Terminal.
    Other,
}

impl RetryCause {
    /// Is another attempt worth scheduling for this cause?
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            RetryCause::ConnectTimeout
                | RetryCause::Unavailable
                | RetryCause::RateLimited
                | RetryCause::AvailabilityTimeout
                | RetryCause::DnsTransient
        )
    }

    /// Prometheus-friendly label.
    pub fn label(self) -> &'static str {
        match self {
            RetryCause::ConnectTimeout => "connect-timeout",
            RetryCause::Unavailable => "unavailable",
            RetryCause::RateLimited => "rate-limited",
            RetryCause::AvailabilityTimeout => "availability-timeout",
            RetryCause::DnsTransient => "dns-transient",
            RetryCause::DnsNxDomain => "dns-nxdomain",
            RetryCause::NotFound => "not-found",
            RetryCause::GeoBlocked => "geo-blocked",
            RetryCause::Other => "other",
        }
    }

    /// Classify a completed fetch outcome. `None` means the fetch produced
    /// an answer no retry decision applies to (2xx).
    pub fn classify_fetch(outcome: &Result<StatusCode, FetchError>) -> Option<RetryCause> {
        match outcome {
            Ok(code) if code.is_success() => None,
            Ok(code) if *code == StatusCode::NOT_FOUND => Some(RetryCause::NotFound),
            Ok(code) if *code == StatusCode::FORBIDDEN => Some(RetryCause::GeoBlocked),
            Ok(code) if *code == StatusCode::TOO_MANY_REQUESTS => Some(RetryCause::RateLimited),
            Ok(code) if *code == StatusCode::SERVICE_UNAVAILABLE => Some(RetryCause::Unavailable),
            Ok(_) => Some(RetryCause::Other),
            Err(FetchError::ConnectTimeout) | Err(FetchError::ResponseTimeout) => {
                Some(RetryCause::ConnectTimeout)
            }
            Err(FetchError::Dns(DnsError::NxDomain)) => Some(RetryCause::DnsNxDomain),
            Err(FetchError::Dns(_)) => Some(RetryCause::DnsTransient),
            Err(FetchError::TooManyRedirects) | Err(FetchError::MalformedRedirect) => {
                Some(RetryCause::Other)
            }
        }
    }
}

/// Per-cause counters of *retries scheduled* (a failure that led to another
/// attempt), plus how many runs gave up with a retryable failure still in
/// hand. These flow into `StageStats` and the serve `/metrics` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCounts {
    pub connect_timeout: u64,
    pub unavailable: u64,
    pub rate_limited: u64,
    pub availability_timeout: u64,
    pub dns_transient: u64,
    pub other: u64,
    /// Runs that stopped (attempts or budget spent) while the last failure
    /// was still retryable.
    pub exhausted: u64,
}

impl RetryCounts {
    pub fn record(&mut self, cause: RetryCause) {
        match cause {
            RetryCause::ConnectTimeout => self.connect_timeout += 1,
            RetryCause::Unavailable => self.unavailable += 1,
            RetryCause::RateLimited => self.rate_limited += 1,
            RetryCause::AvailabilityTimeout => self.availability_timeout += 1,
            RetryCause::DnsTransient => self.dns_transient += 1,
            _ => self.other += 1,
        }
    }

    pub fn add(&mut self, other: RetryCounts) {
        self.connect_timeout += other.connect_timeout;
        self.unavailable += other.unavailable;
        self.rate_limited += other.rate_limited;
        self.availability_timeout += other.availability_timeout;
        self.dns_transient += other.dns_transient;
        self.other += other.other;
        self.exhausted += other.exhausted;
    }

    /// `self - earlier`, fieldwise. Callers snapshot before/after a stage to
    /// attribute retries to it.
    pub fn diff(self, earlier: RetryCounts) -> RetryCounts {
        RetryCounts {
            connect_timeout: self.connect_timeout - earlier.connect_timeout,
            unavailable: self.unavailable - earlier.unavailable,
            rate_limited: self.rate_limited - earlier.rate_limited,
            availability_timeout: self.availability_timeout - earlier.availability_timeout,
            dns_transient: self.dns_transient - earlier.dns_transient,
            other: self.other - earlier.other,
            exhausted: self.exhausted - earlier.exhausted,
        }
    }

    /// Retries scheduled, summed over causes (excludes `exhausted`).
    pub fn total(&self) -> u64 {
        self.connect_timeout
            + self.unavailable
            + self.rate_limited
            + self.availability_timeout
            + self.dns_transient
            + self.other
    }

    pub fn is_zero(&self) -> bool {
        self.total() == 0 && self.exhausted == 0
    }

    /// `(label, count)` pairs in a stable order, for metric exposition.
    pub fn per_cause(&self) -> [(&'static str, u64); 6] {
        [
            ("connect-timeout", self.connect_timeout),
            ("unavailable", self.unavailable),
            ("rate-limited", self.rate_limited),
            ("availability-timeout", self.availability_timeout),
            ("dns-transient", self.dns_transient),
            ("other", self.other),
        ]
    }
}

/// A deterministic retry schedule. `Copy` so it can ride inside the
/// pipeline's shared `StudyEnv` without lifetime plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first. `1` = IABot's behaviour: no
    /// retries at all, and the driver is bit-identical to a bare call.
    pub max_attempts: u32,
    /// Delay before the first retry, ms (simulated — no wall clock).
    pub base_backoff_ms: Millis,
    /// Exponential growth factor per retry.
    pub backoff_multiplier: f64,
    /// Backoff ceiling, ms.
    pub max_backoff_ms: Millis,
    /// Jitter as a ± fraction of the computed backoff, drawn from a rng
    /// seeded by `(seed, key, attempt)` — deterministic per schedule.
    pub jitter: f64,
    /// Cumulative budget over all backoff delays; a retry whose delay would
    /// overrun it is not scheduled. `None` = unbounded.
    pub budget_ms: Option<Millis>,
    /// Honor a server-provided Retry-After hint: the scheduled delay is
    /// `max(computed backoff, hint)`.
    pub honor_retry_after: bool,
    /// Seed for jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::single()
    }
}

impl RetryPolicy {
    /// IABot's production behaviour: one attempt, no retry machinery.
    pub fn single() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            backoff_multiplier: 1.0,
            max_backoff_ms: 0,
            jitter: 0.0,
            budget_ms: None,
            honor_retry_after: false,
            seed: 0,
        }
    }

    /// A sensible retrying bot: exponential 500ms → 8s backoff with ±20%
    /// jitter, Retry-After honored, no budget until one is set.
    pub fn standard(max_attempts: u32, seed: u64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff_ms: 500,
            backoff_multiplier: 2.0,
            max_backoff_ms: 8_000,
            jitter: 0.2,
            budget_ms: None,
            honor_retry_after: true,
            seed,
        }
    }

    pub fn with_budget_ms(mut self, budget: Millis) -> Self {
        self.budget_ms = Some(budget);
        self
    }

    /// Does this policy ever retry?
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff scheduled after failed attempt `attempt` (0-based), before
    /// any Retry-After adjustment. Pure in `(policy, key, attempt)`.
    pub fn backoff_ms(&self, key: &str, attempt: u32) -> Millis {
        let exp = self.base_backoff_ms as f64 * self.backoff_multiplier.powi(attempt as i32);
        let capped = exp.min(self.max_backoff_ms as f64);
        if self.jitter <= 0.0 {
            return capped.round() as Millis;
        }
        let h = self.seed
            ^ fnv1a(key.as_bytes())
            ^ (attempt as u64).wrapping_mul(0xD1B54A32D192ED03);
        let mut rng = SmallRng::seed_from_u64(h);
        let factor = rng.gen_range(1.0 - self.jitter..=1.0 + self.jitter);
        (capped * factor).round().max(0.0) as Millis
    }
}

/// One failed attempt, as the operation reports it to the driver.
#[derive(Debug, Clone)]
pub struct AttemptFailure<E> {
    pub cause: RetryCause,
    /// Server-provided Retry-After hint, if the response carried one.
    pub retry_after_ms: Option<Millis>,
    /// The underlying error, returned to the caller if the run gives up.
    pub error: E,
}

/// One attempt in a completed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// 0-based attempt index.
    pub number: u32,
    /// Offset of this attempt from the first, in simulated ms of backoff.
    pub at_ms: Millis,
    /// Why it failed; `None` = it succeeded.
    pub cause: Option<RetryCause>,
    /// Delay scheduled after this attempt (`None` when no retry followed).
    pub backoff_ms: Option<Millis>,
}

/// The full record of one retry schedule: every attempt, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetryOutcome {
    pub attempts: Vec<Attempt>,
    /// Total simulated backoff spent, ms.
    pub elapsed_ms: Millis,
    /// Gave up with a retryable failure still in hand (attempts or budget).
    pub exhausted: bool,
    /// Specifically: the next retry's delay would have overrun the budget.
    pub budget_exhausted: bool,
    /// Per-cause retry counters for this run.
    pub counts: RetryCounts,
}

impl RetryOutcome {
    /// Attempts actually issued.
    pub fn tries(&self) -> u32 {
        self.attempts.len() as u32
    }
}

impl RetryPolicy {
    /// Drive `op` under this policy. `op` receives the 0-based attempt index
    /// (callers derive per-attempt nonces from it so each attempt is an
    /// independent draw) and reports success or an [`AttemptFailure`].
    ///
    /// With `max_attempts == 1` this calls `op(0)` exactly once and consumes
    /// no randomness — bit-identical to not using the driver at all.
    pub fn run<T, E>(
        &self,
        key: &str,
        mut op: impl FnMut(u32) -> Result<T, AttemptFailure<E>>,
    ) -> (Result<T, E>, RetryOutcome) {
        let max = self.max_attempts.max(1);
        let mut outcome = RetryOutcome::default();
        let mut elapsed: Millis = 0;
        let mut attempt: u32 = 0;
        loop {
            match op(attempt) {
                Ok(value) => {
                    outcome.attempts.push(Attempt {
                        number: attempt,
                        at_ms: elapsed,
                        cause: None,
                        backoff_ms: None,
                    });
                    outcome.elapsed_ms = elapsed;
                    return (Ok(value), outcome);
                }
                Err(failure) => {
                    let cause = failure.cause;
                    let record = |outcome: &mut RetryOutcome, backoff: Option<Millis>| {
                        outcome.attempts.push(Attempt {
                            number: attempt,
                            at_ms: elapsed,
                            cause: Some(cause),
                            backoff_ms: backoff,
                        });
                        outcome.elapsed_ms = elapsed;
                    };
                    if !cause.is_retryable() {
                        record(&mut outcome, None);
                        return (Err(failure.error), outcome);
                    }
                    if attempt + 1 >= max {
                        // a single-attempt policy has no retry schedule to
                        // exhaust: counting it would make the default
                        // (retry-less) pipeline report nonzero retry state
                        if max > 1 {
                            outcome.exhausted = true;
                            outcome.counts.exhausted += 1;
                        }
                        record(&mut outcome, None);
                        return (Err(failure.error), outcome);
                    }
                    let mut delay = self.backoff_ms(key, attempt);
                    if self.honor_retry_after {
                        if let Some(hint) = failure.retry_after_ms {
                            delay = delay.max(hint);
                        }
                    }
                    if let Some(budget) = self.budget_ms {
                        if elapsed + delay > budget {
                            outcome.exhausted = true;
                            outcome.budget_exhausted = true;
                            outcome.counts.exhausted += 1;
                            record(&mut outcome, None);
                            return (Err(failure.error), outcome);
                        }
                    }
                    outcome.counts.record(cause);
                    record(&mut outcome, Some(delay));
                    elapsed += delay;
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultProfile};
    use crate::http::Vantage;
    use crate::time::SimTime;

    fn fail(cause: RetryCause) -> AttemptFailure<&'static str> {
        AttemptFailure {
            cause,
            retry_after_ms: None,
            error: "boom",
        }
    }

    #[test]
    fn single_attempt_calls_op_once() {
        let policy = RetryPolicy::single();
        let mut calls = 0;
        let (res, outcome) = policy.run::<(), _>("k", |attempt| {
            calls += 1;
            assert_eq!(attempt, 0);
            Err(fail(RetryCause::ConnectTimeout))
        });
        assert_eq!(calls, 1);
        assert!(res.is_err());
        assert_eq!(outcome.tries(), 1);
        // a failed single attempt is not "exhaustion": nothing was retried,
        // and the default pipeline must report zero retry state
        assert!(!outcome.exhausted);
        assert_eq!(outcome.counts.total(), 0, "no retry was ever scheduled");
        assert_eq!(outcome.counts.exhausted, 0);
        assert!(outcome.counts.is_zero());
    }

    #[test]
    fn retryable_causes_retry_until_success() {
        let policy = RetryPolicy::standard(5, 42);
        let (res, outcome) = policy.run::<u32, &str>("k", |attempt| {
            if attempt < 2 {
                Err(fail(RetryCause::Unavailable))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(res, Ok(2));
        assert_eq!(outcome.tries(), 3);
        assert_eq!(outcome.counts.unavailable, 2);
        assert!(!outcome.exhausted);
        // the trace records causes and backoffs in order
        assert_eq!(outcome.attempts[0].cause, Some(RetryCause::Unavailable));
        assert!(outcome.attempts[0].backoff_ms.is_some());
        assert_eq!(outcome.attempts[2].cause, None);
        assert_eq!(outcome.attempts[2].backoff_ms, None);
        // elapsed is the sum of scheduled backoffs
        let scheduled: Millis = outcome.attempts.iter().filter_map(|a| a.backoff_ms).sum();
        assert_eq!(outcome.elapsed_ms, scheduled);
    }

    #[test]
    fn terminal_causes_never_retry() {
        for cause in [
            RetryCause::DnsNxDomain,
            RetryCause::NotFound,
            RetryCause::GeoBlocked,
            RetryCause::Other,
        ] {
            let policy = RetryPolicy::standard(10, 1);
            let mut calls = 0;
            let (res, outcome) = policy.run::<(), _>("k", |_| {
                calls += 1;
                Err(fail(cause))
            });
            assert_eq!(calls, 1, "{cause:?} must not be retried");
            assert!(res.is_err());
            assert!(!outcome.exhausted, "{cause:?} is a final answer, not exhaustion");
            assert_eq!(outcome.counts.total(), 0);
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard(8, 7)
        };
        assert_eq!(policy.backoff_ms("k", 0), 500);
        assert_eq!(policy.backoff_ms("k", 1), 1000);
        assert_eq!(policy.backoff_ms("k", 2), 2000);
        assert_eq!(policy.backoff_ms("k", 10), 8_000, "capped at max_backoff_ms");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::standard(8, 99);
        for attempt in 0..6 {
            let a = policy.backoff_ms("key", attempt);
            let b = policy.backoff_ms("key", attempt);
            assert_eq!(a, b);
            let nominal = RetryPolicy {
                jitter: 0.0,
                ..policy
            }
            .backoff_ms("key", attempt);
            let lo = (nominal as f64 * 0.8).floor() as Millis;
            let hi = (nominal as f64 * 1.2).ceil() as Millis;
            assert!((lo..=hi).contains(&a), "attempt {attempt}: {a} outside [{lo},{hi}]");
        }
        // different keys draw different jitter somewhere
        assert!((0..16).any(|n| policy.backoff_ms("key-a", n) != policy.backoff_ms("key-b", n)));
    }

    #[test]
    fn budget_stops_the_schedule() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard(10, 1)
        }
        .with_budget_ms(1_200);
        // backoffs would be 500, 1000, ... — the second retry (cumulative
        // 1500ms) overruns the 1200ms budget
        let (res, outcome) = policy.run::<(), _>("k", |_| Err(fail(RetryCause::ConnectTimeout)));
        assert!(res.is_err());
        assert_eq!(outcome.tries(), 2);
        assert!(outcome.budget_exhausted);
        assert!(outcome.exhausted);
        assert_eq!(outcome.elapsed_ms, 500);
        assert_eq!(outcome.counts.connect_timeout, 1);
    }

    #[test]
    fn retry_after_hint_is_honored() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard(3, 1)
        };
        let (_, outcome) = policy.run::<(), _>("k", |_| {
            Err(AttemptFailure {
                cause: RetryCause::RateLimited,
                retry_after_ms: Some(5_000),
                error: "rl",
            })
        });
        // computed backoff is 500/1000ms but the hint stretches each wait
        assert_eq!(outcome.attempts[0].backoff_ms, Some(5_000));
        assert_eq!(outcome.attempts[1].backoff_ms, Some(5_000));

        let deaf = RetryPolicy {
            honor_retry_after: false,
            ..policy
        };
        let (_, outcome) = deaf.run::<(), _>("k", |_| {
            Err(AttemptFailure {
                cause: RetryCause::RateLimited,
                retry_after_ms: Some(5_000),
                error: "rl",
            })
        });
        assert_eq!(outcome.attempts[0].backoff_ms, Some(500));
    }

    #[test]
    fn classify_fetch_covers_the_taxonomy() {
        use RetryCause::*;
        assert_eq!(RetryCause::classify_fetch(&Ok(StatusCode::OK)), None);
        assert_eq!(RetryCause::classify_fetch(&Ok(StatusCode(204))), None);
        assert_eq!(RetryCause::classify_fetch(&Ok(StatusCode::NOT_FOUND)), Some(NotFound));
        assert_eq!(RetryCause::classify_fetch(&Ok(StatusCode::FORBIDDEN)), Some(GeoBlocked));
        assert_eq!(
            RetryCause::classify_fetch(&Ok(StatusCode::TOO_MANY_REQUESTS)),
            Some(RateLimited)
        );
        assert_eq!(
            RetryCause::classify_fetch(&Ok(StatusCode::SERVICE_UNAVAILABLE)),
            Some(Unavailable)
        );
        assert_eq!(RetryCause::classify_fetch(&Ok(StatusCode::GONE)), Some(Other));
        assert_eq!(
            RetryCause::classify_fetch(&Err(FetchError::ConnectTimeout)),
            Some(ConnectTimeout)
        );
        assert_eq!(
            RetryCause::classify_fetch(&Err(FetchError::ResponseTimeout)),
            Some(ConnectTimeout)
        );
        assert_eq!(
            RetryCause::classify_fetch(&Err(FetchError::Dns(DnsError::NxDomain))),
            Some(DnsNxDomain)
        );
        assert_eq!(
            RetryCause::classify_fetch(&Err(FetchError::Dns(DnsError::ServFail))),
            Some(DnsTransient)
        );
        assert_eq!(
            RetryCause::classify_fetch(&Err(FetchError::TooManyRedirects)),
            Some(Other)
        );
        // the retryable set is exactly the transient causes
        for (cause, retryable) in [
            (ConnectTimeout, true),
            (Unavailable, true),
            (RateLimited, true),
            (AvailabilityTimeout, true),
            (DnsTransient, true),
            (DnsNxDomain, false),
            (NotFound, false),
            (GeoBlocked, false),
            (Other, false),
        ] {
            assert_eq!(cause.is_retryable(), retryable, "{cause:?}");
        }
    }

    #[test]
    fn counts_roundtrip_add_and_diff() {
        let mut a = RetryCounts::default();
        a.record(RetryCause::ConnectTimeout);
        a.record(RetryCause::RateLimited);
        a.record(RetryCause::AvailabilityTimeout);
        let before = a;
        a.record(RetryCause::ConnectTimeout);
        a.exhausted += 1;
        let delta = a.diff(before);
        assert_eq!(delta.connect_timeout, 1);
        assert_eq!(delta.rate_limited, 0);
        assert_eq!(delta.exhausted, 1);
        let mut sum = before;
        sum.add(delta);
        assert_eq!(sum, a);
        assert_eq!(a.total(), 4);
        assert!(!a.is_zero());
        assert!(RetryCounts::default().is_zero());
        let labels: Vec<&str> = a.per_cause().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            [
                "connect-timeout",
                "unavailable",
                "rate-limited",
                "availability-timeout",
                "dns-transient",
                "other"
            ]
        );
    }

    /// The tentpole determinism property: any `(seed, policy, fault
    /// profile)` replays to an identical attempt trace.
    mod replay {
        use super::*;
        use proptest::prelude::*;

        /// Drive the policy against a fault profile the way the live-check
        /// layer does: each attempt is an independent per-attempt fault roll.
        fn drive(
            policy: &RetryPolicy,
            profile: &FaultProfile,
            url: &str,
            t: SimTime,
        ) -> RetryOutcome {
            let (_, outcome) = policy.run::<(), ()>(url, |attempt| {
                match profile.check_attempt(url, Vantage::UsEducation, t, attempt) {
                    None => Ok(()),
                    Some(Fault::ConnectTimeout) => Err(AttemptFailure {
                        cause: RetryCause::ConnectTimeout,
                        retry_after_ms: None,
                        error: (),
                    }),
                    Some(Fault::Unavailable) => Err(AttemptFailure {
                        cause: RetryCause::Unavailable,
                        retry_after_ms: None,
                        error: (),
                    }),
                    Some(Fault::RateLimited) => Err(AttemptFailure {
                        cause: RetryCause::RateLimited,
                        retry_after_ms: Some(1_000),
                        error: (),
                    }),
                    Some(Fault::GeoBlocked) => Err(AttemptFailure {
                        cause: RetryCause::GeoBlocked,
                        retry_after_ms: None,
                        error: (),
                    }),
                }
            });
            outcome
        }

        proptest! {
            #[test]
            fn same_inputs_same_attempt_trace(
                seed in 0u64..1_000,
                fault_seed in 0u64..1_000,
                max_attempts in 1u32..8,
                timeout_p in 0u32..=10,
                unavailable_p in 0u32..=10,
                budget in proptest::option::of(0u64..20_000),
                day in 0i64..365,
            ) {
                let policy = {
                    let mut p = RetryPolicy::standard(max_attempts, seed);
                    if let Some(b) = budget {
                        p = p.with_budget_ms(b);
                    }
                    p
                };
                let profile = FaultProfile::none(fault_seed)
                    .with_timeouts(timeout_p as f64 / 10.0)
                    .with_unavailable(unavailable_p as f64 / 10.0);
                let t = SimTime::from_ymd(2022, 1, 1) + crate::time::Duration::days(day);
                let url = format!("http://replay.example/{seed}/{day}");
                let first = drive(&policy, &profile, &url, t);
                for _ in 0..3 {
                    let again = drive(&policy, &profile, &url, t);
                    prop_assert_eq!(&again, &first);
                }
                prop_assert!(first.tries() <= max_attempts);
            }
        }
    }
}
