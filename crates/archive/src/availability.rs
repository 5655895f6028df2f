//! The Availability API: "closest usable snapshot to time T".
//!
//! This is the endpoint IABot queries when patching a broken link, and its
//! *latency* is the protagonist of §4.1: the bot applies a client-side
//! timeout, and when no response arrives in time it concludes the URL was
//! never archived. The API itself is modeled with the same heavy-tailed
//! latency a shared public lookup service exhibits.

use crate::snapshot::Snapshot;
use crate::store::ArchiveStore;
use permadead_net::latency::{LatencyModel, Millis};
use permadead_net::retry::{AttemptFailure, RetryCause, RetryOutcome, RetryPolicy};
use permadead_net::SimTime;
use permadead_url::{Fnv1a, Url};

/// Nonce for the `attempt`-th retry of a lookup whose first attempt used
/// `base`. `attempt == 0` returns `base` unchanged, so a single-attempt
/// policy consumes exactly the draw the un-retried code path consumed —
/// bit-identical behaviour by construction.
pub fn attempt_nonce(base: u64, attempt: u32) -> u64 {
    base ^ (attempt as u64).wrapping_mul(0xD1B54A32D192ED03)
}

/// What the caller accepts as a "usable" copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvailabilityPolicy {
    /// Only copies whose initial status was 200 — IABot's production policy
    /// (it "conservatively links to a page's archived copy only if no
    /// redirections were encountered when that copy was crawled", §1/§4.2).
    Initial200Only,
    /// 200s, or redirects (3xx). Used by the paper's counterfactual: how
    /// many links could be patched if validated redirects were trusted?
    AllowRedirects,
    /// Any snapshot at all, even errors (used for diagnosis, not patching).
    Any,
}

impl AvailabilityPolicy {
    fn accepts(self, s: &Snapshot) -> bool {
        match self {
            AvailabilityPolicy::Initial200Only => s.is_initial_200(),
            AvailabilityPolicy::AllowRedirects => s.is_initial_200() || s.is_redirect(),
            AvailabilityPolicy::Any => true,
        }
    }
}

/// Availability lookup failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvailabilityError {
    /// The API did not answer within the caller's timeout. The caller cannot
    /// distinguish this from "service briefly overloaded" — IABot treats it
    /// as "never archived", which is exactly the §4.1 bug class.
    Timeout,
}

/// The Availability API endpoint.
pub struct AvailabilityApi<'a> {
    store: &'a ArchiveStore,
    latency: LatencyModel,
}

impl<'a> AvailabilityApi<'a> {
    pub fn new(store: &'a ArchiveStore, latency: LatencyModel) -> Self {
        AvailabilityApi { store, latency }
    }

    /// With a well-behaved default latency model.
    pub fn with_default_latency(store: &'a ArchiveStore, seed: u64) -> Self {
        Self::new(store, LatencyModel::lookup_api(seed))
    }

    /// The snapshot acceptable under `policy` captured *closest to* `around`
    /// (IABot requests the copy nearest to when the link was added to the
    /// article, §2.1).
    ///
    /// `client_timeout_ms: None` waits forever (WaybackMedic style);
    /// `Some(t)` gives up when the simulated response latency exceeds `t`.
    /// `nonce` distinguishes repeated calls (each is an independent draw).
    pub fn closest(
        &self,
        url: &Url,
        around: SimTime,
        policy: AvailabilityPolicy,
        client_timeout_ms: Option<Millis>,
        nonce: u64,
    ) -> Result<Option<&'a Snapshot>, AvailabilityError> {
        if let Some(timeout) = client_timeout_ms {
            let key = format!("avail:{url}");
            if self.latency.exceeds_timeout(&key, nonce, timeout) {
                return Err(AvailabilityError::Timeout);
            }
        }
        Ok(self
            .store
            .snapshots_of(url)
            .into_iter()
            .filter(|s| policy.accepts(s))
            .min_by_key(|s| {
                let d = (s.captured - around).as_seconds();
                d.unsigned_abs()
            }))
    }

    /// Batched lookup: one request carries many URLs, paying a single
    /// latency draw for the whole batch (the real Availability API accepts
    /// batches, and bots batch to amortize round-trips). The flip side —
    /// and the §4.1 tradeoff in miniature — is that one slow response now
    /// times out *every* URL in the batch.
    pub fn closest_batch(
        &self,
        urls: &[&Url],
        around: SimTime,
        policy: AvailabilityPolicy,
        client_timeout_ms: Option<Millis>,
        nonce: u64,
    ) -> Result<Vec<Option<&'a Snapshot>>, AvailabilityError> {
        if let Some(timeout) = client_timeout_ms {
            // the key must identify *this* batch, not just its size — two
            // equal-size batches sharing timeout fate for a given nonce was
            // a latency-key collision
            let mut hash = Fnv1a::new();
            for url in urls {
                hash.write(url.to_string().as_bytes());
                hash.write(&[0xff]); // separator so ["ab","c"] != ["a","bc"]
            }
            let key = format!("avail-batch:{}:{:016x}", urls.len(), hash.finish());
            if self.latency.exceeds_timeout(&key, nonce, timeout) {
                return Err(AvailabilityError::Timeout);
            }
        }
        Ok(urls
            .iter()
            .map(|url| {
                self.store
                    .snapshots_of(url)
                    .into_iter()
                    .filter(|s| policy.accepts(s))
                    .min_by_key(|s| (s.captured - around).as_seconds().unsigned_abs())
            })
            .collect())
    }

    /// Like [`Self::closest`] but restricted to snapshots captured strictly
    /// before `before` — "what existed when IABot looked" (§4's analyses).
    pub fn closest_before(
        &self,
        url: &Url,
        around: SimTime,
        before: SimTime,
        policy: AvailabilityPolicy,
        client_timeout_ms: Option<Millis>,
        nonce: u64,
    ) -> Result<Option<&'a Snapshot>, AvailabilityError> {
        if let Some(timeout) = client_timeout_ms {
            let key = format!("avail:{url}");
            if self.latency.exceeds_timeout(&key, nonce, timeout) {
                return Err(AvailabilityError::Timeout);
            }
        }
        Ok(self
            .store
            .snapshots_of(url)
            .into_iter()
            .filter(|s| s.captured < before && policy.accepts(s))
            .min_by_key(|s| (s.captured - around).as_seconds().unsigned_abs()))
    }

    /// [`Self::closest`] under a [`RetryPolicy`]: each attempt is an
    /// independent latency draw (via [`attempt_nonce`]), so a lookup that
    /// misses the client timeout once can still succeed on a retry — the
    /// counterfactual fix for the §4.1 "never archived" misclassification.
    ///
    /// With `RetryPolicy::single()` this is bit-identical to `closest`.
    pub fn closest_with_retry(
        &self,
        url: &Url,
        around: SimTime,
        policy: AvailabilityPolicy,
        client_timeout_ms: Option<Millis>,
        nonce: u64,
        retry: &RetryPolicy,
    ) -> (Result<Option<&'a Snapshot>, AvailabilityError>, RetryOutcome) {
        let key = format!("avail:{url}");
        retry.run(&key, |attempt| {
            self.closest(url, around, policy, client_timeout_ms, attempt_nonce(nonce, attempt))
                .map_err(|error| AttemptFailure {
                    cause: RetryCause::AvailabilityTimeout,
                    retry_after_ms: None,
                    error,
                })
        })
    }

    /// [`Self::closest_before`] under a [`RetryPolicy`]; see
    /// [`Self::closest_with_retry`].
    // closest_before's own signature plus the policy: splitting it into a
    // params struct would leave the two lookups asymmetric for one argument
    #[allow(clippy::too_many_arguments)]
    pub fn closest_before_with_retry(
        &self,
        url: &Url,
        around: SimTime,
        before: SimTime,
        policy: AvailabilityPolicy,
        client_timeout_ms: Option<Millis>,
        nonce: u64,
        retry: &RetryPolicy,
    ) -> (Result<Option<&'a Snapshot>, AvailabilityError>, RetryOutcome) {
        let key = format!("avail:{url}");
        retry.run(&key, |attempt| {
            self.closest_before(
                url,
                around,
                before,
                policy,
                client_timeout_ms,
                attempt_nonce(nonce, attempt),
            )
            .map_err(|error| AttemptFailure {
                cause: RetryCause::AvailabilityTimeout,
                retry_after_ms: None,
                error,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::StatusCode;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 1, 1)
    }

    fn snap(url: &str, at: SimTime, status: u16) -> Snapshot {
        let target = if (300..400).contains(&status) {
            Some(u("http://e.org/new"))
        } else {
            None
        };
        Snapshot::from_observation(&u(url), at, StatusCode(status), target, "b")
    }

    fn store() -> ArchiveStore {
        let mut s = ArchiveStore::new();
        s.insert(snap("http://e.org/a", t(2008), 200));
        s.insert(snap("http://e.org/a", t(2012), 301));
        s.insert(snap("http://e.org/a", t(2016), 404));
        s.insert(snap("http://e.org/a", t(2018), 200));
        s
    }

    /// A latency model that never trips timeouts (tail disabled, tiny median).
    fn instant() -> LatencyModel {
        LatencyModel::lookup_api(1).with_median(1.0).with_tail(0.0, 1.0, 1.0)
    }

    #[test]
    fn closest_picks_nearest_acceptable() {
        let s = store();
        let api = AvailabilityApi::new(&s, instant());
        // around 2013, 200-only: candidates are 2008 and 2018 → 2008 is 5y
        // away, 2018 is 5y away; tie broken by min_by_key stability (first
        // minimal = 2008)
        let got = api
            .closest(&u("http://e.org/a"), t(2014), AvailabilityPolicy::Initial200Only, None, 0)
            .unwrap()
            .unwrap();
        assert_eq!(got.captured, t(2018)); // 4 years vs 6 years
    }

    #[test]
    fn policy_filters() {
        let s = store();
        let api = AvailabilityApi::new(&s, instant());
        let url = u("http://e.org/a");
        // around 2012: redirect copy is exactly there but 200-only skips it
        let strict = api
            .closest(&url, t(2012), AvailabilityPolicy::Initial200Only, None, 0)
            .unwrap()
            .unwrap();
        assert_ne!(strict.captured, t(2012));
        let relaxed = api
            .closest(&url, t(2012), AvailabilityPolicy::AllowRedirects, None, 0)
            .unwrap()
            .unwrap();
        assert_eq!(relaxed.captured, t(2012));
        // Any accepts the 404 too
        let any = api
            .closest(&url, t(2016), AvailabilityPolicy::Any, None, 0)
            .unwrap()
            .unwrap();
        assert_eq!(any.captured, t(2016));
    }

    #[test]
    fn closest_before_excludes_later_copies() {
        let s = store();
        let api = AvailabilityApi::new(&s, instant());
        let got = api
            .closest_before(
                &u("http://e.org/a"),
                t(2014),
                t(2017),
                AvailabilityPolicy::Initial200Only,
                None,
                0,
            )
            .unwrap()
            .unwrap();
        // the 2018 copy exists but is after the cutoff
        assert_eq!(got.captured, t(2008));
    }

    #[test]
    fn unarchived_url_is_none_not_error() {
        let s = store();
        let api = AvailabilityApi::new(&s, instant());
        assert!(api
            .closest(&u("http://e.org/never"), t(2014), AvailabilityPolicy::Any, None, 0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn tight_timeout_times_out_sometimes() {
        let s = store();
        // heavy-tailed model + tight timeout
        let api = AvailabilityApi::new(&s, LatencyModel::lookup_api(7));
        let url = u("http://e.org/a");
        let outcomes: Vec<_> = (0..200)
            .map(|n| api.closest(&url, t(2014), AvailabilityPolicy::Any, Some(1_000), n))
            .collect();
        let timeouts = outcomes.iter().filter(|o| o.is_err()).count();
        assert!(timeouts > 0, "expected some timeouts");
        assert!(timeouts < 200, "expected some successes");
    }

    #[test]
    fn batch_lookup_amortizes_and_fails_together() {
        let s = store();
        let api = AvailabilityApi::new(&s, instant());
        let u1 = u("http://e.org/a");
        let u2 = u("http://e.org/never");
        let got = api
            .closest_batch(&[&u1, &u2], t(2014), AvailabilityPolicy::Initial200Only, None, 0)
            .unwrap();
        assert_eq!(got.len(), 2);
        assert!(got[0].is_some());
        assert!(got[1].is_none());

        // with a heavy-tailed model + tight timeout, some batches fail as a
        // whole — every URL in them goes unanswered
        let slow = AvailabilityApi::new(&s, LatencyModel::lookup_api(7));
        let outcomes: Vec<_> = (0..200)
            .map(|n| slow.closest_batch(&[&u1, &u2], t(2014), AvailabilityPolicy::Any, Some(1_000), n))
            .collect();
        assert!(outcomes.iter().any(|o| o.is_err()));
        assert!(outcomes.iter().any(|o| o.is_ok()));
    }

    #[test]
    fn equal_size_batches_do_not_share_timeout_fate() {
        let s = store();
        let slow = AvailabilityApi::new(&s, LatencyModel::lookup_api(7));
        let a = u("http://e.org/a");
        let b = u("http://e.org/never");
        let c = u("http://other.example/x");
        let d = u("http://elsewhere.example/y");
        // Two distinct batches of equal size. Under the old `avail-batch:{len}`
        // key they drew from the same latency stream, so for every nonce the
        // timeout verdicts agreed. Now they must diverge for some nonce.
        let diverges = (0..200).any(|n| {
            let first = slow
                .closest_batch(&[&a, &b], t(2014), AvailabilityPolicy::Any, Some(1_000), n)
                .is_err();
            let second = slow
                .closest_batch(&[&c, &d], t(2014), AvailabilityPolicy::Any, Some(1_000), n)
                .is_err();
            first != second
        });
        assert!(diverges, "equal-size batches still share latency draws");
        // and a given batch's fate stays deterministic per nonce
        for n in 0..50 {
            assert_eq!(
                slow.closest_batch(&[&a, &b], t(2014), AvailabilityPolicy::Any, Some(1_000), n)
                    .is_err(),
                slow.closest_batch(&[&a, &b], t(2014), AvailabilityPolicy::Any, Some(1_000), n)
                    .is_err()
            );
        }
    }

    #[test]
    fn attempt_nonce_identity_at_zero() {
        for base in [0u64, 1, 42, u64::MAX] {
            assert_eq!(attempt_nonce(base, 0), base);
            assert_ne!(attempt_nonce(base, 1), base);
            assert_ne!(attempt_nonce(base, 1), attempt_nonce(base, 2));
        }
    }

    #[test]
    fn single_attempt_retry_is_bit_identical_to_closest() {
        let s = store();
        let api = AvailabilityApi::new(&s, LatencyModel::lookup_api(7));
        let url = u("http://e.org/a");
        let single = permadead_net::RetryPolicy::single();
        // Snapshot has no PartialEq; compare by capture time
        let when = |r: &Result<Option<&Snapshot>, AvailabilityError>| {
            r.as_ref().map(|o| o.map(|s| s.captured)).map_err(|e| *e)
        };
        for n in 0..100 {
            let plain = api.closest(&url, t(2014), AvailabilityPolicy::Any, Some(1_000), n);
            let (wrapped, outcome) =
                api.closest_with_retry(&url, t(2014), AvailabilityPolicy::Any, Some(1_000), n, &single);
            assert_eq!(when(&plain), when(&wrapped));
            assert_eq!(outcome.tries(), 1);
        }
    }

    #[test]
    fn retries_rescue_lookups_the_single_attempt_missed() {
        let s = store();
        let api = AvailabilityApi::new(&s, LatencyModel::lookup_api(7));
        let url = u("http://e.org/a");
        let single = permadead_net::RetryPolicy::single();
        let retrying = permadead_net::RetryPolicy::standard(4, 0xB0);
        let mut rescued = 0;
        let mut single_timeouts = 0;
        for n in 0..200 {
            let (one, _) =
                api.closest_with_retry(&url, t(2014), AvailabilityPolicy::Any, Some(1_000), n, &single);
            let (many, outcome) =
                api.closest_with_retry(&url, t(2014), AvailabilityPolicy::Any, Some(1_000), n, &retrying);
            if one.is_err() {
                single_timeouts += 1;
                if many.is_ok() {
                    rescued += 1;
                    assert!(outcome.tries() > 1);
                    assert!(outcome.counts.availability_timeout > 0);
                }
            } else {
                // a first-attempt success never needs (or takes) a retry
                assert_eq!(outcome.tries(), 1);
                assert_eq!(
                    many.map(|o| o.map(|s| s.captured)),
                    one.map(|o| o.map(|s| s.captured))
                );
            }
        }
        assert!(single_timeouts > 0, "latency model never timed out");
        assert!(rescued > 0, "retries rescued nothing");
    }

    #[test]
    fn no_timeout_when_unbounded() {
        let s = store();
        let api = AvailabilityApi::new(&s, LatencyModel::lookup_api(7));
        for n in 0..200 {
            assert!(api
                .closest(&u("http://e.org/a"), t(2014), AvailabilityPolicy::Any, None, n)
                .is_ok());
        }
    }
}
