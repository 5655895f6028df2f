//! Historical-redirect validation (§4.2).
//!
//! IABot ignores every archived copy in which the crawler saw a redirect,
//! because redirects are often erroneous (a dead article 302-ing to the
//! homepage). The paper's counter-test: an archived redirection for URL `u`
//! is *not* erroneous when its target was unique — no other URL in `u`'s
//! directory redirected to the same target around that time. Concretely:
//! compare the target against those seen for **up to 6 other URLs within 90
//! days** of the copy.

use permadead_archive::{attempt_nonce, ArchiveStore, Snapshot, TimedCdx};
use permadead_net::latency::Millis;
use permadead_net::{AttemptFailure, Duration, RetryCause, RetryOutcome, RetryPolicy};
use permadead_url::{surt_directory_prefix, Url};

/// The comparison window around the archived copy.
pub const WINDOW: Duration = Duration::days(90);
/// How many sibling URLs are consulted.
pub const MAX_SIBLINGS: usize = 6;

/// Verdict on one archived 3xx copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedirectVerdict {
    /// No sibling shared the target: the redirection looks genuine, and the
    /// copy could patch the link.
    Valid,
    /// At least one sibling redirected to the same target — a catch-all.
    Erroneous { shared_target: Url },
    /// The snapshot carries no target (malformed capture) — unusable.
    NoTarget,
    /// The CDX lookup never answered within the retry schedule: the copy
    /// might be valid, but nobody could check. Counted as not-valid — the
    /// safely pessimistic reading, and exactly what a timeout-bound bot
    /// would conclude.
    Unverified,
}

impl RedirectVerdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, RedirectVerdict::Valid)
    }
}

/// Validate an archived redirect against its directory siblings, with the
/// paper's parameters (±90 days, 6 siblings).
pub fn validate_redirect(archive: &ArchiveStore, snap: &Snapshot) -> RedirectVerdict {
    validate_redirect_with(archive, snap, WINDOW, MAX_SIBLINGS)
}

/// Parameterized variant, used by the sensitivity ablation (EXPERIMENTS.md
/// §7): wider windows and more siblings catch more catch-alls but cost more
/// CDX rows.
pub fn validate_redirect_with(
    archive: &ArchiveStore,
    snap: &Snapshot,
    window: Duration,
    max_siblings: usize,
) -> RedirectVerdict {
    let Some(target) = &snap.redirect_target else {
        return RedirectVerdict::NoTarget;
    };
    let rows = archive.scan_surt_prefix(&surt_directory_prefix(&snap.url));
    compare_against_siblings(rows, snap, target, window, max_siblings)
}

/// The comparison core, streamed over `rows`, the snapshot's directory in
/// key order: is `target` shared by any 3xx capture, within `window` of
/// the snapshot, of the first `max_siblings` distinct sibling URLs (in
/// SURT order)?
///
/// Key order keeps each URL's rows together and the URLs in SURT order
/// ([`ArchiveStore::scan_surt_prefix`]), so a sibling is counted when its
/// first qualifying row arrives, the first `max_siblings` met are the
/// smallest, and every row of each is compared. The scan stops when sibling
/// `max_siblings + 1` starts. An earlier version counted siblings by
/// adjacency over rows in any order: there, repeat captures of one sibling
/// burned several cap slots, and the row that tripped the cap was skipped
/// without ever being compared.
fn compare_against_siblings<'a>(
    rows: impl Iterator<Item = &'a Snapshot>,
    snap: &Snapshot,
    target: &Url,
    window: Duration,
    max_siblings: usize,
) -> RedirectVerdict {
    let (from, to) = (snap.captured - window, snap.captured + window);
    let mut sibling: Option<&str> = None;
    let mut siblings = 0;
    for other in rows {
        if other.status_family() != 3 || other.captured < from || other.captured >= to {
            continue;
        }
        if other.surt == snap.surt {
            continue;
        }
        if sibling != Some(other.surt.as_str()) {
            if siblings == max_siblings {
                break;
            }
            siblings += 1;
            sibling = Some(&other.surt);
        }
        if other.redirect_target.as_deref() == Some(target) {
            return RedirectVerdict::Erroneous {
                shared_target: target.clone(),
            };
        }
    }
    RedirectVerdict::Valid
}

/// [`validate_redirect`] against a latency-bound CDX server: the sibling
/// query can miss `cdx_timeout_ms`, and each retry attempt is an independent
/// latency draw (via [`attempt_nonce`]). Exhaustion yields
/// [`RedirectVerdict::Unverified`].
///
/// With `cdx_timeout_ms: None` no latency is drawn and the verdict is
/// bit-identical to [`validate_redirect`], whatever the policy.
pub fn validate_redirect_with_retry(
    archive: &ArchiveStore,
    snap: &Snapshot,
    cdx_timeout_ms: Option<Millis>,
    latency_seed: u64,
    nonce: u64,
    retry: &RetryPolicy,
) -> (RedirectVerdict, RetryOutcome) {
    let api = TimedCdx::new(archive, latency_seed, cdx_timeout_ms);
    let prefix = surt_directory_prefix(&snap.url);
    let key = format!("redirect:{}", snap.url);
    let (result, outcome) = retry.run(&key, |attempt| {
        let Some(target) = &snap.redirect_target else {
            return Ok(RedirectVerdict::NoTarget);
        };
        let rows = api
            .directory_rows(&prefix, attempt_nonce(nonce, attempt))
            .map_err(|_| AttemptFailure {
                cause: RetryCause::AvailabilityTimeout,
                retry_after_ms: None,
                error: (),
            })?;
        Ok(compare_against_siblings(
            rows,
            snap,
            target,
            WINDOW,
            MAX_SIBLINGS,
        ))
    });
    (result.unwrap_or(RedirectVerdict::Unverified), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_archive::Snapshot;
    use permadead_net::{SimTime, StatusCode};

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32, m: u32, d: u32) -> SimTime {
        SimTime::from_ymd(y, m, d)
    }

    fn redirect_snap(url: &str, at: SimTime, to: &str) -> Snapshot {
        Snapshot::from_observation(
            &u(url),
            at,
            StatusCode::MOVED_PERMANENTLY,
            Some(u(to)),
            "",
        )
    }

    #[test]
    fn unique_target_is_valid() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap(
            "http://m.org/region/floersheim/9204093.htm",
            t(2014, 5, 1),
            "http://m.org/lokales/floersheim/index.htm",
        );
        a.insert(snap.clone());
        // a sibling captured nearby that redirects somewhere else
        a.insert(redirect_snap(
            "http://m.org/region/floersheim/other.htm",
            t(2014, 5, 20),
            "http://m.org/lokales/other/index.htm",
        ));
        // and a live sibling (no redirect at all)
        a.insert(Snapshot::from_observation(
            &u("http://m.org/region/floersheim/live.htm"),
            t(2014, 5, 10),
            StatusCode::OK,
            None,
            "body",
        ));
        assert_eq!(validate_redirect(&a, &snap), RedirectVerdict::Valid);
    }

    #[test]
    fn shared_target_is_erroneous() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        a.insert(redirect_snap("http://n.org/news/b.html", t(2015, 2, 15), "http://n.org/"));
        match validate_redirect(&a, &snap) {
            RedirectVerdict::Erroneous { shared_target } => {
                assert_eq!(shared_target, u("http://n.org/"));
            }
            other => panic!("expected erroneous, got {other:?}"),
        }
    }

    #[test]
    fn siblings_outside_window_ignored() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        // same catch-all target, but a year later — outside ±90 days
        a.insert(redirect_snap("http://n.org/news/b.html", t(2016, 6, 1), "http://n.org/"));
        assert_eq!(validate_redirect(&a, &snap), RedirectVerdict::Valid);
    }

    #[test]
    fn siblings_in_other_directories_ignored() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        a.insert(redirect_snap("http://n.org/sports/b.html", t(2015, 2, 10), "http://n.org/"));
        assert_eq!(validate_redirect(&a, &snap), RedirectVerdict::Valid);
    }

    #[test]
    fn sibling_cap_respected() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        // 6 decoy siblings with *different* targets sort before the
        // catch-all one; the 7th (same target) is beyond the cap
        for i in 0..6 {
            a.insert(redirect_snap(
                &format!("http://n.org/news/b{i}.html"),
                t(2015, 2, 10),
                &format!("http://n.org/elsewhere{i}"),
            ));
        }
        a.insert(redirect_snap("http://n.org/news/zzz.html", t(2015, 2, 10), "http://n.org/"));
        assert_eq!(validate_redirect(&a, &snap), RedirectVerdict::Valid);
    }

    #[test]
    fn missing_target_unusable() {
        let mut a = ArchiveStore::new();
        let snap = Snapshot::from_observation(
            &u("http://n.org/news/a.html"),
            t(2015, 2, 1),
            StatusCode::FOUND,
            None,
            "",
        );
        a.insert(snap.clone());
        assert_eq!(validate_redirect(&a, &snap), RedirectVerdict::NoTarget);
    }

    #[test]
    fn no_siblings_at_all_is_valid() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/new-a");
        a.insert(snap.clone());
        assert_eq!(validate_redirect(&a, &snap), RedirectVerdict::Valid);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![0]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for slot in 0..n {
                let mut q = p.clone();
                q.insert(slot, n - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn verdict_is_independent_of_row_order() {
        // Three distinct siblings — exactly the cap — one of which shares the
        // target, and one of which was captured twice. The adjacency-counting
        // implementation double-counted the repeat capture when rows arrived
        // interleaved, tripped the cap early, and skipped the catch-all row
        // without comparing it: Valid under some orders, Erroneous under
        // others. The verdict must not depend on the order the rows were
        // archived in.
        let target = u("http://n.org/");
        let own = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        let rows_owned = [
            redirect_snap("http://n.org/news/dup.html", t(2015, 2, 5), "http://n.org/one"),
            redirect_snap("http://n.org/news/mid.html", t(2015, 2, 8), "http://n.org/two"),
            redirect_snap("http://n.org/news/dup.html", t(2015, 2, 12), "http://n.org/three"),
            redirect_snap("http://n.org/news/zzz.html", t(2015, 2, 15), "http://n.org/"),
        ];
        let orders = permutations(rows_owned.len());
        assert_eq!(orders.len(), 24);
        for perm in orders {
            let mut a = ArchiveStore::new();
            a.insert(own.clone());
            for &i in &perm {
                a.insert(rows_owned[i].clone());
            }
            assert_eq!(
                validate_redirect_with(&a, &own, WINDOW, 3),
                RedirectVerdict::Erroneous {
                    shared_target: target.clone()
                },
                "order {perm:?}"
            );
            // one sibling fewer leaves the catch-all out
            assert_eq!(
                validate_redirect_with(&a, &own, WINDOW, 2),
                RedirectVerdict::Valid
            );
        }
    }

    #[test]
    fn the_stream_stops_when_the_sibling_past_the_cap_starts() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        for name in ["b", "c", "d"] {
            for d in 0..2 {
                a.insert(redirect_snap(
                    &format!("http://n.org/news/{name}.html"),
                    t(2015, 2, 3 + d),
                    "http://n.org/elsewhere",
                ));
            }
        }
        // the own row and both rows of b and c, then the first of d
        let before = a.rows_scanned.get();
        assert_eq!(
            validate_redirect_with(&a, &snap, WINDOW, 2),
            RedirectVerdict::Valid
        );
        assert_eq!(a.rows_scanned.get() - before, 6);
    }

    #[test]
    fn repeat_captures_do_not_burn_cap_slots() {
        // one sibling captured 7 times with harmless targets, plus the
        // catch-all: two distinct siblings, well under the cap of 6 — the
        // catch-all must be found no matter how many rows precede it
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        for d in 0..7 {
            a.insert(redirect_snap(
                "http://n.org/news/busy.html",
                t(2015, 2, 3 + d),
                &format!("http://n.org/v{d}"),
            ));
        }
        a.insert(redirect_snap("http://n.org/news/zzz.html", t(2015, 2, 20), "http://n.org/"));
        match validate_redirect(&a, &snap) {
            RedirectVerdict::Erroneous { shared_target } => {
                assert_eq!(shared_target, u("http://n.org/"));
            }
            other => panic!("expected erroneous, got {other:?}"),
        }
    }

    #[test]
    fn unverified_is_not_valid() {
        assert!(!RedirectVerdict::Unverified.is_valid());
    }

    #[test]
    fn single_policy_without_timeout_is_bit_identical() {
        let mut a = ArchiveStore::new();
        let valid = redirect_snap("http://m.org/d/a.html", t(2014, 5, 1), "http://m.org/new-a");
        a.insert(valid.clone());
        let erroneous = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(erroneous.clone());
        a.insert(redirect_snap("http://n.org/news/b.html", t(2015, 2, 15), "http://n.org/"));
        let no_target = Snapshot::from_observation(
            &u("http://n.org/news/bare.html"),
            t(2015, 2, 1),
            StatusCode::FOUND,
            None,
            "",
        );
        a.insert(no_target.clone());
        let single = permadead_net::RetryPolicy::single();
        for snap in [&valid, &erroneous, &no_target] {
            let plain = validate_redirect(&a, snap);
            let (wrapped, outcome) =
                validate_redirect_with_retry(&a, snap, None, 7, 0, &single);
            assert_eq!(plain, wrapped);
            assert_eq!(outcome.tries(), 1);
            assert_eq!(outcome.counts.total(), 0);
        }
    }

    #[test]
    fn exhausted_cdx_lookup_is_unverified() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        // a zero timeout no latency draw can beat: every attempt times out
        let retrying = permadead_net::RetryPolicy::standard(3, 0xC1);
        let (verdict, outcome) =
            validate_redirect_with_retry(&a, &snap, Some(0), 7, 0, &retrying);
        assert_eq!(verdict, RedirectVerdict::Unverified);
        assert_eq!(outcome.tries(), 3);
        assert_eq!(outcome.counts.availability_timeout, 2);
        assert!(outcome.exhausted);
    }

    #[test]
    fn retries_rescue_timed_out_validations() {
        let mut a = ArchiveStore::new();
        let snap = redirect_snap("http://n.org/news/a.html", t(2015, 2, 1), "http://n.org/");
        a.insert(snap.clone());
        a.insert(redirect_snap("http://n.org/news/b.html", t(2015, 2, 15), "http://n.org/"));
        let truth = validate_redirect(&a, &snap);
        let single = permadead_net::RetryPolicy::single();
        let retrying = permadead_net::RetryPolicy::standard(4, 0xC2);
        let mut rescued = 0;
        for nonce in 0..200 {
            let (one, _) =
                validate_redirect_with_retry(&a, &snap, Some(1_000), 7, nonce, &single);
            let (many, outcome) =
                validate_redirect_with_retry(&a, &snap, Some(1_000), 7, nonce, &retrying);
            if one == RedirectVerdict::Unverified && many != RedirectVerdict::Unverified {
                rescued += 1;
                assert_eq!(many, truth);
                assert!(outcome.tries() > 1);
            }
            // any answered lookup must agree with the latency-free truth
            if many != RedirectVerdict::Unverified {
                assert_eq!(many, truth);
            }
        }
        assert!(rescued > 0, "retries rescued nothing");
    }
}
