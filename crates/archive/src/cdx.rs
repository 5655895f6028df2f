//! The CDX query API.
//!
//! Mirrors the Wayback CDX server's query surface at the fidelity the paper
//! uses it (§5.2: "we query Wayback Machine using its CDX API to find other
//! similar URLs for which it does have 200 status code archived copies" —
//! once per directory, once per hostname). Queries compile to SURT range
//! scans over [`ArchiveStore`].

use crate::snapshot::Snapshot;
use crate::store::ArchiveStore;
use permadead_net::latency::{LatencyModel, Millis};
use permadead_net::SimTime;
use permadead_url::Url;

/// How a query key matches stored URLs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdxMatchType {
    /// Exactly this URL.
    Exact(Url),
    /// Everything in the URL's directory (same prefix until the last '/').
    DirectoryOf(Url),
    /// Everything under a hostname.
    Host(String),
}

impl CdxMatchType {
    /// The SURT prefix the store scans for this match.
    fn prefix(&self) -> String {
        match self {
            CdxMatchType::Exact(url) => permadead_url::surt(url),
            CdxMatchType::DirectoryOf(url) => permadead_url::surt_directory_prefix(url),
            CdxMatchType::Host(host) => permadead_url::surt_host_prefix(host),
        }
    }

    /// The scan's name in its latency key.
    fn kind(&self) -> &'static str {
        match self {
            CdxMatchType::Exact(_) => "exact",
            CdxMatchType::DirectoryOf(_) => DIRECTORY,
            CdxMatchType::Host(_) => "host",
        }
    }
}

/// [`CdxMatchType::DirectoryOf`]'s name in a latency key.
const DIRECTORY: &str = "dir";

/// Status-code filter, at the granularity CDX exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatusFilter {
    /// Any status.
    #[default]
    Any,
    /// Exactly this code.
    Code(u16),
    /// This family (2 ⇒ 2xx, 3 ⇒ 3xx, …).
    Family(u16),
}

impl StatusFilter {
    fn matches(self, snap: &Snapshot) -> bool {
        match self {
            StatusFilter::Any => true,
            StatusFilter::Code(c) => snap.initial_status.as_u16() == c,
            StatusFilter::Family(f) => snap.status_family() == f,
        }
    }
}

/// A CDX query.
#[derive(Debug, Clone)]
pub struct CdxQuery {
    pub match_type: CdxMatchType,
    pub status: StatusFilter,
    /// Only captures at or after this time.
    pub from: Option<SimTime>,
    /// Only captures strictly before this time.
    pub to: Option<SimTime>,
    /// Stop after this many rows (the real API caps responses; bots rely on
    /// it — IABot-style lookups never page through millions of rows).
    pub limit: Option<usize>,
    /// At most one row per distinct URL (CDX `collapse=urlkey`).
    pub collapse_url: bool,
}

impl CdxQuery {
    pub fn exact(url: &Url) -> Self {
        CdxQuery {
            match_type: CdxMatchType::Exact(url.clone()),
            status: StatusFilter::Any,
            from: None,
            to: None,
            limit: None,
            collapse_url: false,
        }
    }

    pub fn directory_of(url: &Url) -> Self {
        CdxQuery {
            match_type: CdxMatchType::DirectoryOf(url.clone()),
            ..CdxQuery::exact(url)
        }
    }

    pub fn host(host: &str) -> Self {
        CdxQuery {
            match_type: CdxMatchType::Host(host.to_string()),
            status: StatusFilter::Any,
            from: None,
            to: None,
            limit: None,
            collapse_url: false,
        }
    }

    pub fn with_status(mut self, status: StatusFilter) -> Self {
        self.status = status;
        self
    }

    pub fn since(mut self, t: SimTime) -> Self {
        self.from = Some(t);
        self
    }

    pub fn until(mut self, t: SimTime) -> Self {
        self.to = Some(t);
        self
    }

    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    pub fn collapsed(mut self) -> Self {
        self.collapse_url = true;
        self
    }
}

/// The CDX API endpoint.
pub struct CdxApi<'a> {
    store: &'a ArchiveStore,
}

impl<'a> CdxApi<'a> {
    pub fn new(store: &'a ArchiveStore) -> Self {
        CdxApi { store }
    }

    /// The rows a query matches, in key order, before collapse and limit.
    fn matching(&self, q: &CdxQuery) -> impl Iterator<Item = &'a Snapshot> + 'a {
        let prefix = q.match_type.prefix();
        let exact = matches!(q.match_type, CdxMatchType::Exact(_));
        let (status, from, to) = (q.status, q.from, q.to);
        let rows = self.store.scan_surt_prefix(&prefix);
        rows.filter(move |snap| {
            (!exact || snap.surt == prefix)
                && status.matches(snap)
                && from.is_none_or(|f| snap.captured >= f)
                && to.is_none_or(|t| snap.captured < t)
        })
    }

    /// Run a query, returning snapshots in SURT-then-time order.
    pub fn query(&self, q: &CdxQuery) -> Vec<&'a Snapshot> {
        let mut out = Vec::new();
        let mut last_surt: Option<&str> = None;
        for snap in self.matching(q) {
            if q.collapse_url && last_surt == Some(snap.surt.as_str()) {
                continue;
            }
            last_surt = Some(snap.surt.as_str());
            out.push(snap);
            if q.limit.is_some_and(|l| out.len() >= l) {
                break;
            }
        }
        out
    }

    /// Count rows a query would return (respects the limit).
    pub fn count(&self, q: &CdxQuery) -> usize {
        self.query(q).len()
    }

    /// Number of *distinct URLs* with at least one snapshot matching the
    /// query — what Figure 6's x-axis counts. The query's limit caps the
    /// count, as it caps a collapsed query's rows. Counted as the scan
    /// reads: rows arrive grouped by SURT, so each new SURT is a new URL.
    pub fn distinct_url_count(&self, q: &CdxQuery) -> usize {
        let mut urls = 0;
        let mut last_surt: Option<&str> = None;
        for snap in self.matching(q) {
            if last_surt == Some(snap.surt.as_str()) {
                continue;
            }
            last_surt = Some(snap.surt.as_str());
            urls += 1;
            if q.limit.is_some_and(|l| urls >= l) {
                break;
            }
        }
        urls
    }
}

/// CDX lookup failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdxError {
    /// The API did not answer within the caller's timeout. Like the
    /// Availability API's timeout (§4.1), the caller cannot distinguish this
    /// from "no rows" unless it retries — treating it as an empty result is
    /// exactly the blind spot the §4.2 and §5.2 analyses inherit.
    Timeout,
}

/// [`CdxApi`] behind the shared lookup service's heavy-tailed latency — the
/// CDX server is the same public infrastructure as the Availability API, so
/// its queries can miss a client timeout too.
///
/// `timeout_ms: None` waits forever *and skips the latency draw entirely*:
/// results, and every downstream random stream, are bit-identical to the raw
/// [`CdxApi`]. `nonce` distinguishes repeated calls (each is an independent
/// draw); retried callers derive it via
/// [`attempt_nonce`](crate::availability::attempt_nonce).
pub struct TimedCdx<'a> {
    api: CdxApi<'a>,
    latency: LatencyModel,
    timeout_ms: Option<Millis>,
}

impl<'a> TimedCdx<'a> {
    pub fn new(store: &'a ArchiveStore, latency_seed: u64, timeout_ms: Option<Millis>) -> Self {
        TimedCdx {
            api: CdxApi::new(store),
            latency: LatencyModel::lookup_api(latency_seed),
            timeout_ms,
        }
    }

    /// Pay one latency draw. The latency stream is keyed by what the server
    /// scans (`cdx-<kind>:<prefix>`, the key built only when there is a
    /// timeout to miss), so two queries over different directories (or a
    /// directory vs. its host) draw independently, while re-asking the same
    /// question re-draws only via the nonce.
    fn wait(
        &self,
        kind: &str,
        prefix: impl FnOnce() -> String,
        nonce: u64,
    ) -> Result<(), CdxError> {
        let Some(timeout) = self.timeout_ms else {
            return Ok(());
        };
        let key = format!("cdx-{kind}:{}", prefix());
        if self.latency.exceeds_timeout(&key, nonce, timeout) {
            return Err(CdxError::Timeout);
        }
        Ok(())
    }

    fn wait_for(&self, q: &CdxQuery, nonce: u64) -> Result<(), CdxError> {
        self.wait(q.match_type.kind(), || q.match_type.prefix(), nonce)
    }

    /// [`CdxApi::query`], paying one latency draw.
    pub fn query(&self, q: &CdxQuery, nonce: u64) -> Result<Vec<&'a Snapshot>, CdxError> {
        self.wait_for(q, nonce)?;
        Ok(self.api.query(q))
    }

    /// [`CdxApi::distinct_url_count`], paying one latency draw.
    pub fn distinct_url_count(&self, q: &CdxQuery, nonce: u64) -> Result<usize, CdxError> {
        self.wait_for(q, nonce)?;
        Ok(self.api.distinct_url_count(q))
    }

    /// Every row of one directory, in key order
    /// ([`ArchiveStore::scan_surt_prefix`]), for a caller that filters as it
    /// reads and may stop early. `prefix` is the directory's
    /// [`permadead_url::surt_directory_prefix`]; the latency draw is the one
    /// a [`CdxMatchType::DirectoryOf`] query over it pays.
    pub fn directory_rows(
        &self,
        prefix: &str,
        nonce: u64,
    ) -> Result<impl Iterator<Item = &'a Snapshot> + 'a, CdxError> {
        self.wait(DIRECTORY, || prefix.to_string(), nonce)?;
        Ok(self.api.store.scan_surt_prefix(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::StatusCode;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32, m: u32) -> SimTime {
        SimTime::from_ymd(y, m, 1)
    }

    fn snap(url: &str, at: SimTime, status: u16) -> Snapshot {
        let target = if (300..400).contains(&status) {
            Some(u("http://e.org/"))
        } else {
            None
        };
        Snapshot::from_observation(&u(url), at, StatusCode(status), target, "b")
    }

    fn store() -> ArchiveStore {
        let mut s = ArchiveStore::new();
        s.insert(snap("http://e.org/d/a.html", t(2010, 1), 200));
        s.insert(snap("http://e.org/d/a.html", t(2012, 1), 301));
        s.insert(snap("http://e.org/d/a.html", t(2014, 1), 404));
        s.insert(snap("http://e.org/d/b.html", t(2011, 1), 200));
        s.insert(snap("http://e.org/d/b.html", t(2013, 1), 200));
        s.insert(snap("http://e.org/x/c.html", t(2011, 1), 200));
        s.insert(snap("http://other.org/d/a.html", t(2011, 1), 200));
        s
    }

    #[test]
    fn exact_query() {
        let s = store();
        let api = CdxApi::new(&s);
        let rows = api.query(&CdxQuery::exact(&u("http://e.org/d/a.html")));
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].captured <= w[1].captured));
    }

    #[test]
    fn exact_does_not_leak_prefix_cousins() {
        // "…/d/a.html" must not match "…/d/a.html2" style keys
        let mut s = store();
        s.insert(snap("http://e.org/d/a.html2", t(2010, 1), 200));
        let api = CdxApi::new(&s);
        assert_eq!(api.query(&CdxQuery::exact(&u("http://e.org/d/a.html"))).len(), 3);
    }

    #[test]
    fn status_filters() {
        let s = store();
        let api = CdxApi::new(&s);
        let url = u("http://e.org/d/a.html");
        assert_eq!(
            api.query(&CdxQuery::exact(&url).with_status(StatusFilter::Code(200))).len(),
            1
        );
        assert_eq!(
            api.query(&CdxQuery::exact(&url).with_status(StatusFilter::Family(3))).len(),
            1
        );
        assert_eq!(
            api.query(&CdxQuery::exact(&url).with_status(StatusFilter::Family(4))).len(),
            1
        );
    }

    #[test]
    fn time_range() {
        let s = store();
        let api = CdxApi::new(&s);
        let url = u("http://e.org/d/a.html");
        let rows = api.query(&CdxQuery::exact(&url).since(t(2011, 1)).until(t(2014, 1)));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].captured, t(2012, 1));
    }

    #[test]
    fn directory_query() {
        let s = store();
        let api = CdxApi::new(&s);
        let q = CdxQuery::directory_of(&u("http://e.org/d/whatever.html"))
            .with_status(StatusFilter::Code(200));
        // 200s in /d/: a.html@2010, b.html@2011, b.html@2013
        assert_eq!(api.count(&q), 3);
        // distinct URLs with a 200 in /d/: a.html, b.html
        assert_eq!(api.distinct_url_count(&q), 2);
    }

    #[test]
    fn host_query() {
        let s = store();
        let api = CdxApi::new(&s);
        let q = CdxQuery::host("e.org").with_status(StatusFilter::Code(200));
        assert_eq!(api.count(&q), 4);
        assert_eq!(api.distinct_url_count(&q), 3);
    }

    #[test]
    fn limit_caps_rows() {
        let s = store();
        let api = CdxApi::new(&s);
        let q = CdxQuery::host("e.org").with_limit(2);
        assert_eq!(api.count(&q), 2);
    }

    #[test]
    fn collapse_dedupes_urls() {
        let s = store();
        let api = CdxApi::new(&s);
        let q = CdxQuery::host("e.org").collapsed();
        assert_eq!(api.count(&q), 3); // a.html, b.html, c.html
    }

    #[test]
    fn empty_result_for_unknown() {
        let s = store();
        let api = CdxApi::new(&s);
        assert_eq!(api.count(&CdxQuery::exact(&u("http://nowhere.org/x"))), 0);
        assert_eq!(api.count(&CdxQuery::host("nowhere.org")), 0);
    }

    #[test]
    fn timed_cdx_without_timeout_is_bit_identical_to_raw() {
        let s = store();
        let raw = CdxApi::new(&s);
        let timed = TimedCdx::new(&s, 7, None);
        let q = CdxQuery::host("e.org").with_status(StatusFilter::Code(200));
        for nonce in 0..50 {
            let fast = timed.query(&q, nonce).expect("unbounded query cannot time out");
            assert_eq!(fast.len(), raw.query(&q).len());
            assert_eq!(timed.distinct_url_count(&q, nonce), Ok(raw.distinct_url_count(&q)));
        }
    }

    #[test]
    fn timed_cdx_tight_timeout_times_out_sometimes() {
        let s = store();
        let timed = TimedCdx::new(&s, 7, Some(1_000));
        let raw = CdxApi::new(&s);
        let q = CdxQuery::host("e.org");
        let outcomes: Vec<_> = (0..200).map(|n| timed.query(&q, n)).collect();
        let timeouts = outcomes.iter().filter(|o| o.is_err()).count();
        assert!(timeouts > 0, "expected some timeouts");
        assert!(timeouts < 200, "expected some successes");
        // a success returns exactly the raw rows
        for o in outcomes.into_iter().flatten() {
            assert_eq!(o.len(), raw.query(&q).len());
        }
    }

    #[test]
    fn directory_rows_draw_as_a_directory_query_does() {
        let s = store();
        let url = u("http://e.org/d/whatever.html");
        let prefix = permadead_url::surt_directory_prefix(&url);
        let dir = CdxQuery::directory_of(&url);
        for timeout in [None, Some(1_000)] {
            let timed = TimedCdx::new(&s, 7, timeout);
            let mut timeouts = 0;
            for nonce in 0..200 {
                let rows = timed.directory_rows(&prefix, nonce).map(|r| r.count());
                assert_eq!(
                    rows.is_err(),
                    timed.query(&dir, nonce).is_err(),
                    "nonce {nonce}"
                );
                timeouts += usize::from(rows.is_err());
                if let Ok(n) = rows {
                    assert_eq!(n, 5); // every status, every time
                }
            }
            assert_eq!(timeouts > 0, timeout.is_some());
        }
    }

    #[test]
    fn timed_cdx_distinct_queries_draw_independently() {
        let s = store();
        let timed = TimedCdx::new(&s, 7, Some(1_000));
        let dir = CdxQuery::directory_of(&u("http://e.org/d/whatever.html"));
        let host = CdxQuery::host("e.org");
        // the same nonce must not tie the directory query's fate to the
        // host query's — their latency keys differ
        let diverges =
            (0..200).any(|n| timed.query(&dir, n).is_err() != timed.query(&host, n).is_err());
        assert!(diverges, "directory and host queries share latency draws");
    }

    mod completeness {
        //! The range-scan answers must equal a brute-force filter over every
        //! snapshot — for arbitrary stores and arbitrary queries.
        use super::*;
        use proptest::prelude::*;

        fn brute_force<'a>(
            store: &'a ArchiveStore,
            q: &CdxQuery,
        ) -> Vec<&'a Snapshot> {
            let mut rows: Vec<&Snapshot> = store
                .scan_surt_prefix("")
                .filter(|s| match &q.match_type {
                    CdxMatchType::Exact(url) => s.surt == permadead_url::surt(url),
                    CdxMatchType::DirectoryOf(url) => {
                        s.surt.starts_with(&permadead_url::surt_directory_prefix(url))
                    }
                    CdxMatchType::Host(host) => {
                        s.surt.starts_with(&permadead_url::surt_host_prefix(host))
                    }
                })
                .filter(|s| match q.status {
                    StatusFilter::Any => true,
                    StatusFilter::Code(c) => s.initial_status.as_u16() == c,
                    StatusFilter::Family(f) => s.status_family() == f,
                })
                .filter(|s| q.from.is_none_or(|f| s.captured >= f))
                .filter(|s| q.to.is_none_or(|t| s.captured < t))
                .collect();
            if q.collapse_url {
                let mut seen = std::collections::HashSet::new();
                rows.retain(|s| seen.insert(s.surt.clone()));
            }
            if let Some(l) = q.limit {
                rows.truncate(l);
            }
            rows
        }

        proptest! {
            #[test]
            fn scan_matches_brute_force(
                entries in proptest::collection::vec(
                    (
                        "[ab]{1,2}\\.(org|sim)",          // host
                        "(/[a-c]{1,2}){1,3}",            // path
                        prop_oneof![Just(200u16), Just(301), Just(404)],
                        0i64..4000,                       // day
                    ),
                    0..24,
                ),
                host_q in "[ab]{1,2}\\.(org|sim)",
                dir_q in "(/[a-c]{1,2}){1,2}/x",
                fam in prop_oneof![Just(StatusFilter::Any), Just(StatusFilter::Code(200)), Just(StatusFilter::Family(3))],
                limit in proptest::option::of(1usize..5),
                collapse in any::<bool>(),
            ) {
                let mut store = ArchiveStore::new();
                for (host, path, status, day) in &entries {
                    let target = (300..400).contains(status).then(|| u(&format!("http://{host}/")));
                    store.insert(Snapshot::from_observation(
                        &u(&format!("http://{host}{path}")),
                        SimTime(day * 86_400),
                        StatusCode(*status),
                        target,
                        "b",
                    ));
                }
                let api = CdxApi::new(&store);
                for match_type in [
                    CdxMatchType::Host(host_q.clone()),
                    CdxMatchType::DirectoryOf(u(&format!("http://{host_q}{dir_q}"))),
                    CdxMatchType::Exact(u(&format!("http://{host_q}{dir_q}"))),
                ] {
                    let mut q = CdxQuery::host("placeholder");
                    q.match_type = match_type;
                    q.status = fam;
                    q.limit = limit;
                    q.collapse_url = collapse;
                    let fast: Vec<String> = api.query(&q).iter().map(|s| format!("{}@{}", s.surt, s.captured)).collect();
                    let slow: Vec<String> = brute_force(&store, &q).iter().map(|s| format!("{}@{}", s.surt, s.captured)).collect();
                    prop_assert_eq!(fast, slow);
                }
            }
        }
    }
}
