//! The snapshot store: a SURT-ordered index over every capture.
//!
//! Keys are `(surt, captured, seq)`; lexicographic order on SURT makes every
//! CDX query — exact URL, directory prefix, whole host — a contiguous range
//! scan, exactly the property the real CDX server's sorted files provide.

use crate::snapshot::Snapshot;
use permadead_net::SimTime;
use permadead_url::Url;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Ordered snapshot storage.
#[derive(Debug, Default)]
pub struct ArchiveStore {
    /// (surt, capture time, insertion seq) → snapshot. The seq breaks ties
    /// when the same URL is captured twice in one instant.
    index: BTreeMap<(String, SimTime, u64), Snapshot>,
    seq: u64,
    /// Index-access accounting: how many scans were issued and how many
    /// rows they touched (the cost axis of the paper's efficiency-vs-
    /// coverage tradeoff).
    pub lookups: permadead_net::metrics::Counter,
    pub rows_scanned: permadead_net::metrics::Counter,
}

impl ArchiveStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a capture.
    pub fn insert(&mut self, snapshot: Snapshot) {
        let key = (snapshot.surt.clone(), snapshot.captured, self.seq);
        self.seq += 1;
        self.index.insert(key, snapshot);
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Monotone insertion counter: bumps on every [`insert`](Self::insert)
    /// and never decreases, so derived state (e.g. an archive content
    /// digest) can be cached against it instead of rescanning the index.
    pub fn mutation_stamp(&self) -> u64 {
        self.seq
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// All snapshots of exactly this URL, in capture order.
    pub fn snapshots_of(&self, url: &Url) -> Vec<&Snapshot> {
        let surt = permadead_url::surt(url);
        self.range_by_exact_surt(&surt).collect()
    }

    /// Snapshots of this URL captured in `[from, to)`.
    pub fn snapshots_of_between(
        &self,
        url: &Url,
        from: SimTime,
        to: SimTime,
    ) -> Vec<&Snapshot> {
        self.snapshots_of(url)
            .into_iter()
            .filter(|s| s.captured >= from && s.captured < to)
            .collect()
    }

    /// The earliest capture of this URL, if any.
    pub fn first_snapshot_of(&self, url: &Url) -> Option<&Snapshot> {
        let surt = permadead_url::surt(url);
        self.range_by_exact_surt(&surt).next()
    }

    /// Iterate snapshots whose SURT starts with `prefix`, in key order.
    /// This is the raw scan the CDX API's prefix/host modes use.
    pub fn scan_surt_prefix<'a>(&'a self, prefix: &str) -> impl Iterator<Item = &'a Snapshot> + 'a {
        let prefix = prefix.to_string();
        self.lookups.incr();
        let rows = &self.rows_scanned;
        self.index
            .range((
                Bound::Included((prefix.clone(), SimTime(i64::MIN), 0)),
                Bound::Unbounded,
            ))
            .take_while(move |((surt, _, _), _)| surt.starts_with(&prefix))
            .inspect(move |_| rows.incr())
            .map(|(_, s)| s)
    }

    fn range_by_exact_surt<'a>(&'a self, surt: &str) -> impl Iterator<Item = &'a Snapshot> + 'a {
        let surt = surt.to_string();
        self.lookups.incr();
        self.index
            .range((
                Bound::Included((surt.clone(), SimTime(i64::MIN), 0)),
                Bound::Unbounded,
            ))
            .take_while(move |((k, _, _), _)| *k == surt)
            .map(|(_, s)| s)
    }

    /// Every snapshot in key order, *without* touching the access counters
    /// (for world serialization: the store round-trips by collecting in
    /// this order — fresh seqs `0..n` preserve relative order, so every
    /// range scan is bit-identical after a save/load cycle).
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        self.index.values()
    }

    /// Every distinct SURT in the store (test/debug aid).
    pub fn distinct_urls(&self) -> usize {
        let mut count = 0;
        let mut last: Option<&str> = None;
        for (surt, _, _) in self.index.keys() {
            if last != Some(surt.as_str()) {
                count += 1;
                last = Some(surt.as_str());
            }
        }
        count
    }
}

/// Bulk build: the same keys and [`ArchiveStore::mutation_stamp`] as
/// [`ArchiveStore::insert`]ing the snapshots one by one in iteration order,
/// but the index is built once from the sorted keys, with full B-tree nodes
/// instead of the half-full ones that one-at-a-time inserts leave behind.
/// Input already in key order (a decoded snapshot) sorts in one linear
/// pass; any other order is sorted first.
impl FromIterator<Snapshot> for ArchiveStore {
    fn from_iter<I: IntoIterator<Item = Snapshot>>(snapshots: I) -> Self {
        let index: BTreeMap<_, _> = snapshots
            .into_iter()
            .enumerate()
            .map(|(seq, s)| ((s.surt.clone(), s.captured, seq as u64), s))
            .collect();
        let seq = index.len() as u64;
        ArchiveStore { index, seq, ..ArchiveStore::default() }
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
        Snapshot::from_observation(&u(url), at, StatusCode(status), None, "body")
    }

    fn store() -> ArchiveStore {
        let mut s = ArchiveStore::new();
        s.insert(snap("http://e.org/dir/a.html", t(2010, 1), 200));
        s.insert(snap("http://e.org/dir/a.html", t(2014, 6), 404));
        s.insert(snap("http://e.org/dir/a.html", t(2012, 3), 200));
        s.insert(snap("http://e.org/dir/b.html", t(2011, 1), 200));
        s.insert(snap("http://e.org/other/c.html", t(2011, 1), 200));
        s.insert(snap("http://sub.e.org/dir/x.html", t(2011, 1), 200));
        s.insert(snap("http://f.org/dir/a.html", t(2011, 1), 200));
        s
    }

    #[test]
    fn snapshots_in_capture_order() {
        let s = store();
        let snaps = s.snapshots_of(&u("http://e.org/dir/a.html"));
        let years: Vec<i32> = snaps.iter().map(|s| s.captured.year()).collect();
        assert_eq!(years, vec![2010, 2012, 2014]);
    }

    #[test]
    fn first_snapshot() {
        let s = store();
        assert_eq!(
            s.first_snapshot_of(&u("http://e.org/dir/a.html")).unwrap().captured,
            t(2010, 1)
        );
        assert!(s.first_snapshot_of(&u("http://e.org/never")).is_none());
    }

    #[test]
    fn between_filter() {
        let s = store();
        let snaps = s.snapshots_of_between(&u("http://e.org/dir/a.html"), t(2011, 1), t(2014, 6));
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].captured, t(2012, 3));
    }

    #[test]
    fn prefix_scan_directory() {
        let s = store();
        let dir = permadead_url::surt_directory_prefix(&u("http://e.org/dir/a.html"));
        let hits: Vec<&str> = s
            .scan_surt_prefix(&dir)
            .map(|snap| snap.url.path())
            .collect();
        // both a.html (3 captures) and b.html (1), nothing from /other or sub-host
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|p| p.starts_with("/dir/")));
    }

    #[test]
    fn prefix_scan_host() {
        let s = store();
        let hp = permadead_url::surt_host_prefix("e.org");
        let count = s.scan_surt_prefix(&hp).count();
        // everything on e.org (5 snapshots), excluding sub.e.org and f.org
        assert_eq!(count, 5);
    }

    #[test]
    fn url_identity_respects_normalization() {
        let mut s = ArchiveStore::new();
        s.insert(snap("http://E.org//dir/../dir/a.html", t(2010, 1), 200));
        assert_eq!(s.snapshots_of(&u("http://e.org/dir/a.html")).len(), 1);
    }

    #[test]
    fn distinct_urls_counts_surts() {
        let s = store();
        // a.html, b.html, c.html, sub.e.org/x.html, f.org/a.html
        assert_eq!(s.distinct_urls(), 5);
    }

    #[test]
    fn collect_matches_one_by_one_inserts() {
        let inserted = store();
        let snaps: Vec<Snapshot> = [
            snap("http://e.org/dir/a.html", t(2010, 1), 200),
            snap("http://e.org/dir/a.html", t(2014, 6), 404),
            snap("http://e.org/dir/a.html", t(2012, 3), 200),
            snap("http://e.org/dir/b.html", t(2011, 1), 200),
            snap("http://e.org/other/c.html", t(2011, 1), 200),
            snap("http://sub.e.org/dir/x.html", t(2011, 1), 200),
            snap("http://f.org/dir/a.html", t(2011, 1), 200),
        ]
        .into();
        // out of key order, as hostile input may be
        let collected: ArchiveStore = snaps.into_iter().collect();
        let keys = |s: &ArchiveStore| s.index.keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(&collected), keys(&inserted));
        assert_eq!(collected.mutation_stamp(), inserted.mutation_stamp());
        let years = |s: &ArchiveStore| -> Vec<(i32, u16)> {
            s.snapshots_of(&u("http://e.org/dir/a.html"))
                .iter()
                .map(|s| (s.captured.year(), s.initial_status.0))
                .collect()
        };
        assert_eq!(years(&collected), years(&inserted));
        assert!(std::iter::empty::<Snapshot>().collect::<ArchiveStore>().is_empty());
    }

    #[test]
    fn same_instant_captures_both_kept() {
        let mut s = ArchiveStore::new();
        s.insert(snap("http://e.org/a", t(2010, 1), 200));
        s.insert(snap("http://e.org/a", t(2010, 1), 404));
        assert_eq!(s.snapshots_of(&u("http://e.org/a")).len(), 2);
    }
}
