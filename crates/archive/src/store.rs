//! The snapshot store: a SURT-ordered index over every capture.
//!
//! Keys are `(surt, captured, seq)`; lexicographic order on SURT makes every
//! CDX query — exact URL, directory prefix, whole host — a contiguous range
//! scan, exactly the property the real CDX server's sorted files provide.
//!
//! The rows themselves live in one arena in insertion order, so a row's id
//! is its insertion seq; the ordered index holds only keys.

use crate::snapshot::Snapshot;
use permadead_net::SimTime;
use permadead_url::Url;
use std::collections::BTreeSet;
use std::ops::Bound;

/// `(surt, capture time, insertion seq)`. The seq breaks ties when the same
/// URL is captured twice in one instant, and is the row's id in the arena.
type Key = (String, SimTime, u32);

/// Ordered snapshot storage.
#[derive(Debug, Default)]
pub struct ArchiveStore {
    /// Every capture, in insertion order.
    rows: Vec<Snapshot>,
    /// Every row's key, in key order.
    index: BTreeSet<Key>,
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
        let key = self.push(snapshot);
        self.index.insert(key);
    }

    /// Append a row to the arena, returning its key.
    fn push(&mut self, snapshot: Snapshot) -> Key {
        let seq = u32::try_from(self.rows.len()).expect("archive holds at most u32::MAX rows");
        let key = (snapshot.surt.clone(), snapshot.captured, seq);
        self.rows.push(snapshot);
        key
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn row(&self, &(_, _, seq): &Key) -> &Snapshot {
        &self.rows[seq as usize]
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
            .take_while(move |(surt, _, _)| surt.starts_with(&prefix))
            .inspect(move |_| rows.incr())
            .map(|key| self.row(key))
    }

    fn range_by_exact_surt<'a>(&'a self, surt: &str) -> impl Iterator<Item = &'a Snapshot> + 'a {
        let surt = surt.to_string();
        self.lookups.incr();
        self.index
            .range((
                Bound::Included((surt.clone(), SimTime(i64::MIN), 0)),
                Bound::Unbounded,
            ))
            .take_while(move |(k, _, _)| *k == surt)
            .map(|key| self.row(key))
    }

    /// Every snapshot in key order, *without* touching the access counters
    /// (for world serialization: the store round-trips by collecting in
    /// this order — fresh seqs `0..n` preserve relative order, so every
    /// range scan is bit-identical after a save/load cycle).
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        self.index.iter().map(|key| self.row(key))
    }

    /// Every distinct SURT in the store (test/debug aid).
    pub fn distinct_urls(&self) -> usize {
        let mut count = 0;
        let mut last: Option<&str> = None;
        for (surt, _, _) in &self.index {
            if last != Some(surt.as_str()) {
                count += 1;
                last = Some(surt.as_str());
            }
        }
        count
    }
}

/// Bulk build: the same rows and keys as [`ArchiveStore::insert`]ing the
/// snapshots one by one in iteration order. Each row goes straight into
/// the arena (sized from the iterator's upper bound — a decoder's count,
/// bounded by the bytes left — so it is not reallocated as it fills) and
/// the index is built once from the keys, with full B-tree nodes instead
/// of the half-full ones that one-at-a-time inserts leave behind. Input
/// already in key order (a decoded snapshot) sorts in one linear pass; any
/// other order is sorted first.
impl FromIterator<Snapshot> for ArchiveStore {
    fn from_iter<I: IntoIterator<Item = Snapshot>>(snapshots: I) -> Self {
        let snapshots = snapshots.into_iter();
        let (lower, upper) = snapshots.size_hint();
        let mut store = ArchiveStore {
            rows: Vec::with_capacity(upper.unwrap_or(lower)),
            ..ArchiveStore::default()
        };
        let mut keys = Vec::with_capacity(store.rows.capacity());
        for snapshot in snapshots {
            keys.push(store.push(snapshot));
        }
        store.rows.shrink_to_fit();
        store.index = keys.into_iter().collect();
        store
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

    /// What a scan reports of each row, in scan order.
    fn seen<'a>(rows: impl Iterator<Item = &'a Snapshot>) -> Vec<(String, SimTime, u16)> {
        rows.map(|s| (s.surt.clone(), s.captured, s.initial_status.0)).collect()
    }

    #[test]
    fn collect_matches_one_by_one_inserts() {
        let mut snaps: Vec<Snapshot> = vec![
            snap("http://e.org/dir/a.html", t(2010, 1), 200),
            snap("http://e.org/dir/a.html", t(2014, 6), 404),
            snap("http://e.org/dir/a.html", t(2012, 3), 200),
            // captured twice in one instant: only the insertion seq orders them
            snap("http://e.org/dir/a.html", t(2012, 3), 302),
            snap("http://e.org/dir/a.html", t(2012, 3), 503),
            snap("http://e.org/dir/b.html", t(2011, 1), 200),
            snap("http://e.org/other/c.html", t(2011, 1), 200),
            snap("http://sub.e.org/dir/x.html", t(2011, 1), 200),
            snap("http://f.org/dir/a.html", t(2011, 1), 200),
        ];
        let a = u("http://e.org/dir/a.html");
        let dir = permadead_url::surt_directory_prefix(&a);
        let host = permadead_url::surt_host_prefix("e.org");
        let mut draw = 7u64;
        for round in 0..24 {
            // out of key order, as hostile input may be: a Fisher–Yates
            // shuffle driven by an LCG
            for i in (1..snaps.len()).rev() {
                draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                snaps.swap(i, (draw >> 33) as usize % (i + 1));
            }
            let mut inserted = ArchiveStore::new();
            for s in snaps.iter().cloned() {
                inserted.insert(s);
            }
            let collected: ArchiveStore = snaps.iter().cloned().collect();

            for store in [&inserted, &collected] {
                let ties: Vec<u16> = seen(store.snapshots_of(&a).into_iter())
                    .into_iter()
                    .filter(|&(_, at, _)| at == t(2012, 3))
                    .map(|(_, _, status)| status)
                    .collect();
                let mut in_input = snaps
                    .iter()
                    .filter(|s| s.url == a && s.captured == t(2012, 3))
                    .map(|s| s.initial_status.0);
                assert!(ties.iter().copied().eq(&mut in_input), "round {round}: ties by input");
            }
            let keys = |s: &ArchiveStore| s.index.iter().cloned().collect::<Vec<_>>();
            assert_eq!(keys(&collected), keys(&inserted), "round {round}");
            assert_eq!(seen(collected.iter()), seen(inserted.iter()), "round {round}");
            let in_order = seen(collected.iter());
            assert!(in_order.windows(2).all(|w| (&w[0].0, w[0].1) <= (&w[1].0, w[1].1)));
            assert_eq!(
                seen(collected.snapshots_of(&a).into_iter()),
                seen(inserted.snapshots_of(&a).into_iter()),
                "round {round}"
            );
            for prefix in [&dir, &host] {
                assert_eq!(
                    seen(collected.scan_surt_prefix(prefix)),
                    seen(inserted.scan_surt_prefix(prefix)),
                    "round {round}, prefix {prefix}"
                );
            }
            assert_eq!(collected.distinct_urls(), inserted.distinct_urls());
            assert_eq!(collected.len(), snaps.len());
            // two exact-URL lookups, then two prefix scans of 6 and 7 rows
            for store in [&collected, &inserted] {
                let counters = (store.lookups.get(), store.rows_scanned.get());
                assert_eq!(counters, (4, 13), "round {round}");
            }
        }
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
