//! The snapshot store: a SURT-ordered index over every capture.
//!
//! Rows are kept in `(surt, captured, seq)` key order. Lexicographic order on
//! SURT makes every CDX query — exact URL, directory prefix, whole host — a
//! contiguous run of rows, exactly the property the real CDX server's sorted
//! files provide.
//!
//! The rows themselves live in one arena in insertion order, so a row's id
//! is its insertion seq. The index over them stores no strings: it holds row
//! ids and compares against the SURT each row already holds.
//!
//! - **Captures:** each URL's rows form a ring in (captured, seq) order, its
//!   last capture linking back to its first.
//! - **URLs:** a hash table maps each SURT to its URL's last capture, so a
//!   capture later than every other (the crawler's order) links in with no
//!   walk, and the first is one link away.
//! - **Hosts:** each host lists its URLs' first captures in SURT order, the
//!   hosts are listed in key order, and a hash table maps each host key to
//!   its host.
//!
//! A host's key is the SURT up to and including its first `)/`, such as
//! `org,example,www)/` (a SURT with no `)/`, which no URL makes, is its own
//! key). No key is a prefix of another's URLs but its own, so a host's rows
//! sort together and the hosts sort as their keys do.

use crate::snapshot::Snapshot;
use permadead_net::metrics::Counter;
use permadead_net::SimTime;
use permadead_url::{fnv1a, Fnv1a, IdTable, Url};

/// No row: an empty scan, a link not yet made.
const NIL: u32 = u32::MAX;

/// The host key of a SURT: everything up to and including its first `)/`.
fn host_key(surt: &str) -> &str {
    surt.find(")/").map_or(surt, |i| &surt[..i + 2])
}

/// Ordered snapshot storage.
#[derive(Debug, Default)]
pub struct ArchiveStore {
    /// Every capture, in insertion order.
    rows: Vec<Snapshot>,
    /// `next[row]`: the row's URL's next capture in (captured, seq) order,
    /// or, from its last capture, its first.
    next: Vec<u32>,
    /// SURT → the URL's last capture.
    urls: IdTable,
    /// Per host, in first-insert order: its URLs' first captures in SURT
    /// order.
    hosts: Vec<Vec<u32>>,
    /// Host key → index into `hosts`.
    host_keys: IdTable,
    /// Indices into `hosts`, in key order.
    host_order: Vec<u32>,
    /// Whether some host key holds a `)` before its `)/` (a host name with a
    /// `)` in it), or no `)/` at all. Until one does, a host prefix `…)`
    /// names at most one host.
    odd_hosts: bool,
    /// Index-access accounting: how many scans were issued and how many
    /// rows they touched (the cost axis of the paper's efficiency-vs-
    /// coverage tradeoff).
    pub lookups: Counter,
    pub rows_scanned: Counter,
}

impl ArchiveStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a capture.
    pub fn insert(&mut self, snapshot: Snapshot) {
        let row = self.push(snapshot);
        let surt = self.surt(row);
        let hash = fnv1a(surt.as_bytes());
        match self.last(hash, surt) {
            Some(last) => self.add_capture(last, row, hash),
            None => self.add_url(row, hash),
        }
    }

    /// Append a row to the arena, unlinked, returning its id.
    fn push(&mut self, snapshot: Snapshot) -> u32 {
        let row = u32::try_from(self.rows.len())
            .ok()
            .filter(|&row| row != NIL)
            .expect("archive holds fewer than u32::MAX rows");
        self.rows.push(snapshot);
        self.next.push(NIL);
        row
    }

    fn surt(&self, row: u32) -> &str {
        &self.rows[row as usize].surt
    }

    /// A row's place in key order, short of its seq.
    fn key(&self, row: u32) -> (&str, SimTime) {
        let r = &self.rows[row as usize];
        (&r.surt, r.captured)
    }

    /// A row's place among its URL's captures.
    fn capture_key(&self, row: u32) -> (SimTime, u32) {
        (self.rows[row as usize].captured, row)
    }

    fn host_key_of(&self, host: u32) -> &str {
        host_key(self.surt(self.hosts[host as usize][0]))
    }

    /// The last capture of the URL with this SURT, `hash` being its hash.
    fn last(&self, hash: u64, surt: &str) -> Option<u32> {
        self.urls.find(hash, |row| self.surt(row) == surt)
    }

    /// The host whose key hashes to `hash` and satisfies `is`.
    fn host(&self, hash: u64, is: impl Fn(&str) -> bool) -> Option<u32> {
        self.host_keys.find(hash, |host| is(self.host_key_of(host)))
    }

    /// Link `row` into a capture ring right after `at`.
    fn link(&mut self, at: u32, row: u32) {
        self.next[row as usize] = self.next[at as usize];
        self.next[at as usize] = row;
    }

    /// Link `row` into the capture ring whose last capture is `last`.
    fn add_capture(&mut self, last: u32, row: u32, hash: u64) {
        let key = self.capture_key(row);
        if key > self.capture_key(last) {
            // the URL's new last capture
            self.link(last, row);
            self.urls.replace(hash, last, row);
            return;
        }
        // walk from the last capture round to the first and on, to the one
        // `row` goes after: `row` is earlier than `last`, so the walk stops
        // before it comes back round to it
        let mut at = last;
        while self.capture_key(self.next[at as usize]) < key {
            at = self.next[at as usize];
        }
        self.link(at, row);
        if at == last {
            // the URL's new first capture: it takes the old one's place in
            // its host's list
            let surt = self.surt(row);
            let host_key = host_key(surt);
            let host = self
                .host(fnv1a(host_key.as_bytes()), |k| k == host_key)
                .expect("an indexed URL's host is indexed") as usize;
            let at = self.hosts[host]
                .binary_search_by(|&r| self.surt(r).cmp(surt))
                .expect("an indexed URL is in its host's list");
            self.hosts[host][at] = row;
        }
    }

    /// Index `row` as the only capture of a URL the store has not seen.
    fn add_url(&mut self, row: u32, hash: u64) {
        self.next[row as usize] = row;
        self.add_last(hash, row);
        let surt = self.surt(row);
        let key = host_key(surt);
        let key_hash = fnv1a(key.as_bytes());
        match self.host(key_hash, |k| k == key) {
            Some(host) => {
                let urls = &self.hosts[host as usize];
                let at = urls.partition_point(|&r| self.surt(r) < surt);
                self.hosts[host as usize].insert(at, row);
            }
            None => {
                let at = self
                    .host_order
                    .partition_point(|&h| self.host_key_of(h) < key);
                self.add_host(row, key_hash, at);
            }
        }
    }

    /// Enter `row` in the URL table as its URL's last capture, `hash` being
    /// the hash of its SURT.
    fn add_last(&mut self, hash: u64, row: u32) {
        let rows = &self.rows;
        self.urls
            .insert(hash, row, |r| fnv1a(rows[r as usize].surt.as_bytes()));
    }

    /// Start a host whose first URL's first capture is `row`, at `at` in
    /// key order.
    fn add_host(&mut self, row: u32, key_hash: u64, at: usize) {
        let key = host_key(self.surt(row));
        self.odd_hosts |= !key.ends_with(")/") || key.find(')') != Some(key.len() - 2);
        let host = u32::try_from(self.hosts.len()).expect("fewer hosts than rows");
        self.hosts.push(vec![row]);
        let (rows, hosts) = (&self.rows, &self.hosts);
        self.host_keys.insert(key_hash, host, |h| {
            fnv1a(host_key(&rows[hosts[h as usize][0] as usize].surt).as_bytes())
        });
        self.host_order.insert(at, host);
    }

    /// Index `row`, whose key is at least every indexed row's, `prev` being
    /// the last row indexed: the bulk build's path for rows in key order,
    /// with no search. A URL enters the URL table when its run of rows ends
    /// ([`ArchiveStore::close`]), at its last capture.
    fn append(&mut self, prev: Option<u32>, row: u32) {
        if let Some(prev) = prev {
            if self.surt(prev) == self.surt(row) {
                // the same URL's latest capture
                self.link(prev, row);
                return;
            }
            self.close(prev);
        }
        self.next[row as usize] = row;
        let key = host_key(self.surt(row));
        let new_host = prev.is_none_or(|prev| host_key(self.surt(prev)) != key);
        if new_host {
            let key_hash = fnv1a(key.as_bytes());
            self.add_host(row, key_hash, self.host_order.len());
        } else {
            let last = *self.host_order.last().expect("a row before this one");
            self.hosts[last as usize].push(row);
        }
    }

    /// Enter the URL whose run of appended rows ends at `last` in the URL
    /// table.
    fn close(&mut self, last: u32) {
        let hash = fnv1a(self.surt(last).as_bytes());
        self.add_last(hash, last);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
    ///
    /// Key order is a contract, whatever order the rows were inserted in:
    /// SURTs ascend, each URL's rows are contiguous, and within a URL they
    /// run in (captured, insertion seq) order. Readers that stop early or
    /// count as they go rely on it: the §4.2 sibling stream takes the first
    /// `n` distinct SURTs it meets as the `n` smallest, and the typo scan
    /// and [`CdxApi::distinct_url_count`](crate::CdxApi::distinct_url_count)
    /// collapse a URL's rows by comparing each row with the one before. Each
    /// call counts one lookup, and each row it yields one scanned row.
    pub fn scan_surt_prefix<'a>(&'a self, prefix: &str) -> impl Iterator<Item = &'a Snapshot> + 'a {
        self.lookups.incr();
        let rows = &self.rows_scanned;
        self.prefix_rows(prefix).inspect(move |_| rows.incr())
    }

    fn prefix_rows(&self, prefix: &str) -> Rows<'_> {
        let mut scan = Rows::new(self);
        if let Some(i) = prefix.find(")/") {
            // every match is on the host keyed by the prefix through `)/`
            let key = &prefix[..i + 2];
            if let Some(host) = self.host(fnv1a(key.as_bytes()), |k| k == key) {
                let urls = &self.hosts[host as usize];
                let from = urls.partition_point(|&r| self.surt(r) < prefix);
                let len = urls[from..].partition_point(|&r| self.surt(r).starts_with(prefix));
                scan.urls = urls[from..from + len].iter();
            }
        } else if !self.odd_hosts && prefix.find(')').is_some_and(|i| i + 1 == prefix.len()) {
            // a host prefix: with one `)` in every key, only `prefix/` matches
            let mut hash = Fnv1a::new();
            hash.write(prefix.as_bytes());
            hash.write(b"/");
            let is = |k: &str| k.len() == prefix.len() + 1 && k.starts_with(prefix);
            if let Some(host) = self.host(hash.finish(), is) {
                scan.urls = self.hosts[host as usize].iter();
            }
        } else {
            // a prefix short of any `)/` matches whole hosts: those whose key
            // starts with it, a run in key order
            let order = &self.host_order;
            let from = order.partition_point(|&h| self.host_key_of(h) < prefix);
            let len = order[from..].partition_point(|&h| self.host_key_of(h).starts_with(prefix));
            scan.hosts = order[from..from + len].iter();
        }
        scan
    }

    fn range_by_exact_surt(&self, surt: &str) -> Rows<'_> {
        self.lookups.incr();
        let mut scan = Rows::new(self);
        if let Some(last) = self.last(fnv1a(surt.as_bytes()), surt) {
            scan.start(self.next[last as usize]);
        }
        scan
    }

    /// Every snapshot in key order, *without* touching the access counters
    /// (for world serialization: the store round-trips by collecting in
    /// this order — fresh seqs `0..n` preserve relative order, so every
    /// range scan is bit-identical after a save/load cycle).
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        let mut scan = Rows::new(self);
        scan.hosts = self.host_order.iter();
        scan
    }

    /// Every distinct SURT in the store (test/debug aid).
    pub fn distinct_urls(&self) -> usize {
        self.urls.len()
    }
}

/// Rows in key order: the rest of one URL's capture ring, then the rings
/// of the URLs left in one host's list, then those of the hosts left.
struct Rows<'a> {
    store: &'a ArchiveStore,
    /// The next row to yield, or [`NIL`].
    row: u32,
    /// The first capture of `row`'s URL, where its ring closes.
    first: u32,
    urls: std::slice::Iter<'a, u32>,
    hosts: std::slice::Iter<'a, u32>,
}

impl<'a> Rows<'a> {
    fn new(store: &'a ArchiveStore) -> Rows<'a> {
        Rows {
            store,
            row: NIL,
            first: NIL,
            urls: [].iter(),
            hosts: [].iter(),
        }
    }

    /// Walk the ring of the URL whose first capture is `first`.
    fn start(&mut self, first: u32) {
        self.row = first;
        self.first = first;
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a Snapshot;

    fn next(&mut self) -> Option<&'a Snapshot> {
        while self.row == NIL {
            if let Some(&first) = self.urls.next() {
                self.start(first);
            } else {
                let &host = self.hosts.next()?;
                self.urls = self.store.hosts[host as usize].iter();
            }
        }
        let row = self.row;
        let next = self.store.next[row as usize];
        self.row = if next == self.first { NIL } else { next };
        Some(&self.store.rows[row as usize])
    }
}

/// Bulk build: the same rows, in the same key order, as
/// [`ArchiveStore::insert`]ing the snapshots one by one in iteration order.
/// The arena is sized from the iterator's upper bound (a decoder's count,
/// bounded by the bytes left), so it is not reallocated as it fills, and the
/// URL table from the rows. The rows are then indexed by appending them in
/// key order: a stable sort, so rows with equal keys keep their seq order,
/// and one linear pass over input already in key order (a decoded snapshot,
/// a CDX dump).
impl FromIterator<Snapshot> for ArchiveStore {
    fn from_iter<I: IntoIterator<Item = Snapshot>>(snapshots: I) -> Self {
        let snapshots = snapshots.into_iter();
        let (lower, upper) = snapshots.size_hint();
        let mut rows = Vec::with_capacity(upper.unwrap_or(lower));
        rows.extend(snapshots);
        rows.shrink_to_fit();
        let n = u32::try_from(rows.len()).expect("archive holds fewer than u32::MAX rows");
        let mut store = ArchiveStore {
            next: vec![NIL; rows.len()],
            urls: IdTable::with_capacity(rows.len()),
            rows,
            ..ArchiveStore::default()
        };
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| store.key(a).cmp(&store.key(b)));
        let mut prev = None;
        for row in order {
            store.append(prev, row);
            prev = Some(row);
        }
        if let Some(last) = prev {
            store.close(last);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::StatusCode;
    use proptest::prelude::*;

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

    /// A Fisher–Yates shuffle driven by an LCG whose state is `draw`.
    fn shuffle<T>(items: &mut [T], draw: &mut u64) {
        for i in (1..items.len()).rev() {
            *draw = draw
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items.swap(i, (*draw >> 33) as usize % (i + 1));
        }
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
            // out of key order, as hostile input may be
            shuffle(&mut snaps, &mut draw);
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
            // each row's full key: no two inputs share (url, time, status),
            // so a row's insertion seq is its input position
            let keys = |s: &ArchiveStore| {
                s.iter()
                    .map(|row| {
                        let seq = snaps.iter().position(|i| {
                            (&i.url, i.captured, i.initial_status)
                                == (&row.url, row.captured, row.initial_status)
                        });
                        (row.surt.clone(), row.captured, seq.expect("an input row"))
                    })
                    .collect::<Vec<_>>()
            };
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

    /// Hosts whose keys share prefixes: a bare domain and its `www.`, a
    /// port, a longer and a shorter neighbour, a public-suffix cousin, and
    /// two whose names hold a `)` (so `org,e)` also prefixes `org,e)x)`).
    const HOSTS: [&str; 8] = [
        "e.org",
        "www.e.org",
        "e.org:8080",
        "ee.org",
        "e.org.uk",
        "f.org",
        "e)x.org",
        "e).org",
    ];
    const PATHS: [&str; 8] = ["/", "/a", "/a/", "/a/b", "/a/b?x=1", "/ab", "/a?y", "/b/c/"];

    /// Every prefix a query can name over the generated rows, plus ones
    /// that cut keys at odd places.
    fn prefixes(rows: &[Snapshot]) -> Vec<String> {
        let mut out: Vec<String> = [
            "",
            "o",
            "org,",
            "org,e",
            "org,e)",
            "org,e)/",
            "org,e,",
            "org,e)x)/a",
            "uk,",
            "org,e:8080)",
        ]
        .map(String::from)
        .to_vec();
        for s in rows {
            out.push(s.surt.clone());
            out.push(permadead_url::surt_directory_prefix(&s.url));
            out.push(permadead_url::surt_host_prefix(s.url.host()));
        }
        out.sort();
        out.dedup();
        out
    }

    proptest! {
        /// One-by-one inserts in a random order, a collect in that order, and
        /// a collect of the first store's rows in key order (the decoder's
        /// path) answer every query alike, and as a linear scan of the rows
        /// sorted by (surt, captured, seq) does.
        #[test]
        fn every_build_answers_like_a_sorted_scan(
            picks in proptest::collection::vec((0..HOSTS.len(), 0..PATHS.len(), 0..4i32, 0..3usize), 0..48),
            seed in any::<u64>(),
            odd in any::<bool>(),
        ) {
            // half the cases keep to hosts with no `)` in their names, where
            // a host scan is one probe; the other half also draw the two that
            // have one, where it is a search of the hosts in key order
            let hosts = if odd { HOSTS.len() } else { HOSTS.len() - 2 };
            let mut input: Vec<Snapshot> = picks
                .iter()
                .map(|&(h, p, year, status)| {
                    // few instants, so one URL is often captured twice at once
                    let url = format!("http://{}{}", HOSTS[h % hosts], PATHS[p]);
                    snap(&url, t(2010 + year, 1), [200, 301, 404][status])
                })
                .collect();
            let mut draw = seed;
            shuffle(&mut input, &mut draw);
            let mut inserted = ArchiveStore::new();
            for s in input.iter().cloned() {
                inserted.insert(s);
            }
            let collected: ArchiveStore = input.iter().cloned().collect();
            let in_key_order: ArchiveStore = inserted.iter().cloned().collect();

            // the reference: input rows by (surt, captured), ties in input order
            let mut reference: Vec<&Snapshot> = input.iter().collect();
            reference.sort_by(|a, b| (&a.surt, a.captured).cmp(&(&b.surt, b.captured)));
            let identity = |rows: Vec<&Snapshot>| -> Vec<(String, SimTime, u16)> { seen(rows.into_iter()) };
            for store in [&inserted, &collected, &in_key_order] {
                prop_assert_eq!(store.len(), input.len());
                prop_assert_eq!(seen(store.iter()), identity(reference.clone()));
                let mut distinct: Vec<&str> = input.iter().map(|s| s.surt.as_str()).collect();
                distinct.sort();
                distinct.dedup();
                prop_assert_eq!(store.distinct_urls(), distinct.len());
            }
            let prefixes = prefixes(&input);
            for store in [&inserted, &collected, &in_key_order] {
                let mut scanned = 0;
                for prefix in &prefixes {
                    let want: Vec<&Snapshot> =
                        reference.iter().copied().filter(|s| s.surt.starts_with(prefix.as_str())).collect();
                    scanned += want.len() as u64;
                    prop_assert_eq!(seen(store.scan_surt_prefix(prefix)), identity(want), "prefix {:?}", prefix);
                }
                for s in &input {
                    let want: Vec<&Snapshot> = reference.iter().copied().filter(|r| r.surt == s.surt).collect();
                    prop_assert_eq!(seen(store.snapshots_of(&s.url).into_iter()), identity(want.clone()));
                    prop_assert_eq!(
                        store.first_snapshot_of(&s.url).map(|f| (f.captured, f.initial_status)),
                        want.first().map(|f| (f.captured, f.initial_status))
                    );
                }
                let never = u("http://e.org/never");
                prop_assert!(store.snapshots_of(&never).is_empty());
                let lookups = prefixes.len() as u64 + 2 * input.len() as u64 + 1;
                prop_assert_eq!((store.lookups.get(), store.rows_scanned.get()), (lookups, scanned));
            }
        }
    }

    #[test]
    fn a_key_with_no_slash_is_its_own_host() {
        // `surt` always closes the host with `)/`; a row built by hand need
        // not, and then the host prefix `org,e)` also names `org,e)x`
        let mut odd = snap("http://e.org/x", t(2011, 1), 200);
        odd.surt = "org,e)x".into();
        let rows = [snap("http://e.org/", t(2010, 1), 200), odd];
        let mut inserted = ArchiveStore::new();
        for s in rows.iter().cloned() {
            inserted.insert(s);
        }
        let collected: ArchiveStore = rows.into_iter().collect();
        for store in [&inserted, &collected] {
            let keys: Vec<String> =
                seen(store.scan_surt_prefix("org,e)")).into_iter().map(|r| r.0).collect();
            assert_eq!(keys, ["org,e)/", "org,e)x"]);
        }
    }

    #[test]
    fn same_instant_captures_both_kept() {
        let mut s = ArchiveStore::new();
        s.insert(snap("http://e.org/a", t(2010, 1), 200));
        s.insert(snap("http://e.org/a", t(2010, 1), 404));
        assert_eq!(s.snapshots_of(&u("http://e.org/a")).len(), 2);
    }
}
