//! Lexical-signature rediscovery of moved pages.
//!
//! The paper's §4 rescues a dead link only through archived copies. Klein &
//! Nelson go further: a page that 404s at its old URL often still exists
//! somewhere — its *title* and *lexical signature* are durable enough to
//! find it again through a search engine. This crate is that search engine
//! for the simulated web: a [`RescueIndex`] over every page that is live at
//! index time, keyed two ways —
//!
//! - **title tokens**, because titles survive moves (the content generator
//!   keys them off the page's stable content identity, exactly as a real
//!   CMS carries `<title>` across a restructuring);
//! - **MinHash sketch minima** of the served body, the same
//!   `textsim::sketch` signatures the archive stores, so a dead link's
//!   last archived copy can be matched against today's live web without
//!   storing any bodies.
//!
//! [`RescueIndex::query`] retrieves top-k candidates through the postings
//! and ranks them by *exact* title-token Jaccard + sketch similarity; the
//! caller (core's rediscovery stage) then fetches each candidate live and
//! only declares a rescue when the served page still matches the
//! fingerprint above [`TITLE_THRESHOLD`] / [`SKETCH_THRESHOLD`].
//!
//! ## Determinism
//!
//! The index is a pure function of `(web, t)`: sites are walked in `SiteId`
//! order, sharded into contiguous chunks across workers with the same
//! `crossbeam::scope` idiom as `core::pipeline`, and joined in spawn order,
//! so the entry list — and therefore every posting and every query answer —
//! is bit-identical for any `--jobs`. Postings are a pure function of the
//! entry list, which is why only entries are serialized by `worldstore`. A
//! loaded index defers both: [`RescueIndex::deferred`] reads its entries
//! from an [`EntrySource`] (the snapshot file) on first use, and any index
//! builds its postings on its first query, so a run that never queries
//! holds neither. Each kind of posting is one sorted, deduplicated array of
//! `(key, entry id)` pairs, so the build is one sort per kind and a lookup
//! is a binary search for the key's run.

use permadead_net::{SimTime, StatusCode};
use permadead_text::html::extract_title;
use permadead_text::sketch::SKETCH_SIZE;
use permadead_text::MinHashSketch;
use permadead_url::fnv1a;
use permadead_web::page::PathView;
use permadead_web::{LiveWeb, Site};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Word-level shingle size for page-body sketches — must match
/// `Snapshot::from_observation` (k = 5) so archived fingerprints and index
/// signatures live in the same similarity space.
pub const SHINGLE_K: usize = 5;

/// Minimum title-token Jaccard for a validated rediscovery. Titles are
/// stable across moves, so true matches sit at ≈1.0 and unrelated pages
/// (titles drawn from disjoint word banks) near 0.0.
pub const TITLE_THRESHOLD: f64 = 0.5;

/// Minimum body-sketch similarity for a validated rediscovery.
pub const SKETCH_THRESHOLD: f64 = 0.6;

/// Default number of candidates a query returns.
pub const DEFAULT_TOP_K: usize = 5;

/// One live page in the index: where it is now, and what it looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueEntry {
    /// The page's *current* URL at index time.
    pub url: String,
    /// `<title>` of the served body (empty when the page has none).
    pub title: String,
    /// MinHash sketch of the served body.
    pub sketch: MinHashSketch,
}

/// What we still know about a dead link: the title and sketch of its last
/// archived content copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub title: String,
    pub sketch: MinHashSketch,
}

/// A ranked query answer, pointing into [`RescueIndex::entries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into [`RescueIndex::entries`].
    pub entry: usize,
    /// Exact token-Jaccard between the fingerprint title and the entry's.
    pub title_similarity: f64,
    /// Sketch similarity between the fingerprint and the entry's body.
    pub content_similarity: f64,
}

impl Candidate {
    /// The retrieval score candidates are ranked by.
    pub fn score(&self) -> f64 {
        (self.title_similarity + self.content_similarity) / 2.0
    }
}

/// The searchable title + shingle-sketch index over the live web.
///
/// Equality compares the entries and the postings, reading the entries
/// and building the postings of either side that has not yet.
#[derive(Debug, Clone, Default)]
pub struct RescueIndex {
    /// How many entries the index holds, known before they are read.
    len: usize,
    /// Given at construction, or read from `source` on first use.
    entries: OnceLock<Vec<RescueEntry>>,
    /// Where deferred entries are read from; `None` when they were given.
    source: Option<Arc<dyn EntrySource>>,
    /// Built from `entries` by [`Postings::of`], at construction or on
    /// first use; concurrent first queries wait for one build.
    postings: OnceLock<Postings>,
}

/// Where a [`RescueIndex::deferred`] index reads its entries on first use.
/// `read` returns exactly the entries the index was made over, or panics:
/// it never returns entries from other bytes.
pub trait EntrySource: fmt::Debug + Send + Sync {
    fn read(&self) -> Vec<RescueEntry>;
}

#[derive(Debug, Clone, PartialEq)]
struct Postings {
    /// (fnv1a(title token), entry id) pairs, sorted and deduplicated: a
    /// token's postings are one contiguous run of ascending ids.
    title: Vec<(u64, u32)>,
    /// (sketch permutation minimum, entry id) pairs, sorted and deduplicated.
    sketch: Vec<(u64, u32)>,
}

impl Postings {
    fn of(entries: &[RescueEntry]) -> Postings {
        let sketched = entries.iter().filter(|e| !e.sketch.empty).count();
        let mut title = Vec::new();
        let mut sketch = Vec::with_capacity(sketched * SKETCH_SIZE);
        for (id, entry) in entries.iter().enumerate() {
            let id = id as u32;
            title.extend(title_tokens(&entry.title).into_iter().map(|tok| (tok, id)));
            if !entry.sketch.empty {
                sketch.extend(entry.sketch.mins().iter().map(|&m| (m, id)));
            }
        }
        Postings { title: sorted_unique(title), sketch: sorted_unique(sketch) }
    }
}

impl PartialEq for RescueIndex {
    fn eq(&self, other: &RescueIndex) -> bool {
        self.entries() == other.entries() && self.postings() == other.postings()
    }
}

impl RescueIndex {
    /// Build the index over every page live at `t`, sharded across `jobs`
    /// workers. Bit-identical for any `jobs` value.
    pub fn build(web: &LiveWeb, t: SimTime, jobs: usize) -> RescueIndex {
        let mut sites: Vec<&Site> = web.sites().collect();
        sites.sort_by_key(|s| s.id);
        if sites.is_empty() {
            return RescueIndex::default();
        }

        let jobs = jobs.clamp(1, sites.len());
        let entries = if jobs == 1 {
            sites.iter().flat_map(|s| index_site(web, s, t)).collect()
        } else {
            let chunk = sites.len().div_ceil(jobs);
            crossbeam::scope(|scope| {
                let handles: Vec<_> = sites
                    .chunks(chunk)
                    .map(|shard| {
                        scope.spawn(move |_| {
                            shard
                                .iter()
                                .flat_map(|s| index_site(web, s, t))
                                .collect::<Vec<RescueEntry>>()
                        })
                    })
                    .collect();
                let mut all = Vec::new();
                // joining in spawn (= chunk) order restores SiteId order
                for handle in handles {
                    all.extend(handle.join().expect("index worker panicked"));
                }
                all
            })
            .expect("index scope panicked")
        };
        RescueIndex::from_entries(entries)
    }

    /// Rebuild the index from an entry list, postings included. Postings
    /// are a pure function of the entries, so this reproduces
    /// [`RescueIndex::build`] exactly.
    pub fn from_entries(entries: Vec<RescueEntry>) -> RescueIndex {
        let index = RescueIndex::from_entries_lazy(entries);
        index.ensure_postings();
        index
    }

    /// The index over `entries`, with its postings left to be built on
    /// first use: by [`RescueIndex::query`], [`RescueIndex::ensure_postings`]
    /// or `==`. This is the path of a snapshot decoded from bytes in
    /// memory. It answers every query exactly as
    /// [`RescueIndex::from_entries`] does.
    pub fn from_entries_lazy(entries: Vec<RescueEntry>) -> RescueIndex {
        RescueIndex { len: entries.len(), entries: OnceLock::from(entries), ..RescueIndex::default() }
    }

    /// The index over the `len` entries `source` reads, with both the
    /// entries and the postings left to first use: [`RescueIndex::entries`],
    /// a query, [`RescueIndex::ensure_postings`] or `==` reads the entries,
    /// and [`RescueIndex::len`] answers without them. This is the path of a
    /// snapshot loaded from a file. It answers every query exactly as
    /// [`RescueIndex::from_entries`] over the same entries does.
    pub fn deferred(len: usize, source: impl EntrySource + 'static) -> RescueIndex {
        RescueIndex { len, source: Some(Arc::new(source)), ..RescueIndex::default() }
    }

    /// Read the entries and build the postings now if they are not yet, so
    /// that no query pays for either (a server calls this before it takes
    /// requests).
    pub fn ensure_postings(&self) {
        self.postings();
    }

    /// Whether the postings have been built.
    pub fn postings_built(&self) -> bool {
        self.postings.get().is_some()
    }

    /// Whether the entries are in memory: given at construction, or read
    /// from the index's source.
    pub fn entries_loaded(&self) -> bool {
        self.entries.get().is_some()
    }

    fn postings(&self) -> &Postings {
        self.postings.get_or_init(|| Postings::of(self.entries()))
    }

    /// The entries, read from the index's source on first use; a failed
    /// read panics there (see [`EntrySource`]).
    pub fn entries(&self) -> &[RescueEntry] {
        self.entries.get_or_init(|| {
            let entries = self.source.as_ref().map_or_else(Vec::new, |s| s.read());
            assert_eq!(entries.len(), self.len, "the entry source read the wrong number of entries");
            entries
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Top-`k` candidates for a fingerprint, best first. Retrieval goes
    /// through the postings (any shared title token or sketch minimum);
    /// ranking is exact, ties broken by ascending entry id — fully
    /// deterministic.
    pub fn query(&self, fp: &Fingerprint, k: usize) -> Vec<Candidate> {
        let postings = self.postings();
        let entries = self.entries();
        let mut ids: Vec<u32> = Vec::new();
        for tok in title_tokens(&fp.title) {
            ids.extend(posting(&postings.title, tok));
        }
        if !fp.sketch.empty {
            for &m in fp.sketch.mins() {
                ids.extend(posting(&postings.sketch, m));
            }
        }
        ids.sort_unstable();
        ids.dedup();

        let mut candidates: Vec<Candidate> = ids
            .into_iter()
            .map(|id| {
                let entry = &entries[id as usize];
                Candidate {
                    entry: id as usize,
                    title_similarity: title_similarity(&fp.title, &entry.title),
                    content_similarity: fp.sketch.similarity(&entry.sketch),
                }
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.score().total_cmp(&a.score()).then_with(|| a.entry.cmp(&b.entry))
        });
        candidates.truncate(k);
        candidates
    }
}

fn sorted_unique(mut pairs: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The entry ids posted under `key`: the run of `key`'s pairs, found by
/// binary search.
fn posting(postings: &[(u64, u32)], key: u64) -> impl Iterator<Item = u32> + '_ {
    let start = postings.partition_point(|&(k, _)| k < key);
    postings[start..].iter().take_while(move |&&(k, _)| k == key).map(|&(_, id)| id)
}

/// Exact token-Jaccard similarity between two titles (lowercase
/// alphanumeric tokens). Two empty titles count as identical; empty vs
/// non-empty as disjoint.
pub fn title_similarity(a: &str, b: &str) -> f64 {
    let ta: BTreeSet<u64> = title_tokens(a).into_iter().collect();
    let tb: BTreeSet<u64> = title_tokens(b).into_iter().collect();
    jaccard(&ta, &tb)
}

/// Hashes of the lowercase alphanumeric tokens of a title.
fn title_tokens(title: &str) -> Vec<u64> {
    title
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| fnv1a(t.to_ascii_lowercase().as_bytes()))
        .collect()
}

fn jaccard(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Every page of `site` that a visitor (and hence a search crawler) can
/// reach at `t`: DNS must resolve the host to *this* site (lapsed domains
/// and parker re-registrations drop out), the site must be founded and not
/// parked, the page's current path must serve a real 200.
fn index_site(web: &LiveWeb, site: &Site, t: SimTime) -> Vec<RescueEntry> {
    match web.site_by_host(&site.host, t) {
        Some(resolved) if resolved.id == site.id => {}
        _ => return Vec::new(),
    }
    if t < site.lifecycle.founded || site.lifecycle.is_parked(t) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for page in site.pages() {
        let path = page.current_path(t);
        if page.view_at(path, t) != Some(PathView::Live) {
            continue;
        }
        let resp = site.serve(path, t, web.content());
        if resp.status != StatusCode::OK {
            continue;
        }
        out.push(RescueEntry {
            url: format!("http://{}{}", site.host, path),
            title: extract_title(&resp.body).unwrap_or_default(),
            sketch: MinHashSketch::of(&resp.body, SHINGLE_K),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_web::{Page, PageEvent, PageId, SiteId, SiteLifecycle, UnknownPathPolicy};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 15)
    }

    /// Three sites: one healthy with a moved page, one parked, one founded
    /// in the future.
    fn web() -> LiveWeb {
        let mut web = LiveWeb::new(777);

        let mut alive = Site::new(
            SiteId(1),
            "alive.example.org",
            SiteLifecycle::active_from(t(2004)),
            UnknownPathPolicy::NotFound,
        );
        let mut moved = Page::new(PageId(1), t(2008), "/artists/steve");
        moved.push_event(t(2016), PageEvent::Moved { to_path: "/portfolio/steve".into() });
        alive.add_page(moved);
        alive.add_page(Page::new(PageId(2), t(2009), "/about.html"));
        let mut deleted = Page::new(PageId(3), t(2009), "/temp.html");
        deleted.push_event(t(2012), PageEvent::Deleted);
        alive.add_page(deleted);
        web.add_site(alive);

        let mut parked = Site::new(
            SiteId(2),
            "parked.example.net",
            SiteLifecycle::active_from(t(2004)).parked_at(t(2015)),
            UnknownPathPolicy::NotFound,
        );
        parked.add_page(Page::new(PageId(1), t(2006), "/story.html"));
        web.add_site(parked);

        let mut future = Site::new(
            SiteId(3),
            "future.example.com",
            SiteLifecycle::active_from(t(2030)),
            UnknownPathPolicy::NotFound,
        );
        future.add_page(Page::new(PageId(1), t(2030), "/hello"));
        web.add_site(future);

        web
    }

    #[test]
    fn indexes_only_reachable_live_pages() {
        let idx = RescueIndex::build(&web(), t(2018), 1);
        let urls: Vec<&str> = idx.entries().iter().map(|e| e.url.as_str()).collect();
        assert_eq!(
            urls,
            [
                "http://alive.example.org/portfolio/steve",
                "http://alive.example.org/about.html",
            ],
            "moved page at its new path only; deleted, parked, unfounded pages absent"
        );
        for e in idx.entries() {
            assert!(!e.title.is_empty(), "served pages carry a <title>: {}", e.url);
            assert!(!e.sketch.empty);
        }
    }

    #[test]
    fn build_is_bit_identical_across_jobs() {
        let web = web();
        let base = RescueIndex::build(&web, t(2018), 1);
        for jobs in [2, 3, 8] {
            assert_eq!(RescueIndex::build(&web, t(2018), jobs), base, "jobs={jobs}");
        }
    }

    #[test]
    fn from_entries_reproduces_build() {
        let idx = RescueIndex::build(&web(), t(2018), 2);
        assert_eq!(RescueIndex::from_entries(idx.entries().to_vec()), idx);
    }

    #[test]
    fn query_finds_moved_page_from_old_body() {
        let web = web();
        // fingerprint = what the archive saw at the *old* URL before the move
        let site = web.site_by_host("alive.example.org", t(2012)).unwrap();
        let old = site.serve("/artists/steve", t(2012), web.content());
        assert_eq!(old.status, StatusCode::OK);
        let fp = Fingerprint {
            title: extract_title(&old.body).unwrap(),
            sketch: MinHashSketch::of(&old.body, SHINGLE_K),
        };

        let idx = RescueIndex::build(&web, t(2018), 1);
        let hits = idx.query(&fp, DEFAULT_TOP_K);
        assert!(!hits.is_empty());
        let best = &idx.entries()[hits[0].entry];
        assert_eq!(best.url, "http://alive.example.org/portfolio/steve");
        assert!(hits[0].title_similarity >= TITLE_THRESHOLD);
        assert!(hits[0].content_similarity >= SKETCH_THRESHOLD);
    }

    #[test]
    fn query_is_deterministic_and_ranked() {
        let web = web();
        let idx = RescueIndex::build(&web, t(2018), 1);
        let site = web.site_by_host("alive.example.org", t(2018)).unwrap();
        let about = site.serve("/about.html", t(2018), web.content());
        let fp = Fingerprint {
            title: extract_title(&about.body).unwrap(),
            sketch: MinHashSketch::of(&about.body, SHINGLE_K),
        };
        let a = idx.query(&fp, 10);
        let b = idx.query(&fp, 10);
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].score() >= pair[1].score(), "ranked best-first");
        }
        assert_eq!(idx.entries()[a[0].entry].url, "http://alive.example.org/about.html");
        assert_eq!(a[0].content_similarity, 1.0, "identical body ⇒ digest match");
    }

    #[test]
    fn unrelated_fingerprint_matches_nothing_confidently() {
        let idx = RescueIndex::build(&web(), t(2018), 1);
        let fp = Fingerprint {
            title: "zzz qqq xxx completely disjoint".into(),
            sketch: MinHashSketch::of(
                "words that never appear in any generated page body at all \
                 zebra quagga xylophone zebra quagga xylophone",
                SHINGLE_K,
            ),
        };
        for c in idx.query(&fp, 10) {
            assert!(c.title_similarity < TITLE_THRESHOLD);
            assert!(c.content_similarity < SKETCH_THRESHOLD);
        }
    }

    /// SplitMix64: deterministic draws for the hand-built index below.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// 0–4 words from a small vocabulary (`extra` adds words no entry
        /// uses), with repeats and mixed case.
        fn title(&mut self, extra: &[&str]) -> String {
            const VOCAB: [&str; 24] = [
                "Steve", "art", "portfolio", "news", "city", "Archive", "the", "2010", "river",
                "council", "Museum", "band", "tour", "school", "report", "map", "club", "home",
                "story", "page", "league", "station", "ARCHIVE", "of",
            ];
            let words: Vec<&str> = (0..self.below(5))
                .map(|_| {
                    let i = self.below((VOCAB.len() + extra.len()) as u64) as usize;
                    VOCAB.get(i).copied().unwrap_or_else(|| extra[i - VOCAB.len()])
                })
                .collect();
            words.join(if self.below(2) == 0 { " " } else { " - " })
        }

        /// One sketch in five is empty; minima come from a pool of `pool`
        /// values, so entries share many of them.
        fn sketch(&mut self, pool: u64) -> MinHashSketch {
            let mut mins = [0u64; SKETCH_SIZE];
            for m in &mut mins {
                *m = self.below(pool);
            }
            MinHashSketch::from_parts(mins, self.next(), self.below(5) == 0)
        }
    }

    /// The candidates a query must retrieve, found without postings: every
    /// entry sharing a title token or (both sketches non-empty) a sketch
    /// minimum with the fingerprint, ranked like `query`.
    fn brute_force(idx: &RescueIndex, fp: &Fingerprint, k: usize) -> Vec<Candidate> {
        let fp_tokens: BTreeSet<u64> = title_tokens(&fp.title).into_iter().collect();
        let fp_mins: BTreeSet<u64> = fp.sketch.mins().iter().copied().collect();
        let mut out: Vec<Candidate> = idx
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                let shares_token = title_tokens(&e.title).iter().any(|t| fp_tokens.contains(t));
                let shares_min = !fp.sketch.empty
                    && !e.sketch.empty
                    && e.sketch.mins().iter().any(|m| fp_mins.contains(m));
                shares_token || shares_min
            })
            .map(|(id, e)| Candidate {
                entry: id,
                title_similarity: title_similarity(&fp.title, &e.title),
                content_similarity: fp.sketch.similarity(&e.sketch),
            })
            .collect();
        out.sort_by(|a, b| b.score().total_cmp(&a.score()).then_with(|| a.entry.cmp(&b.entry)));
        out.truncate(k);
        out
    }

    fn drawn_entries(draws: &mut Draws, n: usize) -> Vec<RescueEntry> {
        (0..n)
            .map(|i| RescueEntry {
                url: format!("http://site{}.example/p{i}", i % 7),
                title: draws.title(&[]),
                sketch: draws.sketch(4000),
            })
            .collect()
    }

    #[test]
    fn query_retrieves_every_entry_sharing_a_token_or_minimum() {
        let mut draws = Draws(19);
        let entries = drawn_entries(&mut draws, 120);
        assert!(entries.iter().any(|e| e.title.is_empty()), "some titles are empty");
        assert!(entries.iter().any(|e| e.sketch.empty), "some sketches are empty");
        let idx = RescueIndex::from_entries(entries.clone());
        assert!(idx.postings_built());
        assert_eq!(RescueIndex::from_entries_lazy(entries.clone()), idx, "== builds the postings");
        // the snapshot-load path: postings built by the first query
        let lazy = RescueIndex::from_entries_lazy(entries);
        assert!(!lazy.postings_built());

        let mut retrieved = 0;
        for round in 0..300 {
            // minima from a wider pool, so some match nothing in the index
            let fp = Fingerprint {
                title: draws.title(&["zebra", "quagga"]),
                sketch: draws.sketch(8000),
            };
            for k in [DEFAULT_TOP_K, idx.len()] {
                let got = idx.query(&fp, k);
                assert_eq!(got, brute_force(&idx, &fp, k), "round {round}, k {k}, fp {fp:?}");
                assert_eq!(lazy.query(&fp, k), got, "round {round}, k {k}: lazy index");
                if k == idx.len() {
                    retrieved += got.len();
                }
            }
        }
        assert!(lazy.postings_built());
        assert_eq!(lazy, idx);
        // retrieval is selective: neither nothing nor everything
        let mean = retrieved as f64 / 300.0;
        assert!(mean > 5.0 && mean < 0.5 * idx.len() as f64, "mean retrieved {mean}");
    }

    #[test]
    fn concurrent_first_queries_build_once_and_agree() {
        let mut draws = Draws(23);
        let entries = drawn_entries(&mut draws, 200);
        let eager = RescueIndex::from_entries(entries.clone());
        let lazy = RescueIndex::from_entries_lazy(entries);
        let fps: Vec<Fingerprint> = (0..4)
            .map(|_| Fingerprint { title: draws.title(&[]), sketch: draws.sketch(4000) })
            .collect();
        let expected: Vec<Vec<Candidate>> =
            fps.iter().map(|fp| eager.query(fp, DEFAULT_TOP_K)).collect();
        assert!(expected.iter().all(|c| !c.is_empty()), "every fingerprint retrieves something");

        let start = std::sync::Barrier::new(fps.len());
        let answers: Vec<Vec<(usize, Vec<Candidate>)>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..fps.len())
                .map(|first| {
                    let (lazy, fps, start) = (&lazy, &fps, &start);
                    scope.spawn(move || {
                        start.wait();
                        // each thread's first query is a different fingerprint
                        (0..fps.len())
                            .map(|i| (first + i) % fps.len())
                            .map(|i| (i, lazy.query(&fps[i], DEFAULT_TOP_K)))
                            .collect()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("query thread")).collect()
        });
        for (i, got) in answers.into_iter().flatten() {
            assert_eq!(got, expected[i], "fingerprint {i}");
        }
        assert_eq!(lazy, eager);
    }

    /// Hands out a fixed entry list, counting its reads.
    #[derive(Debug)]
    struct Counted {
        entries: Vec<RescueEntry>,
        reads: Arc<AtomicUsize>,
    }

    impl EntrySource for Counted {
        fn read(&self) -> Vec<RescueEntry> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.entries.clone()
        }
    }

    #[test]
    fn a_deferred_index_reads_its_entries_once_on_first_use() {
        let mut draws = Draws(29);
        let entries = drawn_entries(&mut draws, 80);
        let eager = RescueIndex::from_entries(entries.clone());
        let reads = Arc::new(AtomicUsize::new(0));
        let source = Counted { entries, reads: Arc::clone(&reads) };
        let deferred = RescueIndex::deferred(80, source);
        let count = || reads.load(Ordering::SeqCst);
        assert_eq!((deferred.len(), deferred.is_empty()), (80, false));
        assert!(!deferred.entries_loaded() && !deferred.postings_built());
        assert_eq!(count(), 0, "the length is known without a read");

        let fp = Fingerprint { title: draws.title(&[]), sketch: draws.sketch(4000) };
        let start = std::sync::Barrier::new(3);
        let answers: Vec<Vec<Candidate>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        deferred.query(&fp, DEFAULT_TOP_K)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("query thread")).collect()
        });
        assert!(answers.iter().all(|a| *a == eager.query(&fp, DEFAULT_TOP_K)));
        assert_eq!(count(), 1, "concurrent first queries wait for one read");
        assert!(deferred.entries_loaded() && deferred.postings_built());
        assert_eq!(deferred, eager);
        assert_eq!(deferred.entries(), eager.entries());
        assert_eq!(count(), 1);
    }

    #[test]
    #[should_panic(expected = "wrong number of entries")]
    fn a_source_that_reads_too_few_entries_panics() {
        let reads = Arc::new(AtomicUsize::new(0));
        let index = RescueIndex::deferred(1, Counted { entries: Vec::new(), reads });
        index.entries();
    }

    #[test]
    fn empty_web_builds_empty_index() {
        let web = LiveWeb::new(1);
        let idx = RescueIndex::build(&web, t(2018), 4);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.query(
            &Fingerprint { title: "anything".into(), sketch: MinHashSketch::of("x", SHINGLE_K) },
            3
        )
        .is_empty());
    }
}
