//! Dataset collection (§2.4).
//!
//! The paper builds two samples of permanently-dead links:
//!
//! - **March dataset**: crawl the category of articles with permanently dead
//!   links in alphabetical order, take the first 10,000 articles, extract the
//!   tagged URLs (~17,000), keep the ones tagged by IABot, and sample 10,000.
//! - **September random sample**: take all tagged links wiki-wide and sample
//!   10,000 uniformly.
//!
//! Each entry carries the provenance triple the paper extracts from edit
//! histories: when the link was added, when it was tagged, by whom.

use permadead_net::SimTime;
use permadead_url::Url;
use permadead_wiki::WikiStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One permanently-dead link with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    pub url: Url,
    /// The article the link was sampled from (a URL tagged in several
    /// articles is sampled once).
    pub article: String,
    /// When the link was added to the article.
    pub added_at: SimTime,
    /// When it was tagged `{{dead link}}`.
    pub marked_at: SimTime,
    /// Username that applied the tag.
    pub marked_by: String,
}

/// Seeds of the March and September samples, mixed into the scenario seed.
const MARCH_SEED: u64 = 0xA1;
const SEPTEMBER_SEED: u64 = 0xB2;

/// How many category articles, in title order, the March sample reads:
/// ~60% of them, at least one.
fn march_articles(category: usize) -> usize {
    (category * 6 / 10).max(1)
}

/// A study sample.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub label: String,
    pub entries: Vec<DatasetEntry>,
}

impl Dataset {
    /// The March-style dataset: first `max_articles` category members in
    /// title order, IABot-tagged URLs only, sampled down to `sample`.
    pub fn alphabetical(wiki: &WikiStore, max_articles: usize, sample: usize, seed: u64) -> Dataset {
        let articles = wiki.permanently_dead_category().into_iter().take(max_articles);
        let (entries, _) = tagged_links(articles, 0);
        Dataset::sampled("alphabetical", entries, sample, seed)
    }

    /// The September-style dataset: every tagged URL wiki-wide, sampled.
    pub fn random(wiki: &WikiStore, sample: usize, seed: u64) -> Dataset {
        let (entries, _) = tagged_links(wiki.permanently_dead_category(), 0);
        Dataset::sampled("random", entries, sample, seed)
    }

    /// `entries` sampled down to `sample`, labelled `label`.
    fn sampled(label: &str, mut entries: Vec<DatasetEntry>, sample: usize, seed: u64) -> Dataset {
        sample_down(&mut entries, sample, seed);
        Dataset {
            label: label.into(),
            entries,
        }
    }

    /// The March sample every consumer shares: `audit`, `serve`, the repro
    /// binaries and the world snapshot. The paper crawls the first 10,000
    /// category articles; our category is smaller, so take ~60% of it
    /// alphabetically, capped at `sample` links, seeded `seed ^ 0xA1`.
    pub fn march(wiki: &WikiStore, sample: usize, seed: u64) -> Dataset {
        let category = wiki.permanently_dead_category().len();
        Dataset::alphabetical(wiki, march_articles(category), sample, seed ^ MARCH_SEED)
    }

    /// The September sample: `sample` links drawn from every tagged URL
    /// wiki-wide, seeded `seed ^ 0xB2`.
    pub fn september(wiki: &WikiStore, sample: usize, seed: u64) -> Dataset {
        Dataset::random(wiki, sample, seed ^ SEPTEMBER_SEED)
    }

    /// Every IABot-tagged URL wiki-wide, unsampled: provenance for links
    /// outside the March sample.
    pub fn all_tagged(wiki: &WikiStore) -> Dataset {
        Dataset::random(wiki, usize::MAX, 0)
    }

    /// [`Dataset::march`], [`Dataset::september`] and
    /// [`Dataset::all_tagged`] from one walk of the category, as a world
    /// carries them: the March links are those its first articles give, a
    /// prefix of the whole walk's.
    pub fn samples(wiki: &WikiStore, sample: usize, seed: u64) -> (Dataset, Dataset, Dataset) {
        let category = wiki.permanently_dead_category();
        let march = march_articles(category.len());
        let (entries, in_march) = tagged_links(category, march);
        (
            Dataset::sampled(
                "alphabetical",
                entries[..in_march].to_vec(),
                sample,
                seed ^ MARCH_SEED,
            ),
            Dataset::sampled("random", entries.clone(), sample, seed ^ SEPTEMBER_SEED),
            Dataset::sampled("random", entries, usize::MAX, 0),
        )
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Figure 3(a): number of sampled URLs per registrable domain.
    pub fn urls_per_domain(&self) -> Vec<usize> {
        let mut counts: std::collections::HashMap<String, usize> = Default::default();
        for e in &self.entries {
            let host = e.url.host();
            let domain = permadead_url::registrable_domain(host)
                .unwrap_or(host)
                .to_string();
            *counts.entry(domain).or_insert(0) += 1;
        }
        let mut v: Vec<usize> = counts.into_values().collect();
        v.sort_unstable();
        v
    }

    /// Distinct hostnames in the sample (§2.4 reports 3,940 of them).
    pub fn distinct_hostnames(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.url.host())
            .collect::<HashSet<_>>()
            .len()
    }

    /// Figure 3(c): posting dates, as fractional years.
    pub fn post_years(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.added_at.as_year_f64()).collect()
    }

    /// Lower into an interned columnar table (the world-snapshot currency).
    /// Row order is preserved; strings are deduplicated into `interner`.
    pub fn to_table(
        &self,
        interner: &mut permadead_worldstore::Interner,
    ) -> permadead_worldstore::LinkTable {
        let mut t = permadead_worldstore::LinkTable::new(&self.label);
        for e in &self.entries {
            t.push(
                interner,
                &e.url.to_string(),
                &e.article,
                e.added_at.0,
                e.marked_at.0,
                &e.marked_by,
            );
        }
        t
    }

    /// Rehydrate from an interned table — the inverse of
    /// [`Dataset::to_table`] (URL parsing is idempotent on already-
    /// normalized URLs, so the round trip is exact).
    pub fn from_table(
        table: &permadead_worldstore::LinkTable,
        interner: &permadead_worldstore::Interner,
    ) -> Dataset {
        Dataset {
            label: table.label.clone(),
            entries: table
                .rows()
                .map(|r| DatasetEntry {
                    url: Url::parse(interner.resolve(r.url)).expect("stored URL parses"),
                    article: interner.resolve(r.article).to_string(),
                    added_at: SimTime(r.added_at),
                    marked_at: SimTime(r.marked_at),
                    marked_by: interner.resolve(r.marked_by).to_string(),
                })
                .collect(),
        }
    }
}

/// The walk every sample starts from: each of `articles` in turn gives its
/// IABot-tagged links, each URL once. Also returns how many of the links
/// the first `prefix` articles give.
fn tagged_links<'a>(
    articles: impl IntoIterator<Item = &'a permadead_wiki::Article>,
    prefix: usize,
) -> (Vec<DatasetEntry>, usize) {
    let mut entries = Vec::new();
    let mut seen: HashSet<Url> = HashSet::new();
    let mut in_prefix = 0;
    for (i, article) in articles.into_iter().enumerate() {
        collect_from(article, &mut entries, &mut seen);
        if i < prefix {
            in_prefix = entries.len();
        }
    }
    (entries, in_prefix)
}

fn collect_from(
    article: &permadead_wiki::Article,
    entries: &mut Vec<DatasetEntry>,
    seen: &mut HashSet<Url>,
) {
    let doc = article.current_doc();
    for r in doc.refs() {
        if !r.is_permanently_dead() || seen.contains(&r.url) {
            continue;
        }
        let Some(p) = article.link_provenance(&r.url) else {
            continue;
        };
        let (Some(marked_at), Some(marked_by)) = (p.marked_dead_at, p.marked_dead_by) else {
            continue;
        };
        // the paper restricts to links tagged by IABot (§2.4)
        if marked_by != "InternetArchiveBot" {
            continue;
        }
        seen.insert(r.url.clone());
        entries.push(DatasetEntry {
            url: r.url.clone(),
            article: article.title.clone(),
            added_at: p.added_at,
            marked_at,
            marked_by,
        });
    }
}

/// Uniform sample without replacement (partial Fisher–Yates), stable in the
/// seed; keeps order deterministic by re-sorting on URL afterwards.
fn sample_down(entries: &mut Vec<DatasetEntry>, sample: usize, seed: u64) {
    if entries.len() > sample {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..sample {
            let j = rng.gen_range(i..entries.len());
            entries.swap(i, j);
        }
        entries.truncate(sample);
    }
    entries.sort_by(|a, b| a.url.cmp(&b.url));
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_wiki::wikitext::{CiteRef, DeadLinkTag, Document, UrlStatus};
    use permadead_wiki::{Article, User};

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32, m: u32) -> SimTime {
        SimTime::from_ymd(y, m, 1)
    }

    /// An article with one IABot-tagged link, one human-tagged link, one
    /// live link.
    fn make_article(title: &str, idx: usize) -> Article {
        let mut a = Article::new(title);
        let mut doc = Document::new();
        doc.push_ref(CiteRef::cite_web(u(&format!("http://a{idx}.org/x")), "T"));
        doc.push_ref(CiteRef::cite_web(u(&format!("http://b{idx}.org/y")), "T"));
        doc.push_ref(CiteRef::cite_web(u(&format!("http://c{idx}.org/z")), "T"));
        a.save_doc(t(2014, 3), User::human("E"), &doc, "create");

        let mut doc = a.current_doc();
        doc.ref_for_mut(&u(&format!("http://a{idx}.org/x"))).unwrap().dead_link =
            Some(DeadLinkTag { date: "May 2019".into(), bot: Some("InternetArchiveBot".into()) });
        a.save_doc(t(2019, 5), User::iabot(), &doc, "tag");

        let mut doc = a.current_doc();
        let r = doc.ref_for_mut(&u(&format!("http://b{idx}.org/y"))).unwrap();
        r.dead_link = Some(DeadLinkTag { date: "June 2020".into(), bot: None });
        r.url_status = UrlStatus::Dead;
        a.save_doc(t(2020, 6), User::human("H"), &doc, "manual tag");
        a
    }

    fn wiki(n: usize) -> WikiStore {
        let mut w = WikiStore::new();
        for i in 0..n {
            w.insert(make_article(&format!("Article {i:03}"), i));
        }
        w
    }

    #[test]
    fn samples_walk_once_and_equal_the_three_constructors() {
        for n in [0, 1, 2, 7, 30] {
            let w = wiki(n);
            let (march, september, all) = Dataset::samples(&w, 5, 42);
            for (got, want) in [
                (march, Dataset::march(&w, 5, 42)),
                (september, Dataset::september(&w, 5, 42)),
                (all, Dataset::all_tagged(&w)),
            ] {
                assert_eq!(got.label, want.label, "{n} articles");
                assert_eq!(got.entries, want.entries, "{n} articles");
            }
        }
    }

    #[test]
    fn only_iabot_tags_collected() {
        let w = wiki(5);
        let d = Dataset::alphabetical(&w, 100, 100, 1);
        assert_eq!(d.len(), 5);
        assert!(d.entries.iter().all(|e| e.marked_by == "InternetArchiveBot"));
        assert!(d.entries.iter().all(|e| e.url.host().starts_with('a')));
    }

    #[test]
    fn provenance_captured() {
        let w = wiki(2);
        let d = Dataset::alphabetical(&w, 100, 100, 1);
        let e = &d.entries[0];
        assert_eq!(e.added_at, t(2014, 3));
        assert_eq!(e.marked_at, t(2019, 5));
    }

    #[test]
    fn alphabetical_cutoff_limits_articles() {
        let w = wiki(10);
        let d = Dataset::alphabetical(&w, 3, 100, 1);
        assert_eq!(d.len(), 3);
        // the first three in title order
        let arts: HashSet<&str> = d.entries.iter().map(|e| e.article.as_str()).collect();
        assert!(arts.contains("Article 000"));
        assert!(arts.contains("Article 002"));
        assert!(!arts.contains("Article 005"));
    }

    #[test]
    fn sampling_caps_and_is_deterministic() {
        let w = wiki(50);
        let a = Dataset::random(&w, 10, 7);
        let b = Dataset::random(&w, 10, 7);
        assert_eq!(a.len(), 10);
        assert_eq!(a.entries, b.entries);
        let c = Dataset::random(&w, 10, 8);
        assert!(a.entries != c.entries, "different seeds should differ");
    }

    #[test]
    fn duplicate_urls_collected_once() {
        let mut w = WikiStore::new();
        // the same URL tagged in two articles
        for title in ["Aaa", "Bbb"] {
            let mut a = Article::new(title);
            let mut doc = Document::new();
            doc.push_ref(CiteRef::cite_web(u("http://shared.org/x"), "T"));
            a.save_doc(t(2014, 3), User::human("E"), &doc, "create");
            let mut doc = a.current_doc();
            doc.ref_for_mut(&u("http://shared.org/x")).unwrap().dead_link = Some(DeadLinkTag {
                date: "May 2019".into(),
                bot: Some("InternetArchiveBot".into()),
            });
            a.save_doc(t(2019, 5), User::iabot(), &doc, "tag");
            w.insert(a);
        }
        let d = Dataset::random(&w, 100, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.entries[0].article, "Aaa"); // first in title order wins
    }

    #[test]
    fn urls_per_domain_groups_by_registrable_domain() {
        let mut w = WikiStore::new();
        let mut a = Article::new("Aaa");
        let mut doc = Document::new();
        for url in [
            "http://www.one.org/a",
            "http://sub.one.org/b",
            "http://two.org/c",
        ] {
            doc.push_ref(CiteRef::cite_web(u(url), "T"));
        }
        a.save_doc(t(2014, 3), User::human("E"), &doc, "create");
        let mut doc2 = a.current_doc();
        for r in doc2.refs_mut() {
            r.dead_link = Some(DeadLinkTag {
                date: "May 2019".into(),
                bot: Some("InternetArchiveBot".into()),
            });
        }
        a.save_doc(t(2019, 5), User::iabot(), &doc2, "tag");
        w.insert(a);
        let d = Dataset::random(&w, 100, 1);
        assert_eq!(d.urls_per_domain(), vec![1, 2]); // one.org ×2, two.org ×1
        assert_eq!(d.distinct_hostnames(), 3);
    }

    #[test]
    fn table_round_trip_is_exact() {
        let w = wiki(6);
        let d = Dataset::alphabetical(&w, 100, 100, 1);
        let mut interner = permadead_worldstore::Interner::new();
        let table = d.to_table(&mut interner);
        assert_eq!(table.len(), d.len());
        let back = Dataset::from_table(&table, &interner);
        assert_eq!(back.label, d.label);
        assert_eq!(back.entries, d.entries);
    }

    #[test]
    fn post_years_reflect_added_dates() {
        let w = wiki(3);
        let d = Dataset::random(&w, 100, 1);
        for y in d.post_years() {
            assert!((2014.0..2014.4).contains(&y), "{y}");
        }
    }
}
