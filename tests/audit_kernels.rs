//! The audit's per-link kernels against the code they replaced.
//!
//! Each verdict rests on three comparisons: the §3 soft-404 probe's word
//! 5-shingle Jaccard, the §4.2 check of an archived 3xx against its
//! directory siblings, and the §5.2 search for a unique archived URL at
//! edit distance 1. Their kernels now allocate nothing per token, per
//! archived row or per sibling. The implementations they replaced live on
//! here as oracles, and every output must equal theirs: on generated
//! inputs, and on every link and every archived 3xx row of the seed-42
//! small world.
//!
//! - **Shingles:** a `HashSet` built from token `String`s.
//! - **Typos:** every distinct host URL formatted into a fresh `String`,
//!   tested with `bounded_levenshtein(a, b, 1) == Some(1)`.
//! - **Siblings:** the directory's rows collected by a CDX query, then the
//!   consulted SURTs fixed by sorting.
//! - **Spatial counts:** a collapsed CDX query's row count.

use permadead::analysis::redirects::{validate_redirect_with, MAX_SIBLINGS, WINDOW};
use permadead::analysis::{
    find_typo_candidate, spatial_coverage, validate_redirect_with_retry, Dataset, RedirectVerdict,
    SpatialCoverage, TypoCandidate,
};
use permadead::archive::{
    attempt_nonce, ArchiveStore, CdxApi, CdxQuery, Snapshot, StatusFilter, TimedCdx,
};
use permadead::net::latency::Millis;
use permadead::net::{
    AttemptFailure, Client, Duration, RetryCause, RetryPolicy, SimTime, StatusCode,
};
use permadead::sim::{Scenario, ScenarioConfig};
use permadead::text::{
    jaccard, login_page_body, parked_domain_body, render_page, shingle_similarity, shingles,
    soft404_body, ContentGen, MinHashSketch,
};
use permadead::url::{at_distance_one, bounded_levenshtein, replace_last_segment, Fnv1a, Url};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::{Mutex, MutexGuard, OnceLock};

// ---- oracles: the replaced implementations ----

/// The shingle set as the token-`String` implementation built it.
fn oracle_shingles(text: &str, k: usize) -> HashSet<u64> {
    let tokens: Vec<String> = text
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect();
    let mut out = HashSet::new();
    if tokens.is_empty() {
        return out;
    }
    if tokens.len() < k {
        out.insert(oracle_hash_window(&tokens));
        return out;
    }
    for w in tokens.windows(k) {
        out.insert(oracle_hash_window(w));
    }
    out
}

fn oracle_hash_window(window: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for tok in window {
        for &b in tok.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn oracle_jaccard(a: &HashSet<u64>, b: &HashSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// The typo scan that formatted every distinct host URL.
fn oracle_typo(archive: &ArchiveStore, url: &Url) -> Option<TypoCandidate> {
    let rows = CdxApi::new(archive).query(&CdxQuery::host(url.host()).collapsed());
    let target = url.to_string();
    let mut matches: BTreeSet<String> = BTreeSet::new();
    for snap in rows {
        let candidate = snap.url.to_string();
        if candidate == target {
            continue;
        }
        if bounded_levenshtein(&target, &candidate, 1) == Some(1) {
            matches.insert(candidate);
            if matches.len() > 1 {
                return None;
            }
        }
    }
    let only = matches.into_iter().next()?;
    Some(TypoCandidate {
        typo_url: url.clone(),
        intended_url: Url::parse(&only).expect("stored URLs parse"),
    })
}

/// The spatial counts as collapsed queries' row counts.
fn oracle_spatial(archive: &ArchiveStore, url: &Url) -> SpatialCoverage {
    let api = CdxApi::new(archive);
    let ok = StatusFilter::Code(200);
    SpatialCoverage {
        directory_urls: api
            .query(&CdxQuery::directory_of(url).with_status(ok).collapsed())
            .len(),
        hostname_urls: api
            .query(&CdxQuery::host(url.host()).with_status(ok).collapsed())
            .len(),
    }
}

fn oracle_sibling_query(snap: &Snapshot, window: Duration) -> CdxQuery {
    CdxQuery::directory_of(&snap.url)
        .with_status(StatusFilter::Family(3))
        .since(snap.captured - window)
        .until(snap.captured + window)
}

/// The sort-based sibling comparison over a directory query's rows.
fn oracle_compare(
    rows: &[&Snapshot],
    own_surt: &str,
    target: &Url,
    max_siblings: usize,
) -> RedirectVerdict {
    let mut consulted: Vec<&str> = rows
        .iter()
        .filter(|other| other.surt != own_surt)
        .map(|other| other.surt.as_str())
        .collect();
    consulted.sort_unstable();
    consulted.dedup();
    consulted.truncate(max_siblings);
    for other in rows {
        if other.surt == own_surt || consulted.binary_search(&other.surt.as_str()).is_err() {
            continue;
        }
        if other.redirect_target.as_deref() == Some(target) {
            return RedirectVerdict::Erroneous {
                shared_target: target.clone(),
            };
        }
    }
    RedirectVerdict::Valid
}

fn oracle_redirect(
    archive: &ArchiveStore,
    snap: &Snapshot,
    window: Duration,
    max_siblings: usize,
) -> RedirectVerdict {
    let Some(target) = &snap.redirect_target else {
        return RedirectVerdict::NoTarget;
    };
    let rows = CdxApi::new(archive).query(&oracle_sibling_query(snap, window));
    oracle_compare(&rows, &snap.surt, target, max_siblings)
}

/// The timed variant: the latency draw a `DirectoryOf` query pays, then
/// the sort-based comparison.
fn oracle_redirect_with_retry(
    archive: &ArchiveStore,
    snap: &Snapshot,
    cdx_timeout_ms: Option<Millis>,
    latency_seed: u64,
    nonce: u64,
    retry: &RetryPolicy,
) -> (RedirectVerdict, permadead::net::RetryOutcome) {
    let api = TimedCdx::new(archive, latency_seed, cdx_timeout_ms);
    let key = format!("redirect:{}", snap.url);
    let (result, outcome) = retry.run(&key, |attempt| {
        let Some(target) = &snap.redirect_target else {
            return Ok(RedirectVerdict::NoTarget);
        };
        let rows = api
            .query(
                &oracle_sibling_query(snap, WINDOW),
                attempt_nonce(nonce, attempt),
            )
            .map_err(|_| AttemptFailure {
                cause: RetryCause::AvailabilityTimeout,
                retry_after_ms: None,
                error: (),
            })?;
        Ok(oracle_compare(&rows, &snap.surt, target, MAX_SIBLINGS))
    });
    (result.unwrap_or(RedirectVerdict::Unverified), outcome)
}

// ---- shingles ----

fn assert_shingles_match(a: &str, b: &str, k: usize) {
    let (set_a, set_b) = (shingles(a, k), shingles(b, k));
    let (old_a, old_b) = (oracle_shingles(a, k), oracle_shingles(b, k));
    for (set, old, text) in [(&set_a, &old_a, a), (&set_b, &old_b, b)] {
        let mut want: Vec<u64> = old.iter().copied().collect();
        want.sort_unstable();
        assert_eq!(set, &want, "shingles({text:?}, {k})");
    }
    let old = oracle_jaccard(&old_a, &old_b).to_bits();
    assert_eq!(
        jaccard(&set_a, &set_b).to_bits(),
        old,
        "jaccard of {a:?} and {b:?}, k = {k}"
    );
    assert_eq!(
        shingle_similarity(a, b, k).to_bits(),
        old,
        "similarity of {a:?} and {b:?}, k = {k}"
    );
}

/// Fixed texts: generated articles, the error templates the live web
/// serves, and the edge cases of the tokenizer.
fn corpus() -> Vec<String> {
    let gen = ContentGen::new(42);
    let mut texts: Vec<String> = Vec::new();
    for i in 0..6 {
        let key = format!("http://e{i}.org/news/story-{i}.html");
        texts.push(gen.article_body(&key, 0));
        texts.push(gen.article_body(&key, 1));
        texts.push(render_page(&gen.title(&key), &[&gen.body(&key, 3, 0)]));
    }
    for host in ["e.org", "www.example.com"] {
        texts.push(soft404_body(host));
        texts.push(parked_domain_body(host));
        texts.push(login_page_body(host));
    }
    for edge in [
        "",
        "   ",
        "one",
        "one two",
        "One, TWO; three!",
        "a b a b a b a b",
        "café crème brûlée — déjà vu",
        "日本語のテキスト and some ASCII words 123",
        "x\u{7f}y\u{80}z",
        "tab\tseparated\nlines\r\nhere",
        "MiXeD cAsE mixed case MIXED CASE",
    ] {
        texts.push(edge.to_string());
    }
    texts
}

#[test]
fn shingles_match_the_token_string_oracle_on_the_corpus() {
    let texts = corpus();
    for k in 1..=6 {
        for a in &texts {
            for b in texts.iter().step_by(3) {
                assert_shingles_match(a, b, k);
            }
        }
    }
}

/// `MinHashSketch::of` feeds on the shingle set and its sketches are
/// persisted in every snapshot, so the sketches of the corpus are pinned:
/// this checksum is what the `HashSet`-based shingling produced.
#[test]
fn sketches_are_unchanged() {
    let mut h = Fnv1a::new();
    for text in corpus() {
        for k in 1..=6 {
            let s = MinHashSketch::of(&text, k);
            for m in s.mins() {
                h.write(&m.to_le_bytes());
            }
            h.write(&s.digest.to_le_bytes());
            h.write(&[u8::from(s.empty)]);
        }
    }
    assert_eq!(h.finish(), SKETCH_CHECKSUM);
}

const SKETCH_CHECKSUM: u64 = 0x0a44_1473_ffec_9f8f;

proptest! {
    #[test]
    fn shingles_match_the_token_string_oracle(
        a in "[a-zA-Z0-9 ,.!?'/<>é日—-]{0,90}",
        b in "([a-cA-C0-9]{1,3}[ ,.ü]{1,2}){0,30}",
        k in 1usize..7,
    ) {
        assert_shingles_match(&a, &b, k);
        assert_shingles_match(&b, &b, k);
        assert_shingles_match(&a, &format!("{a} {b}"), k);
    }
}

// ---- distance one ----

/// `s` with one edit applied: kind 0 inserts, 1 deletes, 2 substitutes, at
/// `at` modulo the places there are.
fn edit(s: &str, kind: usize, at: usize, byte: char) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    match kind {
        0 => chars.insert(at % (chars.len() + 1), byte),
        _ if chars.is_empty() => {}
        1 => {
            chars.remove(at % chars.len());
        }
        _ => {
            let i = at % chars.len();
            chars[i] = byte;
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #[test]
    fn distance_one_matches_bounded_levenshtein(
        a in "[ab/.]{0,16}",
        b in "[ab/.é]{0,16}",
        edits in proptest::collection::vec((0usize..3, 0usize..40, "[ab/.xé]"), 1..3),
    ) {
        let one = |x: &str, y: &str| bounded_levenshtein(x, y, 1) == Some(1);
        let mut near = a.clone();
        for (i, (kind, at, c)) in edits.iter().enumerate() {
            near = edit(&near, *kind, *at, c.chars().next().unwrap());
            // the one-edit neighbour, then the two-edit one
            prop_assert_eq!(at_distance_one(&a, &near), one(&a, &near), "edit {}", i);
            prop_assert_eq!(at_distance_one(&near, &a), one(&near, &a), "edit {}", i);
        }
        prop_assert_eq!(at_distance_one(&a, &b), one(&a, &b));
        prop_assert_eq!(at_distance_one(&b, &a), one(&b, &a));
        prop_assert!(!at_distance_one(&a, &a));
    }

    #[test]
    fn display_len_is_the_displayed_length(
        raw in "(http|https|HTTP)://[a-z]{1,6}(\\.[a-z]{2,3}){1,2}(:[0-9]{1,5})?(/[a-zA-Z0-9é%._-]{0,6}){0,3}(\\?[a-z=&]{0,6})?(#[a-z]{0,4})?",
    ) {
        if let Ok(url) = Url::parse(&raw) {
            prop_assert_eq!(url.display_len(), url.to_string().len(), "{}", raw);
        }
    }
}

// ---- the seed-42 small world ----

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::generate(ScenarioConfig::small(42)))
}

/// Held by each test that reads the shared archive's access counters, so
/// no other test's scans land between its readings.
fn counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every distinct URL of the March and September samples and of every
/// tagged link.
fn dataset_urls(s: &Scenario) -> Vec<Url> {
    let cfg = &s.config;
    let mut urls: Vec<Url> = [
        Dataset::march(&s.wiki, cfg.sample_size, cfg.seed),
        Dataset::september(&s.wiki, cfg.sample_size, cfg.seed),
        Dataset::all_tagged(&s.wiki),
    ]
    .into_iter()
    .flat_map(|d| d.entries)
    .map(|e| e.url)
    .collect();
    urls.sort();
    urls.dedup();
    urls
}

#[test]
fn soft404_similarity_matches_the_oracle_on_every_dataset_probe() {
    let s = scenario();
    let client = Client::new();
    let mut compared = 0;
    for url in dataset_urls(s) {
        let page = client.get(&s.web, &url, s.config.study_time);
        let probe = replace_last_segment(&url, "qzqzqzqzqzqzqzqzqzqzqzqzq");
        let sibling = client.get(&s.web, &probe, s.config.study_time);
        assert_shingles_match(&page.body, &sibling.body, 5);
        compared += usize::from(!page.body.is_empty() && !sibling.body.is_empty());
    }
    assert!(compared > 50, "only {compared} pairs with two bodies");
}

#[test]
fn typo_and_spatial_scans_match_the_old_scans_for_every_dataset_link() {
    let s = scenario();
    let _counters = counters();
    let archive = &s.archive;
    let urls = dataset_urls(s);
    let (mut typos, mut covered) = (0, 0);
    for url in &urls {
        assert_eq!(url.display_len(), url.to_string().len());
        let lookups = archive.lookups.get();
        let typo = find_typo_candidate(archive, url);
        assert_eq!(
            archive.lookups.get() - lookups,
            1,
            "one host scan for {url}"
        );
        assert_eq!(typo, oracle_typo(archive, url), "typo candidate of {url}");
        typos += usize::from(typo.is_some());

        let lookups = archive.lookups.get();
        let coverage = spatial_coverage(archive, url);
        assert_eq!(archive.lookups.get() - lookups, 2, "two scans for {url}");
        assert_eq!(coverage, oracle_spatial(archive, url), "coverage of {url}");
        covered += usize::from(!coverage.hostname_is_empty());
    }
    assert!(typos > 0, "no dataset link has a typo candidate");
    assert!(
        covered > 0 && covered < urls.len(),
        "{covered} of {} covered",
        urls.len()
    );
    for snap in archive.iter() {
        assert_eq!(
            snap.url.display_len(),
            snap.url.to_string().len(),
            "{}",
            snap.url
        );
    }
}

#[test]
fn redirect_verdicts_match_the_sort_based_oracle_on_every_archived_3xx_row() {
    let archive = &scenario().archive;
    let _counters = counters();
    let redirects: Vec<&Snapshot> = archive.iter().filter(|s| s.status_family() == 3).collect();
    assert!(
        redirects.len() > 500,
        "only {} archived 3xx rows",
        redirects.len()
    );
    let mut erroneous = 0;
    for days in [30, 90, 365] {
        let window = Duration::days(days);
        for cap in [0, 1, 2, 6, 20] {
            for &snap in &redirects {
                let (lookups, rows) = (archive.lookups.get(), archive.rows_scanned.get());
                let verdict = validate_redirect_with(archive, snap, window, cap);
                assert_eq!(archive.lookups.get() - lookups, 1, "one directory scan");
                let scanned = archive.rows_scanned.get() - rows;
                assert_eq!(
                    verdict,
                    oracle_redirect(archive, snap, window, cap),
                    "{} at {:?}, ±{days} days, {cap} siblings",
                    snap.url,
                    snap.captured
                );
                let directory = archive.rows_scanned.get() - rows - scanned;
                assert!(
                    scanned <= directory,
                    "the stream reads no more than the query"
                );
                erroneous += usize::from(!verdict.is_valid());
            }
        }
    }
    assert!(erroneous > 0, "no erroneous verdict to compare");
}

#[test]
fn timed_redirect_checks_draw_as_the_query_did() {
    let archive = &scenario().archive;
    let retrying = RetryPolicy::standard(3, 0xA1);
    let mut unverified = 0;
    for (i, snap) in archive
        .iter()
        .filter(|s| s.status_family() == 3)
        .enumerate()
        .step_by(7)
    {
        for (timeout, policy) in [
            (None, RetryPolicy::single()),
            (Some(1_000), RetryPolicy::single()),
            (Some(1_000), retrying),
        ] {
            let got = validate_redirect_with_retry(archive, snap, timeout, 7, i as u64, &policy);
            let want = oracle_redirect_with_retry(archive, snap, timeout, 7, i as u64, &policy);
            assert_eq!(got, want, "{} with timeout {timeout:?}", snap.url);
            unverified += usize::from(got.0 == RedirectVerdict::Unverified);
        }
    }
    assert!(unverified > 0, "no lookup timed out");
}

// ---- random directories, inserted out of order ----

const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const DIRS: [&str; 3] = ["news", "news/sub", "sport"];
const TARGETS: [&str; 3] = ["http://n.org/", "http://n.org/home", "http://n.org/news/"];

/// A Fisher–Yates shuffle driven by an LCG whose state is `draw`.
fn shuffle<T>(items: &mut [T], draw: &mut u64) {
    for i in (1..items.len()).rev() {
        *draw = draw
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (*draw >> 33) as usize % (i + 1));
    }
}

proptest! {
    #[test]
    fn redirect_stream_matches_the_oracle_on_shuffled_directories(
        picks in proptest::collection::vec(
            (0usize..6, 0usize..3, 0i64..400, prop_oneof![Just(200u16), Just(301), Just(302), Just(404)], 0usize..4),
            1..40,
        ),
        seed in any::<u64>(),
        window in 1i64..200,
        cap in 0usize..5,
    ) {
        let mut rows: Vec<Snapshot> = picks
            .iter()
            .map(|&(name, dir, day, status, target)| {
                let url = Url::parse(&format!("http://n.org/{}/{}.html", DIRS[dir], NAMES[name])).unwrap();
                let target = (300..400)
                    .contains(&status)
                    .then(|| TARGETS.get(target).map(|t| Url::parse(t).unwrap()))
                    .flatten();
                Snapshot::from_observation(&url, SimTime(day * 86_400), StatusCode(status), target, "")
            })
            .collect();
        let mut draw = seed;
        shuffle(&mut rows, &mut draw);
        let mut inserted = ArchiveStore::new();
        for row in rows.iter().cloned() {
            inserted.insert(row);
        }
        let collected: ArchiveStore = rows.into_iter().collect();
        let window = Duration::days(window);
        for archive in [&inserted, &collected] {
            for snap in archive.iter().filter(|s| s.status_family() == 3) {
                prop_assert_eq!(
                    validate_redirect_with(archive, snap, window, cap),
                    oracle_redirect(archive, snap, window, cap),
                    "{} at {:?}", snap.url, snap.captured
                );
            }
        }
    }
}
