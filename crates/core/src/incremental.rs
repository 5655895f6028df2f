//! Incremental re-audit: per-link verdict memoization with delta-maintained
//! aggregates.
//!
//! A watch deployment (the `sched` + `serve` pairing) observes one link flip
//! state at a time. Re-running [`Study::run`](crate::Study::run) over the
//! whole corpus to refresh a report after a single flip is O(n) work for an
//! O(1) change; [`IncrementalAudit`] makes it O(changed):
//!
//! - **Findings are memoized per link.** The engine keeps the
//!   [`LinkFinding`] and per-stage [`StageStats`] contribution of every
//!   dataset entry, so re-auditing link *i* replaces exactly one slot.
//! - **The report is maintained as deltas.** Retiring a stale finding is
//!   [`fold_finding`] with sign −1, folding its replacement is +1 — the
//!   aggregate stays bit-identical to a from-scratch fold (asserted by
//!   [`IncrementalAudit::report`]'s tests and the serve e2e suite).
//! - **Staleness is a fingerprint, not a guess.** Each link's verdict is
//!   keyed by a content fingerprint of *that link's inputs*: the live fetch
//!   (and, for 200s, the soft-404 probe) it would observe right now, a
//!   digest of the archive, the retry/CDX configuration, and a caller-owned
//!   config revision. [`IncrementalAudit::refresh`] re-runs only the links
//!   whose fingerprint moved — advancing the clock past a host's lapse date
//!   touches that host's links and nothing else.
//!
//! The fingerprint is *exact*, not heuristic: every pipeline stage except
//! the live check and the soft-404 probe is a pure function of the archive
//! and the entry (the redirect stage validates against CDX history, never
//! the live web), so hashing the live observations plus the archive digest
//! covers every input that can move a verdict. A changed fingerprint whose
//! re-run reproduces the old finding costs work, never correctness.
//!
//! The fingerprint deliberately excludes the clock itself — hashing `now`
//! would invalidate the whole corpus on every tick. It also projects
//! [`FetchRecord::time`](permadead_net::FetchRecord) out of the live
//! observation for the same reason: what matters is whether the *outcome*
//! at the new time differs, not that the timestamp does. The flip side:
//! an unchanged link's memoized finding keeps the fetch timestamp of its
//! last actual re-run — every classification-bearing field (everything the
//! report folds) is current, the embedded clock reading is not.

use crate::dataset::{Dataset, DatasetEntry};
use crate::livecheck::live_check_with_retry;
use crate::pipeline::{
    analyze_link, empty_stats, merge_stats, Stage, StageStats, StudyEnv, StudyOptions,
};
use crate::report::{fold_finding, LinkFinding, StudyReport};
use crate::soft404::soft404_probe_with_retry;
use permadead_archive::ArchiveStore;
use permadead_net::latency::Millis;
use permadead_net::{FetchRecord, LiveStatus, Network, RetryOutcome, RetryPolicy, SimTime};
use permadead_url::Fnv1a;

/// What one re-audit pass did: how many links were re-run, and how many of
/// those actually changed their finding (or stats contribution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReauditOutcome {
    /// Links whose pipeline was re-executed.
    pub reaudited: usize,
    /// Of those, links whose finding or stage-stats contribution changed.
    pub changed: usize,
}

/// A long-lived study whose findings and report survive across clock
/// advances and targeted re-checks. See the module docs for the design.
pub struct IncrementalAudit {
    label: String,
    now: SimTime,
    /// Bumped by the owner whenever analysis configuration outside the
    /// engine's view changes (e.g. a stage list swap); folded into every
    /// fingerprint so the next [`refresh`](IncrementalAudit::refresh)
    /// re-runs everything.
    config_rev: u64,
    stages: Vec<Box<dyn Stage>>,
    retry: RetryPolicy,
    cdx_timeout_ms: Option<Millis>,
    /// Rediscovery index handed through to the pipeline, `None` for an
    /// archive-only audit. Candidate liveness is folded into each link's
    /// fingerprint (see [`IncrementalAudit::fingerprint`]), so a candidate
    /// page dying or changing re-runs exactly the links it could rescue.
    rescue: Option<std::sync::Arc<permadead_rescue::RescueIndex>>,
    entries: Vec<DatasetEntry>,
    findings: Vec<LinkFinding>,
    fingerprints: Vec<u64>,
    /// Per-link per-stage contribution, kept so a re-audit can subtract the
    /// old row and add the new one — totals stay equal (under
    /// [`StageStats`]' nanos-blind equality) to a from-scratch run.
    link_stats: Vec<Vec<StageStats>>,
    stats: Vec<StageStats>,
    /// Counter-only aggregate maintained by ±1 folds; `label`/`n`/
    /// `stage_stats` are filled in at [`report`](IncrementalAudit::report).
    counts: StudyReport,
    /// `(mutation stamp, digest)` of the archive as last scanned. The
    /// digest is O(archive) to compute; keying it on
    /// [`ArchiveStore::mutation_stamp`] makes steady-state re-audits
    /// O(link) while still sweeping the corpus the moment the archive
    /// actually grows. The engine is bound to one world's archive — handing
    /// it a *different* store that happens to share a stamp is a misuse the
    /// cache cannot detect.
    digest_cache: Option<(u64, u64)>,
}

impl IncrementalAudit {
    /// Run the full pipeline once and memoize everything. Equivalent to
    /// [`Study::run_with`](crate::Study::run_with) except links run
    /// serially: the per-link stats rows the deltas need are exactly what a
    /// sharded run cannot attribute. (`options.jobs` is therefore ignored;
    /// findings are bit-identical to any sharded run regardless.)
    pub fn build(
        web: &dyn Network,
        archive: &ArchiveStore,
        dataset: &Dataset,
        now: SimTime,
        options: StudyOptions,
    ) -> IncrementalAudit {
        let StudyOptions {
            jobs: _,
            stages,
            retry,
            cdx_timeout_ms,
            rescue,
        } = options;
        let mut audit = IncrementalAudit {
            label: dataset.label.clone(),
            now,
            config_rev: 0,
            stages,
            retry,
            cdx_timeout_ms,
            rescue,
            entries: dataset.entries.clone(),
            findings: Vec::with_capacity(dataset.len()),
            fingerprints: Vec::with_capacity(dataset.len()),
            link_stats: Vec::with_capacity(dataset.len()),
            stats: Vec::new(),
            counts: StudyReport::default(),
            digest_cache: None,
        };
        audit.stats = empty_stats(&audit.stages);
        let digest = audit.cached_digest(archive);
        let rescue = audit.rescue.clone();
        let env = audit.env(web, archive, rescue.as_deref());
        for (i, entry) in audit.entries.iter().enumerate() {
            let mut stats = empty_stats(&audit.stages);
            let finding = analyze_link(&env, &audit.stages, i, entry.clone(), &mut stats);
            fold_finding(&mut audit.counts, &finding, 1);
            merge_stats(&mut audit.stats, &stats);
            audit.fingerprints.push(audit.fingerprint(web, archive, i, digest));
            audit.findings.push(finding);
            audit.link_stats.push(stats);
        }
        audit
    }

    pub fn len(&self) -> usize {
        self.findings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// The clock of the most recent build/re-audit pass.
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn findings(&self) -> &[LinkFinding] {
        &self.findings
    }

    pub fn entries(&self) -> &[DatasetEntry] {
        &self.entries
    }

    /// Declare that analysis configuration changed out from under the
    /// engine; the next [`refresh`](IncrementalAudit::refresh) re-runs every
    /// link.
    pub fn bump_config_rev(&mut self) {
        self.config_rev += 1;
    }

    /// The maintained aggregate — bit-identical (modulo wall-clock nanos,
    /// which report equality ignores) to folding the current findings from
    /// scratch.
    pub fn report(&self) -> StudyReport {
        let mut r = self.counts.clone();
        r.label = self.label.clone();
        r.n = self.findings.len();
        r.stage_stats = self.stats.clone();
        r
    }

    /// Re-run the pipeline for exactly the named links at `now`, regardless
    /// of fingerprints — the serve watch path, where the scheduler already
    /// knows which link flipped. O(indices), not O(corpus).
    ///
    /// Panics on an out-of-range index: the caller resolved it against this
    /// dataset, so a miss is a wiring bug.
    pub fn reaudit_indices(
        &mut self,
        web: &dyn Network,
        archive: &ArchiveStore,
        indices: &[usize],
        now: SimTime,
    ) -> ReauditOutcome {
        self.now = now;
        let digest = self.cached_digest(archive);
        let mut out = ReauditOutcome::default();
        for &i in indices {
            assert!(i < self.entries.len(), "re-audit index {i} out of range");
            out.reaudited += 1;
            let fp = self.fingerprint(web, archive, i, digest);
            if self.rerun(web, archive, i, fp) {
                out.changed += 1;
            }
        }
        out
    }

    /// Advance the clock to `now` and re-run only the links whose
    /// fingerprint moved. A refresh at an unchanged clock over an unchanged
    /// archive re-audits nothing.
    pub fn refresh(
        &mut self,
        web: &dyn Network,
        archive: &ArchiveStore,
        now: SimTime,
    ) -> ReauditOutcome {
        self.now = now;
        let digest = self.cached_digest(archive);
        let mut out = ReauditOutcome::default();
        for i in 0..self.entries.len() {
            let fp = self.fingerprint(web, archive, i, digest);
            if fp == self.fingerprints[i] {
                continue;
            }
            out.reaudited += 1;
            if self.rerun(web, archive, i, fp) {
                out.changed += 1;
            }
        }
        out
    }

    /// The archive digest, rescanned only when the store's mutation stamp
    /// moved — steady-state re-audits pay O(link), not O(archive).
    fn cached_digest(&mut self, archive: &ArchiveStore) -> u64 {
        let stamp = archive.mutation_stamp();
        match self.digest_cache {
            Some((s, d)) if s == stamp => d,
            _ => {
                let d = archive_digest(archive);
                self.digest_cache = Some((stamp, d));
                d
            }
        }
    }

    /// `rescue` is passed back in by the caller (a clone of `self.rescue`)
    /// rather than borrowed from `self`, so the returned env does not pin
    /// `self` immutably while findings are being swapped in.
    fn env<'a>(
        &self,
        web: &'a dyn Network,
        archive: &'a ArchiveStore,
        rescue: Option<&'a permadead_rescue::RescueIndex>,
    ) -> StudyEnv<'a> {
        StudyEnv {
            web,
            archive,
            now: self.now,
            retry: self.retry,
            cdx_timeout_ms: self.cdx_timeout_ms,
            rescue,
        }
    }

    /// Replace link `i`'s memoized finding with a fresh run, maintaining the
    /// aggregate by a −1/+1 fold pair and a stats row swap. Returns whether
    /// anything observable changed.
    fn rerun(&mut self, web: &dyn Network, archive: &ArchiveStore, i: usize, fp: u64) -> bool {
        let rescue = self.rescue.clone();
        let env = self.env(web, archive, rescue.as_deref());
        let mut stats = empty_stats(&self.stages);
        let finding = analyze_link(&env, &self.stages, i, self.entries[i].clone(), &mut stats);
        let changed = finding != self.findings[i] || stats != self.link_stats[i];
        fold_finding(&mut self.counts, &self.findings[i], -1);
        fold_finding(&mut self.counts, &finding, 1);
        subtract_stats(&mut self.stats, &self.link_stats[i]);
        merge_stats(&mut self.stats, &stats);
        self.findings[i] = finding;
        self.link_stats[i] = stats;
        self.fingerprints[i] = fp;
        changed
    }

    /// Hash every input that can move link `i`'s verdict: the live
    /// observations it would make right now (clock projected out), the
    /// archive digest, and the analysis configuration. The probe is gated
    /// exactly like [`Soft404Stage`](crate::pipeline::Soft404Stage) so the
    /// fingerprint consumes the same randomness the pipeline would.
    fn fingerprint(
        &self,
        web: &dyn Network,
        archive: &ArchiveStore,
        index: usize,
        archive_digest: u64,
    ) -> u64 {
        let entry = &self.entries[index];
        let mut h = Fnv::new();
        h.u64(archive_digest);
        h.u64(self.config_rev);
        h.str(&format!("{:?}", self.retry));
        h.str(&format!("{:?}", self.cdx_timeout_ms));
        h.str(&entry.url.to_string());
        h.i64(entry.added_at.0);
        h.i64(entry.marked_at.0);
        let (live, outcome) = live_check_with_retry(web, &entry.url, self.now, &self.retry);
        hash_record(&mut h, &live.record);
        hash_outcome(&mut h, &outcome);
        let mut alive = false;
        if live.status == LiveStatus::Ok {
            let (verdict, outcome) =
                soft404_probe_with_retry(web, &entry.url, self.now, index as u64, &self.retry);
            h.str(&format!("{verdict:?}"));
            hash_outcome(&mut h, &outcome);
            alive = verdict == crate::soft404::Soft404Verdict::Genuine;
        }
        // The rediscovery stage is the one analysis that observes the live
        // web beyond the entry's own URL: its verdict depends on the
        // candidates it would fetch. Hashing those observations keeps the
        // fingerprint exact — a candidate page dying (or changing content)
        // re-runs precisely the dead links it could have rescued.
        if !alive {
            if let Some(rescue) = self.rescue.as_deref() {
                if let Some(fp) =
                    crate::rediscovery::content_fingerprint(archive, &entry.url, entry.marked_at)
                {
                    let client = permadead_net::Client::new();
                    for cand in rescue.query(&fp, permadead_rescue::DEFAULT_TOP_K) {
                        let url = &rescue.entries()[cand.entry].url;
                        h.str(url);
                        if let Ok(parsed) = permadead_url::Url::parse(url) {
                            hash_record(&mut h, &client.get(web, &parsed, self.now));
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// Inverse of [`merge_stats`]: retire one link's contribution from the
/// totals. `nanos` saturates — wall-clock attribution is not exactly
/// reversible and is excluded from stats equality anyway.
fn subtract_stats(total: &mut [StageStats], part: &[StageStats]) {
    debug_assert_eq!(total.len(), part.len());
    for (t, p) in total.iter_mut().zip(part) {
        debug_assert_eq!(t.name, p.name);
        t.hits -= p.hits;
        t.nanos = t.nanos.saturating_sub(p.nanos);
        t.retries = t.retries.diff(p.retries);
        t.retry_backoff_ms -= p.retry_backoff_ms;
    }
}

/// Digest of the whole archive's observable rows. Coarse by design: any
/// archive mutation invalidates every fingerprint and the next refresh
/// re-runs the corpus — correct, and the simulated archive is immutable
/// after generation so this never fires in practice. Per-URL row digests
/// would miss the spatial/typo/param stages, which scan *sibling* URLs.
fn archive_digest(archive: &ArchiveStore) -> u64 {
    let mut h = Fnv::new();
    for snap in archive.iter() {
        h.str(&snap.url.to_string());
        h.i64(snap.captured.0);
        h.u64(snap.initial_status.0 as u64);
        h.str(&format!("{:?}", snap.redirect_target));
        h.str(&format!("{:?}", snap.body_class));
        for m in snap.sketch.mins() {
            h.u64(*m);
        }
    }
    h.finish()
}

/// Hash a fetch record minus its `time` field: the clock itself must not
/// invalidate fingerprints, only outcome changes may.
fn hash_record(h: &mut Fnv, record: &FetchRecord) {
    h.str(&record.requested.to_string());
    h.u64(record.hops.len() as u64);
    for hop in &record.hops {
        h.str(&hop.url.to_string());
        h.u64(hop.status.0 as u64);
        h.str(&format!("{:?}", hop.location));
    }
    h.str(&format!("{:?}", record.outcome));
    h.str(&record.body);
    h.str(&format!("{:?}", record.retry_after_ms));
}

/// Retry counts and simulated backoff feed [`StageStats`] (which report
/// equality includes), so they are fingerprint inputs too.
fn hash_outcome(h: &mut Fnv, outcome: &RetryOutcome) {
    h.str(&format!("{:?}", outcome.counts));
    h.u64(outcome.elapsed_ms);
}

/// Typed fields over the shared FNV-1a state. Strings are length-prefixed
/// so adjacent fields cannot run together.
struct Fnv(Fnv1a);

impl Fnv {
    fn new() -> Fnv {
        Fnv(Fnv1a::new())
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.write(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.write(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Study;
    use permadead_net::{DnsError, FetchError, Request, ServeResult};
    use permadead_url::Url;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A network whose links die one host at a time as the clock passes
    /// `cutoff`: hosts with an index below `dead_below` NXDOMAIN after the
    /// cutoff, everything else 404s (so nothing reaches the probe and the
    /// web is the only moving part).
    struct FlippingNet {
        cutoff: SimTime,
        dead_below: usize,
        requests: AtomicU64,
    }

    impl FlippingNet {
        fn new(cutoff: SimTime, dead_below: usize) -> FlippingNet {
            FlippingNet {
                cutoff,
                dead_below,
                requests: AtomicU64::new(0),
            }
        }
    }

    impl Network for FlippingNet {
        fn request(&self, req: &Request) -> ServeResult {
            self.requests.fetch_add(1, Ordering::Relaxed);
            let host_index: usize = req
                .url
                .host()
                .trim_start_matches("dead")
                .split('.')
                .next()
                .and_then(|d| d.parse().ok())
                .unwrap_or(usize::MAX);
            if req.time >= self.cutoff && host_index < self.dead_below {
                Err(FetchError::Dns(DnsError::NxDomain))
            } else {
                Ok(permadead_net::Response::not_found())
            }
        }
    }

    fn dataset(n: usize) -> Dataset {
        let entries = (0..n)
            .map(|i| DatasetEntry {
                url: Url::parse(&format!("http://dead{i}.example.org/p")).unwrap(),
                article: format!("Article {i}"),
                added_at: SimTime::from_ymd(2012, 1, 1),
                marked_at: SimTime::from_ymd(2019, 1, 1),
                marked_by: "InternetArchiveBot".into(),
            })
            .collect();
        Dataset {
            label: "flip".into(),
            entries,
        }
    }

    const T0: SimTime = SimTime(0);

    fn cutoff() -> SimTime {
        SimTime::from_ymd(2022, 1, 1)
    }

    fn after() -> SimTime {
        SimTime::from_ymd(2022, 6, 1)
    }

    /// Reports compare equal modulo nanos; assert both the counter block
    /// and the stats block.
    fn assert_reports_match(incremental: &StudyReport, fresh: &StudyReport) {
        assert_eq!(incremental, fresh);
        assert_eq!(incremental.stage_stats, fresh.stage_stats);
    }

    /// Findings memoized for *unchanged* links keep the fetch timestamp of
    /// their last actual re-run — not refetching them is the engine's whole
    /// point — so cross-time comparisons normalize `record.time` first.
    /// Every classified field must still match exactly.
    fn normalize_times(findings: &[LinkFinding]) -> Vec<LinkFinding> {
        findings
            .iter()
            .cloned()
            .map(|mut f| {
                f.live.record.time = SimTime(0);
                f
            })
            .collect()
    }

    #[test]
    fn build_matches_full_study() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let study = Study::run(&web, &archive, &ds, T0);
        assert_eq!(audit.findings(), &study.findings[..]);
        assert_reports_match(&audit.report(), &study.report());
    }

    #[test]
    fn refresh_at_same_clock_reaudits_nothing() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let out = audit.refresh(&web, &archive, T0);
        assert_eq!(out, ReauditOutcome::default());
    }

    #[test]
    fn refresh_after_flip_reruns_only_flipped_links() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let out = audit.refresh(&web, &archive, after());
        // hosts 0..4 flipped 404 → NXDOMAIN; the other 8 are untouched
        assert_eq!(
            out,
            ReauditOutcome {
                reaudited: 4,
                changed: 4
            }
        );
        // the maintained report is bit-identical to a from-scratch study at
        // the new clock — the incremental acceptance check
        let fresh = Study::run(&web, &archive, &ds, after());
        assert_eq!(
            normalize_times(audit.findings()),
            normalize_times(&fresh.findings)
        );
        assert_reports_match(&audit.report(), &fresh.report());
        assert_eq!(audit.report().dns_failure, 4);
        assert_eq!(audit.report().not_found, 8);
    }

    #[test]
    fn refresh_is_cheaper_than_rebuild() {
        let web = FlippingNet::new(cutoff(), 1);
        let archive = ArchiveStore::new();
        let ds = dataset(24);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let before = web.requests.load(Ordering::Relaxed);
        audit.refresh(&web, &archive, after());
        let sweep_cost = web.requests.load(Ordering::Relaxed) - before;
        // a sweep costs one fingerprint fetch per link plus a re-run of the
        // single flipped link — far below the 2× a rebuild would spend
        assert!(
            sweep_cost < 2 * ds.len() as u64,
            "sweep cost {sweep_cost} for {} links",
            ds.len()
        );
    }

    #[test]
    fn reaudit_indices_targets_exactly_the_named_links() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let before = web.requests.load(Ordering::Relaxed);
        let out = audit.reaudit_indices(&web, &archive, &[2], after());
        assert_eq!(
            out,
            ReauditOutcome {
                reaudited: 1,
                changed: 1
            }
        );
        // one fingerprint fetch plus one pipeline live-check, nothing else
        assert_eq!(web.requests.load(Ordering::Relaxed) - before, 2);
        assert_eq!(audit.report().dns_failure, 1);
        assert_eq!(audit.report().not_found, 11);
        // links 0,1,3 are stale by design until refresh() sweeps them; a
        // sweep then converges the whole corpus
        audit.refresh(&web, &archive, after());
        let fresh = Study::run(&web, &archive, &ds, after());
        assert_reports_match(&audit.report(), &fresh.report());
    }

    #[test]
    fn reaudit_of_unchanged_link_reports_no_change() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let out = audit.reaudit_indices(&web, &archive, &[7], T0);
        assert_eq!(
            out,
            ReauditOutcome {
                reaudited: 1,
                changed: 0
            }
        );
    }

    #[test]
    fn config_rev_bump_invalidates_every_link() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(6);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        audit.bump_config_rev();
        let out = audit.refresh(&web, &archive, T0);
        assert_eq!(out.reaudited, 6);
        assert_eq!(out.changed, 0);
    }

    #[test]
    fn archive_mutation_invalidates_fingerprints() {
        let web = FlippingNet::new(cutoff(), 4);
        let mut archive = ArchiveStore::new();
        let ds = dataset(6);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        archive.insert(permadead_archive::Snapshot::from_observation(
            &Url::parse("http://dead0.example.org/p").unwrap(),
            SimTime::from_ymd(2015, 1, 1),
            permadead_net::StatusCode(200),
            None,
            "hello old web",
        ));
        let out = audit.refresh(&web, &archive, T0);
        assert_eq!(out.reaudited, 6, "archive change must sweep the corpus");
        // link 0 now has an archived 200 copy; the rest re-ran to the same
        // finding
        assert_eq!(out.changed, 1);
        let fresh = Study::run(&web, &archive, &ds, T0);
        assert_reports_match(&audit.report(), &fresh.report());
    }
}
