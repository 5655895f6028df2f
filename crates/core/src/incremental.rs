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
//!
//! **What the report is.** The study-time audit, changed by exactly the
//! links the caller names to [`IncrementalAudit::reaudit_indices`]. The
//! engine never looks for staleness on its own: a link that is not named
//! keeps its memoized finding, fetch timestamp included, however far the
//! clock has moved. `permadead serve` names every link its watch scheduler
//! saw flip, so `/report` carries each observed transition and nothing else.

use crate::dataset::{Dataset, DatasetEntry};
use crate::pipeline::{
    analyze_link, empty_stats, merge_stats, Stage, StageStats, StudyEnv, StudyOptions,
};
use crate::report::{fold_finding, LinkFinding, StudyReport};
use permadead_archive::ArchiveStore;
use permadead_net::latency::Millis;
use permadead_net::{Network, RetryPolicy, SimTime};

/// What one re-audit pass did: how many links were re-run, and how many of
/// those actually changed their finding (or stats contribution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReauditOutcome {
    /// Links whose pipeline was re-executed.
    pub reaudited: usize,
    /// Of those, links whose finding or stage-stats contribution changed.
    pub changed: usize,
}

/// A long-lived study whose findings and report survive across targeted
/// re-checks. See the module docs for the design.
pub struct IncrementalAudit {
    label: String,
    now: SimTime,
    stages: Vec<Box<dyn Stage>>,
    retry: RetryPolicy,
    cdx_timeout_ms: Option<Millis>,
    /// Rediscovery index handed through to the pipeline, `None` for an
    /// archive-only audit.
    rescue: Option<std::sync::Arc<permadead_rescue::RescueIndex>>,
    entries: Vec<DatasetEntry>,
    findings: Vec<LinkFinding>,
    /// Per-link per-stage contribution, kept so a re-audit can subtract the
    /// old row and add the new one — totals stay equal (under
    /// [`StageStats`]' nanos-blind equality) to a from-scratch run.
    link_stats: Vec<Vec<StageStats>>,
    stats: Vec<StageStats>,
    /// Counter-only aggregate maintained by ±1 folds; `label`/`n`/
    /// `stage_stats` are filled in at [`report`](IncrementalAudit::report).
    counts: StudyReport,
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
            stats: empty_stats(&stages),
            stages,
            retry,
            cdx_timeout_ms,
            rescue,
            entries: dataset.entries.clone(),
            findings: Vec::with_capacity(dataset.len()),
            link_stats: Vec::with_capacity(dataset.len()),
            counts: StudyReport::default(),
        };
        for i in 0..audit.entries.len() {
            let (finding, stats) = audit.analyze(web, archive, i);
            fold_finding(&mut audit.counts, &finding, 1);
            merge_stats(&mut audit.stats, &stats);
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

    /// Re-run the pipeline for exactly the named links at `now`, replacing
    /// each one's memoized finding and maintaining the aggregate by a −1/+1
    /// fold pair and a stats row swap — the serve watch path, where the
    /// scheduler already knows which link flipped. O(indices), not
    /// O(corpus).
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
        let mut out = ReauditOutcome::default();
        for &i in indices {
            assert!(i < self.entries.len(), "re-audit index {i} out of range");
            let (finding, stats) = self.analyze(web, archive, i);
            out.reaudited += 1;
            if finding != self.findings[i] || stats != self.link_stats[i] {
                out.changed += 1;
            }
            fold_finding(&mut self.counts, &self.findings[i], -1);
            fold_finding(&mut self.counts, &finding, 1);
            subtract_stats(&mut self.stats, &self.link_stats[i]);
            merge_stats(&mut self.stats, &stats);
            self.findings[i] = finding;
            self.link_stats[i] = stats;
        }
        out
    }

    /// One pipeline run of link `i` at the engine's clock: its finding and
    /// its per-stage stats row.
    fn analyze(
        &self,
        web: &dyn Network,
        archive: &ArchiveStore,
        i: usize,
    ) -> (LinkFinding, Vec<StageStats>) {
        let env = StudyEnv {
            web,
            archive,
            now: self.now,
            retry: self.retry,
            cdx_timeout_ms: self.cdx_timeout_ms,
            rescue: self.rescue.as_deref(),
        };
        let mut stats = empty_stats(&self.stages);
        let finding = analyze_link(&env, &self.stages, i, self.entries[i].clone(), &mut stats);
        (finding, stats)
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

    /// Findings memoized for links that were not re-audited keep the fetch
    /// timestamp of their last actual run — not refetching them is the
    /// engine's whole point — so cross-time comparisons normalize
    /// `record.time` first. Every classified field must still match exactly.
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
    fn reaudit_of_flipped_links_matches_a_fresh_study() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        let out = audit.reaudit_indices(&web, &archive, &[0, 1, 2, 3], after());
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
        // the named link's one live check, nothing else
        assert_eq!(web.requests.load(Ordering::Relaxed) - before, 1);
        // links 0, 1 and 3 flipped too but were not named: they keep their
        // study-time findings
        assert_eq!(audit.report().dns_failure, 1);
        assert_eq!(audit.report().not_found, 11);
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
    #[should_panic(expected = "re-audit index 12 out of range")]
    fn reaudit_of_an_index_outside_the_dataset_panics() {
        let web = FlippingNet::new(cutoff(), 4);
        let archive = ArchiveStore::new();
        let ds = dataset(12);
        let mut audit = IncrementalAudit::build(&web, &archive, &ds, T0, StudyOptions::default());
        audit.reaudit_indices(&web, &archive, &[12], T0);
    }
}
