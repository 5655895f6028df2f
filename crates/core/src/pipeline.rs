//! Stage-based measurement pipeline with deterministic sharded execution.
//!
//! [`Study::run`](crate::Study::run) used to be one monolithic loop applying
//! every analysis to every dataset entry. This module decomposes it into
//! composable [`Stage`]s running over a per-link [`LinkAnalysis`] accumulator
//! against a shared read-only [`StudyEnv`], plus a sharded executor that fans
//! the dataset across worker threads.
//!
//! Two guarantees hold for any `jobs` count:
//!
//! 1. **Bit-identical findings.** The dataset is split into contiguous
//!    chunks, each worker processes its chunk in dataset order, and results
//!    are reassembled in chunk order — so the findings vector is exactly what
//!    the serial loop produces. Everything a stage may randomize is keyed by
//!    the entry's *dataset index* (see [`LinkAnalysis::index`]), never by
//!    worker identity or arrival order. The soft-404 probe's per-entry seed
//!    is the load-bearing case: it must stay `index as u64`.
//! 2. **Deterministic hit counts.** Per-stage [`StageStats`] hit counters
//!    depend only on the dataset, so they are identical for any `jobs`;
//!    wall-clock nanos are measured and therefore excluded from equality.

use crate::archival::{classify_archival, post_marking_check, ArchivalClass, PostMarkingCheck};
use crate::dataset::{Dataset, DatasetEntry};
use crate::livecheck::{live_check_with_retry, LiveCheck};
use crate::params::{find_param_reorder_copy, ParamReorderRescue};
use crate::redirects::{validate_redirect_with_retry, RedirectVerdict};
use crate::report::LinkFinding;
use crate::soft404::{soft404_probe_with_retry, Soft404Verdict};
use crate::spatial::{spatial_coverage_with_retry, SpatialCoverage};
use crate::temporal::{temporal_analysis, TemporalAnalysis};
use crate::typos::{find_typo_candidate, TypoCandidate};
use permadead_archive::ArchiveStore;
use permadead_net::latency::Millis;
use permadead_net::{LiveStatus, Network, RetryCounts, RetryPolicy, SimTime};
use std::time::Instant;

/// Everything a stage may read: the live web, the archive, and the study
/// clock. Shared by every worker; nothing here is mutable.
#[derive(Clone, Copy)]
pub struct StudyEnv<'a> {
    pub web: &'a dyn Network,
    pub archive: &'a ArchiveStore,
    pub now: SimTime,
    /// Retry schedule for every network-touching stage (live check, soft-404
    /// probe, redirect validation, spatial scan). [`RetryPolicy::single`] —
    /// IABot's one-attempt behaviour — keeps every output bit-identical to a
    /// study run with no retry machinery at all.
    pub retry: RetryPolicy,
    /// Client-side timeout for the CDX lookups the redirect and rescue
    /// stages issue. `None` — the default — waits forever and draws no
    /// latency, so those stages stay bit-identical to their un-timed
    /// originals. The latency stream is seeded from `retry.seed`.
    pub cdx_timeout_ms: Option<Millis>,
    /// Lexical-signature rediscovery index over the live web (E19). `None`
    /// — the default — makes the rediscovery stage a no-op, keeping every
    /// archive-only output bit-identical.
    pub rescue: Option<&'a permadead_rescue::RescueIndex>,
}

/// Per-link accumulator the stages fill in. `None` means "not yet run" for
/// the mandatory analyses and "not applicable" for the conditional ones —
/// [`LinkAnalysis::finish`] makes the distinction explicit.
#[derive(Debug, Clone)]
pub struct LinkAnalysis {
    /// Position of this entry in the dataset. Stages must key any per-link
    /// randomness off this (not worker id / arrival order) so a sharded run
    /// reproduces the serial one.
    pub index: usize,
    pub entry: DatasetEntry,
    pub live: Option<LiveCheck>,
    pub soft404: Option<Soft404Verdict>,
    pub archival: Option<ArchivalClass>,
    pub redirect_verdict: Option<RedirectVerdict>,
    pub post_marking: Option<PostMarkingCheck>,
    pub temporal: Option<TemporalAnalysis>,
    pub spatial: Option<SpatialCoverage>,
    pub typo: Option<TypoCandidate>,
    pub param_rescue: Option<ParamReorderRescue>,
    pub rediscovery: Option<crate::rediscovery::RediscoveryRescue>,
    /// Retries spent on this link so far, by cause. Stages that retry fold
    /// their outcome counts in; [`analyze_link`] diffs around each stage to
    /// attribute them. Zero under the default single-attempt policy.
    pub retries: RetryCounts,
    /// Simulated backoff spent waiting between this link's retry attempts,
    /// ms. Deterministic (seeded jitter plus Retry-After hints), and the
    /// unit a serving layer charges against per-origin retry budgets.
    pub retry_backoff_ms: u64,
}

impl LinkAnalysis {
    pub fn new(index: usize, entry: DatasetEntry) -> Self {
        LinkAnalysis {
            index,
            entry,
            live: None,
            soft404: None,
            archival: None,
            redirect_verdict: None,
            post_marking: None,
            temporal: None,
            spatial: None,
            typo: None,
            param_rescue: None,
            rediscovery: None,
            retries: RetryCounts::default(),
            retry_backoff_ms: 0,
        }
    }

    /// Seal the accumulator into a finding. Panics if a mandatory stage
    /// never ran — a stage list that skips one is a configuration bug, and a
    /// loud failure beats silently misclassified links.
    pub fn finish(self) -> LinkFinding {
        LinkFinding {
            entry: self.entry,
            live: self.live.expect("live-check stage did not run"),
            soft404: self.soft404.expect("soft404-probe stage did not run"),
            archival: self.archival.expect("archival-class stage did not run"),
            redirect_verdict: self.redirect_verdict,
            post_marking: self.post_marking.expect("post-marking stage did not run"),
            temporal: self.temporal.expect("temporal stage did not run"),
            spatial: self.spatial,
            typo: self.typo,
            param_rescue: self.param_rescue,
            rediscovery: self.rediscovery,
        }
    }
}

/// One analysis step of the pipeline. Implementations must be pure in
/// `(env, acc)` — no interior state — so any sharding is observationally
/// identical to the serial run. (`Send` because a long-lived service owns
/// its stage list across worker threads, not just borrows it in a scope.)
pub trait Stage: Sync + Send {
    /// Stable identifier, used in stats, CSV export, and bench labels.
    fn name(&self) -> &'static str;

    /// Run over one link. Returns `true` when the stage did real work for
    /// this link (its gate matched), feeding the per-stage hit counter.
    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool;
}

/// Execution stats for one stage, aggregated across every link (and summed
/// across workers in a sharded run).
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    pub name: &'static str,
    /// Links for which the stage's gate matched and it did real work.
    pub hits: u64,
    /// Total wall-clock time spent inside the stage.
    pub nanos: u64,
    /// Retries this stage scheduled, by cause (zero under the default
    /// single-attempt policy). Deterministic, so included in equality.
    pub retries: RetryCounts,
    /// Simulated backoff scheduled by this stage's retries, ms. As
    /// deterministic as the retry counts (seeded jitter + Retry-After
    /// hints), unlike the measured `nanos`.
    pub retry_backoff_ms: u64,
}

/// Equality ignores `nanos`: hits are deterministic, wall-clock is not, and
/// report comparisons (e.g. the determinism suite) must survive timing
/// jitter. Retry counts are as deterministic as hits and stay in.
impl PartialEq for StageStats {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.hits == other.hits
            && self.retries == other.retries
            && self.retry_backoff_ms == other.retry_backoff_ms
    }
}

impl StageStats {
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// §3 live status: one GET, full redirect chain recorded.
pub struct LiveCheckStage;

impl Stage for LiveCheckStage {
    fn name(&self) -> &'static str {
        "live-check"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        let (live, outcome) = live_check_with_retry(env.web, &acc.entry.url, env.now, &env.retry);
        acc.live = Some(live);
        acc.retries.add(outcome.counts);
        acc.retry_backoff_ms += outcome.elapsed_ms;
        true
    }
}

/// §3 soft-404 probe, gated on a final 200. The probe's random sibling URL
/// is seeded by the entry's dataset index — the determinism keystone.
pub struct Soft404Stage;

impl Stage for Soft404Stage {
    fn name(&self) -> &'static str {
        "soft404-probe"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        let live_ok = acc
            .live
            .as_ref()
            .is_some_and(|l| l.status == LiveStatus::Ok);
        if live_ok {
            let (verdict, outcome) = soft404_probe_with_retry(
                env.web,
                &acc.entry.url,
                env.now,
                acc.index as u64,
                &env.retry,
            );
            acc.soft404 = Some(verdict);
            acc.retries.add(outcome.counts);
            acc.retry_backoff_ms += outcome.elapsed_ms;
            true
        } else {
            acc.soft404 = Some(Soft404Verdict::NotApplicable);
            false
        }
    }
}

/// §4.1 pre-marking archival classification.
pub struct ArchivalStage;

impl Stage for ArchivalStage {
    fn name(&self) -> &'static str {
        "archival-class"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        acc.archival = Some(classify_archival(
            env.archive,
            &acc.entry.url,
            acc.entry.marked_at,
        ));
        true
    }
}

/// §4.2 historical-redirect validation, gated on 3xx-only archival history.
pub struct RedirectStage;

impl Stage for RedirectStage {
    fn name(&self) -> &'static str {
        "redirect-3xx"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        if acc.archival == Some(ArchivalClass::Had3xxOnly) {
            if let Some(snap) =
                crate::archival::first_3xx_before(env.archive, &acc.entry.url, acc.entry.marked_at)
            {
                let (verdict, outcome) = validate_redirect_with_retry(
                    env.archive,
                    snap,
                    env.cdx_timeout_ms,
                    env.retry.seed,
                    acc.index as u64,
                    &env.retry,
                );
                acc.redirect_verdict = Some(verdict);
                acc.retries.add(outcome.counts);
                acc.retry_backoff_ms += outcome.elapsed_ms;
            }
        }
        acc.redirect_verdict.is_some()
    }
}

/// §3 post-marking check: was the first copy *after* tagging erroneous?
pub struct PostMarkingStage;

impl Stage for PostMarkingStage {
    fn name(&self) -> &'static str {
        "post-marking"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        acc.post_marking = Some(post_marking_check(
            env.archive,
            &acc.entry.url,
            acc.entry.marked_at,
        ));
        true
    }
}

/// §5.1 first-capture-vs-posting timing.
pub struct TemporalStage;

impl Stage for TemporalStage {
    fn name(&self) -> &'static str {
        "temporal"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        acc.temporal = Some(temporal_analysis(
            env.archive,
            &acc.entry.url,
            acc.entry.added_at,
        ));
        true
    }
}

/// §5.2 rescue scan for never-archived links: spatial coverage, typo
/// candidates, and the E12 param-reorder rescue.
pub struct RescueScanStage;

impl Stage for RescueScanStage {
    fn name(&self) -> &'static str {
        "rescue-scan"
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        if acc.archival != Some(ArchivalClass::NeverArchived) {
            return false;
        }
        let (coverage, outcome) = spatial_coverage_with_retry(
            env.archive,
            &acc.entry.url,
            env.cdx_timeout_ms,
            env.retry.seed,
            acc.index as u64,
            &env.retry,
        );
        acc.spatial = Some(coverage);
        acc.retries.add(outcome.counts);
        acc.retry_backoff_ms += outcome.elapsed_ms;
        acc.typo = find_typo_candidate(env.archive, &acc.entry.url);
        acc.param_rescue = find_param_reorder_copy(env.archive, &acc.entry.url).map(|(r, _)| r);
        true
    }
}

/// The paper's pipeline, in the order the monolithic loop ran it.
pub fn default_stages() -> Vec<Box<dyn Stage>> {
    vec![
        Box::new(LiveCheckStage),
        Box::new(Soft404Stage),
        Box::new(ArchivalStage),
        Box::new(RedirectStage),
        Box::new(PostMarkingStage),
        Box::new(TemporalStage),
        Box::new(RescueScanStage),
        Box::new(crate::rediscovery::RediscoveryStage),
    ]
}

/// How a study executes: worker count and stage list.
pub struct StudyOptions {
    /// Worker threads. `1` runs inline on the caller's thread; `0` resolves
    /// to the machine's available parallelism. Findings are identical for
    /// any value.
    pub jobs: usize,
    pub stages: Vec<Box<dyn Stage>>,
    /// Retry schedule for the network-touching stages; defaults to IABot's
    /// single attempt so the study's outputs are unchanged unless retries
    /// are asked for.
    pub retry: RetryPolicy,
    /// CDX client timeout for the redirect and rescue stages; `None` (the
    /// default) draws no latency and changes nothing.
    pub cdx_timeout_ms: Option<Millis>,
    /// Rediscovery index shared across workers. `None` (the default) keeps
    /// the rediscovery stage dormant and the study archive-only.
    pub rescue: Option<std::sync::Arc<permadead_rescue::RescueIndex>>,
}

impl Default for StudyOptions {
    fn default() -> Self {
        StudyOptions {
            jobs: 1,
            stages: default_stages(),
            retry: RetryPolicy::single(),
            cdx_timeout_ms: None,
            rescue: None,
        }
    }
}

impl StudyOptions {
    pub fn with_jobs(jobs: usize) -> Self {
        StudyOptions {
            jobs,
            ..Default::default()
        }
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_cdx_timeout_ms(mut self, timeout_ms: Option<Millis>) -> Self {
        self.cdx_timeout_ms = timeout_ms;
        self
    }

    pub fn with_rescue(
        mut self,
        rescue: Option<std::sync::Arc<permadead_rescue::RescueIndex>>,
    ) -> Self {
        self.rescue = rescue;
        self
    }

    fn effective_jobs(&self, len: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        };
        // Shard granularity scales with corpus size: spawning a thread per
        // `len/jobs` links only pays once each shard amortizes its spawn +
        // reassembly overhead. At the 244-link study corpus this resolves to
        // one shard (eight shards there measured 0.72× the speed of one); at
        // 18k links it still allows ~70 shards.
        let max_useful = len.div_ceil(MIN_LINKS_PER_SHARD).max(1);
        requested.clamp(1, len.max(1)).min(max_useful)
    }
}

/// Smallest corpus slice worth a dedicated worker thread. Findings are
/// bit-identical for any shard count, so this is purely a latency knob:
/// per-link analysis costs ~25µs, making a 256-link shard ~6ms of work
/// against ~100µs of spawn/join overhead.
pub const MIN_LINKS_PER_SHARD: usize = 256;

/// Fresh zeroed stats rows, one per stage, in stage order.
pub fn empty_stats(stages: &[Box<dyn Stage>]) -> Vec<StageStats> {
    stages
        .iter()
        .map(|s| StageStats {
            name: s.name(),
            ..Default::default()
        })
        .collect()
}

/// Run `stages` over a single dataset entry sitting at dataset index
/// `index`, folding hit/timing counters into `stats` (which must be in
/// stage order, e.g. from [`empty_stats`]).
///
/// This is the per-link unit both executions share: the batch study loops
/// it over a dataset, and an online service (one query = one link) calls it
/// directly. Because every stage keys its randomness off `index`, calling
/// this with the index a URL holds in a dataset reproduces the batch
/// finding for that URL bit-for-bit.
pub fn analyze_link(
    env: &StudyEnv<'_>,
    stages: &[Box<dyn Stage>],
    index: usize,
    entry: DatasetEntry,
    stats: &mut [StageStats],
) -> LinkFinding {
    debug_assert_eq!(stages.len(), stats.len());
    let mut acc = LinkAnalysis::new(index, entry);
    for (stage, stat) in stages.iter().zip(stats.iter_mut()) {
        let retries_before = acc.retries;
        let backoff_before = acc.retry_backoff_ms;
        let started = Instant::now();
        let hit = stage.run(env, &mut acc);
        stat.nanos += started.elapsed().as_nanos() as u64;
        stat.hits += hit as u64;
        stat.retries.add(acc.retries.diff(retries_before));
        stat.retry_backoff_ms += acc.retry_backoff_ms - backoff_before;
    }
    acc.finish()
}

/// Run `stages` over `entries`, whose first element sits at dataset index
/// `base`. One worker's share of a sharded run, and the whole of a serial one.
fn run_shard(
    env: &StudyEnv<'_>,
    stages: &[Box<dyn Stage>],
    entries: &[DatasetEntry],
    base: usize,
) -> (Vec<LinkFinding>, Vec<StageStats>) {
    let mut stats = empty_stats(stages);
    let mut findings = Vec::with_capacity(entries.len());
    for (offset, entry) in entries.iter().enumerate() {
        findings.push(analyze_link(
            env,
            stages,
            base + offset,
            entry.clone(),
            &mut stats,
        ));
    }
    (findings, stats)
}

pub(crate) fn merge_stats(total: &mut [StageStats], part: &[StageStats]) {
    debug_assert_eq!(total.len(), part.len());
    for (t, p) in total.iter_mut().zip(part) {
        debug_assert_eq!(t.name, p.name);
        t.hits += p.hits;
        t.nanos += p.nanos;
        t.retries.add(p.retries);
        t.retry_backoff_ms += p.retry_backoff_ms;
    }
}

/// Execute the pipeline over a dataset. Findings come back in dataset order
/// regardless of `options.jobs`; stats are summed across workers.
pub fn run_study(
    env: &StudyEnv<'_>,
    dataset: &Dataset,
    options: &StudyOptions,
) -> (Vec<LinkFinding>, Vec<StageStats>) {
    let jobs = options.effective_jobs(dataset.len());
    if jobs <= 1 || dataset.len() <= 1 {
        return run_shard(env, &options.stages, &dataset.entries, 0);
    }

    let chunk = dataset.len().div_ceil(jobs);
    let stages = &options.stages;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = dataset
            .entries
            .chunks(chunk)
            .enumerate()
            .map(|(ci, entries)| {
                scope.spawn(move |_| run_shard(env, stages, entries, ci * chunk))
            })
            .collect();

        let mut findings = Vec::with_capacity(dataset.len());
        let mut stats = empty_stats(stages);
        // joining in spawn (= chunk) order restores dataset order exactly
        for handle in handles {
            let (part_findings, part_stats) = handle.join().expect("pipeline worker panicked");
            findings.extend(part_findings);
            merge_stats(&mut stats, &part_stats);
        }
        (findings, stats)
    })
    .expect("pipeline scope panicked")
}

/// Render stage stats as aligned report lines under a heading. The retry
/// summary appears only when some stage actually retried, so the default
/// single-attempt output is byte-identical to the pre-retry renderer.
pub fn render_stage_stats(stats: &[StageStats]) -> String {
    let width = stats.iter().map(|s| s.name.len()).max().unwrap_or(0);
    let mut lines: Vec<String> =
        std::iter::once("pipeline stages (links processed, wall-clock):".to_string())
            .chain(stats.iter().map(|s| {
                format!(
                    "  {:width$}  {:>8} hits  {:>10.3} ms",
                    s.name,
                    s.hits,
                    s.millis(),
                )
            }))
            .collect();
    let mut retries = RetryCounts::default();
    for s in stats {
        retries.add(s.retries);
    }
    if !retries.is_zero() {
        let causes: Vec<String> = retries
            .per_cause()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(label, n)| format!("{label}={n}"))
            .collect();
        lines.push(format!(
            "  retries: {} ({}), exhausted: {}",
            retries.total(),
            causes.join(", "),
            retries.exhausted,
        ));
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::{FetchError, Request, ServeResult};

    /// A network where everything NXDOMAINs: enough to drive the gating
    /// logic (no link reaches the soft-404 probe).
    struct DeadNet;

    impl Network for DeadNet {
        fn request(&self, _req: &Request) -> ServeResult {
            Err(FetchError::Dns(permadead_net::DnsError::NxDomain))
        }
    }

    fn tiny_dataset(n: usize) -> Dataset {
        let entries = (0..n)
            .map(|i| DatasetEntry {
                url: permadead_url::Url::parse(&format!("http://dead{i}.example.org/p")).unwrap(),
                article: format!("Article {i}"),
                added_at: SimTime::from_ymd(2012, 1, 1),
                marked_at: SimTime::from_ymd(2019, 1, 1),
                marked_by: "InternetArchiveBot".into(),
            })
            .collect();
        Dataset {
            label: "tiny".into(),
            entries,
        }
    }

    fn env_over<'a>(web: &'a DeadNet, archive: &'a ArchiveStore) -> StudyEnv<'a> {
        StudyEnv {
            web,
            archive,
            now: SimTime::from_ymd(2022, 3, 1),
            retry: RetryPolicy::single(),
            cdx_timeout_ms: None,
            rescue: None,
        }
    }

    #[test]
    fn default_stage_list_order_matches_monolith() {
        let names: Vec<&str> = default_stages().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "live-check",
                "soft404-probe",
                "archival-class",
                "redirect-3xx",
                "post-marking",
                "temporal",
                "rescue-scan",
                "rediscovery",
            ]
        );
    }

    #[test]
    fn sharded_run_matches_serial_on_dead_world() {
        let web = DeadNet;
        let archive = ArchiveStore::new();
        let env = env_over(&web, &archive);
        let ds = tiny_dataset(23);
        let (serial, serial_stats) = run_study(&env, &ds, &StudyOptions::default());
        for jobs in [2, 3, 8, 64] {
            let (sharded, stats) = run_study(&env, &ds, &StudyOptions::with_jobs(jobs));
            assert_eq!(serial, sharded, "jobs={jobs}");
            assert_eq!(serial_stats, stats, "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_zero_resolves_and_still_matches() {
        let web = DeadNet;
        let archive = ArchiveStore::new();
        let env = env_over(&web, &archive);
        let ds = tiny_dataset(9);
        let (serial, _) = run_study(&env, &ds, &StudyOptions::default());
        let (auto, _) = run_study(&env, &ds, &StudyOptions::with_jobs(0));
        assert_eq!(serial, auto);
    }

    #[test]
    fn small_corpora_collapse_to_one_shard() {
        // below MIN_LINKS_PER_SHARD every jobs value runs serially, so
        // jobs>1 can never be slower than jobs=1 on a toy corpus
        let o = StudyOptions::with_jobs(8);
        assert_eq!(o.effective_jobs(244), 1);
        assert_eq!(o.effective_jobs(MIN_LINKS_PER_SHARD), 1);
        assert_eq!(o.effective_jobs(MIN_LINKS_PER_SHARD + 1), 2);
        // large corpora still fan out to the requested width
        assert_eq!(o.effective_jobs(18_000), 8);
        assert_eq!(StudyOptions::with_jobs(128).effective_jobs(18_000), 71);
        // degenerate cases
        assert_eq!(o.effective_jobs(0), 1);
        assert_eq!(o.effective_jobs(1), 1);
    }

    #[test]
    fn hit_counters_reflect_gating() {
        let web = DeadNet;
        let archive = ArchiveStore::new();
        let env = env_over(&web, &archive);
        let ds = tiny_dataset(5);
        let (findings, stats) = run_study(&env, &ds, &StudyOptions::default());
        let by_name = |n: &str| stats.iter().find(|s| s.name == n).unwrap().hits;
        // every link is a DNS failure: mandatory stages hit all 5, the
        // soft-404 probe none, and the empty archive makes every link
        // never-archived so the rescue scan hits all 5
        assert_eq!(by_name("live-check"), 5);
        assert_eq!(by_name("soft404-probe"), 0);
        assert_eq!(by_name("archival-class"), 5);
        assert_eq!(by_name("redirect-3xx"), 0);
        assert_eq!(by_name("rescue-scan"), 5);
        assert!(findings.iter().all(|f| f.spatial.is_some()));
    }

    #[test]
    fn stage_stats_equality_ignores_nanos() {
        let a = StageStats {
            name: "live-check",
            hits: 3,
            nanos: 100,
            ..Default::default()
        };
        let b = StageStats {
            name: "live-check",
            hits: 3,
            nanos: 999_999,
            ..Default::default()
        };
        assert_eq!(a, b);
        assert_ne!(
            a,
            StageStats {
                name: "live-check",
                hits: 4,
                nanos: 100,
                ..Default::default()
            }
        );
        // retries are deterministic, so a divergence is a real inequality
        let mut c = a.clone();
        c.retries.record(permadead_net::RetryCause::ConnectTimeout);
        assert_ne!(a, c);
    }

    #[test]
    fn render_stage_stats_lists_every_stage() {
        let stats = [
            StageStats {
                name: "live-check",
                hits: 10,
                nanos: 1_500_000,
                ..Default::default()
            },
            StageStats {
                name: "rescue-scan",
                hits: 2,
                nanos: 700,
                ..Default::default()
            },
        ];
        let s = render_stage_stats(&stats);
        assert!(s.contains("live-check"));
        assert!(s.contains("rescue-scan"));
        assert!(s.contains("10 hits"));
        // no retries → no retry line, so default output stays unchanged
        assert!(!s.contains("retries:"));
        let mut with_retries = stats.to_vec();
        with_retries[0].retries.record(permadead_net::RetryCause::Unavailable);
        with_retries[0].retries.record(permadead_net::RetryCause::Unavailable);
        let s = render_stage_stats(&with_retries);
        assert!(s.contains("retries: 2 (unavailable=2), exhausted: 0"));
    }

    #[test]
    fn analyze_link_matches_batch_finding() {
        let web = DeadNet;
        let archive = ArchiveStore::new();
        let env = env_over(&web, &archive);
        let ds = tiny_dataset(7);
        let stages = default_stages();
        let (batch, batch_stats) = run_study(&env, &ds, &StudyOptions::default());
        let mut stats = empty_stats(&stages);
        for (i, entry) in ds.entries.iter().enumerate() {
            let single = analyze_link(&env, &stages, i, entry.clone(), &mut stats);
            assert_eq!(single, batch[i], "index {i}");
        }
        assert_eq!(stats, batch_stats);
    }

    #[test]
    fn custom_stage_list_runs_subset() {
        // a stage list without the conditional analyses still finishes,
        // because all mandatory accumulator slots are filled
        let web = DeadNet;
        let archive = ArchiveStore::new();
        let env = env_over(&web, &archive);
        let ds = tiny_dataset(3);
        let options = StudyOptions {
            jobs: 1,
            stages: vec![
                Box::new(LiveCheckStage),
                Box::new(Soft404Stage),
                Box::new(ArchivalStage),
                Box::new(PostMarkingStage),
                Box::new(TemporalStage),
            ],
            retry: RetryPolicy::single(),
            cdx_timeout_ms: None,
            rescue: None,
        };
        let (findings, stats) = run_study(&env, &ds, &options);
        assert_eq!(findings.len(), 3);
        assert_eq!(stats.len(), 5);
        assert!(findings.iter().all(|f| f.spatial.is_none()));
    }
}
