//! The audit brain behind the endpoints: one seeded world, the batch
//! pipeline's per-link unit, and the verdict cache.
//!
//! **Parity contract.** For any URL that appears in the batch `audit`
//! dataset, `/check` must return the *bit-identical* classification the
//! batch run produces. The pipeline keys all per-link randomness off the
//! link's dataset index, so the service decodes the same March dataset as
//! `permadead audit` from the world's march table
//! ([`Dataset::from_table`]) and replays each URL at its own index through
//! [`analyze_link`]. URLs tagged on the wiki but outside the sample get
//! their real provenance (the world's all-tagged table) and a stable
//! FNV-derived index; URLs the wiki never saw get synthetic provenance and
//! are still audited against the live (simulated) web and archive.

use crate::cache::{CacheConfig, CacheStats, ShardedCache};
use crate::json::Object;
use crate::origin::OriginLedger;
use permadead_core::{
    analyze_link, default_stages, empty_stats, live_check_with_retry, recommend_for, Dataset,
    DatasetEntry, IncrementalAudit, LiveCheck, Recommendation, ReauditOutcome, Stage, StageStats,
    StudyEnv, StudyOptions,
};
use permadead_net::{MetricsSnapshot, RetryPolicy, SimTime};
use permadead_rescue::RescueIndex;
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_url::{fnv1a, Url};
use permadead_worldstore::World;
use std::collections::HashMap;
use std::sync::Arc;

/// Where a queried URL's provenance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// In the batch audit dataset — verdicts are bit-identical to `audit`.
    Dataset,
    /// Tagged on the wiki but not in the sampled dataset.
    Wiki,
    /// Unknown to the wiki; audited with synthetic provenance.
    Unknown,
}

impl Provenance {
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::Dataset => "dataset",
            Provenance::Wiki => "wiki",
            Provenance::Unknown => "unknown",
        }
    }
}

/// Outcome of one `/check`-style query.
pub struct CheckOutcome {
    /// Full response body (JSON object), including the `cached` flag.
    pub body: String,
    pub cached: bool,
    /// The fresh analysis behind this body found a rediscovery rescue.
    /// Always `false` for cache hits (a hit runs zero pipeline work), so
    /// counters fed by this track fresh rescues, like the stage stats.
    pub rediscovered: bool,
}

/// The shared audit service: immutable world + concurrent cache.
pub struct AuditService {
    world: World,
    stages: Vec<Box<dyn Stage>>,
    /// URL → index in the batch dataset (the parity set).
    index_of: HashMap<String, usize>,
    /// The batch dataset itself, indexable by `index_of` values.
    dataset: Dataset,
    /// Provenance for tagged URLs outside the sample.
    extra: HashMap<String, DatasetEntry>,
    cache: ShardedCache<String>,
    /// Retry schedule for transient live-check failures. The default —
    /// [`RetryPolicy::single`] — preserves the batch-parity contract exactly.
    retry: RetryPolicy,
    /// Per-origin retry budget (`--origin-retry-budget-ms`). Once a host's
    /// checks have scheduled this much cumulative backoff, later checks
    /// against it run single-attempt and each refusal is counted.
    origin_budget: Option<OriginLedger>,
    /// Rediscovery index (`--rediscovery on`). `None` keeps the pipeline's
    /// rediscovery stage dormant and every answer archive-only.
    rescue: Option<Arc<RescueIndex>>,
}

impl AuditService {
    /// Generate the world for `config`, lower it, and index it for serving.
    pub fn new(config: ScenarioConfig, cache: CacheConfig) -> AuditService {
        let world = crate::world_from_scenario(Scenario::generate(config), "generated");
        Self::from_world(world, cache)
    }

    /// Build over a world, decoded from a snapshot (the `--world-cache`
    /// path) or lowered from a freshly generated scenario. No wiki, no
    /// replay: the batch-parity dataset comes straight from the interned
    /// march table, and the all-tagged table supplies provenance beyond the
    /// sample. The service queries only the index given to
    /// [`Self::with_rescue`], so a rediscovery index still inside the world
    /// is dropped here rather than kept for the server's lifetime.
    pub fn from_world(mut world: World, cache: CacheConfig) -> AuditService {
        world.rescue = None;
        let dataset = Dataset::from_table(&world.march, &world.interner);
        let index_of: HashMap<String, usize> = dataset
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.url.to_string(), i))
            .collect();
        let all = Dataset::from_table(&world.all_tagged, &world.interner);
        let extra: HashMap<String, DatasetEntry> = all
            .entries
            .into_iter()
            .filter(|e| !index_of.contains_key(&e.url.to_string()))
            .map(|e| (e.url.to_string(), e))
            .collect();
        AuditService {
            world,
            stages: default_stages(),
            index_of,
            dataset,
            extra,
            cache: ShardedCache::new(cache),
            retry: RetryPolicy::single(),
            origin_budget: None,
            rescue: None,
        }
    }

    /// Enable lexical-signature rediscovery (E19): the pipeline's
    /// rediscovery stage queries `rescue` for every non-alive link that has
    /// a pre-marking content fingerprint. Move the index out of the
    /// [`World`] (or build one over its web at study time) before handing
    /// the world over: [`Self::from_world`] drops any index left inside.
    pub fn with_rescue(mut self, rescue: Option<Arc<RescueIndex>>) -> AuditService {
        self.rescue = rescue;
        self
    }

    /// Pages in the active rediscovery index (0 when rediscovery is off).
    pub fn rescue_index_pages(&self) -> usize {
        self.rescue.as_deref().map(RescueIndex::len).unwrap_or(0)
    }

    /// Replace the live-check retry policy (`--retries` on the CLI). Anything
    /// other than [`RetryPolicy::single`] trades bit-parity with the batch
    /// audit for resilience to the simulated web's transient faults.
    pub fn with_retry(mut self, retry: RetryPolicy) -> AuditService {
        self.retry = retry;
        self
    }

    /// Cap the cumulative backoff any single origin may cost us
    /// (`--origin-retry-budget-ms`). `None` disables the cap. Only meaningful
    /// alongside a retrying policy; with the single-attempt default there is
    /// no backoff to budget and no check is ever refused.
    pub fn with_origin_retry_budget_ms(mut self, budget_ms: Option<u64>) -> AuditService {
        self.origin_budget = budget_ms.map(OriginLedger::new);
        self
    }

    /// `(host, refused_checks)` per budget-exhausted origin, for `/metrics`.
    pub fn origin_budget_snapshot(&self) -> Vec<(String, u64)> {
        self.origin_budget
            .as_ref()
            .map(|l| l.exhausted_snapshot())
            .unwrap_or_default()
    }

    /// The moment every audit is evaluated at (the paper's study time).
    pub fn study_time(&self) -> SimTime {
        self.world.meta.study_time
    }

    /// One watch-scheduler re-check: fetch `url` at simulated instant `at`
    /// through the service's retry policy. Unlike [`Self::check`] this is a
    /// raw live fetch — no cache, no pipeline, no study-time pinning —
    /// because the whole point of watching is observing the world *change*
    /// after the study snapshot.
    pub fn live_recheck(
        &self,
        url: &Url,
        at: SimTime,
    ) -> (LiveCheck, permadead_net::RetryOutcome) {
        live_check_with_retry(&self.world.web, url, at, &self.retry)
    }

    /// The world every answer is drawn from.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The batch-parity dataset backing `/check`.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counters of the simulated live web (measurement cost side).
    pub fn net_snapshot(&self) -> MetricsSnapshot {
        self.world.web.metrics.snapshot()
    }

    /// Dataset index of `url`, if it is in the batch-parity sample.
    pub fn dataset_index_of(&self, url: &str) -> Option<usize> {
        self.index_of.get(url).copied()
    }

    /// Build the incremental re-audit engine over this service's world: one
    /// full pipeline pass at study time, memoized per link. Expensive —
    /// callers cache the result and feed it to [`Self::reaudit`].
    pub fn build_incremental(&self) -> IncrementalAudit {
        IncrementalAudit::build(
            &self.world.web,
            &self.world.archive,
            &self.dataset,
            self.study_time(),
            StudyOptions::default()
                .with_retry(self.retry)
                .with_rescue(self.rescue.clone()),
        )
    }

    /// Re-run exactly `indices` of the batch dataset at watch instant `at`.
    /// Wrapped here so the world's web and archive stay private.
    pub fn reaudit(
        &self,
        audit: &mut IncrementalAudit,
        indices: &[usize],
        at: SimTime,
    ) -> ReauditOutcome {
        audit.reaudit_indices(&self.world.web, &self.world.archive, indices, at)
    }

    /// Audit one URL at serving time `now` (cache TTL clock only; the
    /// analysis itself is pinned at [`Self::study_time`]). Returns the
    /// response body plus the stage stats of a fresh analysis (`None` when
    /// the verdict came from cache — a hit does zero pipeline work).
    pub fn check(
        &self,
        raw_url: &str,
        now: SimTime,
    ) -> Result<(CheckOutcome, Option<Vec<StageStats>>), String> {
        let url = Url::parse(raw_url).map_err(|e| format!("unparseable url: {e:?}"))?;
        let key = url.to_string();
        if let Some(core) = self.cache.get(&key, now) {
            return Ok((
                CheckOutcome {
                    body: finish_body(&core, true),
                    cached: true,
                    rediscovered: false,
                },
                None,
            ));
        }

        let (index, entry, provenance) = self.resolve(&url);
        // one budget question per audited check: a refused host degrades to
        // the single-attempt policy for this check and the refusal is counted
        let host = url.host().to_string();
        let retry = match &self.origin_budget {
            Some(ledger) if self.retry.retries_enabled() && !ledger.admit_retries(&host) => {
                RetryPolicy::single()
            }
            _ => self.retry,
        };
        let env = StudyEnv {
            web: &self.world.web,
            archive: &self.world.archive,
            now: self.study_time(),
            retry,
            cdx_timeout_ms: None,
            rescue: self.rescue.as_deref(),
        };
        let mut stats = empty_stats(&self.stages);
        let finding = analyze_link(&env, &self.stages, index, entry, &mut stats);
        if let Some(ledger) = &self.origin_budget {
            ledger.charge(&host, stats.iter().map(|s| s.retry_backoff_ms).sum());
        }
        let recommendation = recommend_for(&finding, &self.world.archive);

        let verdict = if finding.genuinely_alive() {
            "alive"
        } else {
            "permanently-dead"
        };
        let mut obj = Object::new()
            .str("url", &key)
            .str("verdict", verdict)
            .str("live_status", &finding.live.status.to_string())
            .raw(
                "final_status",
                finding
                    .live
                    .record
                    .final_status()
                    .map(|c| c.as_u16().to_string())
                    .unwrap_or_else(|| "null".into()),
            )
            .bool("redirected", finding.live.was_redirected())
            .str("soft404", &format!("{:?}", finding.soft404))
            .str("archival", &format!("{:?}", finding.archival))
            .str("provenance", provenance.as_str());
        obj = match provenance {
            Provenance::Dataset => obj.num("dataset_index", index),
            _ => obj.raw("dataset_index", "null"),
        };
        obj = obj.raw("rescue", render_recommendation(recommendation.as_ref()));
        obj = obj.raw("rediscovery", render_rediscovery(finding.rediscovery.as_ref()));
        let rediscovered = finding.rediscovery.is_some();
        let core = obj.render();
        // `core` is a complete object; finish_body splices the cached flag in
        self.cache.insert(&key, core.clone(), now);
        Ok((
            CheckOutcome {
                body: finish_body(&core, false),
                cached: false,
                rediscovered,
            },
            Some(stats),
        ))
    }

    /// The body [`Self::check`] would answer from the verdict cache, if it
    /// holds a fresh verdict for `raw_url` at serving time `now`, counted as
    /// the hit it is. A miss, an expired entry or an unparseable URL returns
    /// `None` and counts nothing: the `check` that follows counts it, so
    /// every query is counted once.
    pub fn cached(&self, raw_url: &str, now: SimTime) -> Option<String> {
        let key = Url::parse(raw_url).ok()?.to_string();
        let core = self.cache.get_hit(&key, now)?;
        Some(finish_body(&core, true))
    }

    /// Where a URL's provenance and determinism seed come from.
    fn resolve(&self, url: &Url) -> (usize, DatasetEntry, Provenance) {
        let key = url.to_string();
        if let Some(&i) = self.index_of.get(&key) {
            return (i, self.dataset.entries[i].clone(), Provenance::Dataset);
        }
        if let Some(entry) = self.extra.get(&key) {
            // outside the parity set: index only needs to be stable per URL
            return (stable_index(&key), entry.clone(), Provenance::Wiki);
        }
        // never tagged: synthesize provenance around the study window
        let study = self.study_time();
        let entry = DatasetEntry {
            url: url.clone(),
            article: String::new(),
            added_at: study - permadead_net::Duration::years(5),
            marked_at: study,
            marked_by: "permadead-serve".into(),
        };
        (stable_index(&key), entry, Provenance::Unknown)
    }

    /// Sample URLs for load generation: every `step`-th dataset entry.
    pub fn sample_urls(&self, count: usize) -> Vec<String> {
        let n = self.dataset.len();
        if n == 0 {
            return Vec::new();
        }
        let step = (n / count.max(1)).max(1);
        self.dataset
            .entries
            .iter()
            .step_by(step)
            .take(count)
            .map(|e| e.url.to_string())
            .collect()
    }

    /// The load generator's URL universe: sampled dataset URLs paired with
    /// their site's popularity rank from the world's rank table (lower =
    /// more popular; unranked hosts report the universe tail). Open-loop
    /// schedules draw from this with Zipf weights so offered traffic has
    /// the same popularity head the paper observed.
    pub fn ranked_urls(&self, count: usize) -> Vec<(String, u32)> {
        let ranks = &self.world.web.ranks;
        self.sample_urls(count)
            .into_iter()
            .map(|raw| {
                let rank = Url::parse(&raw).map(|u| ranks.rank(u.host())).unwrap_or(ranks.universe + 1);
                (raw, rank)
            })
            .collect()
    }
}

/// Stable per-URL pipeline index for URLs outside the parity dataset. Masked
/// to keep `usize` arithmetic far from overflow anywhere the index is used
/// as a base offset.
fn stable_index(key: &str) -> usize {
    (fnv1a(key.as_bytes()) & 0x7fff_ffff) as usize
}

/// Append the volatile `cached` field to a cached core object.
fn finish_body(core: &str, cached: bool) -> String {
    debug_assert!(core.ends_with('}'));
    let flag = if cached { "true" } else { "false" };
    format!("{},\"cached\":{}}}", &core[..core.len() - 1], flag)
}

fn render_rediscovery(r: Option<&permadead_core::RediscoveryRescue>) -> String {
    let Some(r) = r else {
        return "null".into();
    };
    Object::new()
        .str("new_url", &r.new_url)
        .num("title_similarity", format!("{:.4}", r.title_similarity))
        .num("content_similarity", format!("{:.4}", r.content_similarity))
        .render()
}

fn render_recommendation(rec: Option<&Recommendation>) -> String {
    let Some(rec) = rec else {
        return "null".into();
    };
    let obj = Object::new().str("kind", rec.kind());
    let obj = match rec {
        Recommendation::Untag { .. } => obj,
        Recommendation::PatchWith200Copy { captured, .. } => {
            obj.str("captured", &captured.date().to_string())
        }
        Recommendation::PatchWithRedirectCopy { captured, target, .. } => obj
            .str("captured", &captured.date().to_string())
            .str("target", &target.to_string()),
        Recommendation::FixTypo { intended, .. } => obj.str("intended", &intended.to_string()),
        Recommendation::PatchWithParamReorder { archived_spelling, .. } => {
            obj.str("archived_spelling", &archived_spelling.to_string())
        }
    };
    obj.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_core::Study;

    fn tiny_service() -> AuditService {
        let cfg = ScenarioConfig {
            rot_links: 40,
            ..ScenarioConfig::small(7)
        };
        AuditService::new(cfg, CacheConfig::default())
    }

    #[test]
    fn check_matches_batch_audit_for_every_dataset_url() {
        let svc = tiny_service();
        let batch = Study::run(
            &svc.world().web,
            &svc.world().archive,
            svc.dataset(),
            svc.study_time(),
        );
        let now = svc.study_time();
        for (i, finding) in batch.findings.iter().enumerate() {
            let url = finding.entry.url.to_string();
            let (out, stats) = svc.check(&url, now).unwrap();
            assert!(!out.cached, "first query for {url} must be a miss");
            assert!(stats.is_some());
            // bit-identical classification: same live status, soft-404
            // verdict, and archival class as the batch finding at index i
            let body = &out.body;
            assert!(
                body.contains(&format!("\"live_status\":\"{}\"", finding.live.status)),
                "live mismatch for {url}: {body}"
            );
            assert!(
                body.contains(&format!("\"soft404\":\"{:?}\"", finding.soft404)),
                "soft404 mismatch for {url}: {body}"
            );
            assert!(
                body.contains(&format!("\"archival\":\"{:?}\"", finding.archival)),
                "archival mismatch for {url}: {body}"
            );
            assert!(body.contains(&format!("\"dataset_index\":{i}")));
        }
    }

    #[test]
    fn repeat_query_hits_cache_and_spends_no_network() {
        let svc = tiny_service();
        let now = svc.study_time();
        let url = svc.dataset().entries[0].url.to_string();

        let (first, _) = svc.check(&url, now).unwrap();
        assert!(!first.cached);
        let hits_before = svc.cache_stats().hits;
        let net_before = svc.net_snapshot();

        let (second, stats) = svc.check(&url, now).unwrap();
        assert!(second.cached);
        assert!(stats.is_none(), "a cache hit runs zero stages");
        assert_eq!(svc.cache_stats().hits, hits_before + 1);
        let delta = svc.net_snapshot().diff(&net_before);
        assert_eq!(delta, MetricsSnapshot::default(), "cache hit issued simulated requests");

        // bodies agree except for the cached flag
        assert_eq!(
            first.body.replace("\"cached\":false", ""),
            second.body.replace("\"cached\":true", ""),
        );
    }

    #[test]
    fn cached_probe_answers_hits_and_leaves_misses_to_check() {
        let svc = tiny_service();
        let now = svc.study_time();
        let url = svc.dataset().entries[0].url.to_string();
        assert_eq!(svc.cached(&url, now), None);
        assert_eq!(svc.cached("not a url at all", now), None);
        assert_eq!(svc.cache_stats(), CacheStats::default(), "a probe that missed counted");

        let (first, _) = svc.check(&url, now).unwrap();
        assert!(!first.cached);
        let probed = svc.cached(&url, now).expect("the verdict is cached now");
        let (second, _) = svc.check(&url, now).unwrap();
        assert_eq!(probed, second.body, "the probe answers what a cached check answers");
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn unknown_url_is_audited_with_synthetic_provenance() {
        let svc = tiny_service();
        let (out, stats) = svc
            .check("http://never-heard-of.example.org/x", svc.study_time())
            .unwrap();
        assert!(out.body.contains("\"provenance\":\"unknown\""));
        assert!(out.body.contains("\"verdict\":"));
        assert!(stats.is_some());
    }

    #[test]
    fn bad_url_is_an_error() {
        let svc = tiny_service();
        assert!(svc.check("not a url at all", svc.study_time()).is_err());
    }

    #[test]
    fn snapshot_backed_service_answers_like_the_generated_one() {
        let cfg = ScenarioConfig {
            rot_links: 40,
            ..ScenarioConfig::small(7)
        };
        let generated = AuditService::new(cfg.clone(), CacheConfig::default());
        let bytes = crate::world_from_scenario(Scenario::generate(cfg), "small").to_bytes();
        let world = World::from_bytes(&bytes).expect("saved snapshot bytes decode");
        let snapped = AuditService::from_world(world, CacheConfig::default());

        assert_eq!(snapped.study_time(), generated.study_time());
        assert_eq!(snapped.dataset().len(), generated.dataset().len());
        assert_eq!(snapped.extra.len(), generated.extra.len());
        let now = generated.study_time();
        for url in generated.sample_urls(8) {
            let (a, _) = generated.check(&url, now).unwrap();
            let (b, _) = snapped.check(&url, now).unwrap();
            assert_eq!(a.body, b.body, "snapshot-backed divergence for {url}");
        }
    }

    #[test]
    fn incremental_reaudit_of_unchanged_world_changes_nothing() {
        let svc = tiny_service();
        let mut audit = svc.build_incremental();
        assert_eq!(audit.len(), svc.dataset().len());
        let out = svc.reaudit(&mut audit, &[0, 1], svc.study_time());
        assert_eq!(out.reaudited, 2);
        assert_eq!(out.changed, 0, "same clock, same world: no finding may move");
    }

    #[test]
    fn sample_urls_come_from_dataset() {
        let svc = tiny_service();
        let urls = svc.sample_urls(5);
        assert!(!urls.is_empty());
        for u in &urls {
            assert!(svc.index_of.contains_key(u));
        }
    }
}
