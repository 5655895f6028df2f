//! The fault campaign: drive `permadead-serve` over loopback TCP against a
//! world whose target origins misbehave, and measure what a retry policy
//! buys — and what it provably cannot.
//!
//! Three servers over the *same* seeded world:
//!
//! - **A** — fault-free, single attempt: the ground-truth baseline.
//! - **B** — faulted origins, single attempt (IABot's behaviour): transient
//!   faults land directly in the Figure-4 verdicts.
//! - **C** — the same faulted origins, retries enabled: transient faults are
//!   re-drawn per attempt, so most verdicts flip back to the baseline, while
//!   attempt-independent faults (an exhausted daily budget) demonstrably
//!   stay broken no matter how many retries are spent.
//!
//! Every fault draw is keyed `(seed, url, day, attempt)`, so the whole
//! campaign is deterministic: the test asserts the *exact* per-cause retry
//! counters scraped from `/metrics` against a local replay of the same
//! policy over the same world.

use permadead_net::fault::FaultProfile;
use permadead_net::RetryPolicy;
use permadead_serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
use permadead_sim::{Scenario, ScenarioConfig};

mod common;
use common::{get, metric_value, percent_encode};

const RETRY_SEED: u64 = 0xFA;
const FAULT_SEED: u64 = 0xFA17;

fn world_config() -> ScenarioConfig {
    ScenarioConfig {
        rot_links: 160,
        ..ScenarioConfig::small(7)
    }
}

/// `"live_status"` out of a `/check` body — the Figure-4 verdict the
/// campaign compares across servers.
fn live_status_of(body: &str) -> String {
    let needle = "\"live_status\":\"";
    let start = body.find(needle).unwrap_or_else(|| panic!("no live_status in {body}")) + needle.len();
    let end = body[start..].find('"').expect("unterminated live_status") + start;
    body[start..end].to_string()
}

fn check(addr: std::net::SocketAddr, url: &str) -> String {
    let (status, _, body) = get(addr, &format!("/check?url={}", percent_encode(url)));
    assert!(status.contains("200"), "{status}: {body}");
    body
}

fn spawn(service: AuditService) -> ServerHandle {
    start(
        service,
        ServerConfig {
            workers: 1,
            queue_cap: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// The fault class each campaign target's origin is put into.
#[derive(Clone, Copy)]
enum Campaign {
    /// Connections hang 70% of the time — retryable, usually rescued.
    Timeouts,
    /// 503s 70% of the time — retryable, usually rescued.
    Unavailable,
    /// Daily budget of zero — every attempt 429s; retries cannot help.
    RateLimited,
}

impl Campaign {
    fn of(index: usize) -> Campaign {
        match index % 3 {
            0 => Campaign::Timeouts,
            1 => Campaign::Unavailable,
            _ => Campaign::RateLimited,
        }
    }

    fn profile(self, seed: u64) -> FaultProfile {
        match self {
            Campaign::Timeouts => FaultProfile::none(seed).with_timeouts(0.7),
            Campaign::Unavailable => FaultProfile::none(seed).with_unavailable(0.7),
            Campaign::RateLimited => FaultProfile::none(seed).with_daily_rate_limit(0),
        }
    }
}

/// Break the origins of `targets` in `scenario`, identically for every
/// caller: the profile seed depends only on the site id.
fn inject_faults(scenario: &mut Scenario, targets: &[(String, Campaign)]) {
    let study = scenario.config.study_time;
    for (url, campaign) in targets {
        let host = permadead_url::Url::parse(url).expect("target parses").host().to_string();
        let Some(id) = scenario.web.site_by_host(&host, study).map(|s| s.id) else {
            panic!("target host {host} has no live site");
        };
        let site = scenario.web.site_mut(id).expect("site exists");
        site.faults = campaign.profile(id.0 ^ FAULT_SEED);
    }
}

/// A flapping origin burns through its retry budget; a calm one never does.
/// The budget ledger must refuse retries — and export the refusals — for the
/// flapping host *only*.
#[test]
fn origin_retry_budget_exhausts_only_for_the_flapping_host() {
    // pick two dataset URLs on distinct, resolving origins
    let probe = Scenario::generate(world_config());
    let study = probe.config.study_time;
    let dataset =
        permadead_core::Dataset::march(&probe.wiki, probe.config.sample_size, probe.config.seed);
    let mut hosts: Vec<String> = Vec::new();
    for e in &dataset.entries {
        let host = e.url.host().to_string();
        if hosts.contains(&host) || probe.web.site_by_host(&host, study).is_none() {
            continue;
        }
        hosts.push(host);
        if hosts.len() == 2 {
            break;
        }
    }
    let [flappy, calm] = hosts.try_into().expect("world too small for two origins");

    let mut scenario = Scenario::generate(world_config());
    inject_faults(
        &mut scenario,
        &[(format!("http://{flappy}/"), Campaign::Timeouts)],
    );
    // budget 1ms: the first probe that schedules any backoff at all exhausts
    // the flapping origin; every later check against it is refused + counted
    let world = permadead_serve::world_from_scenario(scenario, "small");
    let service = AuditService::from_world(world, CacheConfig::default())
        .with_retry(RetryPolicy::standard(4, RETRY_SEED))
        .with_origin_retry_budget_ms(Some(1));
    let server = spawn(service);

    // distinct paths per request so the verdict cache never short-circuits
    // the budget bookkeeping; the 70%-timeout origin retries almost surely
    // within the first few probes, the calm one never does
    for i in 0..8 {
        check(server.addr(), &format!("http://{flappy}/budget-probe-{i}"));
        check(server.addr(), &format!("http://{calm}/budget-probe-{i}"));
    }

    let (_, _, metrics) = get(server.addr(), "/metrics");
    let series: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("permadead_origin_retry_budget_exhausted_total{"))
        .collect();
    assert_eq!(
        series.len(),
        1,
        "exactly one origin must exhaust its budget: {series:?}"
    );
    let refused = metric_value(
        &metrics,
        &format!("permadead_origin_retry_budget_exhausted_total{{host=\"{flappy}\"}}"),
    );
    assert!(refused >= 1.0, "flapping host never got refused: {metrics}");
    assert!(
        !metrics.contains(&format!("host=\"{calm}\"")),
        "calm host {calm} was charged budget refusals"
    );
    server.shutdown();
}

#[test]
fn fault_campaign_retries_bound_verdict_flips_and_counters_match_exactly() {
    // ---- server A: the fault-free baseline --------------------------------
    let a = spawn(AuditService::new(world_config(), CacheConfig::default()));

    // Campaign targets: dataset URLs whose origin still resolves (faults act
    // at the origin, so a lapsed-DNS link can never observe one), spread
    // round-robin over the three fault classes.
    let candidates: Vec<String> = a
        .service()
        .dataset()
        .entries
        .iter()
        .map(|e| e.url.to_string())
        .collect();
    let mut targets: Vec<(String, Campaign)> = Vec::new();
    let mut baseline: Vec<String> = Vec::new();
    let mut seen_hosts = std::collections::HashSet::new();
    for url in &candidates {
        if targets.len() == 9 {
            break;
        }
        let host = permadead_url::Url::parse(url).unwrap().host().to_string();
        if !seen_hosts.insert(host) {
            continue; // one target per origin keeps the fault classes clean
        }
        let body = check(a.addr(), url);
        let status = live_status_of(&body);
        // a campaign target must (a) resolve, so origin faults can act, and
        // (b) have a definitive baseline verdict distinct from every fault
        // symptom (Timeout / 503-or-429 "Other"), so a flip is unambiguous
        if status != "200" && status != "404" {
            continue;
        }
        targets.push((url.clone(), Campaign::of(targets.len())));
        baseline.push(status);
    }
    assert_eq!(targets.len(), 9, "world too small for the campaign");
    a.shutdown();

    // ---- servers B and C: identical faulted worlds ------------------------
    let mut scenario_b = Scenario::generate(world_config());
    inject_faults(&mut scenario_b, &targets);
    let world_b = permadead_serve::world_from_scenario(scenario_b, "small");
    let b = spawn(AuditService::from_world(world_b, CacheConfig::default()));

    let retry = RetryPolicy::standard(4, RETRY_SEED);
    let mut scenario_c = Scenario::generate(world_config());
    inject_faults(&mut scenario_c, &targets);
    let world_c = permadead_serve::world_from_scenario(scenario_c, "small");
    let c = spawn(AuditService::from_world(world_c, CacheConfig::default()).with_retry(retry));

    let statuses_b: Vec<String> =
        targets.iter().map(|(u, _)| live_status_of(&check(b.addr(), u))).collect();
    let statuses_c: Vec<String> =
        targets.iter().map(|(u, _)| live_status_of(&check(c.addr(), u))).collect();

    // ---- the verdict-flip ledger ------------------------------------------
    let flips = |statuses: &[String]| -> usize {
        statuses.iter().zip(&baseline).filter(|(s, b)| s != b).count()
    };
    let flips_b = flips(&statuses_b);
    let flips_c = flips(&statuses_c);

    // no-retry demonstrably misclassifies: transient faults land in verdicts
    assert!(flips_b >= 3, "faults flipped only {flips_b}/9 verdicts: {statuses_b:?}");
    // retries keep the damage bounded — strictly fewer flips than no-retry
    assert!(
        flips_c < flips_b,
        "retries did not reduce flips: {flips_c} vs {flips_b} ({statuses_c:?})"
    );
    // ...but they cannot rescue an attempt-independent fault: every
    // rate-limited target flips on both servers, retries or not
    for (i, (url, campaign)) in targets.iter().enumerate() {
        if matches!(campaign, Campaign::RateLimited) {
            assert_ne!(statuses_b[i], baseline[i], "{url} dodged its rate limit");
            assert_ne!(statuses_c[i], baseline[i], "{url} dodged its rate limit with retries");
        }
    }

    // ---- exact counters: /metrics vs a local replay -----------------------
    // B never retries: its counters must be exactly zero.
    let (_, _, metrics_b) = get(b.addr(), "/metrics");
    for (label, _) in permadead_net::RetryCounts::default().per_cause() {
        assert_eq!(
            metric_value(&metrics_b, &format!("permadead_retries_total{{cause=\"{label}\"}}")),
            0.0,
            "single-attempt server counted {label} retries"
        );
    }
    assert_eq!(metric_value(&metrics_b, "permadead_retry_exhausted_total"), 0.0);
    b.shutdown();

    // C's counters must equal, per cause, a local replay of the same policy
    // over the same world — the fault draws are pure in (url, day, attempt).
    let mut expected = permadead_net::RetryCounts::default();
    let study = c.service().study_time();
    for (url, _) in &targets {
        let parsed = permadead_url::Url::parse(url).unwrap();
        let (_, outcome) = permadead_core::live_check_with_retry(
            &c.service().world().web,
            &parsed,
            study,
            &retry,
        );
        expected.add(outcome.counts);
    }
    assert!(expected.total() > 0, "the campaign provoked no retries at all");

    let (_, _, metrics_c) = get(c.addr(), "/metrics");
    for (label, want) in expected.per_cause() {
        assert_eq!(
            metric_value(&metrics_c, &format!("permadead_retries_total{{cause=\"{label}\"}}")),
            want as f64,
            "cause {label} diverged from the local replay"
        );
    }
    assert_eq!(
        metric_value(&metrics_c, "permadead_retry_exhausted_total"),
        expected.exhausted as f64,
        "exhaustion count diverged from the local replay"
    );
    // the rate-limited targets are the exhaustion: 3 targets × 1 schedule
    assert!(expected.exhausted >= 3, "rate-limited targets must exhaust their schedules");
    c.shutdown();
}
