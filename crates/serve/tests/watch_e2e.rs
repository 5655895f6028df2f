//! End-to-end test of the continuous-monitoring subsystem: register a link
//! that goes dark after the study snapshot, watch it climb the strike
//! ladder to a permanently-dead tag, then come back — the §3 "genuinely
//! alive again" flap — with exact counter parity across `/watchlist`,
//! `/metrics`, and `/healthz`.
//!
//! The watch clock is frozen (`sim_secs_per_real_sec: 0`) and advanced
//! manually through `/debug/watch-advance`, so every transition happens at
//! an exact simulated instant and the test is deterministic.

use permadead_core::live_check;
use permadead_net::fault::{Fault, FaultProfile};
use permadead_net::Duration;
use permadead_sched::{Cadence, PolicySpec};
use permadead_serve::{start, AuditService, CacheConfig, ServerConfig, WatchConfig};
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_url::Url;

mod common;
use common::{get, metric_value, post};

/// Poll `/watchlist` until `pred` holds (the pump ticks every 25ms, so the
/// state lands shortly after an advance; 2s is a generous ceiling).
fn poll_watchlist(
    addr: std::net::SocketAddr,
    what: &str,
    pred: impl Fn(&str) -> bool,
) -> String {
    let mut last = String::new();
    for _ in 0..200 {
        let (_, _, body) = get(addr, "/watchlist");
        if pred(&body) {
            return body;
        }
        last = body;
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("watchlist never reached: {what}\nlast seen: {last}");
}

#[test]
fn watched_link_flaps_through_tag_and_revival_with_counter_parity() {
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    let mut scenario = Scenario::generate(cfg);
    let study = scenario.config.study_time;

    // pick a page that answers 200 at study time (hosts sorted so the pick
    // is deterministic), then script its site dark for exactly the
    // half-open window [study+1d, study+3d)
    let mut hosts: Vec<String> = scenario.web.sites().map(|s| s.host.clone()).collect();
    hosts.sort();
    let target = hosts
        .iter()
        .find_map(|host| {
            let site = scenario.web.site_by_host(host, study)?;
            site.pages().iter().find_map(|p| {
                let url = Url::parse(&format!("http://{}{}", host, p.initial_path)).ok()?;
                live_check(&scenario.web, &url, study)
                    .is_final_200()
                    .then_some(url)
            })
        })
        .expect("an alive page in the simulated web");
    let site_id = scenario
        .web
        .site_by_host(target.host(), study)
        .expect("target host resolves")
        .id;
    let dark_from = study + Duration::days(1);
    let dark_to = study + Duration::days(3);
    scenario.web.site_mut(site_id).unwrap().faults =
        FaultProfile::none(site_id.0).with_window(dark_from, dark_to, Fault::Unavailable);
    assert!(live_check(&scenario.web, &target, study).is_final_200());
    assert!(!live_check(&scenario.web, &target, dark_from).is_final_200());
    assert!(live_check(&scenario.web, &target, dark_to).is_final_200(), "window is half-open");

    let world = permadead_serve::world_from_scenario(scenario, "small");
    let service = AuditService::from_world(world, CacheConfig::default());
    let handle = start(
        service,
        ServerConfig {
            workers: 2,
            queue_cap: 8,
            debug_endpoints: true,
            watch: WatchConfig {
                policy: PolicySpec::IabotStrikes {
                    strikes: 2,
                    min_span: Duration::days(1),
                },
                cadence: Cadence::Fixed { every: Duration::days(1) },
                sim_secs_per_real_sec: 0, // frozen; advanced via /debug
                host_budget_per_day: None,
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // register: one valid URL, one garbage line
    let (status, _, body) = post(addr, "/watch", &format!("{target}\nnot a url\n"));
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"registered\":1"), "{body}");
    assert!(body.contains("\"invalid\":1"), "{body}");
    assert!(body.contains("\"watchlist\":1"), "{body}");
    // idempotent: re-registering must not double the cadence
    let (_, _, body) = post(addr, "/watch", &format!("{target}\n"));
    assert!(body.contains("\"registered\":0"), "{body}");
    assert!(body.contains("\"watchlist\":1"), "{body}");

    // day 0: the first check comes due at registration time and succeeds
    let body = poll_watchlist(addr, "first check lands", |b| b.contains("\"checks\":1"));
    assert!(body.contains("\"state\":\"healthy\""), "{body}");
    assert!(body.contains("\"strikes\":0"), "{body}");
    assert!(body.contains("\"policy\":\"iabot-strikes\""), "{body}");
    assert!(body.contains("\"states\":{\"healthy\":1,\"suspicious\":0,\"quarantined\":0,\"tagged\":0}"), "{body}");

    // day 1: the site is dark — strike one, the link turns suspicious
    get(addr, "/debug/watch-advance?secs=86400");
    let body = poll_watchlist(addr, "strike one", |b| b.contains("\"checks\":2"));
    assert!(body.contains("\"strikes\":1"), "{body}");
    assert!(body.contains("\"state\":\"suspicious\""), "{body}");
    assert!(body.contains("\"states\":{\"healthy\":0,\"suspicious\":1,\"quarantined\":0,\"tagged\":0}"), "{body}");

    // day 2: strike two, and the span since strike one is 1d >= min_span —
    // the link is tagged permanently dead
    get(addr, "/debug/watch-advance?secs=86400");
    let body = poll_watchlist(addr, "tagged", |b| b.contains("\"state\":\"tagged\""));
    assert!(body.contains("\"checks\":3"), "{body}");
    assert!(body.contains("\"strikes\":2"), "{body}");
    assert!(body.contains("\"tagged\":1"), "{body}");
    assert!(body.contains("\"tagged_at\":"), "{body}");

    // day 3: the outage window has closed — the tagged link answers 200
    // again and is recorded as a revival (§3's "genuinely alive again")
    get(addr, "/debug/watch-advance?secs=86400");
    let body = poll_watchlist(addr, "revived", |b| b.contains("\"revivals\":1"));
    assert!(body.contains("\"state\":\"healthy\""), "{body}");
    assert!(body.contains("\"strikes\":0"), "{body}");
    assert!(body.contains("\"checks\":4"), "{body}");
    assert!(body.contains("\"tagged\":0"), "{body}");

    // exact counter parity: /metrics, the scheduler snapshot, and the
    // timeline above must all agree
    let snap = handle.watch_snapshot();
    assert_eq!(snap.counters.checks, 4);
    assert_eq!(snap.counters.due, 4);
    assert_eq!(snap.counters.tagged, 1);
    assert_eq!(snap.counters.revived, 1);
    assert_eq!(snap.counters.deferred, 0);
    assert_eq!(snap.watchlist, 1);
    assert_eq!(snap.tagged_now, 0);
    assert_eq!(snap.policy, "iabot-strikes");
    assert_eq!(snap.states.healthy, 1);
    assert_eq!(snap.states.total(), snap.watchlist);
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "permadead_watch_due_total"), 4.0);
    assert_eq!(metric_value(&metrics, "permadead_watch_checks_total"), 4.0);
    assert_eq!(metric_value(&metrics, "permadead_watch_tagged_total"), 1.0);
    assert_eq!(metric_value(&metrics, "permadead_watch_revived_total"), 1.0);
    assert_eq!(metric_value(&metrics, "permadead_watch_deferred_total"), 0.0);
    assert_eq!(metric_value(&metrics, "permadead_watchlist_size"), 1.0);
    assert_eq!(metric_value(&metrics, "permadead_watch_tagged_links"), 0.0);
    assert_eq!(metric_value(&metrics, "permadead_watch_queue_depth"), 1.0, "next check queued");
    // the state-distribution gauges mirror Scheduler::snapshot() exactly
    assert_eq!(
        metric_value(&metrics, "permadead_watch_state{state=\"healthy\"}"),
        snap.states.healthy as f64
    );
    assert_eq!(
        metric_value(&metrics, "permadead_watch_state{state=\"suspicious\"}"),
        snap.states.suspicious as f64
    );
    assert_eq!(
        metric_value(&metrics, "permadead_watch_state{state=\"quarantined\"}"),
        snap.states.quarantined as f64
    );
    assert_eq!(
        metric_value(&metrics, "permadead_watch_state{state=\"tagged\"}"),
        snap.states.tagged as f64
    );
    assert_eq!(metric_value(&metrics, "permadead_watch_policy{policy=\"iabot-strikes\"}"), 1.0);
    assert!(metric_value(&metrics, "permadead_requests_total{endpoint=\"watch\"}") >= 2.0);
    assert!(metric_value(&metrics, "permadead_requests_total{endpoint=\"watchlist\"}") >= 4.0);

    // /healthz surfaces the watchlist size
    let (_, _, health) = get(addr, "/healthz");
    assert!(health.contains("\"watchlist\":1"), "{health}");

    handle.shutdown();
}

#[test]
fn watch_rejects_empty_and_oversized_bodies() {
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    let service = AuditService::new(cfg, CacheConfig::default());
    let handle = start(
        service,
        ServerConfig {
            workers: 1,
            max_batch: 2,
            watch: WatchConfig {
                sim_secs_per_real_sec: 0,
                ..WatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // /batch reads its URL list the same way
    for endpoint in ["/watch", "/batch"] {
        let (status, _, _) = post(addr, endpoint, "");
        assert!(status.contains("400"), "{endpoint}: {status}");
        let (status, _, body) =
            post(addr, endpoint, "http://a.org/1\nhttp://a.org/2\nhttp://a.org/3\n");
        assert!(status.contains("413"), "{endpoint}: {status}: {body}");
    }
    // wrong method
    let (status, _, _) = get(addr, "/watch");
    assert!(status.contains("404") || status.contains("405"), "{status}");
    let (status, _, _) = post(addr, "/watchlist", "x");
    assert!(status.contains("405"), "{status}");

    handle.shutdown();
}
