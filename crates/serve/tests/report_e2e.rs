//! End-to-end test of the incremental re-audit path: a watched link that is
//! in the batch dataset goes dark, climbs the strike ladder to a tag, and
//! the scheduler's dirty set drives the incremental engine — `GET /report`
//! must reflect exactly that one link's flip (O(changed), not a full study
//! re-run), then fold it back on revival.

use permadead_core::{live_check, Dataset};
use permadead_net::fault::{Fault, FaultProfile};
use permadead_net::Duration;
use permadead_sched::{Cadence, PolicySpec};
use permadead_serve::{start, AuditService, CacheConfig, ServerConfig, WatchConfig};
use permadead_sim::{Scenario, ScenarioConfig};

mod common;
use common::{get, metric_value, post};

/// Pull `"key":<number>` out of a flat JSON object body.
fn json_num(body: &str, key: &str) -> i64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("{key} not in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable {key} in {body}"))
}

/// Poll `path` until `pred` holds on the body (pump ticks every 25ms).
fn poll(
    addr: std::net::SocketAddr,
    path: &str,
    what: &str,
    pred: impl Fn(&str) -> bool,
) -> String {
    let mut last = String::new();
    for _ in 0..200 {
        let (_, _, body) = get(addr, path);
        if pred(&body) {
            return body;
        }
        last = body;
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("{path} never reached: {what}\nlast seen: {last}");
}

#[test]
fn watch_flip_updates_the_incremental_report_by_exactly_one_link() {
    // large enough that the dataset surfaces the paper's ~16% final-200
    // tail (a 40-link corpus can come up empty)
    let cfg = ScenarioConfig {
        rot_links: 400,
        ..ScenarioConfig::small(7)
    };
    let mut scenario = Scenario::generate(cfg);
    let study = scenario.config.study_time;

    // Find a batch-dataset link that answers 200 at study time — the same
    // dataset formula the service builds, so the watched URL resolves to a
    // dataset index and has a memoized finding to maintain.
    let dataset = Dataset::march(
        &scenario.wiki,
        scenario.config.sample_size,
        scenario.config.seed,
    );
    let target = dataset
        .entries
        .iter()
        .map(|e| e.url.clone())
        .find(|u| live_check(&scenario.web, u, study).is_final_200())
        .expect("a final-200 dataset link");

    // script its site dark for exactly [study+1d, study+3d)
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

    // baseline: first /report builds the engine with one full pass
    let (status, _, report) = get(addr, "/report");
    assert!(status.contains("200"), "{status}: {report}");
    let n = json_num(&report, "n");
    let baseline_200 = json_num(&report, "final_200");
    assert!(n > 0 && baseline_200 > 0, "{report}");

    // watch the dataset link; day 0 check succeeds (no transition, no work)
    let (_, _, body) = post(addr, "/watch", &format!("{target}\n"));
    assert!(body.contains("\"registered\":1"), "{body}");
    poll(addr, "/watchlist", "first check lands", |b| b.contains("\"checks\":1"));
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "permadead_reaudit_links_total"), 0.0);

    // day 1: strike one (still no transition). day 2: tagged — the dirty
    // set hands the link to the incremental engine, which re-runs ONLY it
    // at the tag instant and folds the delta into the report.
    get(addr, "/debug/watch-advance?secs=86400");
    poll(addr, "/watchlist", "strike one", |b| b.contains("\"checks\":2"));
    get(addr, "/debug/watch-advance?secs=86400");
    poll(addr, "/watchlist", "tagged", |b| b.contains("\"state\":\"tagged\""));
    let report = poll(addr, "/report", "final_200 drops by one", |b| {
        json_num(b, "final_200") == baseline_200 - 1
    });
    assert_eq!(json_num(&report, "n"), n, "n is run-level, not a delta casualty");
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "permadead_reaudit_links_total"), 1.0, "one link, not a full study");
    assert_eq!(metric_value(&metrics, "permadead_reaudit_changed_total"), 1.0);

    // day 3: the window closed; revival flips it back and the report
    // returns to the baseline exactly.
    get(addr, "/debug/watch-advance?secs=86400");
    poll(addr, "/watchlist", "revived", |b| b.contains("\"revivals\":1"));
    poll(addr, "/report", "final_200 restored", |b| {
        json_num(b, "final_200") == baseline_200
    });
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "permadead_reaudit_links_total"), 2.0);
    assert_eq!(metric_value(&metrics, "permadead_reaudit_changed_total"), 2.0);

    handle.shutdown();
}
