//! End-to-end tests over real loopback TCP: one shared server, every
//! endpoint, the acceptance criteria of the serve subsystem.

use permadead_serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
use permadead_sim::ScenarioConfig;

mod common;
use common::{get, metric_value, percent_encode, request};

fn spawn_server() -> ServerHandle {
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    let service = AuditService::new(cfg, CacheConfig::default());
    start(
        service,
        ServerConfig {
            workers: 2,
            queue_cap: 8,
            debug_endpoints: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

#[test]
fn endpoints_end_to_end() {
    let handle = spawn_server();
    let addr = handle.addr();

    // /healthz: liveness plus the operator triage numbers
    let (status, _, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"pending\":"), "{body}");
    assert!(body.contains("\"workers\":2"), "{body}");
    assert!(body.contains("\"watchlist\":0"), "{body}");

    // /check on a known dataset URL: twice, second from cache
    let url = handle.service().dataset().entries[0].url.to_string();
    let path = format!("/check?url={}", percent_encode(&url));
    let (status, _, first) = get(addr, &path);
    assert!(status.contains("200"), "{status}: {first}");
    assert!(first.contains("\"verdict\":"), "{first}");
    assert!(first.contains("\"provenance\":\"dataset\""), "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");

    let net_before = handle.service().net_snapshot();
    let (_, _, second) = get(addr, &path);
    assert!(second.contains("\"cached\":true"), "{second}");
    let delta = handle.service().net_snapshot().diff(&net_before);
    assert_eq!(delta.requests, 0, "cache hit must not touch the simulated web");
    assert_eq!(
        first.replace("\"cached\":false", ""),
        second.replace("\"cached\":true", ""),
        "verdict changed between miss and hit"
    );

    // /check without url, and with garbage
    let (status, _, _) = get(addr, "/check");
    assert!(status.contains("400"), "{status}");
    let (status, _, body) = get(addr, "/check?url=%20not%20a%20url");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("error"));

    // POST /batch with three URLs (one repeated → cache hit, one unknown)
    let batch_body = format!("{url}\n{url}\nhttp://unknown.example.org/zzz\n");
    let (status, _, body) = request(
        addr,
        &format!(
            "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            batch_body.len(),
            batch_body
        ),
    );
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.starts_with("{\"results\":["), "{body}");
    assert_eq!(body.matches("\"verdict\":").count(), 3, "{body}");
    assert!(body.contains("\"provenance\":\"unknown\""), "{body}");

    // /metrics: counters present and consistent with the traffic so far
    let (status, _, metrics) = get(addr, "/metrics");
    assert!(status.contains("200"));
    assert!(metric_value(&metrics, "permadead_cache_hits_total") >= 2.0, "{metrics}");
    assert!(
        metric_value(&metrics, "permadead_requests_total{endpoint=\"check\"}") >= 4.0
    );
    assert!(metric_value(&metrics, "permadead_requests_total{endpoint=\"batch\"}") >= 1.0);
    assert!(metric_value(&metrics, "permadead_cache_hit_ratio") > 0.0);
    assert!(metrics.contains("permadead_stage_hits_total{stage=\"live-check\"}"));
    assert!(metrics.contains("permadead_request_duration_seconds_bucket{le=\"+Inf\"}"));
    assert!(metrics.contains("permadead_simweb_requests_total"));

    // unknown path → 404, wrong method → 405
    let (status, _, _) = get(addr, "/nope");
    assert!(status.contains("404"));
    let (status, _, _) = request(
        addr,
        "POST /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("405"));

    handle.shutdown();
}

#[test]
fn verdicts_match_batch_audit_over_http() {
    let handle = spawn_server();
    let addr = handle.addr();
    let service = handle.service();
    let batch = permadead_core::Study::run(
        &service.world().web,
        &service.world().archive,
        service.dataset(),
        service.study_time(),
    );
    // a handful of findings incl. the first genuinely-dead one
    for finding in batch.findings.iter().take(5) {
        let path = format!("/check?url={}", percent_encode(&finding.entry.url.to_string()));
        let (status, _, body) = get(addr, &path);
        assert!(status.contains("200"), "{status}");
        let expected = if finding.genuinely_alive() {
            "\"verdict\":\"alive\""
        } else {
            "\"verdict\":\"permanently-dead\""
        };
        assert!(body.contains(expected), "{body}");
        assert!(
            body.contains(&format!("\"live_status\":\"{}\"", finding.live.status)),
            "{body}"
        );
        assert!(
            body.contains(&format!("\"archival\":\"{:?}\"", finding.archival)),
            "{body}"
        );
    }
    handle.shutdown();
}

#[test]
fn admission_control_rejects_with_retry_after() {
    // 1 worker, queue of 1: a slow request occupies the worker, the next
    // fills the queue, and everything after that must get 503 + Retry-After
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    let service = AuditService::new(cfg, CacheConfig::default());
    let handle = start(
        service,
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            debug_endpoints: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // occupy the worker
    let busy = std::thread::spawn(move || get(addr, "/debug/sleep?ms=1500"));
    std::thread::sleep(std::time::Duration::from_millis(300));
    // fill the queue
    let queued = std::thread::spawn(move || get(addr, "/debug/sleep?ms=10"));
    std::thread::sleep(std::time::Duration::from_millis(300));

    // the acceptor must now refuse; a few attempts make the race immaterial
    let mut saw_503 = false;
    for _ in 0..5 {
        let (status, headers, _) = get(addr, "/healthz");
        if status.contains("503") {
            // occupancy-scaled hint: base 1s × (1 + the one queued request).
            // A fixed hint would send every refused client back in lockstep.
            assert!(
                headers.to_ascii_lowercase().contains("retry-after: 2"),
                "503 without occupancy-scaled Retry-After: {headers}"
            );
            saw_503 = true;
            break;
        }
    }
    assert!(saw_503, "admission control never refused");

    let (status, _, _) = busy.join().unwrap();
    assert!(status.contains("200"));
    let _ = queued.join().unwrap();

    // rejected counter surfaced in /metrics
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metric_value(&metrics, "permadead_rejected_total") >= 1.0);
    handle.shutdown();
}
