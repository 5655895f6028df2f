//! End-to-end tests for the sharded multi-reactor server: `--reactors N`
//! must change *throughput structure* (N listeners / N connection tables),
//! never *answers*. The per-reactor metric breakdown, the bind error when
//! the SO_REUSEPORT group cannot form, and the graceful drain on shutdown
//! are checked here; verdict and cache-ledger parity with a single-reactor
//! twin is a root determinism test.

use permadead_serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
use permadead_sim::ScenarioConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

mod common;
use common::{get, metric_value};

fn service() -> AuditService {
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    AuditService::new(cfg, CacheConfig::default())
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    start(service(), config).expect("server starts")
}

/// Every accepted connection is owned by exactly one reactor of the
/// SO_REUSEPORT group: per-reactor accepted_total sums to the aggregate
/// open+closed connection count.
#[test]
fn reuseport_group_engages_and_accounts_every_connection() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        reactors: 2,
        ..ServerConfig::default()
    });

    for _ in 0..20 {
        let (status, _, _) = get(handle.addr(), "/healthz");
        assert!(status.contains("200"), "{status}");
    }
    let (_, _, metrics) = get(handle.addr(), "/metrics");
    let r0 = metric_value(&metrics, "permadead_serve_reactor_accepted_total{reactor=\"0\"}");
    let r1 = metric_value(&metrics, "permadead_serve_reactor_accepted_total{reactor=\"1\"}");
    // 21 accepted so far (the /metrics one may not have counted itself yet)
    assert!(
        r0 + r1 >= 21.0,
        "per-reactor accepts must cover all connections: {r0} + {r1}"
    );
    handle.shutdown();
}

/// A port held by a plain listener cannot take an SO_REUSEPORT group, and
/// `start` says so instead of serving from fewer listeners.
#[test]
fn reuseport_group_on_a_held_port_is_a_start_error() {
    let held = TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let port = held.local_addr().expect("held addr").port();
    let config = ServerConfig {
        port,
        workers: 1,
        reactors: 2,
        ..ServerConfig::default()
    };
    match start(service(), config) {
        Ok(handle) => {
            handle.shutdown();
            panic!("a 2-reactor server started on a held port");
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
    }
}

/// Graceful drain: a request already dispatched to a worker when shutdown
/// begins still gets its response; idle connections close immediately, so
/// the whole drain finishes well under the deadline.
#[test]
fn shutdown_drains_inflight_request_before_teardown() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        reactors: 2,
        debug_endpoints: true,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // an idle keep-alive connection: owes nothing, must be closed promptly
    let mut idle = TcpStream::connect(addr).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // a request that will still be computing when shutdown starts
    let inflight = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /debug/sleep?ms=600 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        response
    });
    // let the request reach a worker before pulling the plug
    std::thread::sleep(Duration::from_millis(200));

    let begun = Instant::now();
    handle.shutdown();
    let took = begun.elapsed();

    let response = inflight.join().expect("inflight thread");
    assert!(response.contains("200"), "in-flight request dropped: {response:?}");
    assert!(response.contains("slept"), "{response:?}");
    // drain waited for the ~600ms sleep but nowhere near the 2s deadline
    assert!(took < Duration::from_millis(1900), "drain overshot: {took:?}");

    // the idle connection was closed by the drain, not left hanging
    let mut buf = [0u8; 16];
    let n = idle.read(&mut buf).expect("idle read after shutdown");
    assert_eq!(n, 0, "idle connection should see EOF");
}
