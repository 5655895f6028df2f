//! End-to-end tests for the event-driven reactor: the failure modes that
//! killed (or silently degraded) the old thread-per-connection server.
//!
//! - slow-loris drippers must not delay normal clients (no worker is ever
//!   blocked on socket I/O, so there is no head-of-line blocking and no
//!   need for the old 5s read timeout);
//! - thousands of idle connections are just slab entries, not threads;
//! - a client that reads one byte and stalls holds a buffer — and when it
//!   dies, the undelivered response is counted, not lost silently;
//! - HTTP/1.1 keep-alive and pipelining work over a single connection;
//! - hostile request framing gets a clean 400/413 response, never a drop;
//! - `--port 0` reports the kernel-assigned address.

use permadead_serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
use permadead_sim::ScenarioConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{get, metric_value, request};

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    let service = AuditService::new(cfg, CacheConfig::default());
    start(service, config).expect("server starts")
}

/// 64 slow-loris connections drip header bytes while a burst of normal
/// clients runs; the burst must complete promptly. Under the old server
/// each dripper pinned a pool thread for up to the 5s read timeout, so 64
/// of them starved everyone; under the reactor they are 64 slab entries.
#[test]
fn slow_loris_drippers_do_not_starve_normal_clients() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut drippers: Vec<TcpStream> = (0..64)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("dripper connect");
            s.write_all(b"G").expect("first byte");
            s
        })
        .collect();
    // keep dripping roughly a byte per second per connection in the
    // background so every socket stays active (not just idle) for the
    // whole burst
    let stop = Arc::new(AtomicBool::new(false));
    let drip_stop = stop.clone();
    let dripper_thread = std::thread::spawn(move || {
        let header = b"ET /healthz HTTP/1.1\r\n";
        for byte in header {
            if drip_stop.load(Ordering::SeqCst) {
                break;
            }
            for s in &mut drippers {
                let _ = s.write_all(&[*byte]);
            }
            std::thread::sleep(Duration::from_millis(300));
        }
        drippers // keep them open until the burst is done
    });

    // the burst: 200 sequential requests, all while the drippers hold
    // their 64 connections mid-header
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let (status, _, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stop.store(true, Ordering::SeqCst);
    let drippers = dripper_thread.join().expect("dripper thread");

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = latencies_ms[(latencies_ms.len() * 99) / 100 - 1];
    // generous for CI noise; the point is "milliseconds, not the seconds a
    // blocked-pool server would show"
    assert!(p99 < 500.0, "p99 {p99:.1}ms under slow-loris load");

    // the drippers were never answered and never dropped: still open
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metric_value(&metrics, "permadead_serve_open_connections") >= 64.0,
        "drippers were dropped:\n{metrics}"
    );
    drop(drippers);
    handle.shutdown();
}

/// Thousands of concurrent idle connections: each holds a slab slot and a
/// few bytes of buffer. (The 10k-across-two-processes version runs in
/// scripts/check.sh via `serve-probe --flood`; in-process both ends share
/// one fd table, so this caps at 5000 = 10k fds.)
#[test]
fn five_thousand_concurrent_connections_are_cheap() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    const N: usize = 5000;
    let mut held = Vec::with_capacity(N);
    for i in 0..N {
        match TcpStream::connect(addr) {
            Ok(mut s) => {
                s.write_all(b"GET /healthz HT").expect("partial write");
                held.push(s);
            }
            Err(e) => panic!("connect #{i} failed: {e}"),
        }
    }

    // give the reactor a moment to accept the tail of the flood, then
    // prove a fresh request still goes straight through
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, metrics) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        let open = metric_value(&metrics, "permadead_serve_open_connections");
        if open >= N as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {open} of {N} connections accepted"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let t = Instant::now();
    let (status, _, body) = get(addr, "/healthz");
    let elapsed = t.elapsed();
    assert!(status.contains("200"), "{status}");
    assert!(body.contains(&format!("\"conns\":{N}")) || body.contains("\"conns\":"), "{body}");
    assert!(
        elapsed < Duration::from_secs(2),
        "/healthz took {elapsed:?} with {N} connections held"
    );

    drop(held);
    handle.shutdown();
}

/// A client that reads one byte of a multi-megabyte response and then dies:
/// the connection must be torn down and the undelivered response counted in
/// `permadead_serve_write_aborted_total` — under the old 250ms write
/// timeout this was indistinguishable from success or silently dropped.
#[test]
fn stalled_reader_death_counts_an_aborted_write() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        max_batch: 4096,
        // without this the kernel's send-buffer autotuning absorbs the whole
        // multi-megabyte response and the write never blocks at all
        sndbuf: Some(16 * 1024),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // ~1.7MB response: 3000 copies of a long unknown URL (cache makes the
    // repeats cheap; the point is the byte count, far beyond what a 16KB
    // send buffer plus the client's stalled receive window will hold)
    let url = format!("http://unknown.example.org/{}", "x".repeat(220));
    let body: String = vec![url.as_str(); 3000].join("\n");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        )
        .expect("write request");

    // read exactly one byte — the response is coming — then stall
    let mut one = [0u8; 1];
    stream.read_exact(&mut one).expect("first byte");
    assert_eq!(one[0], b'H');
    std::thread::sleep(Duration::from_millis(700));
    // die with megabytes unread: the kernel answers the server's next
    // write with a reset
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, metrics) = get(addr, "/metrics");
        if metric_value(&metrics, "permadead_serve_write_aborted_total") >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "aborted write never counted:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    handle.shutdown();
}

/// HTTP/1.1 keep-alive: several requests over one connection, including two
/// pipelined in a single write. The old server closed after every response.
#[test]
fn keep_alive_serves_sequential_and_pipelined_requests() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let read_one_response = |stream: &mut TcpStream| -> (String, String) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).expect("read head"), 1, "early close");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("content-length");
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).expect("read body");
        (head, String::from_utf8(body).unwrap())
    };

    // three sequential requests on the same connection
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let (head, body) = read_one_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.to_ascii_lowercase().contains("connection: keep-alive"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    }

    // two pipelined in one write; both answered in order
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .expect("pipeline write");
    let (head, _) = read_one_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let (head, body) = read_one_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.to_ascii_lowercase().contains("connection: close"), "{head}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    // `Connection: close` honored: the stream now EOFs
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "bytes after close: {rest:?}");

    handle.shutdown();
}

/// Hostile framing gets an answer, never a silent drop: duplicate
/// Content-Length (request smuggling's favorite shape), non-numeric and
/// signed lengths, oversized declared bodies, garbage header lines.
#[test]
fn hostile_framing_gets_clean_errors_over_the_wire() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // duplicate Content-Length — even two agreeing copies
    let (status, _, body) = request(
        addr,
        "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
    );
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("malformed"), "{body}");

    // non-numeric / signed lengths
    for cl in ["abc", "-1", "+4", "4x"] {
        let (status, _, _) = request(
            addr,
            &format!("POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {cl}\r\nConnection: close\r\n\r\nabcd"),
        );
        assert!(status.contains("400"), "Content-Length: {cl} → {status}");
    }

    // a declared body over the 1MB cap → 413 up front, no buffering
    let (status, _, _) = request(
        addr,
        "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("413"), "{status}");

    // a header line with no colon
    let (status, _, _) = request(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nnot a header line\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("400"), "{status}");

    // all four shapes surfaced as 4xx in metrics, none as drops
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metric_value(&metrics, "permadead_responses_total{class=\"4xx\"}") >= 7.0,
        "{metrics}"
    );
    handle.shutdown();
}

/// `port: 0` must expose the kernel-assigned bound address — the handle's
/// `addr()` is the source of truth every test and script connects to.
#[test]
fn port_zero_reports_the_kernel_assigned_address() {
    let handle = spawn_server(ServerConfig {
        port: 0,
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    assert_ne!(addr.port(), 0, "addr() must carry the bound port, not the requested 0");
    let (status, _, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    handle.shutdown();
}
