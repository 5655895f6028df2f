//! The reactor answers verdict-cache hits itself. A cached `/check` never
//! waits for a worker: it is answered even while the worker queue is full,
//! it is counted exactly once, and on a pipelined keep-alive connection it
//! keeps its place among requests the workers answer.

use permadead::serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
use permadead::sim::ScenarioConfig;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spawn(config: ServerConfig) -> ServerHandle {
    let cfg = ScenarioConfig {
        rot_links: 40,
        ..ScenarioConfig::small(7)
    };
    start(AuditService::new(cfg, CacheConfig::default()), config).expect("server starts")
}

fn check_path(url: &str) -> String {
    let mut encoded = String::new();
    for b in url.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                encoded.push(b as char)
            }
            _ => encoded.push_str(&format!("%{b:02X}")),
        }
    }
    format!("/check?url={encoded}")
}

fn get_request(path: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n{connection}\r\n")
}

/// One response off a keep-alive stream: (status code, head, body).
fn read_response(reader: &mut impl BufRead) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read head") > 0,
            "early close"
        );
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head[9..12].parse().expect("status code");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

/// One request on a fresh connection.
fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(get_request(path, true).as_bytes())
        .expect("write");
    read_response(&mut BufReader::new(stream))
}

fn metric(body: &str, series: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no series {series}"))
}

fn cached(body: &str) -> bool {
    assert!(body.ends_with("}"), "{body}");
    body.ends_with(",\"cached\":true}")
}

/// Admission control refuses only work that needs a worker. With the one
/// worker asleep and the one queue slot taken, a `/check` answered earlier
/// still gets its verdict (the reactor answers it from the cache) while a
/// fresh `/check` gets the 503. Every request the reactor did not answer
/// itself, from the cache or with a 503, went through the worker queue.
#[test]
fn a_cached_check_is_answered_while_the_worker_queue_is_full() {
    let server = spawn(ServerConfig {
        workers: 1,
        queue_cap: 1,
        debug_endpoints: true,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let urls = server.service().sample_urls(2);
    let (warm, fresh) = (check_path(&urls[0]), check_path(&urls[1]));
    let (mut sent, mut from_cache, mut refused) = (0u64, 0u64, 0u64);

    let (status, _, body) = get(addr, &warm);
    sent += 1;
    assert_eq!(status, 200);
    assert!(!cached(&body), "first query must be a miss: {body}");

    // occupy the one worker...
    let mut sleeper = TcpStream::connect(addr).expect("connect");
    sleeper
        .write_all(get_request("/debug/sleep?ms=4000", true).as_bytes())
        .expect("write");
    sent += 1;
    // ...and take the one queue slot behind it. Until the worker has taken
    // the sleeper off the queue the filler is refused, so retry until one
    // waits unanswered.
    let filler = loop {
        std::thread::sleep(Duration::from_millis(50));
        let mut filler = TcpStream::connect(addr).expect("connect");
        filler
            .write_all(get_request("/healthz", true).as_bytes())
            .expect("write");
        sent += 1;
        filler
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut answer = String::new();
        match filler.read_to_string(&mut answer) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                assert!(answer.is_empty(), "a queued filler was answered: {answer}");
                filler.set_read_timeout(None).unwrap();
                break filler;
            }
            Ok(_) => {
                assert!(answer.starts_with("HTTP/1.1 503"), "{answer}");
                refused += 1;
            }
            Err(e) => panic!("filler read: {e}"),
        }
    };

    let (status, _, body) = get(addr, &warm);
    sent += 1;
    from_cache += 1;
    assert_eq!(
        status, 200,
        "a cached /check waited for the full queue: {body}"
    );
    assert!(cached(&body), "{body}");

    let (status, head, _) = get(addr, &fresh);
    sent += 1;
    refused += 1;
    assert_eq!(status, 503, "a fresh /check needs a worker");
    assert!(head.contains("Retry-After: "), "{head}");

    for stream in [sleeper, filler] {
        let (status, _, _) = read_response(&mut BufReader::new(stream));
        assert_eq!(status, 200);
    }
    let (_, _, metrics) = get(addr, "/metrics");
    sent += 1;
    assert_eq!(
        metric(
            &metrics,
            "permadead_serve_reactor_dispatched_total{reactor=\"0\"}"
        ),
        sent - from_cache - refused
    );
    assert_eq!(
        metric(&metrics, "permadead_requests_total{endpoint=\"check\"}"),
        2
    );
    assert_eq!(metric(&metrics, "permadead_cache_hits_total"), 1);
    assert_eq!(metric(&metrics, "permadead_cache_misses_total"), 1);
    assert_eq!(metric(&metrics, "permadead_rejected_total"), refused);
    server.shutdown();
}

/// A hit, a miss and a hit, pipelined in one write on one keep-alive
/// connection, come back in request order: the reactor answers the first,
/// parks the connection while a worker answers the second, and answers the
/// third once the second is written.
#[test]
fn pipelined_hit_miss_hit_keeps_request_order() {
    let server = spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let urls = server.service().sample_urls(2);
    let (status, _, body) = get(addr, &check_path(&urls[0]));
    assert_eq!(status, 200);
    assert!(!cached(&body));

    let order = [&urls[0], &urls[1], &urls[0]];
    let pipelined: String = order
        .iter()
        .enumerate()
        .map(|(i, url)| get_request(&check_path(url), i == order.len() - 1))
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(pipelined.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    let mut flags = Vec::new();
    for url in order {
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains(&format!("\"url\":\"{url}\"")),
            "out of order: {body}"
        );
        flags.push(cached(&body));
    }
    assert_eq!(flags, [true, false, true]);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "bytes after Connection: close");

    let stats = server.service().cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 2));
    server.shutdown();
}

/// Thousands of cached `/check`s pipelined in one write are answered one
/// after another on the reactor thread, in order, without growing its stack
/// per answer, and the server keeps serving afterwards.
#[test]
fn a_long_pipelined_run_of_cached_checks_is_answered_in_full() {
    const RUN: usize = 10_000;
    let server = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    // a short URL keeps the run's bytes small; the wiki never saw it, so
    // its verdict is computed (and cached) like any other
    let path = "/check?url=http://a.example/";
    let (status, _, body) = get(addr, path);
    assert_eq!(status, 200, "{body}");

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let run = get_request(path, false).repeat(RUN);
    let mut writer = stream.try_clone().expect("clone");
    let sender = std::thread::spawn(move || writer.write_all(run.as_bytes()));
    let mut reader = BufReader::new(stream);
    for i in 0..RUN {
        let (status, _, body) = read_response(&mut reader);
        assert!(
            status == 200 && cached(&body),
            "answer {i}: {status} {body}"
        );
    }
    sender.join().expect("sender").expect("write");

    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "permadead_cache_hits_total"), RUN as u64);
    assert_eq!(
        metric(&metrics, "permadead_requests_total{endpoint=\"check\"}"),
        RUN as u64 + 1
    );
    server.shutdown();
}
