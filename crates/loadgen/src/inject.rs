//! The open-loop injector: fires a [`Schedule`](crate::schedule::Schedule)
//! at a live server and records per-request timing against the *schedule*,
//! not against when the bytes actually left.
//!
//! The schedule is partitioned across a dedicated pool of injector threads
//! by index (`i % threads`), which keeps every thread's sub-schedule
//! time-ordered and makes the partition itself deterministic. Each thread
//! sleeps until an entry's scheduled instant and then issues the request,
//! on a fresh connection or on its one kept-alive connection
//! ([`ConnMode`]). Crucially, a thread never *skips or reschedules* an
//! entry because the server is slow: if responses back up, subsequent
//! entries fire late, the lateness is recorded, and the schedule-based
//! latency of every delayed request includes the delay. That is the
//! anti-coordinated-omission contract:
//!
//! ```text
//! sched_latency  = completion − scheduled_send   (what a user experienced)
//! resp_latency   = completion − actual_send      (what the server saw)
//! lateness       = actual_send − scheduled_send  (injector-side queueing)
//! sched_latency  = resp_latency + lateness  ≥  resp_latency,  always
//! ```
//!
//! A closed-loop bench reports only `resp_latency` and silently drops the
//! lateness term; under a stall the two percentile curves diverge, and this
//! injector keeps both so the divergence is measurable.

use crate::schedule::{Op, Schedule};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How an injector thread uses connections. The schedule and the meaning
/// of every sample are the same in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnMode {
    /// A fresh connection per request, sent with `Connection: close`: every
    /// sample pays connection setup and teardown.
    #[default]
    Close,
    /// One HTTP/1.1 connection per injector thread, reused until the server
    /// answers `Connection: close` (as it does with every admission 503) or
    /// an exchange fails; the next entry then reconnects.
    KeepAlive,
}

/// Injector pool shape and timeouts.
#[derive(Debug, Clone)]
pub struct InjectorConfig {
    /// Dedicated injector threads. More threads = less self-induced
    /// lateness when responses are slow; the schedule itself never changes.
    pub threads: usize,
    pub mode: ConnMode,
    pub connect_timeout: Duration,
    pub read_timeout: Duration,
    /// A request whose lateness exceeds this missed its intended issue slot
    /// (reported as `missed_slots`).
    pub miss_tolerance: Duration,
}

impl Default for InjectorConfig {
    fn default() -> Self {
        InjectorConfig {
            threads: 4,
            mode: ConnMode::default(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            miss_tolerance: Duration::from_millis(1),
        }
    }
}

/// One fired request's timing and outcome.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the schedule said to fire, nanoseconds from run start.
    pub scheduled_nanos: u64,
    /// `actual_send − scheduled_send` (≥ 0: the injector never fires early).
    pub lateness_nanos: u64,
    /// `completion − scheduled_send` — the coordinated-omission-proof number.
    pub sched_latency_nanos: u64,
    /// `completion − actual_send` — what a closed-loop bench would report.
    pub resp_latency_nanos: u64,
    /// HTTP status, or 0 for a transport failure (connect/read error).
    pub status: u16,
    /// Phase label from the schedule entry (`check` / `watch`).
    pub phase: &'static str,
}

/// An injector thread's open connection, read through a buffer.
pub type Conn = BufReader<TcpStream>;

/// Longest response head line accepted; a longer one is a transport failure.
const MAX_HEAD_LINE: u64 = 8 * 1024;

fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn render_request(op: &Op, mode: ConnMode) -> Vec<u8> {
    let connection = match mode {
        ConnMode::Close => "Connection: close\r\n",
        ConnMode::KeepAlive => "",
    };
    match op {
        Op::Check { url } => format!(
            "GET /check?url={} HTTP/1.1\r\nHost: loadgen\r\n{connection}\r\n",
            percent_encode(url)
        ),
        Op::Watch { body } => format!(
            "POST /watch HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n{connection}\r\n{body}",
            body.len()
        ),
    }
    .into_bytes()
}

fn connect(addr: SocketAddr, cfg: &InjectorConfig) -> io::Result<Conn> {
    let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    Ok(BufReader::new(stream))
}

/// Read one CRLF-terminated head line into `line`.
fn head_line(conn: &mut Conn, line: &mut String) -> io::Result<()> {
    line.clear();
    conn.by_ref().take(MAX_HEAD_LINE).read_line(line)?;
    if !line.ends_with('\n') {
        // end of stream, or a line over the limit
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Write one request and read its response: the status line and headers,
/// then exactly `Content-Length` body bytes, which leaves the stream at the
/// next response. Returns the status and whether the server closes the
/// connection after this response.
fn exchange(conn: &mut Conn, payload: &[u8]) -> io::Result<(u16, bool)> {
    conn.get_mut().write_all(payload)?;
    let mut line = String::new();
    head_line(conn, &mut line)?;
    // "HTTP/1.1 200 OK"
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(io::ErrorKind::InvalidData)?;
    let (mut body_len, mut closes) = (0u64, false);
    loop {
        head_line(conn, &mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            body_len = value.parse().map_err(|_| io::ErrorKind::InvalidData)?;
        } else if name.eq_ignore_ascii_case("connection") {
            closes = value.eq_ignore_ascii_case("close");
        }
    }
    if io::copy(&mut conn.by_ref().take(body_len), &mut io::sink())? != body_len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((status, closes))
}

/// Issue one request and return its HTTP status, or 0 on any transport
/// failure (the sample still exists: failures are data). `conn` is the
/// calling thread's connection: opened when empty, kept for the next
/// request only in keep-alive mode while the server keeps it open, and
/// emptied after a failure so the next request reconnects.
pub fn issue(
    addr: SocketAddr,
    payload: &[u8],
    cfg: &InjectorConfig,
    conn: &mut Option<Conn>,
) -> u16 {
    let stream = match conn {
        Some(stream) => stream,
        None => match connect(addr, cfg) {
            Ok(stream) => conn.insert(stream),
            Err(_) => return 0,
        },
    };
    match exchange(stream, payload) {
        Ok((status, closes)) => {
            if closes || cfg.mode == ConnMode::Close {
                *conn = None;
            }
            status
        }
        Err(_) => {
            *conn = None;
            0
        }
    }
}

/// Fire the whole schedule at `addr` and return one [`Sample`] per entry,
/// ordered by scheduled time. Blocks until every entry has been fired and
/// answered (or failed).
pub fn fire(addr: SocketAddr, schedule: &Schedule, cfg: &InjectorConfig) -> Vec<Sample> {
    let threads = cfg.threads.max(1);
    let start = Instant::now();
    let mut partitions: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let requests = &schedule.requests;
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(requests.len() / threads + 1);
                    let mut conn = None;
                    for entry in requests.iter().skip(worker).step_by(threads) {
                        let due = Duration::from_nanos(entry.at_nanos);
                        // sleep to the scheduled instant; if we're already
                        // past it (server slowness backed this thread up),
                        // fire immediately and record the lateness
                        let now = start.elapsed();
                        if let Some(wait) = due.checked_sub(now) {
                            std::thread::sleep(wait);
                        }
                        let payload = render_request(&entry.op, cfg.mode);
                        let sent = start.elapsed();
                        let status = issue(addr, &payload, &cfg, &mut conn);
                        let done = start.elapsed();
                        samples.push(Sample {
                            scheduled_nanos: entry.at_nanos,
                            lateness_nanos: (sent.as_nanos() as u64).saturating_sub(entry.at_nanos),
                            sched_latency_nanos: (done.as_nanos() as u64)
                                .saturating_sub(entry.at_nanos),
                            resp_latency_nanos: (done - sent).as_nanos() as u64,
                            status,
                            phase: entry.op.phase(),
                        });
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("injector thread")).collect()
    });
    let mut all: Vec<Sample> = partitions.drain(..).flatten().collect();
    all.sort_by_key(|s| s.scheduled_nanos);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ArrivalProcess, Schedule, ScheduleSpec};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const MODES: [ConnMode; 2] = [ConnMode::Close, ConnMode::KeepAlive];

    /// An HTTP/1.1 stub with `Content-Length` framing. Each connection is
    /// served on its own thread and every response costs `delay_ms` of
    /// service time. A connection stays open unless the request says
    /// `Connection: close` or it has served `close_every` responses; the
    /// last response then carries `Connection: close` and the stub hangs
    /// up. Returns the address and the count of accepted connections.
    fn stub_server(delay_ms: u64, close_every: Option<usize>) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                count.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || serve_stub_conn(stream, delay_ms, close_every));
            }
        });
        (addr, accepted)
    }

    fn serve_stub_conn(stream: TcpStream, delay_ms: u64, close_every: Option<usize>) {
        let mut conn = BufReader::new(stream);
        let mut line = String::new();
        for served in 1.. {
            let (mut body_len, mut client_closes) = (0u64, false);
            loop {
                line.clear();
                if conn.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let header = line.trim_end();
                if header.is_empty() {
                    break;
                }
                if let Some((name, value)) = header.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        body_len = value.trim().parse().unwrap_or(0);
                    } else if name.eq_ignore_ascii_case("connection") {
                        client_closes = value.trim().eq_ignore_ascii_case("close");
                    }
                }
            }
            let _ = io::copy(&mut conn.by_ref().take(body_len), &mut io::sink());
            if delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            let closes = client_closes || close_every.is_some_and(|n| served % n == 0);
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: {}\r\n\r\nok",
                if closes { "close" } else { "keep-alive" }
            );
            if conn.get_mut().write_all(response.as_bytes()).is_err() || closes {
                return;
            }
        }
    }

    fn tiny_schedule(rate_hz: f64, duration_secs: f64) -> Schedule {
        let universe = vec![("http://a.example/x".to_string(), 1)];
        Schedule::generate(
            &ScheduleSpec {
                process: ArrivalProcess::FixedRate { rate_hz },
                duration_secs,
                seed: 9,
                ..ScheduleSpec::default()
            },
            &universe,
        )
    }

    #[test]
    fn every_entry_is_fired_and_sampled_once() {
        for mode in MODES {
            let (addr, _) = stub_server(0, None);
            let schedule = tiny_schedule(100.0, 0.3);
            let samples = fire(
                addr,
                &schedule,
                &InjectorConfig { threads: 3, mode, ..InjectorConfig::default() },
            );
            assert_eq!(samples.len(), schedule.len(), "{mode:?}: open loop drops nothing");
            assert!(samples.iter().all(|s| s.status == 200), "{mode:?}: stub always answers 200");
            // per-request invariant: schedule-based latency dominates
            for s in &samples {
                assert_eq!(s.sched_latency_nanos, s.resp_latency_nanos + s.lateness_nanos);
            }
            // merged output is ordered by schedule, not completion
            assert!(samples.windows(2).all(|w| w[0].scheduled_nanos <= w[1].scheduled_nanos));
        }
    }

    #[test]
    fn server_stall_shows_up_as_lateness_not_omission() {
        // 25ms sequential service vs 10ms offered inter-arrival on ONE
        // injector thread: the queue grows, every later request fires
        // later, and the schedule-based view keeps the whole backlog.
        for mode in MODES {
            let (addr, _) = stub_server(25, None);
            let schedule = tiny_schedule(100.0, 0.25);
            let samples = fire(
                addr,
                &schedule,
                &InjectorConfig { threads: 1, mode, ..InjectorConfig::default() },
            );
            assert_eq!(samples.len(), schedule.len());
            let mut sched: Vec<u64> = samples.iter().map(|s| s.sched_latency_nanos).collect();
            let mut resp: Vec<u64> = samples.iter().map(|s| s.resp_latency_nanos).collect();
            sched.sort_unstable();
            resp.sort_unstable();
            let p99 = |v: &[u64]| v[(v.len() * 99 / 100).min(v.len() - 1)];
            // response-based p99 ~25ms; schedule-based p99 carries the queueing
            // delay (last request is ~15 service times behind schedule)
            assert!(
                p99(&sched) > p99(&resp) * 3,
                "{mode:?}: stall hidden: sched p99 {} vs resp p99 {}",
                p99(&sched),
                p99(&resp)
            );
            let late = samples.iter().filter(|s| s.lateness_nanos > 1_000_000).count();
            assert!(late > samples.len() / 2, "{mode:?}: most requests should fire late, got {late}");
        }
    }

    #[test]
    fn transport_failures_become_status_zero_samples() {
        // a bound-then-dropped listener: connections are refused
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let schedule = tiny_schedule(200.0, 0.05);
        for mode in MODES {
            let samples = fire(addr, &schedule, &InjectorConfig { mode, ..InjectorConfig::default() });
            assert_eq!(samples.len(), schedule.len(), "{mode:?}: failures are samples, not gaps");
            assert!(samples.iter().all(|s| s.status == 0), "{mode:?}");
        }
    }

    #[test]
    fn keep_alive_holds_one_connection_per_thread() {
        let (addr, accepted) = stub_server(0, None);
        let schedule = tiny_schedule(200.0, 0.3);
        let cfg = InjectorConfig { threads: 3, mode: ConnMode::KeepAlive, ..InjectorConfig::default() };
        let samples = fire(addr, &schedule, &cfg);
        assert!(samples.iter().all(|s| s.status == 200));
        let conns = accepted.load(Ordering::SeqCst);
        assert!(
            (1..=cfg.threads).contains(&conns),
            "{conns} connections for {} requests from {} threads",
            samples.len(),
            cfg.threads
        );
    }

    #[test]
    fn keep_alive_reconnects_after_the_server_closes() {
        // every third response on a connection says `Connection: close` and
        // the stub hangs up: a thread that kept writing to that connection
        // would read end-of-stream (a transport failure), and one that
        // never reconnected would fail every later entry
        let (addr, accepted) = stub_server(0, Some(3));
        let schedule = tiny_schedule(200.0, 0.3);
        let cfg = InjectorConfig {
            threads: 2,
            mode: ConnMode::KeepAlive,
            read_timeout: Duration::from_secs(2),
            ..InjectorConfig::default()
        };
        let samples = fire(addr, &schedule, &cfg);
        assert_eq!(samples.len(), schedule.len());
        // a thread stuck on a dead connection waits out the read timeout
        // and records a failure too
        let failed = samples.iter().filter(|s| s.status != 200).count();
        assert_eq!(failed, 0, "server closes cost {failed} transport failures");
        assert!(accepted.load(Ordering::SeqCst) >= samples.len() / 3, "closed connections were reopened");
    }
}
