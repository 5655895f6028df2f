//! Open-loop load injection over loopback HTTP/1.1 keep-alive connections.
//!
//! The schedule is fixed before the first byte is sent. Slot `i` belongs
//! to connection `i % conns`; each connection sends its slots in order,
//! never before their due time, and a slot that falls due while its
//! connection still waits for an earlier answer goes out late. Latency is
//! timed from the slot's due time, so a stall is charged to every request
//! it delays; lateness (actual send minus due time) is recorded per slot.

use crate::rng::{Rng, Weighted};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one slot sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `GET /check?url=…` for universe URL `url`.
    Check { url: u32 },
    /// `POST /watch` registering `urls`.
    Watch { urls: Vec<u32> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Due time, nanoseconds after the schedule starts.
    pub due_ns: u64,
    pub op: Op,
}

/// Traffic shape of one open-loop phase.
pub struct Traffic<'a> {
    /// Poisson rate of `/check` requests.
    pub check_rate_hz: f64,
    /// Zipf weight of each universe URL.
    pub weights: &'a Weighted,
    /// One `POST /watch` every this many seconds…
    pub watch_every_s: f64,
    /// …registering this many URLs, taken in order from `watch_pool`.
    pub watch_batch: usize,
}

/// Build the schedule of one phase. `watch_pool` is consumed from its
/// front, so successive phases register distinct URLs.
pub fn schedule(
    rng: &mut Rng,
    traffic: &Traffic<'_>,
    seconds: f64,
    watch_pool: &mut std::collections::VecDeque<u32>,
) -> Vec<Slot> {
    let mut slots = Vec::new();
    let mut t = rng.exp_gap(traffic.check_rate_hz);
    while t < seconds {
        let url = traffic.weights.pick(rng) as u32;
        slots.push(Slot {
            due_ns: (t * 1e9) as u64,
            op: Op::Check { url },
        });
        t += rng.exp_gap(traffic.check_rate_hz);
    }
    let mut w = traffic.watch_every_s / 2.0;
    while w < seconds && watch_pool.len() >= traffic.watch_batch {
        let urls = watch_pool.drain(..traffic.watch_batch).collect();
        slots.push(Slot {
            due_ns: (w * 1e9) as u64,
            op: Op::Watch { urls },
        });
        w += traffic.watch_every_s;
    }
    slots.sort_by_key(|s| s.due_ns);
    slots
}

/// What happened to one slot.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status, or 0 when the exchange failed at the socket.
    pub status: u16,
    pub body: String,
}

impl Outcome {
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }

    /// Latency from the slot's due time.
    pub fn sched_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// Latency from the actual send.
    pub fn resp_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// Percent-encode everything outside the URL-unreserved set.
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

pub fn check_request(url: &str) -> Vec<u8> {
    format!(
        "GET /check?url={} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        encode_component(url)
    )
    .into_bytes()
}

pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

/// Let this thread's sleeps end as close to their deadline as the kernel
/// can: the default 50 µs timer slack would add to every slot's lateness.
fn tight_timer_slack() {
    // from <linux/prctl.h>
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is passed. A
    // failure leaves the default slack, which is still correct.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// The CPUs this process may run on (`sched_getaffinity`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    // a cpu_set_t of 1024 CPUs
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, correctly sized cpu_set_t the kernel only
    // writes into; pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Bind the calling thread, and the threads it starts afterwards, to
/// `cpu`. A refusal leaves the thread unpinned.
pub fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    if cpu >= 1024 {
        return;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized cpu_set_t the kernel only
    // reads; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request and read its whole response: `(status, body)`.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not utf-8"))?;
        Ok((status, body))
    }
}

/// Run `slots` against `addr` over `conns` connections, one thread each
/// (the calling thread drives connection 0). Outcomes come back in slot
/// order.
pub fn run(
    addr: SocketAddr,
    conns: usize,
    cpu: Option<usize>,
    slots: &[Slot],
    requests: &(dyn Fn(&Op) -> Vec<u8> + Sync),
) -> io::Result<Vec<Outcome>> {
    let conns = conns.max(1);
    let mut links = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let drive = |c: usize, conn: &mut Conn| -> Vec<(usize, Outcome)> {
        tight_timer_slack();
        if let Some(cpu) = cpu {
            pin_to_cpu(cpu);
        }
        let mut out = Vec::new();
        for (i, slot) in slots.iter().enumerate().skip(c).step_by(conns) {
            let request = requests(&slot.op);
            let due = Duration::from_nanos(slot.due_ns);
            let now = start.elapsed();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent_ns = start.elapsed().as_nanos() as u64;
            let (status, body) = match conn.exchange(&request) {
                Ok(answer) => answer,
                Err(_) => {
                    // a broken connection fails this slot only
                    if let Ok(fresh) = Conn::open(addr) {
                        *conn = fresh;
                    }
                    (0, String::new())
                }
            };
            let done_ns = start.elapsed().as_nanos() as u64;
            out.push((
                i,
                Outcome {
                    due_ns: slot.due_ns,
                    sent_ns,
                    done_ns,
                    status,
                    body,
                },
            ));
        }
        out
    };
    let mut parts = Vec::new();
    std::thread::scope(|scope| {
        let (first, rest) = links.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let drive = &drive;
                scope.spawn(move || drive(k + 1, conn))
            })
            .collect();
        parts.push(drive(0, first));
        for h in handles {
            parts.push(h.join().expect("injector thread panicked"));
        }
    });
    let mut all: Vec<(usize, Outcome)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, o)| o).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(seed: u64) -> Vec<Slot> {
        let weights = Weighted::new(&[1.0, 0.5, 0.25, 0.125]);
        let traffic = Traffic {
            check_rate_hz: 200.0,
            weights: &weights,
            watch_every_s: 0.5,
            watch_batch: 2,
        };
        let mut pool: std::collections::VecDeque<u32> = (0..6).collect();
        schedule(&mut Rng::new(seed), &traffic, 2.0, &mut pool)
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        assert_eq!(shape(3), shape(3));
        assert_ne!(shape(3), shape(4));
    }

    #[test]
    fn schedule_is_ordered_and_watch_urls_are_distinct() {
        let slots = shape(9);
        assert!(slots.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let watched: Vec<u32> = slots
            .iter()
            .filter_map(|s| match &s.op {
                Op::Watch { urls } => Some(urls.clone()),
                Op::Check { .. } => None,
            })
            .flatten()
            .collect();
        assert_eq!(watched, vec![0, 1, 2, 3, 4, 5]);
        let checks = slots.len() - 3;
        assert!(
            (300..500).contains(&checks),
            "{checks} checks for 400 expected"
        );
    }

    #[test]
    fn never_sends_early_and_times_from_due() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            for _ in 0..3 {
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                }
                reader
                    .get_mut()
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        let slots: Vec<Slot> = [5_000_000u64, 6_000_000, 30_000_000]
            .into_iter()
            .map(|due_ns| Slot {
                due_ns,
                op: Op::Check { url: 0 },
            })
            .collect();
        let out = run(addr, 1, None, &slots, &|_| get_request("/x")).unwrap();
        server.join().unwrap();
        for o in &out {
            assert_eq!((o.status, o.body.as_str()), (200, "ok"));
            assert!(o.sent_ns >= o.due_ns, "sent early");
            assert!(o.sched_ms() >= o.resp_ms());
        }
    }
}
