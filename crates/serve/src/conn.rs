//! The per-connection read/write state machine the reactor drives.
//!
//! Each accepted socket owns a [`Conn`]: an accumulating read buffer fed
//! through the incremental parser in [`crate::wire`], and a write buffer
//! with an explicit offset so a response survives any number of partial
//! (`EAGAIN`) writes. The reactor calls [`Conn::read_step`] /
//! [`Conn::write_step`] on readiness and interprets the returned step —
//! this module never touches epoll, which keeps the state machine testable
//! over any `Read + Write` (the unit tests drive it with a scripted stream
//! that blocks and dies on command).
//!
//! The state ladder, one request at a time:
//!
//! ```text
//!          bytes               complete request, taken by a worker
//! Reading ───────► Reading ───────────────────────────────────► Dispatched
//!    ▲              │    │                                          │
//!    │              │    │ a /check the verdict cache answers       │ worker done
//!    │              │    └───────────────────────────────┐          │
//!    │              │ parse error / EOF / overload        ▼          ▼
//!    │              ▼                                 Writing{close_after}
//!    │       Writing{close_after:true}                        │
//!    │              │                                         ▼ flushed
//!    │              ▼ flushed                keep-alive: back to Reading ──┐
//!    │            close                                                    │
//!    └─────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A parsed request leaves the connection in `Reading`; the reactor moves
//! it on. A cached `/check` goes from `Reading` straight to `Writing` on
//! the reactor thread, and only a request a worker takes is `Dispatched`.
//! A stalled client therefore holds exactly one buffer and one fd — never
//! a worker thread.

use crate::wire::{parse_request, HttpRequest, Parse, WireError, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

/// Upper bound on unparsed bytes buffered from one connection: one maximal
/// request plus one maximal pipelined follow-up's headers. The parser flags
/// anything that can never become a valid request long before this.
const READ_BUF_CAP: usize = MAX_HEADER_BYTES + MAX_BODY_BYTES + MAX_HEADER_BYTES;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Accumulating request bytes; interested in readability.
    Reading,
    /// A complete request is with the worker pool; no socket interest
    /// (errors and hangups still surface through the poll).
    Dispatched,
    /// Flushing `write_buf`; interested in writability.
    Writing { close_after: bool },
}

/// One connection: socket, buffers, and the state ladder.
pub struct Conn<S> {
    pub stream: S,
    /// Slab generation at insert; completions carry it so a worker's
    /// response can never land on a recycled slot's new occupant.
    pub generation: u64,
    /// Bytes read off the socket; those before `read_pos` are parsed.
    /// Parsing moves the offset, and the parsed bytes are dropped once per
    /// [`Conn::read_step`] and whenever the buffer empties, so a run of
    /// pipelined requests never moves the bytes behind each one.
    read_buf: Vec<u8>,
    read_pos: usize,
    write_buf: Vec<u8>,
    written: usize,
    pub state: ConnState,
    /// Set when a request is parsed; the latency sample runs from here to
    /// the response's final flushed byte.
    pub started: Option<Instant>,
    /// Peer sent FIN: serve what is buffered, then close instead of
    /// returning to `Reading`.
    saw_eof: bool,
}

/// What a readiness-driven read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStep {
    /// Nothing actionable yet; stay readable.
    More,
    /// A complete request was parsed and consumed from the buffer.
    Request(HttpRequest),
    /// The bytes can never become a request; answer `err.status()` and close.
    Bad(WireError),
    /// Peer closed cleanly with an empty buffer — just close.
    Closed,
}

/// What a readiness-driven write produced.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteStep {
    /// Every queued byte is flushed.
    Done,
    /// Socket back-pressure with bytes still queued; stay writable.
    Blocked,
    /// The connection died mid-response: `.0` bytes were never delivered.
    Aborted(usize),
}

impl<S: Read + Write> Conn<S> {
    pub fn new(stream: S, generation: u64) -> Conn<S> {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            written: 0,
            state: ConnState::Reading,
            started: None,
            saw_eof: false,
        }
    }

    /// Pull every available byte off the socket (until `EAGAIN`, EOF, or
    /// the buffer cap), then try to parse. Call on readable readiness in
    /// [`ConnState::Reading`].
    pub fn read_step(&mut self) -> ReadStep {
        self.read_buf.drain(..self.read_pos);
        self.read_pos = 0;
        let mut chunk = [0u8; 8 * 1024];
        while self.read_buf.len() < READ_BUF_CAP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.saw_eof = true;
                    break;
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // reset / hard error: nothing to answer to
                Err(_) => return ReadStep::Closed,
            }
        }
        self.try_parse()
    }

    /// Attempt to parse a request from the already-buffered bytes (also the
    /// keep-alive path: a pipelined next request may be sitting in the
    /// buffer before any new readiness arrives).
    pub fn try_parse(&mut self) -> ReadStep {
        match parse_request(&self.read_buf[self.read_pos..]) {
            Parse::Complete { request, consumed } => {
                // consume exactly the request's bytes; a pipelined
                // follow-up stays buffered for the next cycle
                self.read_pos += consumed;
                if self.read_pos == self.read_buf.len() {
                    self.read_buf.clear();
                    self.read_pos = 0;
                }
                self.started = Some(Instant::now());
                ReadStep::Request(request)
            }
            Parse::Bad(e) => ReadStep::Bad(e),
            Parse::Incomplete => {
                let unparsed = self.read_buf.len() - self.read_pos;
                if self.saw_eof {
                    if unparsed == 0 {
                        ReadStep::Closed
                    } else {
                        // half a request then FIN: malformed
                        ReadStep::Bad(WireError::BadRequest)
                    }
                } else if unparsed >= READ_BUF_CAP {
                    ReadStep::Bad(WireError::TooLarge)
                } else {
                    ReadStep::More
                }
            }
        }
    }

    /// Queue `bytes` as the response and enter `Writing`.
    pub fn queue_response(&mut self, bytes: Vec<u8>, close_after: bool) {
        self.write_buf = bytes;
        self.written = 0;
        self.state = ConnState::Writing {
            close_after: close_after || self.saw_eof,
        };
    }

    /// Push queued bytes at the socket until done or blocked, tracking the
    /// offset across calls — the partial-write bug the blocking path's
    /// `write_all` + write-timeout combination used to hide by silently
    /// truncating the response.
    pub fn write_step(&mut self) -> WriteStep {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return WriteStep::Aborted(self.write_buf.len() - self.written),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteStep::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return WriteStep::Aborted(self.write_buf.len() - self.written),
            }
        }
        let _ = self.stream.flush();
        WriteStep::Done
    }

    /// After a fully flushed response on a keep-alive connection: clear the
    /// response state and return to `Reading` for the next request.
    pub fn reset_for_next_request(&mut self) {
        self.write_buf = Vec::new();
        self.written = 0;
        self.started = None;
        self.state = ConnState::Reading;
    }

    /// Bytes queued but not yet flushed (0 when idle).
    pub fn unwritten(&self) -> usize {
        self.write_buf.len() - self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io;

    /// A stream whose behaviour is scripted per call: the read side serves
    /// chunks then EOF/EAGAIN, the write side accepts a few bytes at a
    /// time, blocks, or dies — the loopback failure modes, determinized.
    #[derive(Default)]
    struct Scripted {
        reads: VecDeque<io::Result<Vec<u8>>>,
        writes: VecDeque<io::Result<usize>>,
        sink: Vec<u8>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Ok(mut bytes)) => {
                    // a chunk larger than the caller's buffer is served
                    // across reads, as a socket would
                    if bytes.len() > buf.len() {
                        let rest = bytes.split_off(buf.len());
                        self.reads.push_front(Ok(rest));
                    }
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Err(io::Error::from(ErrorKind::WouldBlock)),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.writes.pop_front() {
                Some(Ok(n)) => {
                    let n = n.min(buf.len());
                    self.sink.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Err(io::Error::from(ErrorKind::WouldBlock)),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn wouldblock() -> io::Error {
        io::Error::from(ErrorKind::WouldBlock)
    }

    #[test]
    fn drip_fed_request_assembles_across_reads() {
        let mut conn = Conn::new(Scripted::default(), 0);
        let raw = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        // one byte per readiness event, like a slow-loris that eventually
        // finishes
        for &b in &raw[..raw.len() - 1] {
            conn.stream.reads.push_back(Ok(vec![b]));
            conn.stream.reads.push_back(Err(wouldblock()));
            assert_eq!(conn.read_step(), ReadStep::More);
            assert_eq!(conn.state, ConnState::Reading);
        }
        conn.stream.reads.push_back(Ok(vec![raw[raw.len() - 1]]));
        match conn.read_step() {
            ReadStep::Request(req) => assert_eq!(req.path, "/healthz"),
            other => panic!("expected request, got {other:?}"),
        }
        // the reactor, not the parse, moves the connection on: to
        // `Dispatched` when a worker takes the request, straight to
        // `Writing` when it answers from the verdict cache
        assert_eq!(conn.state, ConnState::Reading);
        assert!(conn.started.is_some());
    }

    #[test]
    fn partial_writes_track_offset_and_deliver_everything() {
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.queue_response(b"HTTP/1.1 200 OK\r\n\r\nhello world".to_vec(), true);
        // the socket takes 5 bytes, blocks, takes 7, blocks, then the rest
        conn.stream.writes.push_back(Ok(5));
        conn.stream.writes.push_back(Err(wouldblock()));
        assert_eq!(conn.write_step(), WriteStep::Blocked);
        assert_eq!(conn.unwritten(), 25);
        conn.stream.writes.push_back(Ok(7));
        conn.stream.writes.push_back(Err(wouldblock()));
        assert_eq!(conn.write_step(), WriteStep::Blocked);
        conn.stream.writes.push_back(Ok(usize::MAX)); // take the rest
        assert_eq!(conn.write_step(), WriteStep::Done);
        assert_eq!(conn.unwritten(), 0);
        assert_eq!(conn.stream.sink, b"HTTP/1.1 200 OK\r\n\r\nhello world");
    }

    #[test]
    fn dead_socket_mid_write_reports_undelivered_bytes() {
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.queue_response(vec![b'x'; 100], true);
        conn.stream.writes.push_back(Ok(30));
        conn.stream.writes.push_back(Err(io::Error::from(ErrorKind::ConnectionReset)));
        match conn.write_step() {
            WriteStep::Aborted(undelivered) => assert_eq!(undelivered, 70),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_cycle_serves_pipelined_request_from_buffer() {
        let mut conn = Conn::new(Scripted::default(), 0);
        // two pipelined requests arrive in one read
        conn.stream
            .reads
            .push_back(Ok(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec()));
        match conn.read_step() {
            ReadStep::Request(req) => assert_eq!(req.path, "/a"),
            other => panic!("{other:?}"),
        }
        conn.queue_response(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n".to_vec(), false);
        conn.stream.writes.push_back(Ok(usize::MAX));
        assert_eq!(conn.write_step(), WriteStep::Done);
        conn.reset_for_next_request();
        // the second request is already buffered — no new readiness needed
        match conn.try_parse() {
            ReadStep::Request(req) => assert_eq!(req.path, "/b"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn long_pipelined_run_parses_in_order_and_leaves_nothing_buffered() {
        let mut conn = Conn::new(Scripted::default(), 0);
        let n = 10_000;
        let raw: String = (0..n)
            .map(|i| format!("GET /r{i} HTTP/1.1\r\n\r\n"))
            .collect();
        conn.stream.reads.push_back(Ok(raw.into_bytes()));
        let mut paths = Vec::new();
        let mut step = conn.read_step();
        while let ReadStep::Request(req) = step {
            paths.push(req.path);
            step = conn.try_parse();
        }
        assert_eq!(step, ReadStep::More);
        assert!(paths
            .iter()
            .enumerate()
            .all(|(i, p)| *p == format!("/r{i}")));
        assert_eq!(paths.len(), n);
        assert!(
            conn.read_buf.is_empty() && conn.read_pos == 0,
            "nothing buffered"
        );

        // a request cut across two reads: the parsed bytes before it are
        // dropped by the next read, and its head is kept
        conn.stream
            .reads
            .push_back(Ok(b"GET /a HTTP/1.1\r\n\r\nGET /b HT".to_vec()));
        assert!(matches!(conn.read_step(), ReadStep::Request(req) if req.path == "/a"));
        assert_eq!(conn.try_parse(), ReadStep::More);
        conn.stream.reads.push_back(Ok(b"TP/1.1\r\n\r\n".to_vec()));
        assert!(matches!(conn.read_step(), ReadStep::Request(req) if req.path == "/b"));
        assert!(conn.read_buf.is_empty() && conn.read_pos == 0);
    }

    #[test]
    fn eof_paths() {
        // clean close, nothing buffered
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.stream.reads.push_back(Ok(vec![]));
        assert_eq!(conn.read_step(), ReadStep::Closed);

        // half a request then FIN → 400
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.stream.reads.push_back(Ok(b"GET / HT".to_vec()));
        conn.stream.reads.push_back(Ok(vec![]));
        assert_eq!(conn.read_step(), ReadStep::Bad(WireError::BadRequest));

        // full request then FIN → served, but the response must close even
        // though HTTP/1.1 would default to keep-alive
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.stream.reads.push_back(Ok(b"GET /a HTTP/1.1\r\n\r\n".to_vec()));
        conn.stream.reads.push_back(Ok(vec![]));
        match conn.read_step() {
            ReadStep::Request(req) => assert!(req.keep_alive),
            other => panic!("{other:?}"),
        }
        conn.queue_response(b"x".to_vec(), false);
        assert_eq!(conn.state, ConnState::Writing { close_after: true });
    }

    #[test]
    fn hostile_bytes_map_to_wire_errors() {
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.stream.reads.push_back(Ok(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab".to_vec(),
        ));
        assert_eq!(conn.read_step(), ReadStep::Bad(WireError::BadRequest));

        let mut conn = Conn::new(Scripted::default(), 0);
        conn.stream
            .reads
            .push_back(Ok(format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1).into_bytes()));
        assert_eq!(conn.read_step(), ReadStep::Bad(WireError::TooLarge));
    }

    #[test]
    fn read_error_closes_silently() {
        let mut conn = Conn::new(Scripted::default(), 0);
        conn.stream.reads.push_back(Err(io::Error::from(ErrorKind::ConnectionReset)));
        assert_eq!(conn.read_step(), ReadStep::Closed);
    }
}
