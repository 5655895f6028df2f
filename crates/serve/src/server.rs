//! The HTTP server: one or more event-driven reactor threads owning the
//! sockets, a crossbeam-channel worker pool for CPU-bound analysis, the
//! background watch scheduler, and admission control.
//!
//! **Transport/compute split.** Each reactor thread (an epoll readiness loop
//! from the vendored [`reactor`] crate) performs *all* socket I/O for the
//! connections it owns: it accepts, reads request bytes into per-connection
//! buffers, runs the incremental parser in [`crate::wire`], and writes
//! responses only when sockets are writable, tracking offsets across partial
//! writes ([`crate::conn`]). A request takes one of two paths from there:
//!
//! - **Cached `/check`:** the reactor asks the verdict cache first
//!   ([`AuditService::cached`]). A fresh hit is ~2 µs of work, so the
//!   reactor counts it and queues the response itself; no worker wakes and
//!   no completion crosses threads. On the `serve-paper` mix this is about
//!   78% of all `/check` traffic.
//! - **Everything else** (a cache miss, an expired or unparseable URL,
//!   every other route) is `try_send`-dispatched into a **bounded** channel
//!   of [`Job`]s; workers pull from it, compute the response, and hand it
//!   back through the owning reactor's completion queue plus its wakeup
//!   pipe. The worker's lookup counts the miss, so each `/check` is counted
//!   once on one path or the other.
//!
//! A slow or stalled client therefore holds one buffer and one fd — never a
//! worker thread, and never a read/write timeout (the old blocking path's
//! 5s read and 250ms write timeouts are gone because nothing blocks).
//!
//! **Scale-out.** `reactors: N` runs N reactor threads, each with its *own*
//! listener: one reactor binds a plain listener, several bind an
//! `SO_REUSEPORT` group on the same port, so the kernel shards the accept
//! queue and no accept lock exists in userspace. A connection lives its
//! whole life on the reactor that accepted it; workers route completions
//! back by the reactor index carried in the job. The verdict cache is
//! sharded by a hash of the URL ([`crate::cache`]), so reactors and workers
//! never serialize on one cache lock. Shutdown drains
//! gracefully: accepting stops immediately, idle connections close, and
//! in-flight requests get [`DRAIN_DEADLINE_MS`] to finish.
//!
//! When every worker is busy and the queue is full, the reactor refuses
//! only work that needs a worker: it queues a `503 Service Unavailable` +
//! `Retry-After` as an ordinary nonblocking write, while a `/check` the
//! cache can answer is still answered, since it never needed the queue.
//! That is the whole degradation story: bounded queue, bounded workers,
//! bounded connection table (`max_conns`), explicit back-pressure to the
//! client instead of unbounded memory growth. A panic inside the reactor's
//! cache probe is caught there and the request goes to a worker as if the
//! probe had missed.
//!
//! The same worker pool also executes the continuous-monitoring workload: a
//! background pump thread pops due re-checks off the [`permadead_sched`]
//! scheduler and enqueues them as jobs, so watch traffic and request traffic
//! share one capacity model. When the queue is full, re-checks yield to
//! connections and retry on the next tick — monitoring is the deferrable
//! workload.
//!
//! Endpoints:
//!
//! | route            | method | behaviour                                          |
//! |------------------|--------|----------------------------------------------------|
//! | `/check?url=U`   | GET    | audit one link; JSON verdict + rescue              |
//! | `/batch`         | POST   | newline-delimited URLs (bounded); JSON array       |
//! | `/watch`         | POST   | register newline-delimited URLs for re-checking    |
//! | `/watchlist`     | GET    | JSON state of every watched link                   |
//! | `/report`        | GET    | incremental study report over the batch dataset    |
//! | `/metrics`       | GET    | Prometheus text                                    |
//! | `/healthz`       | GET    | JSON: queue depth, workers, conns, watchlist size  |

use crate::conn::{Conn, ConnState, ReadStep, WriteStep};
use crate::metrics::ServeMetrics;
use crate::service::AuditService;
use crate::wire::{query_param, HttpRequest, HttpResponse, WireError};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use permadead_core::IncrementalAudit;
use permadead_net::{Duration, SimTime};
use permadead_sched::{Cadence, PolicySpec, Scheduler, SchedulerConfig, WatchSnapshot};
use permadead_url::Url;
use reactor::slab::Slab;
use reactor::{Events, Interest, Poll, Token, Waker};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How the background monitoring workload behaves.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// The dead-link detection policy every watched link runs (IABot
    /// strikes, pywikibot weekly confirmation, or health scoring).
    pub policy: PolicySpec,
    /// Re-check interval policy.
    pub cadence: Cadence,
    /// Simulated seconds the watch clock advances per real second. Re-check
    /// cadences are day-scale, so the default maps one real second to one
    /// simulated day; `0` freezes the clock (tests drive it through
    /// `/debug/watch-advance`).
    pub sim_secs_per_real_sec: i64,
    /// Per-host re-checks per simulated UTC day; `None` = no politeness cap.
    pub host_budget_per_day: Option<u32>,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            policy: PolicySpec::default(),
            cadence: Cadence::Fixed { every: Duration::days(1) },
            sim_secs_per_real_sec: 86_400,
            host_budget_per_day: None,
        }
    }
}

/// Server shape: listener address and pool/queue/connection bounds.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1; `0` picks an ephemeral port (the bound
    /// address is what [`ServerHandle::addr`] reports — callers must print
    /// *that*, not the requested port).
    pub port: u16,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Parsed requests allowed to wait for a worker before admission
    /// control starts refusing with 503.
    pub queue_cap: usize,
    /// Open connections the reactor will hold at once; beyond this, new
    /// arrivals get an immediate best-effort 503 (`--max-conns`).
    pub max_conns: usize,
    /// Kernel send-buffer size applied to every accepted socket; `None`
    /// leaves the kernel's autotuning alone. Pinning it bounds how much of
    /// a response the kernel absorbs for a stalled reader, which makes
    /// write back-pressure observable (the partial-write tests rely on it).
    pub sndbuf: Option<usize>,
    /// Maximum URLs accepted in one `POST /batch` (or `POST /watch`).
    pub max_batch: usize,
    /// Enable `/debug/sleep` and `/debug/watch-advance` (load tests exercise
    /// admission control and the watch clock with them).
    pub debug_endpoints: bool,
    /// Reactor threads. Each owns its own poll set, connection table, and
    /// listener; more than one share the port as an `SO_REUSEPORT` group.
    /// `max_conns` is enforced per reactor.
    pub reactors: usize,
    /// The continuous-monitoring workload behind `POST /watch`.
    pub watch: WatchConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 4,
            queue_cap: 64,
            max_conns: 10_240,
            sndbuf: None,
            max_batch: 256,
            debug_endpoints: false,
            reactors: 1,
            watch: WatchConfig::default(),
        }
    }
}

/// One unit of worker-pool work: a parsed request off a connection, or a due
/// re-check pumped in by the watch scheduler. Workers never see a socket.
enum Job {
    Request {
        /// Index of the reactor that owns the connection — the worker routes
        /// the completion back through this reactor's queue and waker.
        reactor: usize,
        slot: usize,
        generation: u64,
        request: HttpRequest,
    },
    Recheck {
        id: usize,
        due: SimTime,
    },
}

/// A finished response on its way back to its reactor.
struct Completion {
    slot: usize,
    generation: u64,
    keep_alive: bool,
    response: HttpResponse,
}

/// One reactor's mailbox: what workers push at it from outside its thread.
struct ReactorShared {
    /// Worker → reactor: finished responses awaiting a writable socket.
    completions: Mutex<VecDeque<Completion>>,
    /// Pulls this reactor out of `epoll_wait` when a completion lands or
    /// shutdown begins.
    waker: Waker,
}

/// Everything workers and the reactors share.
struct Inner {
    service: AuditService,
    metrics: ServeMetrics,
    config: ServerConfig,
    started: Instant,
    shutdown: AtomicBool,
    /// A non-consuming view of the pending queue, for the depth gauge only
    /// (never `recv`d, so no job is ever stolen from the workers).
    queue_probe: Receiver<Job>,
    /// Per-reactor mailboxes, indexed by reactor id.
    reactors: Vec<ReactorShared>,
    /// The continuous-monitoring scheduler. Lock discipline: take briefly,
    /// never while holding another lock, and never across a network fetch —
    /// the fetch half of a re-check runs unlocked in the worker.
    watch: Mutex<Scheduler>,
    /// Simulated seconds added to the watch clock by `/debug/watch-advance`.
    watch_offset: AtomicI64,
    /// The incremental re-audit engine over the batch dataset, built lazily
    /// on the first dirty watcher or `GET /report` — a server that never
    /// watches and never asks for the report pays nothing. Lock discipline:
    /// never taken while holding the `watch` lock.
    reaudit: Mutex<Option<IncrementalAudit>>,
}

impl Inner {
    /// The serving clock for cache TTLs: study time plus wall-clock elapsed,
    /// mapped 1:1 (one real second = one simulated second). Analyses stay
    /// pinned at study time; only cache expiry advances.
    fn now_sim(&self) -> SimTime {
        self.service.study_time() + Duration::seconds(self.started.elapsed().as_secs() as i64)
    }

    /// The watch scheduler's clock: study time plus *scaled* wall-clock
    /// elapsed plus any debug advance. Deliberately separate from
    /// [`Self::now_sim`] — re-check cadences are day-scale, so the watch
    /// clock runs fast while cache TTLs keep their 1:1 mapping.
    fn watch_now(&self) -> SimTime {
        self.service.study_time()
            + watch_elapsed(self.started.elapsed(), self.config.watch.sim_secs_per_real_sec)
            + Duration::seconds(self.watch_offset.load(Ordering::SeqCst))
    }
}

/// How far the watch clock has run after `real` elapsed wall-clock time,
/// at millisecond resolution: at the default one simulated day per real
/// second it moves 2,160 simulated seconds per 25 ms pump tick, so a day's
/// re-checks come due spread over the ticks. Stepping a whole day at once
/// would push them into the worker queue in one burst, ahead of (and
/// crowding out) interactive requests.
fn watch_elapsed(real: std::time::Duration, sim_secs_per_real_sec: i64) -> Duration {
    let ms = i64::try_from(real.as_millis()).unwrap_or(i64::MAX);
    Duration::seconds(ms.saturating_mul(sim_secs_per_real_sec) / 1000)
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    reactors: Vec<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The *bound* address — with `port: 0` this carries the
    /// kernel-assigned ephemeral port, which is what tests and scripts
    /// must connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &AuditService {
        &self.inner.service
    }

    /// A point-in-time view of the watch scheduler (tests assert counter
    /// parity between this and `/metrics`).
    pub fn watch_snapshot(&self) -> WatchSnapshot {
        self.inner.watch.lock().snapshot()
    }

    /// How many reactor threads serve this listener group.
    pub fn reactor_count(&self) -> usize {
        self.inner.reactors.len()
    }

    /// Stop accepting, drain in-flight work, and join every thread. Each
    /// reactor closes its idle connections immediately and gives requests
    /// already dispatched (or responses mid-write) up to
    /// [`DRAIN_DEADLINE_MS`] to finish before tearing down.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // each waker pulls its reactor out of epoll_wait; the reactor sees
        // the flag, drains gracefully, and drops its job sender. The pump
        // notices the flag within one tick and drops the last sender; with
        // all of them gone the workers drain the queue and exit.
        for shared in &self.inner.reactors {
            let _ = shared.waker.wake();
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Poll-set token for the listening socket (connection slots use their slab
/// keys, which can never reach these sentinels).
const TOKEN_LISTENER: Token = Token(usize::MAX);
/// Poll-set token for the wakeup pipe.
const TOKEN_WAKER: Token = Token(usize::MAX - 1);

/// How long a draining reactor waits for dispatched requests and mid-flight
/// writes to finish before tearing the remaining connections down. Idle
/// connections close immediately, so shutdown with no work in flight is
/// instant — the deadline only bounds responses the server still owes.
pub const DRAIN_DEADLINE_MS: u64 = 2_000;

/// Bind one nonblocking loopback listener per reactor: a plain listener
/// for one reactor, an `SO_REUSEPORT` group on one port for several, so the
/// kernel shards accepts across them. A failed bind is returned, never
/// papered over with fewer listeners.
fn bind_listeners(port: u16, n: usize) -> std::io::Result<Vec<TcpListener>> {
    const LOOPBACK: [u8; 4] = [127, 0, 0, 1];
    let first = if n == 1 {
        TcpListener::bind(("127.0.0.1", port))?
    } else {
        reactor::bind_reuseport(LOOPBACK, port)?
    };
    let port = first.local_addr()?.port();
    let mut group = vec![first];
    for _ in 1..n {
        group.push(reactor::bind_reuseport(LOOPBACK, port)?);
    }
    for listener in &group {
        listener.set_nonblocking(true)?;
    }
    Ok(group)
}

/// Bind the listeners, spawn the reactors + pool + watch pump, and return
/// immediately.
pub fn start(service: AuditService, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let n = config.reactors.max(1);
    let listeners = bind_listeners(config.port, n)?;
    let addr = listeners[0].local_addr()?;

    // One poll set + waker per reactor; wakers live in Inner so workers and
    // the shutdown path can reach them, polls move into their reactor threads.
    let mut polls = Vec::with_capacity(n);
    let mut shared = Vec::with_capacity(n);
    for listener in &listeners {
        let poll = Poll::new()?;
        let waker = Waker::new(&poll, TOKEN_WAKER)?;
        poll.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        polls.push(poll);
        shared.push(ReactorShared {
            completions: Mutex::new(VecDeque::new()),
            waker,
        });
    }

    let (tx, rx) = bounded::<Job>(config.queue_cap.max(1));
    let scheduler = Scheduler::new(SchedulerConfig {
        policy: config.watch.policy,
        cadence: config.watch.cadence,
        host_budget_per_day: config.watch.host_budget_per_day,
    });
    let inner = Arc::new(Inner {
        service,
        metrics: ServeMetrics::with_reactors(n),
        config: config.clone(),
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        queue_probe: rx.clone(),
        reactors: shared,
        watch: Mutex::new(scheduler),
        watch_offset: AtomicI64::new(0),
        reaudit: Mutex::new(None),
    });
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let rx = rx.clone();
            let inner = inner.clone();
            std::thread::spawn(move || worker_loop(&inner, rx))
        })
        .collect();
    drop(rx);

    let pump = {
        let inner = inner.clone();
        let tx = tx.clone();
        std::thread::spawn(move || pump_loop(&inner, tx))
    };
    let reactors: Vec<JoinHandle<()>> = polls
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(idx, (poll, listener))| {
            let inner = inner.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                Reactor {
                    inner: &inner,
                    idx,
                    poll,
                    listener: Some(listener),
                    tx,
                    conns: Slab::new(),
                    accept_paused: false,
                    closed_since_pause: false,
                    draining: false,
                }
                .run()
            })
        })
        .collect();
    drop(tx);

    Ok(ServerHandle {
        addr,
        inner,
        reactors,
        pump: Some(pump),
        workers,
    })
}

/// One worker: CPU-bound request handling and watch re-checks, zero socket
/// I/O. The pool is fixed-size, so a panicking handler must not kill the
/// worker — it is caught, counted, and answered with a 500 (the blocking
/// path used to silently drop the connection instead).
fn worker_loop(inner: &Inner, rx: Receiver<Job>) {
    for job in rx.iter() {
        match job {
            Job::Request {
                reactor,
                slot,
                generation,
                request,
            } => {
                inner.metrics.inflight.fetch_add(1, Ordering::Relaxed);
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(inner, &request)
                }));
                inner.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
                let (route_name, response) = match handled {
                    Ok(pair) => pair,
                    Err(_) => {
                        inner.metrics.worker_panics_total.incr();
                        ("other", HttpResponse::error(500, "internal error"))
                    }
                };
                inner.metrics.count_route(route_name);
                inner.metrics.count_status(response.status);
                // route the completion back to the reactor owning the socket
                let shared = &inner.reactors[reactor];
                shared.completions.lock().push_back(Completion {
                    slot,
                    generation,
                    keep_alive: request.keep_alive,
                    response,
                });
                let _ = shared.waker.wake();
            }
            Job::Recheck { id, due } => {
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_recheck(inner, id, due)
                }));
                if handled.is_err() {
                    inner.metrics.worker_panics_total.incr();
                }
            }
        }
    }
}

/// The background scheduler thread: every tick, pop everything due on the
/// watch clock and feed it through the worker pool. With an empty watchlist
/// this is a 25ms heartbeat and nothing else — a server that never sees
/// `POST /watch` behaves bit-identically to one without the subsystem.
fn pump_loop(inner: &Inner, tx: Sender<Job>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        let now = inner.watch_now();
        loop {
            let popped = inner.watch.lock().pop_due(now);
            let Some((id, due)) = popped else { break };
            match tx.try_send(Job::Recheck { id, due }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    // queue saturated with connections: put the event back
                    // (undoing the pop's counters) and retry next tick —
                    // monitoring yields to interactive traffic
                    inner.watch.lock().requeue(id, due);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// The worker half of one re-check: fetch unlocked, then apply the outcome
/// under the scheduler lock. Tag/revival counters live in the scheduler
/// itself, so `/metrics` is in exact parity with the watcher states by
/// construction.
fn handle_recheck(inner: &Inner, id: usize, due: SimTime) {
    let url = inner.watch.lock().watcher(id).url.clone();
    let (check, _retry) = inner.service.live_recheck(&url, due);
    let mut sched = inner.watch.lock();
    sched.apply(id, due, check.is_final_200());
    // Drain the scheduler's dirty set (every watcher that flipped state,
    // deduplicated) and resolve each to its batch-dataset index while the
    // lock is still held; watched URLs outside the dataset have no
    // memoized finding to maintain and are simply dropped.
    let dirty = sched.take_dirty();
    let indices: Vec<usize> = dirty
        .iter()
        .filter_map(|&w| inner.service.dataset_index_of(&sched.watcher(w).url.to_string()))
        .collect();
    drop(sched);
    if indices.is_empty() {
        return;
    }
    // O(changed): re-run exactly the flipped links at the flip instant. The
    // engine builds on the first flip; afterwards `GET /report` reflects
    // every watch transition without a full-study re-run.
    let mut guard = inner.reaudit.lock();
    let audit = guard.get_or_insert_with(|| inner.service.build_incremental());
    let outcome = inner.service.reaudit(audit, &indices, due);
    // counters move before the lock drops, so anything that observes the
    // updated report also observes them
    inner.metrics.reaudit_links_total.add(outcome.reaudited as u64);
    inner.metrics.reaudit_changed_total.add(outcome.changed as u64);
}

/// Seconds a refused client should wait before retrying: one second per
/// request already queued ahead of it, plus one, capped at a minute. A
/// fixed delay would bring every client refused during a burst back at the
/// same instant into a queue that had not drained, to be refused again in a
/// synchronized retry stampede; scaling by queue occupancy spreads the herd.
fn retry_after_secs(inner: &Inner) -> u32 {
    let occupied = inner.queue_probe.len() as u32;
    occupied.saturating_add(1).min(60)
}

/// One event loop's owned state: poll set, listener (taken when the drain
/// begins), connection slab, and a job-sender clone whose drop (on exit)
/// helps release the workers.
struct Reactor<'a> {
    inner: &'a Arc<Inner>,
    /// This reactor's index into `Inner::reactors` and the metrics slots.
    idx: usize,
    poll: Poll,
    listener: Option<TcpListener>,
    tx: Sender<Job>,
    conns: Slab<Conn<TcpStream>>,
    /// The listener is out of the poll set (fd table exhausted); resume
    /// once a connection closes.
    accept_paused: bool,
    closed_since_pause: bool,
    /// Shutdown drain in progress: no new accepts, keep-alive connections
    /// close after their in-flight response instead of rearming.
    draining: bool,
}

impl Reactor<'_> {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            // The 500ms timeout is a safety net only — completions and
            // shutdown arrive through the waker, readiness through epoll.
            if self.poll.poll(&mut events, Some(std::time::Duration::from_millis(500))).is_err() {
                break;
            }
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let batch: Vec<reactor::Event> = events.iter().collect();
            let mut accept_ready = false;
            for ev in batch {
                match ev.token() {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.inner.reactors[self.idx].waker.drain(),
                    Token(slot) => self.on_conn_event(slot, ev),
                }
            }
            self.drain_completions();
            if accept_ready {
                self.accept_burst();
            }
            self.maybe_resume_accept();
        }
        self.drain_gracefully();
    }

    /// Graceful drain: stop accepting now, close idle connections now, and
    /// give connections the server owes a response (request dispatched, or
    /// bytes mid-write) up to [`DRAIN_DEADLINE_MS`] to finish.
    fn drain_gracefully(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poll.deregister(listener.as_raw_fd());
        }
        // idle (Reading) connections owe nothing — close immediately
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Reading))
            .map(|(slot, _)| slot)
            .collect();
        for slot in idle {
            self.close_conn(slot);
        }
        let deadline = Instant::now() + std::time::Duration::from_millis(DRAIN_DEADLINE_MS);
        let mut events = Events::with_capacity(256);
        while !self.conns.is_empty() && Instant::now() < deadline {
            if self.poll.poll(&mut events, Some(std::time::Duration::from_millis(25))).is_err() {
                break;
            }
            let batch: Vec<reactor::Event> = events.iter().collect();
            for ev in batch {
                match ev.token() {
                    TOKEN_LISTENER => {}
                    TOKEN_WAKER => self.inner.reactors[self.idx].waker.drain(),
                    Token(slot) => self.on_conn_event(slot, ev),
                }
            }
            self.drain_completions();
        }
        // teardown whatever outlived the deadline; closing the fds also
        // evicts them from the poll set, and dropping `tx` (when `self`
        // drops) helps release the workers
        self.conns.drain();
        self.inner.metrics.reactors[self.idx].open_connections.store(0, Ordering::Relaxed);
    }

    /// Take ownership of an accepted socket: tune it, enforce `max_conns`
    /// (per reactor), and register it for readiness.
    fn install(&mut self, mut stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.inner.config.sndbuf {
            let _ = reactor::set_send_buffer_size(stream.as_raw_fd(), bytes);
        }
        if self.conns.len() >= self.inner.config.max_conns.max(1) {
            self.inner.metrics.rejected_total.incr();
            self.inner.metrics.count_status(503);
            let resp = HttpResponse::error(503, "server at capacity, retry later")
                .with_header("Retry-After", retry_after_secs(self.inner).to_string());
            // best-effort single write: the socket buffer is empty, so it
            // succeeds unless the client already vanished (drop closes)
            let _ = std::io::Write::write(&mut stream, &resp.serialize(false));
            return;
        }
        let fd = stream.as_raw_fd();
        let (slot, generation) = self.conns.insert(Conn::new(stream, 0));
        if let Some(conn) = self.conns.get_mut(slot) {
            conn.generation = generation;
        }
        if self.poll.register(fd, Token(slot), Interest::READABLE).is_err() {
            self.conns.remove(slot);
            return;
        }
        let mine = &self.inner.metrics.reactors[self.idx];
        mine.open_connections.fetch_add(1, Ordering::Relaxed);
        mine.accepted_total.incr();
    }

    /// Accept until `EAGAIN`, installing every socket on this reactor. On
    /// fd-table exhaustion the listener leaves the poll set until a
    /// connection closes, instead of spinning on a readable-but-unacceptable
    /// listener.
    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.install(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    // ENFILE/EMFILE: no fd for the next accept — pause
                    self.pause_accept();
                    break;
                }
                // transient (ECONNABORTED etc.): the level-triggered poll
                // re-reports the listener if more arrivals are pending
                Err(_) => break,
            }
        }
    }

    fn pause_accept(&mut self) {
        if let (false, Some(listener)) = (self.accept_paused, &self.listener) {
            let _ = self.poll.deregister(listener.as_raw_fd());
            self.accept_paused = true;
            self.closed_since_pause = false;
        }
    }

    fn maybe_resume_accept(&mut self) {
        let Some(listener) = &self.listener else { return };
        if self.accept_paused
            && self.closed_since_pause
            && self
                .poll
                .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
                .is_ok()
        {
            self.accept_paused = false;
        }
    }

    fn on_conn_event(&mut self, slot: usize, ev: reactor::Event) {
        let Some(conn) = self.conns.get_mut(slot) else {
            return; // closed earlier in this same batch
        };
        match conn.state {
            ConnState::Reading => {
                if ev.is_readable() || ev.is_closed() {
                    self.advance_reading(slot, true);
                }
            }
            ConnState::Writing { .. } => {
                if ev.is_writable() || ev.is_closed() {
                    self.write_then_read(slot);
                }
            }
            ConnState::Dispatched => {
                // Interest is NONE while a worker holds the request, but
                // epoll always reports hard errors. A dead peer's slot is
                // reclaimed now; the completion will miss the generation
                // and be counted as an aborted write.
                if ev.is_closed() {
                    self.close_conn(slot);
                }
            }
        }
    }

    /// Drive a `Reading` connection: optionally pull bytes off the socket,
    /// then act on each complete request in turn. `do_read = false` is the
    /// keep-alive path where a pipelined request may already be buffered.
    /// A `/check` the verdict cache answers is written here, and once it is
    /// flushed on a keep-alive connection the loop parses the next buffered
    /// request: a loop, not a call back through [`Self::write_then_read`],
    /// so a long pipelined run of cached answers never deepens the stack.
    fn advance_reading(&mut self, slot: usize, mut do_read: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(slot) else { return };
            let step = if do_read { conn.read_step() } else { conn.try_parse() };
            do_read = false;
            match step {
                ReadStep::More => return,
                ReadStep::Closed => return self.close_conn(slot),
                ReadStep::Bad(err) => {
                    // parse failures are answered, not dropped: 400 for
                    // malformed bytes, 413 for anything over the caps
                    self.inner.metrics.count_route("other");
                    self.inner.metrics.count_status(err.status());
                    let response = match err {
                        WireError::TooLarge => HttpResponse::error(413, "request too large"),
                        _ => HttpResponse::error(400, "malformed request"),
                    };
                    self.respond(slot, response.serialize(false), true);
                    return;
                }
                ReadStep::Request(request) => {
                    let Some(body) = self.cached_check(&request) else {
                        return self.dispatch(slot, request);
                    };
                    self.inner.metrics.count_route("check");
                    self.inner.metrics.count_status(200);
                    let response = HttpResponse::json(200, body).serialize(request.keep_alive);
                    if !self.respond(slot, response, !request.keep_alive) {
                        return;
                    }
                }
            }
        }
    }

    /// The verdict cache's answer to a `GET /check`, probed here so that a
    /// hit never wakes a worker and is answered even while the worker queue
    /// is full. `None` for every other request, for a miss, and for a probe
    /// that panics: the worker then handles the request as it would have
    /// without the probe, and counts whatever fails.
    fn cached_check(&self, request: &HttpRequest) -> Option<String> {
        if request.method != "GET" || request.path != "/check" {
            return None;
        }
        let url = query_param(request.query.as_deref(), "url")?;
        let inner = self.inner;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.service.cached(&url, inner.now_sim())
        }))
        .ok()
        .flatten()
    }

    /// Hand a complete request to the worker pool, or refuse it with the
    /// admission-control 503 — now an ordinary queued nonblocking write
    /// instead of the old acceptor-inline blocking one.
    fn dispatch(&mut self, slot: usize, request: HttpRequest) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let generation = conn.generation;
        let fd = conn.stream.as_raw_fd();
        match self.tx.try_send(Job::Request {
            reactor: self.idx,
            slot,
            generation,
            request,
        }) {
            Ok(()) => {
                conn.state = ConnState::Dispatched;
                self.inner.metrics.reactors[self.idx].dispatched_total.incr();
                // park: no readiness wanted until the worker answers
                let _ = self.poll.reregister(fd, Token(slot), Interest::NONE);
            }
            Err(TrySendError::Full(_)) => {
                self.inner.metrics.rejected_total.incr();
                self.inner.metrics.count_status(503);
                conn.started = None; // refusals don't sample latency
                let resp = HttpResponse::error(503, "server at capacity, retry later")
                    .with_header("Retry-After", retry_after_secs(self.inner).to_string());
                self.respond(slot, resp.serialize(false), true);
            }
            Err(TrySendError::Disconnected(_)) => self.close_conn(slot),
        }
    }

    /// Move a worker's finished responses onto their sockets. Stale
    /// completions — the client vanished while its request was computing —
    /// count as aborted writes: a response existed and was never delivered.
    fn drain_completions(&mut self) {
        loop {
            let completion = self.inner.reactors[self.idx].completions.lock().pop_front();
            let Some(c) = completion else { break };
            match self.conns.get_gen_mut(c.slot, c.generation) {
                None => self.inner.metrics.reactors[self.idx].write_aborted_total.incr(),
                Some(conn) => {
                    conn.queue_response(c.response.serialize(c.keep_alive), !c.keep_alive);
                    self.write_then_read(c.slot);
                }
            }
        }
    }

    /// Queue `bytes` as the connection's response and push them; `true`
    /// when they are delivered and the keep-alive connection is back in
    /// `Reading` (see [`Self::drive_write`]).
    fn respond(&mut self, slot: usize, bytes: Vec<u8>, close_after: bool) -> bool {
        let Some(conn) = self.conns.get_mut(slot) else { return false };
        conn.queue_response(bytes, close_after);
        self.drive_write(slot)
    }

    /// Push queued bytes, then serve a pipelined request that may already
    /// be buffered, without waiting for new readiness.
    fn write_then_read(&mut self, slot: usize) {
        if self.drive_write(slot) {
            self.advance_reading(slot, false);
        }
    }

    /// Push queued bytes; on back-pressure wait for writability, on success
    /// close or (keep-alive) rearm for the next request. `true` when the
    /// connection is rearmed: the caller then parses what is buffered.
    fn drive_write(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot) else { return false };
        let fd = conn.stream.as_raw_fd();
        match conn.write_step() {
            WriteStep::Done => {
                if let Some(started) = conn.started.take() {
                    self.inner.metrics.observe_latency(started.elapsed().as_secs_f64());
                }
                let close_after = matches!(conn.state, ConnState::Writing { close_after: true });
                // draining: the response the server owed is delivered, and
                // keep-alive must not admit new requests past the drain
                if close_after || self.draining {
                    self.close_conn(slot);
                    return false;
                }
                conn.reset_for_next_request();
                let _ = self.poll.reregister(fd, Token(slot), Interest::READABLE);
                true
            }
            WriteStep::Blocked => {
                let _ = self.poll.reregister(fd, Token(slot), Interest::WRITABLE);
                false
            }
            WriteStep::Aborted(_undelivered) => {
                self.inner.metrics.reactors[self.idx].write_aborted_total.incr();
                if let Some(started) = conn.started.take() {
                    self.inner.metrics.observe_latency(started.elapsed().as_secs_f64());
                }
                self.close_conn(slot);
                false
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if self.conns.remove(slot).is_some() {
            self.inner.metrics.reactors[self.idx].open_connections.fetch_sub(1, Ordering::Relaxed);
            self.closed_since_pause = true;
        }
    }
}

fn route(inner: &Inner, req: &HttpRequest) -> (&'static str, HttpResponse) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", handle_healthz(inner)),
        ("GET", "/metrics") => ("metrics", handle_metrics(inner)),
        ("GET", "/check") => ("check", handle_check(inner, req)),
        ("POST", "/batch") => ("batch", handle_batch(inner, req)),
        ("POST", "/watch") => ("watch", handle_watch(inner, req)),
        ("GET", "/watchlist") => ("watchlist", handle_watchlist(inner)),
        ("GET", "/report") => ("report", handle_report(inner)),
        ("GET", "/debug/sleep") if inner.config.debug_endpoints => {
            let ms: u64 = query_param(req.query.as_deref(), "ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(100);
            std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
            ("other", HttpResponse::text(200, "slept\n"))
        }
        ("GET", "/debug/watch-advance") if inner.config.debug_endpoints => {
            let secs: i64 = query_param(req.query.as_deref(), "secs")
                .and_then(|v| v.parse().ok())
                .unwrap_or(86_400);
            inner.watch_offset.fetch_add(secs.max(0), Ordering::SeqCst);
            ("other", HttpResponse::text(200, format!("watch clock at {}\n", inner.watch_now())))
        }
        ("GET", _) => ("other", HttpResponse::error(404, "no such endpoint")),
        (_, "/check" | "/batch" | "/metrics" | "/healthz" | "/watch" | "/watchlist" | "/report") => {
            ("other", HttpResponse::error(405, "method not allowed"))
        }
        _ => ("other", HttpResponse::error(404, "no such endpoint")),
    }
}

/// `/healthz`: liveness plus the numbers an operator triages with — how
/// much work is queued, how many hands are on deck, how many sockets are
/// open, and how big the monitoring population is.
fn handle_healthz(inner: &Inner) -> HttpResponse {
    let watchlist = inner.watch.lock().len();
    HttpResponse::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"pending\":{},\"workers\":{},\"reactors\":{},\"conns\":{},\"watchlist\":{}}}",
            inner.queue_probe.len(),
            inner.config.workers.max(1),
            inner.reactors.len(),
            inner.metrics.open_connections(),
            watchlist,
        ),
    )
}

fn handle_metrics(inner: &Inner) -> HttpResponse {
    let watch = inner.watch.lock().snapshot();
    let text = inner.metrics.render_prometheus(
        &inner.service.cache_stats(),
        &inner.service.net_snapshot(),
        inner.queue_probe.len(),
        &inner.service.origin_budget_snapshot(),
        &watch,
        inner.service.rescue_index_pages(),
    );
    HttpResponse::metrics(text)
}

fn handle_check(inner: &Inner, req: &HttpRequest) -> HttpResponse {
    let Some(url) = query_param(req.query.as_deref(), "url") else {
        return HttpResponse::error(400, "missing url parameter");
    };
    match check_url(inner, &url, inner.now_sim()) {
        Ok(body) => HttpResponse::json(200, body),
        Err(msg) => HttpResponse::error(400, &msg),
    }
}

/// Audit one URL for `/check` or `/batch`, folding a fresh analysis's stage
/// stats and any rediscovery rescue into the metrics. The response body, or
/// why the URL could not be audited.
fn check_url(inner: &Inner, url: &str, now: SimTime) -> Result<String, String> {
    let (outcome, stats) = inner.service.check(url, now)?;
    if let Some(stats) = stats {
        inner.metrics.merge_stage_stats(&stats);
    }
    if outcome.rediscovered {
        inner.metrics.rescue_rescued_total.incr();
    }
    Ok(outcome.body)
}

/// The trimmed, non-empty lines of a `POST /batch` or `POST /watch` body;
/// a 400 when there are none and a 413 over `max_batch`, with `what`
/// naming the request in the message.
fn url_lines<'a>(
    inner: &Inner,
    req: &'a HttpRequest,
    what: &str,
) -> Result<Vec<&'a str>, HttpResponse> {
    let urls: Vec<&str> = req
        .body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if urls.is_empty() {
        return Err(HttpResponse::error(400, &format!("empty {what}")));
    }
    if urls.len() > inner.config.max_batch {
        return Err(HttpResponse::error(
            413,
            &format!("{what} of {} exceeds limit {}", urls.len(), inner.config.max_batch),
        ));
    }
    Ok(urls)
}

fn handle_batch(inner: &Inner, req: &HttpRequest) -> HttpResponse {
    let urls = match url_lines(inner, req, "batch") {
        Ok(urls) => urls,
        Err(response) => return response,
    };
    let now = inner.now_sim();
    let items: Vec<String> = urls
        .into_iter()
        .map(|url| {
            check_url(inner, url, now).unwrap_or_else(|msg| {
                crate::json::Object::new().str("url", url).str("error", &msg).render()
            })
        })
        .collect();
    HttpResponse::json(200, format!("{{\"results\":[{}]}}", items.join(",")))
}

/// `POST /watch`: register newline-delimited URLs for continuous
/// re-checking. Registration is idempotent per URL; the first check comes
/// due immediately (at the current watch clock) and the cadence policy
/// takes over from there.
fn handle_watch(inner: &Inner, req: &HttpRequest) -> HttpResponse {
    let urls = match url_lines(inner, req, "watch batch") {
        Ok(urls) => urls,
        Err(response) => return response,
    };
    let now = inner.watch_now();
    let mut registered = 0usize;
    let mut invalid = 0usize;
    let mut sched = inner.watch.lock();
    for raw in urls {
        match Url::parse(raw) {
            Ok(url) => {
                if sched.watch(url, now).is_some() {
                    registered += 1;
                }
            }
            Err(_) => invalid += 1,
        }
    }
    let watchlist = sched.len();
    drop(sched);
    HttpResponse::json(
        200,
        format!(
            "{{\"registered\":{registered},\"invalid\":{invalid},\"watchlist\":{watchlist}}}"
        ),
    )
}

/// `GET /report`: the paper's headline counters over the batch dataset,
/// maintained incrementally. The first request (or the first watched-link
/// flip) builds the engine with one full pipeline pass; afterwards every
/// watch transition updates the aggregate at O(changed) cost and this
/// endpoint just renders the maintained counters.
fn handle_report(inner: &Inner) -> HttpResponse {
    let mut guard = inner.reaudit.lock();
    let audit = guard.get_or_insert_with(|| inner.service.build_incremental());
    let report = audit.report();
    let as_of = audit.now();
    drop(guard);
    let body = crate::json::Object::new()
        .str("label", &report.label)
        .num("n", report.n)
        .str("as_of", &as_of.to_string())
        .num("dns_failure", report.dns_failure)
        .num("timeout", report.timeout)
        .num("not_found", report.not_found)
        .num("final_200", report.final_200)
        .num("other", report.other)
        .num("genuinely_alive", report.genuinely_alive)
        .num("alive_via_redirect", report.alive_via_redirect)
        .num("post_marking_checked", report.post_marking_checked)
        .num("post_marking_erroneous", report.post_marking_erroneous)
        .num("had_200_copy", report.had_200_copy)
        .num("had_3xx_only", report.had_3xx_only)
        .num("valid_3xx", report.valid_3xx)
        .num("had_erroneous_only", report.had_erroneous_only)
        .num("nothing_before_marking", report.nothing_before_marking)
        .num("never_archived", report.never_archived)
        .num("archived_before_posting", report.archived_before_posting)
        .num("first_capture_after_posting", report.first_capture_after_posting)
        .num("same_day_capture", report.same_day_capture)
        .num("same_day_erroneous", report.same_day_erroneous)
        .num("directory_level_zero", report.directory_level_zero)
        .num("hostname_level_zero", report.hostname_level_zero)
        .num("unique_edit_distance_1", report.unique_edit_distance_1)
        .num("param_reorder_rescuable", report.param_reorder_rescuable)
        .num("rediscovery_rescued", report.rediscovery_rescued)
        .render();
    HttpResponse::json(200, body)
}

/// `GET /watchlist`: the full monitoring state, one object per watched link.
fn handle_watchlist(inner: &Inner) -> HttpResponse {
    let sched = inner.watch.lock();
    let snap = sched.snapshot();
    let items: Vec<String> = sched
        .watchers()
        .iter()
        .map(|w| {
            let mut obj = crate::json::Object::new()
                .str("url", &w.url.to_string())
                .str("state", w.state().as_str())
                .num("strikes", w.evidence() as usize)
                .num("checks", w.checks as usize)
                .num("revivals", w.revivals as usize);
            obj = match w.tagged_at() {
                Some(t) => obj.str("tagged_at", &t.to_string()),
                None => obj.raw("tagged_at", "null"),
            };
            obj.render()
        })
        .collect();
    drop(sched);
    HttpResponse::json(200, watchlist_json(&snap, &items))
}

/// Assemble the `/watchlist` response body. Split out (and `pub(crate)` for
/// the tests) because the old inline `format!` spliced the policy and state
/// names into the JSON unescaped — correct for today's static names, but a
/// quote or backslash in a future policy label would have emitted invalid
/// JSON. Everything dynamic now goes through [`crate::json::quote`].
/// `items` must already be rendered JSON objects (the watcher URLs inside
/// them are escaped by the [`crate::json::Object`] builder).
pub(crate) fn watchlist_json(snap: &permadead_sched::WatchSnapshot, items: &[String]) -> String {
    let states: Vec<String> = snap
        .states
        .iter()
        .iter()
        .map(|(name, count)| format!("{}:{count}", crate::json::quote(name)))
        .collect();
    format!(
        "{{\"size\":{},\"pending\":{},\"tagged\":{},\"policy\":{},\"states\":{{{}}},\"watchers\":[{}]}}",
        snap.watchlist,
        snap.pending,
        snap.tagged_now,
        crate::json::quote(snap.policy),
        states.join(","),
        items.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::{watch_elapsed, watchlist_json};
    use permadead_net::Duration;
    use permadead_sched::WatchSnapshot;
    use std::time::Duration as Real;

    #[test]
    fn watch_clock_maps_elapsed_milliseconds() {
        let day = 86_400;
        assert_eq!(watch_elapsed(Real::from_millis(500), day), Duration::seconds(43_200));
        assert_eq!(watch_elapsed(Real::from_millis(25), day), Duration::seconds(2_160));
        assert_eq!(watch_elapsed(Real::from_millis(1_999), day), Duration::seconds(172_713));
        assert_eq!(watch_elapsed(Real::from_secs(3), day), Duration::days(3));
        assert_eq!(watch_elapsed(Real::from_secs(3_600), 0), Duration::seconds(0), "rate 0");
        let forever = watch_elapsed(Real::from_secs(u64::MAX), day);
        assert_eq!(forever, Duration::seconds(i64::MAX / 1000), "saturates");
    }

    /// The watchlist body must stay valid JSON even when the policy name (or
    /// a future state label) carries quotes, backslashes, or control bytes —
    /// exactly the hostile inputs the old inline `format!` forwarded raw.
    #[test]
    fn watchlist_json_escapes_hostile_policy_names() {
        let snap = WatchSnapshot {
            watchlist: 3,
            pending: 1,
            tagged_now: 2,
            policy: "evil\"name\\with\tcontrol",
            ..WatchSnapshot::default()
        };
        let body = watchlist_json(&snap, &[]);
        assert!(
            body.contains("\"policy\":\"evil\\\"name\\\\with\\tcontrol\""),
            "policy not escaped: {body}"
        );
        // No raw quote survives inside the policy value: stripping every
        // escaped sequence first must leave only the structural quotes.
        let stripped = body.replace("\\\\", "").replace("\\\"", "");
        assert_eq!(
            stripped.matches('"').count() % 2,
            0,
            "unbalanced quotes, body is not valid JSON: {body}"
        );
        assert!(body.contains("\"states\":{\"healthy\":0"));
        assert!(body.ends_with("\"watchers\":[]}"));
    }

    #[test]
    fn watchlist_json_renders_counts_and_items() {
        let mut snap = WatchSnapshot {
            watchlist: 2,
            pending: 5,
            tagged_now: 1,
            ..WatchSnapshot::default()
        };
        snap.states.healthy = 1;
        snap.states.tagged = 1;
        let items = vec!["{\"url\":\"http://a.example/\"}".to_string()];
        let body = watchlist_json(&snap, &items);
        assert!(body.starts_with("{\"size\":2,\"pending\":5,\"tagged\":1,"));
        assert!(body.contains("\"tagged\":1},\"watchers\":[{\"url\":\"http://a.example/\"}]}"));
    }
}
