//! `serve-paper`: the real `permadead serve` binary on the paper snapshot,
//! driven over loopback by a seeded open-loop schedule.

use crate::inject::{self, Op, Outcome, Slot, Traffic};
use crate::pct;
use crate::procfs;
use crate::report::Report;
use crate::rng::{Rng, Weighted};
use crate::world::{Ctx, WORLD_SCALE, WORLD_SEED};
use permadead_core::{Dataset, Study, StudyOptions};
use permadead_net::LiveStatus;
use permadead_url::Url;
use permadead_worldstore::World;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Server spawns per run; `setup_s` is the median of their start-up times.
pub const SPAWNS: usize = 3;
/// Verdict-cache capacity given to the server (`--cache-cap`).
pub const CACHE_CAP: usize = 2048;
/// Worker threads given to the server (`--workers`).
pub const WORKERS: usize = 2;
/// Jobs the server queues for its workers (`--queue-cap`). The watch pump
/// releases a whole simulated day of re-checks at once; at the default of
/// 64 that burst fills the queue and `/check` requests arriving behind it
/// are refused with 503.
pub const QUEUE_CAP: usize = 1024;
/// URLs drawn from each slice of the universe: dataset URLs, tagged URLs
/// outside the sample, and never-seen URLs on hosts that answer today.
pub const SLICE_SIZES: [usize; 3] = [4096, 2048, 2048];
/// Zipf exponent over site rank.
pub const ZIPF_ALPHA: f64 = 1.0;
/// Offered `/check` rate.
pub const CHECK_RATE_HZ: f64 = 2000.0;
/// One `POST /watch` every this many seconds, with this many URLs.
pub const WATCH_EVERY_S: f64 = 0.5;
pub const WATCH_BATCH: usize = 10;
/// Untimed open-loop warm-up before the timed window.
pub const WARM_S: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    Dataset,
    Wiki,
    Unknown,
}

impl Slice {
    fn provenance(self) -> &'static str {
        match self {
            Slice::Dataset => "dataset",
            Slice::Wiki => "wiki",
            Slice::Unknown => "unknown",
        }
    }
}

/// What the benchmark's own batch study says about a dataset URL.
pub struct Expected {
    verdict: &'static str,
    live_status: String,
    soft404: String,
    archival: String,
}

/// The generated traffic inputs.
pub struct Inputs {
    pub urls: Vec<String>,
    pub slices: Vec<Slice>,
    pub expected: Vec<Option<Expected>>,
    pub weights: Weighted,
    pub watch_urls: Vec<String>,
}

/// Draw the URL universe, its Zipf weights, and the watch stream's URLs
/// from the world and `seed`; the reference verdicts come from an
/// in-process study with the CLI's default options.
pub fn inputs(world: &World, dataset: &Dataset, seed: u64) -> Inputs {
    let now = world.meta.study_time;
    let study = Study::run_with(
        &world.web,
        &world.archive,
        dataset,
        now,
        StudyOptions::default(),
    );
    let mut rng = Rng::new(seed ^ 0x5E57E);

    let mut picks: Vec<usize> = (0..dataset.len()).collect();
    rng.shuffle(&mut picks);
    let mut urls: Vec<String> = Vec::new();
    let mut slices = Vec::new();
    let mut expected = Vec::new();
    for &i in picks.iter().take(SLICE_SIZES[0]) {
        let f = &study.findings[i];
        urls.push(f.entry.url.to_string());
        slices.push(Slice::Dataset);
        expected.push(Some(Expected {
            verdict: if f.genuinely_alive() {
                "alive"
            } else {
                "permanently-dead"
            },
            live_status: f.live.status.to_string(),
            soft404: format!("{:?}", f.soft404),
            archival: format!("{:?}", f.archival),
        }));
    }

    let march: HashSet<String> = dataset.entries.iter().map(|e| e.url.to_string()).collect();
    let tagged = Dataset::from_table(&world.all_tagged, &world.interner);
    let mut wiki: Vec<String> = tagged
        .entries
        .iter()
        .map(|e| e.url.to_string())
        .filter(|u| !march.contains(u))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    rng.shuffle(&mut wiki);
    for u in wiki.into_iter().take(SLICE_SIZES[1]) {
        urls.push(u);
        slices.push(Slice::Wiki);
        expected.push(None);
    }

    let live_hosts: Vec<String> = study
        .findings
        .iter()
        .filter(|f| f.live.status == LiveStatus::Ok)
        .map(|f| f.entry.url.host().to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for k in 0..SLICE_SIZES[2] {
        let host = &live_hosts[rng.below(live_hosts.len())];
        urls.push(format!("http://{host}/perfbench/s{seed}/page-{k}.html"));
        slices.push(Slice::Unknown);
        expected.push(None);
    }

    // Zipf over the dense rank of each URL's site among the universe's sites
    let host_of = |u: &str| {
        Url::parse(u)
            .map(|u| u.host().to_string())
            .unwrap_or_default()
    };
    let ranked: Vec<(u32, String)> = urls
        .iter()
        .map(|u| {
            let host = host_of(u);
            (world.web.ranks.rank(&host), host)
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let weights: Vec<f64> = urls
        .iter()
        .map(|u| {
            let host = host_of(u);
            let key = (world.web.ranks.rank(&host), host);
            let dense = ranked.binary_search(&key).expect("every host ranked") + 1;
            (dense as f64).powf(-ZIPF_ALPHA)
        })
        .collect();

    let mut watch_urls: Vec<String> = dataset.entries.iter().map(|e| e.url.to_string()).collect();
    rng.shuffle(&mut watch_urls);
    Inputs {
        urls,
        slices,
        expected,
        weights: Weighted::new(&weights),
        watch_urls,
    }
}

/// Where the injector runs: on a machine with two or more CPUs, on the
/// first allowed CPU, so its threads sit in the same place in every run.
/// The server is left to the scheduler on every CPU, so its reactor, pump
/// and workers run in parallel and contend as they would when deployed.
pub fn injector_cpu() -> Option<usize> {
    let cpus = inject::allowed_cpus();
    (cpus.len() >= 2).then(|| cpus[0])
}

/// A running `permadead serve`.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // held open so the server's stdout never sees a closed pipe
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the server on this build's snapshot; returns it with the time
    /// from spawn to its `listening on` line.
    pub fn spawn(ctx: &Ctx) -> Result<(Server, f64), String> {
        let mut command = Command::new(&ctx.server_bin);
        let t0 = Instant::now();
        let mut child = command
            .args([
                "serve",
                "--scale",
                WORLD_SCALE,
                "--seed",
                &WORLD_SEED.to_string(),
            ])
            .arg("--world-cache")
            .arg(&ctx.cache)
            .args([
                "--port",
                "0",
                "--workers",
                &WORKERS.to_string(),
                "--cache-cap",
                &CACHE_CAP.to_string(),
            ])
            .args(["--queue-cap", &QUEUE_CAP.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.server_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr
                            .parse()
                            .map_err(|e| format!("bad address {addr}: {e}"))?;
                    }
                }
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        Ok((
            Server {
                child,
                addr,
                _stdout: stdout,
            },
            secs,
        ))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kill the server and wait for it to end.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut conn = inject::Conn::open(addr).map_err(|e| e.to_string())?;
    match conn.exchange(&inject::get_request(path)) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("GET {path} answered {status}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// One series of a Prometheus exposition, by name and labels.
fn series(text: &str, name: &str) -> Result<f64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .ok_or_else(|| format!("/metrics has no {name}"))
}

/// A top-level field of a flat JSON object, unquoted.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    match rest.strip_prefix('"') {
        Some(s) => s.find('"').map(|end| &s[..end]),
        None => rest.find([',', '}']).map(|end| &rest[..end]),
    }
}

fn cached(body: &str) -> bool {
    body.ends_with(",\"cached\":true}")
}

/// The counters read around the timed window.
const SERIES: [&str; 7] = [
    "permadead_requests_total{endpoint=\"check\"}",
    "permadead_cache_hits_total",
    "permadead_cache_misses_total",
    "permadead_responses_total{class=\"5xx\"}",
    "permadead_rejected_total",
    "permadead_watch_checks_total",
    "permadead_reaudit_links_total",
];

/// Everything one loopback load run measured.
pub struct LoadRun {
    pub setup_s: Vec<f64>,
    pub warm: Vec<Outcome>,
    pub slots: Vec<Slot>,
    pub window: Vec<Outcome>,
    /// `SERIES` after minus before the window, in order.
    pub deltas: Vec<f64>,
    pub watchlist: f64,
    pub watch_posted: usize,
    pub server_cpu_s: f64,
    pub peak_rss_mb: f64,
    pub steal_ticks: u64,
    pub conns: usize,
}

/// Spawn the server `spawns` times (keeping the last), warm it up, then
/// run the timed open-loop window.
pub fn load_run(ctx: &Ctx, inputs: &Inputs, spawns: usize) -> Result<LoadRun, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..spawns {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let (s, secs) = Server::spawn(ctx)?;
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no server spawned")?;
    let out = drive(ctx, inputs, &server);
    server.stop();
    let mut run = out?;
    run.setup_s = setup_s;
    Ok(run)
}

fn drive(ctx: &Ctx, inputs: &Inputs, server: &Server) -> Result<LoadRun, String> {
    let addr = server.addr;
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = injector_cpu();
    let requests = |op: &Op| match op {
        Op::Check { url } => inject::check_request(&inputs.urls[*url as usize]),
        Op::Watch { urls } => {
            let body: Vec<&str> = urls
                .iter()
                .map(|&u| inputs.watch_urls[u as usize].as_str())
                .collect();
            inject::post_request("/watch", &body.join("\n"))
        }
    };
    let traffic = Traffic {
        check_rate_hz: ctx.rate_hz,
        weights: &inputs.weights,
        watch_every_s: WATCH_EVERY_S,
        watch_batch: WATCH_BATCH,
    };
    let mut rng = Rng::new(ctx.seed ^ 0x10AD);
    let mut pool: VecDeque<u32> = (0..inputs.watch_urls.len() as u32).collect();

    // builds the incremental re-audit engine the watch pump maintains
    get(addr, "/report")?;
    let warm_slots = inject::schedule(&mut rng, &traffic, WARM_S, &mut pool);
    let warm = inject::run(addr, conns, cpu, &warm_slots, &requests).map_err(|e| e.to_string())?;

    let before = get(addr, "/metrics")?;
    let cpu0 = procfs::cpu_seconds(server.pid()).map_err(|e| e.to_string())?;
    let steal0 = procfs::steal_ticks().map_err(|e| e.to_string())?;
    let slots = inject::schedule(&mut rng, &traffic, ctx.seconds, &mut pool);
    let window = inject::run(addr, conns, cpu, &slots, &requests).map_err(|e| e.to_string())?;
    let cpu1 = procfs::cpu_seconds(server.pid()).map_err(|e| e.to_string())?;
    let steal1 = procfs::steal_ticks().map_err(|e| e.to_string())?;
    let after = get(addr, "/metrics")?;
    let peak_rss_mb = procfs::peak_rss_mb(server.pid()).map_err(|e| e.to_string())?;

    let mut deltas = Vec::new();
    for name in SERIES {
        deltas.push(series(&after, name)? - series(&before, name)?);
    }
    let watch_posted = [&warm_slots, &slots]
        .iter()
        .flat_map(|s| s.iter())
        .map(|s| match &s.op {
            Op::Watch { urls } => urls.len(),
            Op::Check { .. } => 0,
        })
        .sum();
    Ok(LoadRun {
        setup_s: Vec::new(),
        warm,
        slots,
        window,
        deltas,
        watchlist: series(&after, "permadead_watchlist_size")?,
        watch_posted,
        server_cpu_s: cpu1 - cpu0,
        peak_rss_mb,
        steal_ticks: steal1 - steal0,
        conns,
    })
}

/// Check every answer of the load run; returns the failed-operation count
/// of the warm-up and the window.
pub fn check_load_run(report: &mut Report, inputs: &Inputs, s: &LoadRun) -> (u64, u64) {
    let mut failed = [0u64; 2];
    let mut bad_bodies = Vec::new();
    for (phase, outcomes) in [&s.warm, &s.window].into_iter().enumerate() {
        for o in outcomes.iter().filter(|o| o.status != 200) {
            failed[phase] += 1;
            bad_bodies.push(format!("status {}", o.status));
        }
    }
    for (slot, o) in s.slots.iter().zip(&s.window) {
        let Op::Check { url } = slot.op else { continue };
        let i = url as usize;
        if o.status != 200 {
            continue;
        }
        if json_field(&o.body, "provenance") != Some(inputs.slices[i].provenance()) {
            bad_bodies.push(format!(
                "{} provenance {:?}",
                inputs.urls[i],
                json_field(&o.body, "provenance")
            ));
        }
        if let Some(e) = &inputs.expected[i] {
            let got = [
                json_field(&o.body, "verdict"),
                json_field(&o.body, "live_status"),
                json_field(&o.body, "soft404"),
                json_field(&o.body, "archival"),
            ];
            let want = [
                Some(e.verdict),
                Some(e.live_status.as_str()),
                Some(e.soft404.as_str()),
                Some(e.archival.as_str()),
            ];
            if got != want {
                bad_bodies.push(format!(
                    "{}: served {got:?}, batch study {want:?}",
                    inputs.urls[i]
                ));
            }
        }
    }
    report.check(bad_bodies.is_empty(), || {
        format!("{} bad answers, first: {}", bad_bodies.len(), bad_bodies[0])
    });

    let checks = s
        .slots
        .iter()
        .filter(|x| matches!(x.op, Op::Check { .. }))
        .count() as f64;
    let hits = checks_where(s, true).len() as f64;
    let d = &s.deltas;
    report.check(d[0] == checks, || {
        format!("/metrics counted {} checks, {checks} sent", d[0])
    });
    report.check(d[1] == hits && d[2] == checks - hits, || {
        format!(
            "/metrics hits {} misses {}, answers {hits} cached of {checks}",
            d[1], d[2]
        )
    });
    report.check(d[3] == 0.0 && d[4] == 0.0, || {
        format!("{} 5xx and {} refusals in the window", d[3], d[4])
    });
    report.check(s.watchlist == s.watch_posted as f64, || {
        format!(
            "watchlist {} after posting {} distinct URLs",
            s.watchlist, s.watch_posted
        )
    });
    (failed[0], failed[1])
}

/// `/check` outcomes of the window answered from cache (`true`) or by a
/// fresh audit (`false`).
pub fn checks_where(s: &LoadRun, from_cache: bool) -> Vec<&Outcome> {
    s.slots
        .iter()
        .zip(&s.window)
        .filter(|(slot, o)| {
            matches!(slot.op, Op::Check { .. }) && o.status == 200 && cached(&o.body) == from_cache
        })
        .map(|(_, o)| o)
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (world, dataset, _) = crate::world::load(&ctx.snapshot)?;
    let inputs = inputs(&world, &dataset, ctx.seed);
    drop(world);
    let s = load_run(ctx, &inputs, SPAWNS)?;
    report.phase("setup", s.setup_s.len() as u64, 0);
    let (warm_failed, window_failed) = check_load_run(&mut report, &inputs, &s);
    report.phase("warm-up", s.warm.len() as u64 + 1, warm_failed);
    report.phase("window", s.window.len() as u64, window_failed);

    let checks = s
        .slots
        .iter()
        .filter(|x| matches!(x.op, Op::Check { .. }))
        .count();
    let misses: Vec<f64> = checks_where(&s, false)
        .iter()
        .map(|o| o.sched_ms())
        .collect();
    let hits: Vec<f64> = checks_where(&s, true)
        .iter()
        .map(|o| o.sched_ms())
        .collect();
    if misses.is_empty() || hits.is_empty() {
        return Err("the window saw no fresh or no cached answers".into());
    }
    report.metric("setup_s", pct::median(&s.setup_s), "s");
    report.metric("peak_rss_mb", s.peak_rss_mb, "MB");
    report.metric("us_per_link", s.server_cpu_s * 1e6 / checks as f64, "us");
    report.note(format!(
        "window: {checks} checks ({} cached, {} fresh), cached p50 {:.3} ms, fresh p50 {:.3} ms, \
         {} watch posts, steal {} ticks",
        hits.len(),
        misses.len(),
        pct::median(&hits),
        pct::median(&misses),
        s.window.len() - checks,
        s.steal_ticks
    ));
    Ok(report)
}

/// One-off offered-rate ladder: one server, one warm-up and window per
/// rate, printed as a table (no output checks; watch URLs repeat across
/// rungs).
pub fn ladder(ctx: &Ctx, rates: &[f64]) -> Result<(), String> {
    let (world, dataset, _) = crate::world::load(&ctx.snapshot)?;
    let inputs = inputs(&world, &dataset, ctx.seed);
    drop(world);
    let (server, _) = Server::spawn(ctx)?;
    println!("rate_hz\tcached_p50_ms\tfresh_p50_ms\tcheck_p99_ms\tlateness_p99_ms\tserver_cpu_us_per_check\thit_ratio");
    let mut out = Ok(());
    for &rate in rates {
        let rung = Ctx {
            rate_hz: rate,
            ..ctx.clone()
        };
        let s = match drive(&rung, &inputs, &server) {
            Ok(s) => s,
            Err(e) => {
                out = Err(e);
                break;
            }
        };
        let checks = s
            .slots
            .iter()
            .filter(|x| matches!(x.op, Op::Check { .. }))
            .count();
        let sched = |v: Vec<&Outcome>| v.iter().map(|o| o.sched_ms()).collect::<Vec<f64>>();
        let (hits, misses) = (
            sched(checks_where(&s, true)),
            sched(checks_where(&s, false)),
        );
        let all: Vec<f64> = hits.iter().chain(&misses).copied().collect();
        let lateness: Vec<f64> = s.window.iter().map(|o| o.lateness_ms()).collect();
        let p = |v: &[f64], q: f64| {
            if v.is_empty() {
                f64::NAN
            } else {
                pct::of(v, q)
            }
        };
        println!(
            "{rate}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.1}\t{:.3}",
            p(&hits, 50.0),
            p(&misses, 50.0),
            p(&all, 99.0),
            p(&lateness, 99.0),
            s.server_cpu_s * 1e6 / checks.max(1) as f64,
            s.deltas[1] / (s.deltas[1] + s.deltas[2]).max(1.0),
        );
    }
    server.stop();
    out
}
