//! The traced run: spans around every call the benchmark makes into a
//! layer, and the per-layer metrics derived from them.
//!
//! The sweep is the same for every workload: world load, postings
//! rebuild, archive-only passes, one rediscovery-armed pass, the sched
//! and wire probes, in-process `AuditService::check`, and one loopback
//! serve load run. Each layer's numbers thus come from the path that
//! drives them.

use crate::batch;
use crate::checks;
use crate::inject;
use crate::pct;
use crate::report::Report;
use crate::rng::Rng;
use crate::serve::{self, LoadRun};
use crate::trace::{self, span, TimedNetwork, TracedStage};
use crate::world::Ctx;
use permadead_core::{default_stages, live_check_with_retry, Stage};
use permadead_net::RetryPolicy;
use permadead_rescue::{RescueIndex, DEFAULT_TOP_K};
use permadead_sched::{run_days, Scheduler, SchedulerConfig};
use permadead_serve::wire::{parse_request, HttpResponse, Parse};
use permadead_serve::{AuditService, CacheConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rounds of each kind (untraced, traced) over the archive-only study.
const PASSES: usize = 3;
/// Watched links and simulated days of the in-process `run_days` probe.
const SCHED_LINKS: usize = 1000;
const SCHED_DAYS: u32 = 7;
/// URLs checked twice (miss, then hit) against an in-process service.
const SERVICE_SAMPLE: usize = 500;
/// Calls per wire-function timing batch, and batches.
const WIRE_CALLS: usize = 2000;
const WIRE_BATCHES: usize = 9;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    trace::enable();
    let mut r = Report::default();

    // worldstore
    let (mut world, dataset, load_s) = span("World::load", || crate::world::load(&ctx.snapshot))?;
    r.metric("worldstore.load_s", load_s, "s");
    let bytes = std::fs::metadata(&ctx.snapshot).map_err(err)?.len();
    r.metric(
        "worldstore.snapshot_mb",
        bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    r.phase("load", 1, 0);

    // rescue: the postings rebuild `World::load` pays, on its own
    let index = world
        .rescue
        .take()
        .ok_or("the snapshot carries no rediscovery index")?;
    let entries = index.entries().to_vec();
    let t = Instant::now();
    let rebuilt = span("RescueIndex::from_entries", || {
        RescueIndex::from_entries(entries)
    });
    r.metric("rescue.postings_rebuild_s", t.elapsed().as_secs_f64(), "s");
    r.check(rebuilt == index, || {
        "rebuilt postings differ from the loaded index".into()
    });
    drop(rebuilt);

    // core, netsim, archive: archive-only passes, untraced then traced
    let n = dataset.len();
    let mut rng = Rng::new(ctx.seed);
    let links = batch::shuffled(&batch::members(n, 1), &mut rng);
    let plain_stages = default_stages();
    let traced_stages: Vec<Box<dyn Stage>> = default_stages()
        .into_iter()
        .map(|s| Box::new(TracedStage(s)) as Box<dyn Stage>)
        .collect();
    let plain = batch::env(&world, &world.web, None);
    let timed_web = TimedNetwork { inner: &world.web };
    let traced = batch::env(&world, &timed_web, None);
    let mut plain_wall = Vec::new();
    let mut plain_link_ms = Vec::new();
    let mut reference = None;
    for _ in 0..PASSES {
        let p = batch::round(&plain, &plain_stages, &dataset, &links);
        plain_wall.push(p.wall_s);
        plain_link_ms.extend(&p.latencies_ms);
        reference = Some(p.findings);
    }
    let lookups0 = world.archive.lookups.get();
    let rows0 = world.archive.rows_scanned.get();
    let mark = trace::mark();
    let mut traced_wall = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..PASSES {
        let p = span("pass", || {
            batch::round(&traced, &traced_stages, &dataset, &links)
        });
        r.check(Some(&p.findings) == reference.as_ref(), || {
            "tracing changed the findings".into()
        });
        traced_wall.push(p.wall_s);
        stats = p.stats;
    }
    let spans = trace::since(mark);
    let links = (PASSES * n) as f64;
    let totals = trace::totals(&spans);
    let mut staged_ns = 0u64;
    for s in &stats {
        let t = totals.get(s.name).copied().unwrap_or_default();
        staged_ns += t.total_ns;
        if s.name != "rediscovery" {
            r.metric(
                format!("core.{}.self_us", s.name),
                t.self_ns as f64 / links / 1e3,
                "us",
            );
            r.metric(format!("core.{}.hits", s.name), s.hits as f64, "count");
        }
    }
    let requests = totals.get("netsim.request").copied().unwrap_or_default();
    r.metric(
        "netsim.requests_per_link",
        requests.count as f64 / links,
        "count",
    );
    r.metric(
        "netsim.us_per_request",
        requests.total_ns as f64 / requests.count.max(1) as f64 / 1e3,
        "us",
    );
    r.metric(
        "archive.lookups_per_link",
        (world.archive.lookups.get() - lookups0) as f64 / links,
        "count",
    );
    r.metric(
        "archive.rows_scanned_per_link",
        (world.archive.rows_scanned.get() - rows0) as f64 / links,
        "count",
    );
    let pass_ns = totals.get("pass").map_or(1, |t| t.total_ns) as f64;
    r.metric(
        "core.unattributed_pct",
        100.0 * (pass_ns - staged_ns as f64) / pass_ns,
        "%",
    );
    // fastest of each kind, as host contention comes and goes
    let (plain_s, traced_s) = (pct::of(&plain_wall, 0.0), pct::of(&traced_wall, 0.0));
    r.metric(
        "trace.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    r.metric("audit.links_per_s", n as f64 / plain_s, "1/s");
    r.metric("audit.link_p50_ms", pct::median(&plain_link_ms), "ms");
    r.phase("archive-only passes", (2 * PASSES * n) as u64, 0);

    // one rediscovery-armed round of `rediscover-paper`, checked as that
    // workload checks it, then each of its queries timed on its own
    let armed = batch::env(&world, &timed_web, Some(&index));
    let members = batch::members(n, batch::REDISCOVER_STRIDE);
    let sample = batch::shuffled(&members, &mut rng);
    let mark = trace::mark();
    let p = span("pass", || {
        batch::round(&armed, &traced_stages, &dataset, &sample)
    });
    let spans = trace::since(mark);
    let rediscovery = p
        .stats
        .iter()
        .find(|s| s.name == "rediscovery")
        .map_or(0, |s| s.hits);
    let t = trace::totals(&spans)
        .get("rediscovery")
        .copied()
        .unwrap_or_default();
    r.metric(
        "core.rediscovery.self_us",
        t.self_ns as f64 / sample.len() as f64 / 1e3,
        "us",
    );
    r.metric("core.rediscovery.hits", rediscovery as f64, "count");
    r.metric("rescue.queries", rediscovery as f64, "count");
    let reference = reference.ok_or("no archive-only round ran")?;
    let mismatched = batch::archive_side_mismatches(&members, &p, &reference);
    r.check(mismatched == 0, || {
        format!("{mismatched} armed findings differ from the archive-only round")
    });
    let by_surt = checks::snapshots_by_surt(&world.archive);
    let fingerprints = batch::check_rediscovery(&mut r, ctx, &world, &index, &p, &by_surt);
    drop(by_surt);
    let mut query_ms = Vec::new();
    for fp in &fingerprints {
        let t = Instant::now();
        black_box(span("RescueIndex::query", || {
            index.query(fp, DEFAULT_TOP_K)
        }));
        query_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    r.check(!query_ms.is_empty(), || {
        "no rediscovery query to time".into()
    });
    r.metric(
        "rescue.query_ms",
        query_ms.iter().sum::<f64>() / query_ms.len().max(1) as f64,
        "ms",
    );
    r.phase(
        "rediscovery round",
        (sample.len() + query_ms.len()) as u64,
        0,
    );
    drop(index);

    // sched: run_days with a timed re-check closure
    let start = world.meta.study_time;
    let mut sched = Scheduler::new(SchedulerConfig::default());
    for e in dataset.entries.iter().take(SCHED_LINKS) {
        sched.watch_staggered(e.url.clone(), start);
    }
    let (check_ns, checks) = (AtomicU64::new(0), AtomicU64::new(0));
    let retry = RetryPolicy::single();
    let t = Instant::now();
    span("run_days", || {
        run_days(&mut sched, start, SCHED_DAYS, 1, |url, at| {
            let t = Instant::now();
            let ok = span("recheck", || {
                live_check_with_retry(&world.web, url, at, &retry)
                    .0
                    .is_final_200()
            });
            check_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            checks.fetch_add(1, Ordering::Relaxed);
            ok
        })
    });
    let total_ns = t.elapsed().as_nanos() as f64;
    let checks = checks.load(Ordering::Relaxed);
    r.metric(
        "sched.self_us_per_check",
        (total_ns - check_ns.load(Ordering::Relaxed) as f64) / checks.max(1) as f64 / 1e3,
        "us",
    );
    r.phase("sched probe", checks, 0);

    // serve, in process: AuditService::check and the wire functions
    let inputs = serve::inputs(&world, &dataset, ctx.seed);
    drop(dataset);
    let service = AuditService::from_world(
        world,
        CacheConfig {
            capacity: 4 * SERVICE_SAMPLE,
            ..CacheConfig::default()
        },
    );
    let now = service.study_time();
    let mut picks: Vec<usize> = (0..inputs.urls.len()).collect();
    rng.shuffle(&mut picks);
    let (mut miss_us, mut hit_us, mut body) = (Vec::new(), Vec::new(), String::new());
    for &i in picks.iter().take(SERVICE_SAMPLE) {
        for want_cached in [false, true] {
            let t = Instant::now();
            let got = span("AuditService::check", || {
                service.check(&inputs.urls[i], now)
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            match got {
                Ok((outcome, _)) if outcome.cached == want_cached => {
                    if want_cached {
                        hit_us.push(us)
                    } else {
                        miss_us.push(us)
                    }
                    body = outcome.body;
                }
                _ => r.check(false, || {
                    format!("in-process check of {} misbehaved", inputs.urls[i])
                }),
            }
        }
    }
    drop(service);
    r.metric("serve.check_miss_us", pct::median(&miss_us), "us");
    r.metric("serve.check_hit_us", pct::median(&hit_us), "us");
    r.phase("service probe", 2 * SERVICE_SAMPLE as u64, 0);

    let request = inject::check_request(&inputs.urls[picks[0]]);
    let parse_us = per_call_us(|| {
        span("wire::parse_request", || {
            black_box(parse_request(black_box(&request)))
        })
    });
    r.check(
        matches!(parse_request(&request), Parse::Complete { .. }),
        || "probe request did not parse".into(),
    );
    let response = HttpResponse::json(200, body);
    let serialize_us = per_call_us(|| {
        span("HttpResponse::serialize", || {
            black_box(response.serialize(true))
        })
    });
    r.metric("serve.parse_us", parse_us, "us");
    r.metric("serve.serialize_us", serialize_us, "us");

    // serve, over loopback
    let s = serve::load_run(ctx, &inputs, 1)?;
    let (warm_failed, window_failed) = serve::check_load_run(&mut r, &inputs, &s);
    r.phase("serve warm-up", s.warm.len() as u64 + 1, warm_failed);
    r.phase("serve window", s.window.len() as u64, window_failed);
    serve_layers(&mut r, &s);

    let spans = trace::since(0);
    trace::write(&ctx.trace_out, &spans).map_err(err)?;
    r.note(format!(
        "{} spans written to {}",
        spans.len(),
        ctx.trace_out.display()
    ));
    Ok(r)
}

/// Median microseconds per call over `WIRE_BATCHES` batches of
/// `WIRE_CALLS` calls.
fn per_call_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut batches = Vec::new();
    for _ in 0..WIRE_BATCHES {
        let t = Instant::now();
        for _ in 0..WIRE_CALLS {
            black_box(f());
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / WIRE_CALLS as f64);
    }
    pct::median(&batches)
}

fn serve_layers(r: &mut Report, s: &LoadRun) {
    let hits = serve::checks_where(s, true);
    let misses = serve::checks_where(s, false);
    let mut sched_ms: Vec<f64> = hits.iter().chain(&misses).map(|o| o.sched_ms()).collect();
    sched_ms.sort_by(f64::total_cmp);
    let mut resp_ms: Vec<f64> = hits.iter().chain(&misses).map(|o| o.resp_ms()).collect();
    resp_ms.sort_by(f64::total_cmp);
    let watch_ms: Vec<f64> = s
        .slots
        .iter()
        .zip(&s.window)
        .filter(|(slot, _)| matches!(slot.op, inject::Op::Watch { .. }))
        .map(|(_, o)| o.sched_ms())
        .collect();
    let mut lateness: Vec<f64> = s.window.iter().map(|o| o.lateness_ms()).collect();
    lateness.sort_by(f64::total_cmp);
    // a slot is missed when it went out after its connection's next slot
    // was already due
    let missed = s
        .window
        .iter()
        .zip(s.window.iter().skip(s.conns))
        .filter(|(o, next)| o.sent_ns > next.due_ns)
        .count();
    let d = &s.deltas;
    let or_zero = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { pct::of(v, p) };
    r.metric(
        "serve.cache_hit_ratio",
        d[1] / (d[1] + d[2]).max(1.0),
        "ratio",
    );
    r.metric(
        "serve.check_hit_p50_ms",
        or_zero(&hits.iter().map(|o| o.sched_ms()).collect::<Vec<_>>(), 50.0),
        "ms",
    );
    r.metric(
        "serve.check_miss_p50_ms",
        or_zero(
            &misses.iter().map(|o| o.sched_ms()).collect::<Vec<_>>(),
            50.0,
        ),
        "ms",
    );
    r.metric("serve.resp_p50_ms", or_zero(&resp_ms, 50.0), "ms");
    r.metric("serve.resp_p99_ms", or_zero(&resp_ms, 99.0), "ms");
    r.metric("serve.watch_p50_ms", or_zero(&watch_ms, 50.0), "ms");
    let (tail_pct, tail_ms) = pct::tail(&sched_ms).unwrap_or((50.0, or_zero(&sched_ms, 50.0)));
    r.metric("serve.check_tail_ms", tail_ms, "ms");
    r.metric("serve.check_tail_pct", tail_pct, "%");
    r.metric("serve.check_samples", sched_ms.len() as f64, "count");
    r.metric("sched.rechecks", d[5], "count");
    r.metric("sched.reaudit_links", d[6], "count");
    r.metric("injector.lateness_p50_ms", or_zero(&lateness, 50.0), "ms");
    r.metric("injector.lateness_p99_ms", or_zero(&lateness, 99.0), "ms");
    r.metric("injector.missed_slots", missed as f64, "count");
    r.note(format!(
        "serve load run: {} cached / {} fresh checks, steal {} ticks, server CPU {:.3} s",
        hits.len(),
        misses.len(),
        s.steal_ticks,
        s.server_cpu_s
    ));
}
