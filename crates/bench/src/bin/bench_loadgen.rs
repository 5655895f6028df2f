//! `bench-loadgen` — the workspace's load tool, **open-loop**.
//!
//! Generates a deterministic arrival schedule (see `permadead_loadgen`),
//! starts the audit server in-process, fires the schedule from a dedicated
//! injector pool regardless of response progress, and reports latency from
//! the *scheduled* send instant — so a server stall widens the reported
//! percentiles instead of silently slowing the offered load (coordinated
//! omission is structurally impossible). The JSON line is persisted to
//! `results/BENCH_loadgen.json`.
//!
//! ```text
//! bench-loadgen [--rate HZ] [--duration S] [--process poisson|fixed] [--seed N]
//!               [--unique U] [--workers W] [--reactors R] [--injectors I]
//!               [--mode close|keepalive]
//!               [--zipf-alpha A] [--diurnal-amplitude A] [--diurnal-period S]
//!               [--hot-count K] [--hot-fraction F]
//!               [--watch-rate HZ] [--watch-batch B]
//!               [--stall-ms MS] [--print-schedule-head N]
//! ```
//!
//! `--mode close` (default) opens a fresh connection per request; `--mode
//! keepalive` holds one HTTP/1.1 connection per injector thread. Offered
//! far more than the server can take (`--rate 200000 --duration 0.05`),
//! a run measures saturated throughput in either mode: `achieved_rps` is
//! what the server sustained, and lateness grows by design.
//!
//! `--stall-ms` injects a mid-run server stall: at one third of the run, a
//! side thread occupies every worker with `GET /debug/sleep?ms=…`. The
//! check traffic scheduled during the stall still fires on time, queues,
//! and the report's `sched_p99_ms` pulls away from `resp_p99_ms` — the
//! divergence a closed-loop bench cannot see.
//!
//! `--print-schedule-head N` prints the first N schedule entries as stable
//! text lines and exits without starting the server; the CI diffs this
//! against a pinned golden to catch any drift in the RNG or samplers.

use permadead_loadgen::{
    fire, issue, summarize, ArrivalProcess, ConnMode, DiurnalCurve, HotSkew, InjectorConfig,
    Schedule, ScheduleSpec, WatchPumpSpec,
};
use permadead_serve::{start, AuditService, CacheConfig, ServerConfig};
use permadead_sim::ScenarioConfig;
use std::process::ExitCode;
use std::time::Duration;

struct Opts {
    rate_hz: f64,
    duration_secs: f64,
    poisson: bool,
    seed: u64,
    unique: usize,
    workers: usize,
    reactors: usize,
    injectors: usize,
    mode: ConnMode,
    zipf_alpha: f64,
    diurnal_amplitude: f64,
    diurnal_period_secs: f64,
    hot_count: usize,
    hot_fraction: f64,
    watch_rate_hz: f64,
    watch_batch: usize,
    stall_ms: u64,
    print_schedule_head: usize,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        rate_hz: 300.0,
        duration_secs: 2.0,
        poisson: false,
        seed: 42,
        unique: 64,
        workers: 4,
        reactors: 1,
        injectors: 4,
        mode: ConnMode::Close,
        zipf_alpha: 0.8,
        diurnal_amplitude: 0.0,
        diurnal_period_secs: 0.0,
        hot_count: 0,
        hot_fraction: 0.0,
        watch_rate_hz: 0.0,
        watch_batch: 8,
        stall_ms: 0,
        print_schedule_head: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        let bad = || format!("flag {flag} has invalid value {value:?}");
        match flag.as_str() {
            "--process" => {
                opts.poisson = match value.as_str() {
                    "poisson" => true,
                    "fixed" => false,
                    other => return Err(format!("--process must be poisson|fixed, got {other:?}")),
                }
            }
            "--mode" => {
                opts.mode = match value.as_str() {
                    "close" => ConnMode::Close,
                    "keepalive" => ConnMode::KeepAlive,
                    other => return Err(format!("--mode must be close|keepalive, got {other:?}")),
                }
            }
            "--rate" => opts.rate_hz = value.parse().map_err(|_| bad())?,
            "--duration" => opts.duration_secs = value.parse().map_err(|_| bad())?,
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--unique" => opts.unique = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--workers" => opts.workers = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--reactors" => opts.reactors = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--injectors" => opts.injectors = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--zipf-alpha" => opts.zipf_alpha = value.parse().map_err(|_| bad())?,
            "--diurnal-amplitude" => opts.diurnal_amplitude = value.parse().map_err(|_| bad())?,
            "--diurnal-period" => opts.diurnal_period_secs = value.parse().map_err(|_| bad())?,
            "--hot-count" => opts.hot_count = value.parse().map_err(|_| bad())?,
            "--hot-fraction" => opts.hot_fraction = value.parse().map_err(|_| bad())?,
            "--watch-rate" => opts.watch_rate_hz = value.parse().map_err(|_| bad())?,
            "--watch-batch" => opts.watch_batch = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--stall-ms" => opts.stall_ms = value.parse().map_err(|_| bad())?,
            "--print-schedule-head" => {
                opts.print_schedule_head = value.parse().map_err(|_| bad())?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.rate_hz <= 0.0 || opts.duration_secs <= 0.0 {
        return Err("--rate and --duration must be positive".to_string());
    }
    Ok(opts)
}

fn spec_from(opts: &Opts) -> ScheduleSpec {
    ScheduleSpec {
        process: if opts.poisson {
            ArrivalProcess::Poisson { rate_hz: opts.rate_hz }
        } else {
            ArrivalProcess::FixedRate { rate_hz: opts.rate_hz }
        },
        diurnal: (opts.diurnal_amplitude > 0.0).then_some(DiurnalCurve {
            amplitude: opts.diurnal_amplitude,
            // an unset period defaults to one full cycle per run
            period_secs: if opts.diurnal_period_secs > 0.0 {
                opts.diurnal_period_secs
            } else {
                opts.duration_secs
            },
        }),
        duration_secs: opts.duration_secs,
        seed: opts.seed,
        zipf_alpha: opts.zipf_alpha,
        hot: (opts.hot_count > 0 && opts.hot_fraction > 0.0).then_some(HotSkew {
            count: opts.hot_count,
            fraction: opts.hot_fraction,
        }),
        watch_pump: (opts.watch_rate_hz > 0.0).then_some(WatchPumpSpec {
            rate_hz: opts.watch_rate_hz,
            batch: opts.watch_batch,
        }),
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench-loadgen [--rate HZ] [--duration S] [--process poisson|fixed] \
                 [--seed N] [--unique U] [--workers W] [--reactors R] [--injectors I] \
                 [--mode close|keepalive] [--zipf-alpha A] [--diurnal-amplitude A] [--diurnal-period S] \
                 [--hot-count K] [--hot-fraction F] [--watch-rate HZ] [--watch-batch B] \
                 [--stall-ms MS] [--print-schedule-head N]"
            );
            return ExitCode::FAILURE;
        }
    };

    eprintln!("[bench-loadgen] generating world (seed {})…", opts.seed);
    let service = AuditService::new(ScenarioConfig::small(opts.seed), CacheConfig::default());
    let universe = service.ranked_urls(opts.unique);
    if universe.is_empty() {
        eprintln!("error: dataset produced no URLs to query");
        return ExitCode::FAILURE;
    }
    let spec = spec_from(&opts);
    let schedule = Schedule::generate(&spec, &universe);

    if opts.print_schedule_head > 0 {
        // golden-diff mode: the schedule is pure, no server needed
        for line in schedule.head_lines(opts.print_schedule_head) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    let handle = match start(
        service,
        ServerConfig {
            workers: opts.workers,
            reactors: opts.reactors,
            queue_cap: (opts.injectors * 8).max(64),
            debug_endpoints: opts.stall_ms > 0,
            ..ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: could not start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    let process = if opts.poisson { "poisson" } else { "fixed" };
    let mode = match opts.mode {
        ConnMode::Close => "close",
        ConnMode::KeepAlive => "keepalive",
    };
    eprintln!(
        "[bench-loadgen] {} workers / {} reactor(s) on {addr}: \
         {} scheduled requests over {:.1}s ({process} @ {:.0}/s), \
         {} injector thread(s), {mode} mode",
        opts.workers,
        handle.reactor_count(),
        schedule.len(),
        opts.duration_secs,
        opts.rate_hz,
        opts.injectors,
    );

    let inject_cfg = InjectorConfig {
        threads: opts.injectors,
        mode: opts.mode,
        ..InjectorConfig::default()
    };

    // mid-run stall injection: occupy every worker with a debug sleep so
    // queued check traffic demonstrates the sched/resp divergence
    let staller = (opts.stall_ms > 0).then(|| {
        let delay = Duration::from_secs_f64(opts.duration_secs / 3.0);
        let stall_ms = opts.stall_ms;
        let workers = opts.workers;
        let cfg = inject_cfg.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            eprintln!("[bench-loadgen] injecting {stall_ms}ms stall across {workers} worker(s)");
            let sleep = format!(
                "GET /debug/sleep?ms={stall_ms} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n"
            );
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| issue(addr, sleep.as_bytes(), &cfg, &mut None));
                }
            });
        })
    });

    let samples = fire(addr, &schedule, &inject_cfg);
    if let Some(s) = staller {
        let _ = s.join();
    }
    let report = summarize(&samples, inject_cfg.miss_tolerance.as_nanos() as u64);

    let line = format!(
        "{{\"bench\":\"loadgen/open-loop\",\"loop\":\"open\",\"process\":\"{process}\",\"mode\":\"{mode}\",\
         \"rate_hz\":{:.1},\"duration_s\":{:.2},\"seed\":{},\"unique_urls\":{},\
         \"injectors\":{},\"workers\":{},\"reactors\":{},\
         \"stall_ms\":{},\"report\":{}}}",
        opts.rate_hz,
        opts.duration_secs,
        opts.seed,
        universe.len(),
        opts.injectors,
        opts.workers,
        handle.reactor_count(),
        opts.stall_ms,
        report.to_json(),
    );
    println!("{line}");
    match permadead_bench::persist_bench_results("loadgen", &format!("{line}\n")) {
        Ok(path) => eprintln!("[bench-loadgen] wrote {}", path.display()),
        Err(e) => eprintln!("[bench-loadgen] could not persist results: {e}"),
    }

    if opts.stall_ms > 0 {
        eprintln!(
            "[bench-loadgen] stall visibility: sched_p99 {:.1}ms vs resp_p99 {:.1}ms \
             (closed-loop view hides {:.1}ms of queueing)",
            report.sched_p99_ms,
            report.resp_p99_ms,
            report.sched_p99_ms - report.resp_p99_ms,
        );
    }
    handle.shutdown();

    let transport_failures: usize = report.phases.iter().map(|p| p.transport).sum();
    if transport_failures > 0 {
        eprintln!("[bench-loadgen] {transport_failures} transport failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
