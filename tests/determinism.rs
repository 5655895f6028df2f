//! Determinism of the sharded pipeline: for any worker count, the study's
//! findings and rendered report must be bit-identical to the serial run.
//! This is the contract that lets `--jobs` exist at all — parallelism may
//! only change the wall clock, never a single figure.

use permadead::analysis::{soft404_probe, Dataset, Study, StudyOptions};
use permadead::net::{LiveStatus, RetryPolicy};
use permadead::sim::{Scenario, ScenarioConfig};
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::generate(ScenarioConfig::small(7)))
}

fn dataset() -> Dataset {
    let s = scenario();
    let category_size = s.wiki.permanently_dead_category().len();
    Dataset::alphabetical(&s.wiki, category_size * 6 / 10, 10_000, 42)
}

fn study_with_jobs(jobs: usize) -> Study {
    let s = scenario();
    Study::run_with(
        &s.web,
        &s.archive,
        &dataset(),
        s.config.study_time,
        StudyOptions::with_jobs(jobs),
    )
}

#[test]
fn findings_identical_across_worker_counts() {
    let serial = study_with_jobs(1);
    assert!(serial.len() > 50, "dataset too small to exercise sharding");
    for jobs in [2usize, 8] {
        let sharded = study_with_jobs(jobs);
        assert_eq!(
            serial.findings, sharded.findings,
            "findings diverged at jobs={jobs}"
        );
        assert_eq!(
            serial.stage_stats, sharded.stage_stats,
            "stage hit counts diverged at jobs={jobs}"
        );
    }
}

#[test]
fn rendered_report_identical_across_worker_counts() {
    let serial = study_with_jobs(1);
    let sharded = study_with_jobs(8);
    assert_eq!(serial.report(), sharded.report());
    assert_eq!(
        serial.report().render_comparison(),
        sharded.report().render_comparison()
    );
}

/// Attempt-0 bit-identity over the full sample. Two layers:
///
/// 1. Passing the default knobs *explicitly* (single attempt, no CDX
///    timeout) is the identity: findings AND stage counters — retry counts
///    and accumulated backoff sit inside `StageStats`' `PartialEq` — match
///    the default study exactly, with zero retries recorded.
/// 2. A retrying policy on this world spends real retries (rotted origins
///    fail with permanent connect-timeout/unavailable states), but those
///    failures are attempt-independent, so every retry ladder exhausts and
///    attempt 0's draw decides every verdict: findings stay bit-identical.
#[test]
fn explicit_single_policy_is_the_identity_and_retries_never_flip_rot_verdicts() {
    let s = scenario();
    let baseline = study_with_jobs(1);

    let explicit = Study::run_with(
        &s.web,
        &s.archive,
        &dataset(),
        s.config.study_time,
        StudyOptions::with_jobs(1)
            .with_retry(RetryPolicy::single())
            .with_cdx_timeout_ms(None),
    );
    assert_eq!(baseline.findings, explicit.findings);
    assert_eq!(baseline.stage_stats, explicit.stage_stats);
    assert!(explicit.report().retry_counts().is_zero());

    let retried = Study::run_with(
        &s.web,
        &s.archive,
        &dataset(),
        s.config.study_time,
        StudyOptions::with_jobs(1)
            .with_retry(RetryPolicy::standard(3, 0xA77))
            .with_cdx_timeout_ms(None),
    );
    assert_eq!(baseline.findings, retried.findings, "attempt 0 diverged");
    let counts = retried.report().retry_counts();
    assert!(counts.total() > 0, "permanently-failing origins must provoke retries");
    assert!(counts.exhausted > 0, "attempt-independent failures must exhaust the ladder");
}

/// The watch scheduler's jobs-independence contract, end to end over the
/// real simulated web: the same `(seed, scale, sample, days, cadence,
/// strikes)` must produce a bit-identical event timeline — per-day rows,
/// the raw transition log, and the rendered table — for every `--jobs`.
#[test]
fn watch_timeline_identical_across_worker_counts() {
    use permadead::analysis::live_check;
    use permadead::net::Duration;
    use permadead::sched::{run_days, Cadence, PolicySpec, Scheduler, SchedulerConfig};

    let s = scenario();
    let run = |jobs: usize| {
        let mut sched = Scheduler::new(SchedulerConfig {
            policy: PolicySpec::IabotStrikes {
                strikes: 3,
                min_span: Duration::days(2),
            },
            cadence: Cadence::Fixed { every: Duration::days(1) },
            host_budget_per_day: Some(8), // politeness deferrals must replay too
        });
        for entry in &dataset().entries {
            sched.watch_staggered(entry.url.clone(), s.config.study_time);
        }
        run_days(&mut sched, s.config.study_time, 7, jobs, |url, at| {
            live_check(&s.web, url, at).is_final_200()
        })
    };
    let serial = run(1);
    assert!(serial.links > 50, "dataset too small to exercise sharding");
    assert!(serial.totals.checks > 0);
    for jobs in [2usize, 8] {
        let sharded = run(jobs);
        assert_eq!(serial, sharded, "watch timeline diverged at jobs={jobs}");
        assert_eq!(
            serial.render("header"),
            sharded.render("header"),
            "rendered table diverged at jobs={jobs}"
        );
    }
}

/// The policy lab's jobs-independence contract: every detection policy's
/// 45-day timeline over every ground-truth fault profile — the transition
/// log, the per-day rows, and the derived scoreboard — must be
/// bit-identical across worker counts. The lab fates are pure functions of
/// `(profile, url, seed)`, so any divergence here is a scheduler-ordering
/// bug, not noise.
#[test]
fn policy_lab_timelines_identical_across_worker_counts() {
    use permadead::net::SimTime;
    use permadead::policy::lab::{profile_links, PROFILES};
    use permadead::sched::{score_policy, PolicySpec};

    let start = SimTime::from_ymd(2022, 3, 1);
    for profile in PROFILES {
        let links = profile_links(profile, 42);
        for spec in PolicySpec::all_default() {
            let serial = score_policy(spec, profile, &links, start, 45, 1, 42);
            assert!(serial.checks > 0, "{profile}/{spec} ran no checks");
            for jobs in [2usize, 8] {
                let sharded = score_policy(spec, profile, &links, start, 45, jobs, 42);
                assert_eq!(
                    serial, sharded,
                    "{profile}/{spec} scoreboard diverged at jobs={jobs}"
                );
            }
        }
    }
}

/// The load generator's determinism contract: a schedule is a pure function
/// of `(spec, universe)` — bit-identical timeline AND URL stream on every
/// regeneration — and the injector pool is only an execution detail: firing
/// the same schedule with 1, 2, or 8 injector threads must sample exactly
/// the same arrivals (every scheduled instant fired once, none invented,
/// none dropped). This is what makes `bench-loadgen` numbers comparable
/// across machines with different `--injectors` settings.
#[test]
fn loadgen_schedule_identical_across_injector_thread_counts() {
    use permadead::loadgen::{
        fire, ArrivalProcess, InjectorConfig, Schedule, ScheduleSpec, WatchPumpSpec,
    };
    use std::io::{Read, Write};
    use std::net::TcpListener;

    let s = scenario();
    let ranks = &s.web.ranks;
    let universe: Vec<(String, u32)> = dataset()
        .entries
        .iter()
        .take(48)
        .map(|e| (e.url.to_string(), ranks.rank(e.url.host())))
        .collect();

    let spec = ScheduleSpec {
        process: ArrivalProcess::Poisson { rate_hz: 400.0 },
        duration_secs: 0.5,
        seed: 42,
        watch_pump: Some(WatchPumpSpec { rate_hz: 20.0, batch: 3 }),
        ..ScheduleSpec::default()
    };
    let schedule = Schedule::generate(&spec, &universe);
    assert!(schedule.len() > 100, "schedule too small to exercise the pool");
    // pure regeneration: same timeline, same URLs, same watch bodies
    assert_eq!(schedule, Schedule::generate(&spec, &universe));

    // a minimal always-200 stub so the injector has something to hit
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { break };
            let mut buf = [0u8; 4096];
            let mut seen = Vec::new();
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        seen.extend_from_slice(&buf[..n]);
                        if seen.windows(4).any(|w| w == b"\r\n\r\n") {
                            break;
                        }
                    }
                }
            }
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
            );
        }
    });

    // ties sort deterministically by (instant, phase); the injector's merge
    // only orders by instant, so normalize both sides the same way
    let mut expected: Vec<(u64, &str)> = schedule
        .requests
        .iter()
        .map(|r| (r.at_nanos, r.op.phase()))
        .collect();
    expected.sort_unstable();
    for threads in [1usize, 2, 8] {
        let samples = fire(
            addr,
            &schedule,
            &InjectorConfig { threads, ..InjectorConfig::default() },
        );
        let mut fired: Vec<(u64, &str)> =
            samples.iter().map(|s| (s.scheduled_nanos, s.phase)).collect();
        fired.sort_unstable();
        assert_eq!(fired, expected, "arrival stream diverged at threads={threads}");
    }
}

/// Regression pin for the soft-404 probe seed: shard workers must key the
/// probe's randomness on the link's *dataset index*, never on a
/// shard-relative position. Recomputing each probe serially from the
/// dataset index must reproduce what the 8-way run stored.
#[test]
fn soft404_seed_is_dataset_indexed() {
    let s = scenario();
    let ds = dataset();
    let sharded = study_with_jobs(8);
    let mut probed = 0;
    for (i, f) in sharded.findings.iter().enumerate() {
        if f.live.status == LiveStatus::Ok {
            // only links the soft-404 stage actually probed are comparable
            let expected = soft404_probe(&s.web, &ds.entries[i].url, s.config.study_time, i as u64);
            assert_eq!(f.soft404, expected, "soft-404 verdict diverged at index {i}");
            probed += 1;
        }
    }
    assert!(probed > 10, "too few probed links ({probed}) to pin the seed");
}

/// The rediscovery index contract: the sharded build is bit-identical for
/// every worker count — entries, title postings, and sketch postings — so
/// top-k retrieval and a full study with the rescue stage armed can never
/// depend on `--jobs`. This is what lets the worldcache serialize the index
/// into a deterministic snapshot.
#[test]
fn rescue_index_and_rescued_study_identical_across_worker_counts() {
    use permadead::rescue::{Fingerprint, RescueIndex, DEFAULT_TOP_K};

    let s = scenario();
    let serial = RescueIndex::build(&s.web, s.config.study_time, 1);
    assert!(serial.len() > 100, "index too small to exercise sharding");
    // probe retrieval with every 97th indexed page's own signature
    let fingerprints: Vec<Fingerprint> = serial
        .entries()
        .iter()
        .step_by(97)
        .map(|e| Fingerprint { title: e.title.clone(), sketch: e.sketch })
        .collect();
    for jobs in [2usize, 8] {
        let sharded = RescueIndex::build(&s.web, s.config.study_time, jobs);
        assert_eq!(serial, sharded, "index diverged at jobs={jobs}");
        for fp in &fingerprints {
            assert_eq!(
                serial.query(fp, DEFAULT_TOP_K),
                sharded.query(fp, DEFAULT_TOP_K),
                "top-k retrieval diverged at jobs={jobs}"
            );
        }
    }

    let index = std::sync::Arc::new(serial);
    let run = |jobs: usize| {
        Study::run_with(
            &s.web,
            &s.archive,
            &dataset(),
            s.config.study_time,
            StudyOptions::with_jobs(jobs).with_rescue(Some(index.clone())),
        )
    };
    let base = run(1);
    assert!(
        base.stage_stats.iter().any(|st| st.name == "rediscovery" && st.hits > 0),
        "rediscovery stage never searched — the gate is broken"
    );
    for jobs in [2usize, 8] {
        let sharded = run(jobs);
        assert_eq!(base.findings, sharded.findings, "rescued findings diverged at jobs={jobs}");
        assert_eq!(base.stage_stats, sharded.stage_stats);
    }
}

/// `--reactors` shards connections, never answers: a 2-reactor server
/// answers every `/check` with the byte-identical verdict a 1-reactor
/// server gives, and — because the cache shard is a pure function of the
/// URL — the cache hit/miss ledger lands on identical totals for the same
/// traffic.
#[test]
fn two_reactors_match_single_reactor_verdicts_and_cache_ledger() {
    use permadead::serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    fn percent_encode(s: &str) -> String {
        let mut out = String::new();
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

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .unwrap_or((response.as_str(), ""));
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    fn spawn_server(reactors: usize) -> ServerHandle {
        let cfg = ScenarioConfig {
            rot_links: 40,
            ..ScenarioConfig::small(7)
        };
        let service = AuditService::new(cfg, CacheConfig::default());
        let config = ServerConfig {
            workers: 2,
            reactors,
            ..ServerConfig::default()
        };
        start(service, config).expect("server starts")
    }

    let single = spawn_server(1);
    let sharded = spawn_server(2);
    assert_eq!(sharded.reactor_count(), 2);

    let urls = single.service().sample_urls(24);
    assert!(!urls.is_empty());
    // two passes: the first misses and fills, the second must hit
    for _pass in 0..2 {
        for url in &urls {
            let path = format!("/check?url={}", percent_encode(url));
            let (s1, b1) = get(single.addr(), &path);
            let (s2, b2) = get(sharded.addr(), &path);
            assert!(s1.contains("200"), "{s1}");
            assert_eq!(s1, s2);
            assert_eq!(b1, b2, "verdict diverged for {url}");
        }
    }
    let a = single.service().cache_stats();
    let b = sharded.service().cache_stats();
    assert_eq!(
        (a.hits, a.misses),
        (b.hits, b.misses),
        "cache ledger diverged"
    );
    assert_eq!(
        a.hits,
        urls.len() as u64,
        "second pass should hit every URL"
    );

    // the sharded server's healthz advertises its reactor count
    let (_, health) = get(sharded.addr(), "/healthz");
    assert!(health.contains("\"reactors\":2"), "{health}");
    single.shutdown();
    sharded.shutdown();
}
