//! `permadead` — the command-line face of the reproduction.
//!
//! ```text
//! permadead audit    [--seed N] [--scale small|paper] [--jobs N] [--retries N] [--retry-table MAX]
//!                    [--csv PATH] [--cdx PATH] [--stage-csv PATH] [--world-cache DIR]
//!                    [--rediscovery on|off]
//! permadead figures  [--seed N] [--scale small|paper] [--jobs N]
//! permadead forensics[--seed N] [--limit K] [--jobs N]
//! permadead bots     [--seed N]
//! permadead serve    [--seed N] [--scale small|paper] [--port P] [--workers W] [--reactors R]
//!                    [--cache-cap C]
//!                    [--retries N] [--retry-budget-ms B] [--origin-retry-budget-ms B]
//!                    [--rediscovery on|off]
//! permadead watch    [--seed N] [--scale small|paper] [--sample N] [--days D]
//!                    [--policy NAME[:ARGS]] [--strikes K] [--min-span-days S]
//!                    [--cadence fixed|aging|jitter[:DAYS]] [--host-budget B]
//!                    [--jobs N] [--retries N] [--rediscovery on|off]
//! permadead help
//! ```

mod args;
mod export;

use args::Args;
use permadead_core::{Dataset, Study, StudyOptions};
use permadead_rescue::RescueIndex;
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_stats::{percentile, render_bar_chart, render_cdf, Cdf};
use permadead_worldstore::World;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Args::parse(
        argv,
        &[
            "seed", "scale", "csv", "cdx", "limit", "sample", "jobs", "stage-csv", "port",
            "workers", "reactors", "cache-cap", "shards", "ttl-secs", "queue-cap", "max-conns", "retries",
            "retry-budget-ms", "retry-table", "origin-retry-budget-ms", "days", "strikes",
            "min-span-days", "policy", "cadence", "host-budget", "world-cache", "rediscovery",
        ],
    );
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "audit" => cmd_audit(&args),
        "figures" => cmd_figures(&args),
        "forensics" => cmd_forensics(&args),
        "bots" => cmd_bots(&args),
        "recommend" => cmd_recommend(&args),
        "serve" => cmd_serve(&args),
        "watch" => cmd_watch(&args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other:?} (try `permadead help`)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "permadead — reproduction of 'Characterizing Permanently Dead Links on Wikipedia' (IMC 2022)\n\n\
         USAGE:\n  permadead <command> [flags]\n\n\
         COMMANDS:\n\
         \x20 audit      generate a world, run the full pipeline, print the paper-vs-measured table\n\
         \x20 figures    print Figures 3–6 as ASCII series\n\
         \x20 forensics  narrate the life of individual permanently dead links\n\
         \x20 bots       IABot sweep totals and the WaybackMedic rescue comparison\n\
         \x20 recommend  the paper's implications as a work-list: what to untag, patch, or fix\n\
         \x20 serve      run the per-link audit HTTP service (GET /check, POST /batch, GET /metrics)\n\
         \x20 watch      replay N days of IABot-style continuous re-checking over the dataset\n\
         \x20 help       this text\n\n\
         FLAGS:\n\
         \x20 --seed N          world seed (default 42)\n\
         \x20 --scale small|paper   world size (default small)\n\
         \x20 --sample N        dataset sample size cap\n\
         \x20 --world-cache DIR load the world from DIR's snapshot cache instead of\n\
         \x20                   regenerating; a miss generates once and saves the snapshot\n\
         \x20                   (every command except bots, which needs generation ground truth)\n\
         \x20 --jobs N          pipeline worker threads (0 = all cores, default 1);\n\
         \x20                   findings are identical for every N\n\
         \x20 --csv PATH        (audit) write per-link findings as CSV\n\
         \x20 --stage-csv PATH  (audit) write per-stage hit/latency stats as CSV\n\
         \x20 --cdx PATH        (audit) dump the archive index as a CDX file\n\
         \x20 --retry-table MAX (audit) print the §4.1 retry counterfactual: rescued copies\n\
         \x20                   under 1..=MAX availability-lookup attempts vs an unbounded wait\n\
         \x20 --retries N       (audit/serve) live-check attempts per link (default 1 = IABot;\n\
         \x20                   1 keeps every verdict bit-identical to a retry-less build)\n\
         \x20 --retry-budget-ms B   (audit/serve) cumulative backoff budget per link (default 30000)\n\
         \x20 --limit K         (forensics) how many links to narrate (default 5)\n\
         \x20 --port P          (serve) TCP port, 0 = ephemeral (default 7436)\n\
         \x20 --workers W       (serve) worker threads (default: one per available core)\n\
         \x20 --reactors R      (serve) reactor/event-loop threads, each with its own\n\
         \x20                   SO_REUSEPORT listener on the shared port (default 1)\n\
         \x20 --cache-cap C     (serve) verdict-cache capacity in entries (default 4096)\n\
         \x20 --shards N        (serve) cache shard count (default 8)\n\
         \x20 --ttl-secs S      (serve) cache entry TTL in simulated seconds (default 3600)\n\
         \x20 --queue-cap Q     (serve) parsed requests queued for a worker before 503s (default 64)\n\
         \x20 --max-conns C     (serve) open connections the reactor holds at once; beyond\n\
         \x20                   this, new arrivals get an immediate 503 (default 10240)\n\
         \x20 --origin-retry-budget-ms B   (serve) cap on cumulative retry backoff per origin;\n\
         \x20                   exhausted hosts fall back to single-attempt checks (default: off)\n\
         \x20 --days D          (watch) simulated days to replay (default 30)\n\
         \x20 --policy SPEC     (watch/serve) dead-link detection policy, NAME[:ARGS]:\n\
{}\n\
         \x20 --strikes K       (watch/serve) shorthand for --policy iabot-strikes:K,S (default 3)\n\
         \x20 --min-span-days S (watch/serve) minimum days between first strike and tag (default 2)\n\
         \x20 --cadence SPEC    (watch) re-check interval: fixed[:DAYS], aging[:DAYS], or\n\
         \x20                   jitter[:DAYS] (default fixed:1)\n\
         \x20 --host-budget B   (watch) per-host checks per day; excess defers to the next\n\
         \x20                   midnight (default: off)\n\
         \x20 --rediscovery on|off  (audit/serve/watch) when no archived copy validates,\n\
         \x20                   search the lexical-signature index (title + content shingles)\n\
         \x20                   for the page's new live URL (default off)",
        permadead_sched::POLICY_USAGE,
    );
}

/// Generate the scenario for `config`, announcing it on stderr.
fn generate(config: ScenarioConfig) -> Scenario {
    eprintln!(
        "[permadead] generating world (seed {}, {} rot links)…",
        config.seed, config.rot_links
    );
    Scenario::generate(config)
}

/// `(scale label, config)` from `--seed` / `--scale` / `--sample`.
fn config_from(args: &Args) -> Result<(&'static str, ScenarioConfig), Box<dyn std::error::Error>> {
    let seed = args.get_u64("seed", 42)?;
    let (scale, mut cfg) = match args.get("scale") {
        Some("paper") => ("paper", ScenarioConfig::paper(seed)),
        None | Some("small") => ("small", ScenarioConfig::small(seed)),
        Some(other) => return Err(format!("unknown scale {other:?}").into()),
    };
    cfg.sample_size = args.get_usize("sample", cfg.sample_size)?;
    Ok((scale, cfg))
}

/// The world a command runs over: decoded from the `--world-cache DIR`
/// snapshot (generated and saved there on a miss), or else generated and
/// lowered in memory. The two answer every audit question identically;
/// only generation ground truth (wiki articles, bot reports) is missing
/// from a world, which is why `bots` keeps its own [`generate`] call.
fn world_from(args: &Args) -> Result<World, Box<dyn std::error::Error>> {
    let (scale, cfg) = config_from(args)?;
    let Some(dir) = args.get("world-cache") else {
        return Ok(permadead_serve::world_from_scenario(generate(cfg), scale));
    };
    let (world, outcome) =
        permadead_serve::load_or_generate(std::path::Path::new(dir), cfg, scale)?;
    eprintln!("[permadead] {}", outcome.describe());
    Ok(world)
}

/// The rediscovery index when `rediscovery` is on: moved out of the world
/// when it carries one (a snapshot's), otherwise built from the live web.
/// The world's index is taken out either way, so with rediscovery off
/// nothing keeps it in memory and its postings are never built; with
/// rediscovery on they are built here, before the study runs or the server
/// listens, so no query pays for them.
fn rescue_index(world: &mut World, rediscovery: bool, jobs: usize) -> Option<Arc<RescueIndex>> {
    if !rediscovery {
        world.rescue = None;
        return None;
    }
    let index = permadead_serve::take_rescue_index(world, jobs);
    index.ensure_postings();
    Some(Arc::new(index))
}

/// Retry policy from `--retries` / `--retry-budget-ms`. One attempt — the
/// default — is IABot's production behaviour and keeps every output
/// bit-identical to a build without the retry subsystem.
fn retry_policy_from(args: &Args) -> Result<permadead_net::RetryPolicy, Box<dyn std::error::Error>> {
    let attempts = u32::try_from(args.get_u64("retries", 1)?)
        .map_err(|_| "flag --retries must fit in 32 bits")?;
    if attempts <= 1 {
        return Ok(permadead_net::RetryPolicy::single());
    }
    let seed = args.get_u64("seed", 42)?;
    let budget = args.get_u64("retry-budget-ms", 30_000)?;
    Ok(permadead_net::RetryPolicy::standard(attempts, seed ^ 0x5EC41).with_budget_ms(budget))
}

/// Detection policy from `--policy` / the `--strikes`+`--min-span-days`
/// shorthand. Validated before the (multi-second) world build; the two
/// spellings conflict rather than silently shadowing each other.
fn watch_policy_from(args: &Args) -> Result<permadead_sched::PolicySpec, Box<dyn std::error::Error>> {
    use permadead_sched::PolicySpec;
    if let Some(spec) = args.get("policy") {
        if args.get("strikes").is_some() || args.get("min-span-days").is_some() {
            return Err("--policy conflicts with --strikes/--min-span-days; \
                        say --policy iabot-strikes:STRIKES,SPAN_DAYS instead"
                .into());
        }
        return Ok(PolicySpec::parse(spec)?);
    }
    let strikes = u32::try_from(args.get_u64("strikes", 3)?)
        .map_err(|_| "flag --strikes must fit in 32 bits")?;
    if strikes == 0 {
        return Err("flag --strikes must be >= 1 (0 would tag every link on sight)".into());
    }
    let span_days = args.get_u64("min-span-days", 2)?;
    if span_days == 0 {
        return Err("flag --min-span-days must be >= 1 (a tag needs a real observation span)".into());
    }
    Ok(PolicySpec::IabotStrikes {
        strikes,
        min_span: permadead_net::Duration::days(span_days as i64),
    })
}

/// `--rediscovery on|off`: whether the pipeline's rediscovery stage may
/// search the lexical-signature index for moved copies of dead links that
/// no archived snapshot rescues. Validated before the (multi-second) world
/// build so a typo'd value fails in milliseconds.
fn rediscovery_from(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    match args.get("rediscovery") {
        None | Some("off") => Ok(false),
        Some("on") => Ok(true),
        Some(other) => {
            Err(format!("flag --rediscovery must be `on` or `off`, got {other:?}").into())
        }
    }
}

fn march_study(
    world: &World,
    jobs: usize,
    retry: permadead_net::RetryPolicy,
    rescue: Option<Arc<RescueIndex>>,
) -> Study {
    Study::run_with(
        &world.web,
        &world.archive,
        &Dataset::from_table(&world.march, &world.interner),
        world.meta.study_time,
        StudyOptions::with_jobs(jobs).with_retry(retry).with_rescue(rescue),
    )
}

fn cmd_audit(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let retry = retry_policy_from(args)?;
    let rediscovery = rediscovery_from(args)?;
    let mut world = world_from(args)?;
    let jobs = args.get_usize("jobs", 1)?;
    let rescue = rescue_index(&mut world, rediscovery, jobs);
    if let Some(index) = &rescue {
        eprintln!("[permadead] rediscovery index ready: {} pages", index.len());
    }
    // snapshot the cost counters so we report what the *pipeline* spends,
    // not what world generation (or snapshot decoding) spent
    let web_before = world.web.metrics.snapshot();
    let archive_lookups_before = world.archive.lookups.get();
    let archive_rows_before = world.archive.rows_scanned.get();
    let study = march_study(&world, jobs, retry, rescue);
    let web_cost = world.web.metrics.snapshot().diff(&web_before);
    println!("{}", render_bar_chart("Figure 4 — live status today", &study.live_breakdown()));
    let report = study.report();
    println!("{}", report.render_comparison());
    println!("{}", report.render_stage_stats());
    println!(
        "measurement cost: live web {}; archive index: {} scans touching {} rows",
        web_cost.summary(),
        world.archive.lookups.get() - archive_lookups_before,
        world.archive.rows_scanned.get() - archive_rows_before,
    );
    if let Some(path) = args.get("csv") {
        std::fs::write(path, export::study_to_csv(&study))?;
        eprintln!("[permadead] wrote {} findings to {path}", study.len());
    }
    if let Some(path) = args.get("stage-csv") {
        std::fs::write(path, export::stage_stats_to_csv(&study))?;
        eprintln!("[permadead] wrote {} stage rows to {path}", study.stage_stats.len());
    }
    if let Some(path) = args.get("cdx") {
        std::fs::write(path, permadead_archive::to_cdx_string(&world.archive))?;
        eprintln!("[permadead] wrote {} snapshots to {path}", world.archive.len());
    }
    if args.get("retry-table").is_some() {
        let max = u32::try_from(args.get_u64("retry-table", 5)?)
            .map_err(|_| "flag --retry-table must fit in 32 bits")?;
        let ds = Dataset::from_table(&world.march, &world.interner);
        let rows = permadead_core::retry_counterfactual(
            &world.archive,
            &ds,
            permadead_core::IABOT_TIMEOUT_MS,
            args.get_u64("seed", 42)? ^ 0x5EC41,
            max,
        );
        println!("{}", permadead_core::render_retry_counterfactual(&rows, ds.len()));
    }
    Ok(())
}

fn cmd_figures(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let world = world_from(args)?;
    let study = march_study(&world, args.get_usize("jobs", 1)?, retry_policy_from(args)?, None);
    let ds_years = study
        .findings
        .iter()
        .map(|f| f.entry.added_at.as_year_f64())
        .collect::<Vec<_>>();
    println!(
        "{}",
        render_cdf(
            "Fig 3(c): date link posted",
            &Cdf::new(ds_years),
            &[2006.0, 2010.0, 2014.0, 2016.0, 2018.0, 2020.0, 2022.0],
            "year",
        )
    );
    println!("{}", render_bar_chart("Fig 4: live status", &study.live_breakdown()));
    let gaps = study.fig5_gap_days();
    if !gaps.is_empty() {
        println!(
            "{}",
            render_cdf(
                "Fig 5: archival lag (days)",
                &Cdf::new(gaps.clone()),
                &[1.0, 10.0, 100.0, 1000.0, 10000.0],
                "days",
            )
        );
        println!("  median lag: {:.0} days\n", percentile(&gaps, 50.0));
    }
    let (dir, host) = study.fig6_counts();
    if !dir.is_empty() {
        let grid = [0.0, 1.0, 10.0, 100.0, 1000.0];
        println!("{}", render_cdf("Fig 6: archived-200 URLs in same directory", &Cdf::new(dir), &grid, "urls"));
        println!("{}", render_cdf("Fig 6: archived-200 URLs on same host", &Cdf::new(host), &grid, "urls"));
    }
    Ok(())
}

fn cmd_forensics(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let world = world_from(args)?;
    let limit = args.get_usize("limit", 5)?;
    let study = march_study(&world, args.get_usize("jobs", 1)?, retry_policy_from(args)?, None);
    for f in study.findings.iter().take(limit) {
        println!("── {}", f.entry.url);
        println!("   cited in:       {}", f.entry.article);
        println!("   added:          {}", f.entry.added_at.date());
        println!("   tagged dead:    {}", f.entry.marked_at.date());
        println!("   status today:   {}", f.live.status);
        println!("   archival class: {:?}", f.archival);
        if let Some(t) = &f.typo {
            println!("   probable typo of {}", t.intended_url);
        }
        if let Some(r) = &f.param_rescue {
            println!("   param-reorder copy exists: {}", r.archived_url);
        }
        println!();
    }
    Ok(())
}

fn cmd_recommend(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let world = world_from(args)?;
    let limit = args.get_usize("limit", 10)?;
    let study = march_study(&world, args.get_usize("jobs", 1)?, retry_policy_from(args)?, None);
    let recs = permadead_core::recommendations(&study, &world.archive);
    println!(
        "{} tagged links analyzed; {} actionable recommendations:\n",
        study.len(),
        recs.len()
    );
    for (kind, count) in permadead_core::summarize(&recs) {
        println!("  {kind:<20} {count}");
    }
    println!("\nfirst {limit}:");
    for r in recs.iter().take(limit) {
        match r {
            permadead_core::Recommendation::Untag { url } => {
                println!("  untag          {url} (answers a genuine 200 today)");
            }
            permadead_core::Recommendation::PatchWith200Copy { url, captured } => {
                println!("  patch-200      {url} ← copy of {}", captured.date());
            }
            permadead_core::Recommendation::PatchWithRedirectCopy { url, captured, target } => {
                println!("  patch-redirect {url} ← {} copy redirecting to {target}", captured.date());
            }
            permadead_core::Recommendation::FixTypo { url, intended } => {
                println!("  fix-typo       {url}\n                 → {intended}");
            }
            permadead_core::Recommendation::PatchWithParamReorder { url, archived_spelling } => {
                println!("  param-reorder  {url}\n                 ← {archived_spelling}");
            }
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    // parse every flag before the (multi-second) world build so a typo'd
    // value fails in milliseconds
    let cache = permadead_serve::CacheConfig {
        shards: args.get_usize("shards", 8)?.max(1),
        capacity: args.get_usize("cache-cap", 4096)?.max(1),
        ttl: permadead_net::Duration::seconds(args.get_u64("ttl-secs", 3600)? as i64),
    };
    // worker pool defaults to the machine: one thread per available core
    // (workers do the blocking service calls, so cores is the right unit;
    // the reactor count stays an explicit opt-in)
    let default_workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let config = permadead_serve::ServerConfig {
        port: u16::try_from(args.get_u64("port", 7436)?)
            .map_err(|_| "flag --port must fit in 16 bits")?,
        workers: args.get_usize("workers", default_workers)?.max(1),
        reactors: args.get_usize("reactors", 1)?.max(1),
        queue_cap: args.get_usize("queue-cap", 64)?.max(1),
        max_conns: args.get_usize("max-conns", 10_240)?.max(1),
        ..permadead_serve::ServerConfig::default()
    };
    let retry = retry_policy_from(args)?;
    let origin_budget_ms = match args.get("origin-retry-budget-ms") {
        Some(_) => Some(args.get_u64("origin-retry-budget-ms", 0)?),
        None => None,
    };
    let watch_policy = watch_policy_from(args)?;
    let rediscovery = rediscovery_from(args)?;
    let config = permadead_serve::ServerConfig {
        watch: permadead_serve::WatchConfig {
            policy: watch_policy,
            ..permadead_serve::WatchConfig::default()
        },
        ..config
    };
    let mut world = world_from(args)?;
    let rescue = rescue_index(&mut world, rediscovery, config.workers);
    if let Some(index) = &rescue {
        eprintln!("[permadead] rediscovery index ready: {} pages", index.len());
    }
    eprintln!(
        "[permadead] serve: {} workers ({}), {} reactor(s), cache {} entries × {} shards, {} live-check attempt(s)",
        config.workers,
        if args.get("workers").is_some() { "from --workers" } else { "from available cores" },
        config.reactors,
        cache.capacity,
        cache.shards,
        retry.max_attempts,
    );
    let service = permadead_serve::AuditService::from_world(world, cache)
        .with_retry(retry)
    .with_origin_retry_budget_ms(origin_budget_ms)
    .with_rescue(rescue);
    let handle = permadead_serve::start(service, config)?;
    // the exact line scripts/check.sh greps for the ephemeral port
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    // serve until killed; the handle owns the worker pool
    loop {
        std::thread::park();
    }
}

/// Replay N simulated days of continuous monitoring over the audit dataset
/// under the selected detection policy and print the per-day timeline.
/// Deterministic for a given `(seed, scale, sample, days, cadence, policy)`
/// regardless of `--jobs` (scripts/check.sh pins the seed-42 output as a
/// golden file).
fn cmd_watch(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use permadead_sched::{Cadence, Scheduler, SchedulerConfig};
    // parse every flag before the world build so a typo fails fast
    let seed = args.get_u64("seed", 42)?;
    let days = u32::try_from(args.get_u64("days", 30)?)
        .map_err(|_| "flag --days must fit in 32 bits")?;
    let policy = watch_policy_from(args)?;
    let cadence = Cadence::parse(args.get("cadence").unwrap_or("fixed:1"), seed)?;
    let host_budget = match args.get("host-budget") {
        Some(_) => Some(
            u32::try_from(args.get_u64("host-budget", 0)?)
                .map_err(|_| "flag --host-budget must fit in 32 bits")?,
        ),
        None => None,
    };
    let jobs = match args.get_usize("jobs", 1)? {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    let retry = retry_policy_from(args)?;
    let rediscovery = rediscovery_from(args)?;
    let mut world = world_from(args)?;
    let rescue = rescue_index(&mut world, rediscovery, jobs);
    let start = world.meta.study_time;

    let mut sched = Scheduler::new(SchedulerConfig {
        policy,
        cadence,
        host_budget_per_day: host_budget,
    });
    for entry in &Dataset::from_table(&world.march, &world.interner).entries {
        sched.watch_staggered(entry.url.clone(), start);
    }
    eprintln!("[permadead] watching {} links for {days} simulated days…", sched.len());
    let web = &world.web;
    let timeline = permadead_sched::run_days(&mut sched, start, days, jobs, |url, at| {
        permadead_core::live_check_with_retry(web, url, at, &retry)
            .0
            .is_final_200()
    });
    let header = format!(
        "permadead watch — {} links over {days} days (seed {seed}, {}, cadence {cadence})",
        timeline.links,
        policy.describe(),
    );
    println!("{}", timeline.render(&header));
    // Optional post-timeline sweep: how many of the study's dead links the
    // lexical-signature index would relocate today. Off by default, so the
    // seed-42 timeline golden in scripts/check.sh is untouched.
    if let Some(rescue) = rescue {
        let pages = rescue.len();
        let study = march_study(&world, jobs, retry, Some(rescue));
        let report = study.report();
        println!(
            "rediscovery sweep: {} of {} dead links relocated via lexical-signature search \
             ({pages} pages indexed)",
            report.rediscovery_rescued,
            study.len(),
        );
    }
    Ok(())
}

fn cmd_bots(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = generate(config_from(args)?.1);
    for (t, report) in &scenario.bot_reports {
        println!("sweep {}: {report}", t.date());
    }
    println!("\ntotal: {}", scenario.total_bot_report());

    let mut wiki = permadead_wiki::WikiStore::new();
    for a in scenario.wiki.articles() {
        wiki.insert(a.clone());
    }
    let before = wiki.unique_permanently_dead_urls().len();
    let medic = permadead_bot::WaybackMedic::new();
    let report = medic.run(&mut wiki, &scenario.archive, scenario.config.study_time);
    println!(
        "\nWaybackMedic: {report}\npermanently dead: {before} → {}",
        wiki.unique_permanently_dead_urls().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::SimTime;
    use permadead_rescue::{EntrySource, RescueEntry};
    use permadead_worldstore::WorldMeta;

    /// The entries of an empty index, read on first use.
    #[derive(Debug)]
    struct NoEntries;

    impl EntrySource for NoEntries {
        fn read(&self) -> Vec<RescueEntry> {
            Vec::new()
        }
    }

    /// A world whose index is as `World::load` leaves it: neither its
    /// entries nor its postings read or built.
    fn snapshot_world() -> World {
        let meta = WorldMeta {
            seed: 1,
            scale: "unit".into(),
            rot_links: 0,
            sample_size: 0,
            study_time: SimTime(0),
            random_sample_time: SimTime(0),
            content_seed: 1,
        };
        World::from_parts(
            meta,
            permadead_web::LiveWeb::new(1),
            permadead_archive::ArchiveStore::new(),
            ("march", &[]),
            ("september", &[]),
            ("all", &[]),
        )
        .with_rescue(RescueIndex::deferred(0, NoEntries))
    }

    #[test]
    fn a_snapshot_index_is_built_before_use_or_dropped_unbuilt() {
        let mut world = snapshot_world();
        let index = rescue_index(&mut world, true, 1).expect("rediscovery on keeps the index");
        assert!(index.entries_loaded(), "no query pays for the entries' read");
        assert!(index.postings_built(), "no query pays for the postings build");

        let mut world = snapshot_world();
        assert!(rescue_index(&mut world, false, 1).is_none());
        assert!(world.rescue.is_none(), "rediscovery off keeps nothing");
    }
}
