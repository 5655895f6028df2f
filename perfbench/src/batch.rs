//! `audit-paper` and `rediscover-paper`: repeated rounds of the paper's
//! study over the March dataset, with the rediscovery index off or armed.
//!
//! A round audits a fixed set of links, each at its own dataset index, in
//! a fresh seeded order. `audit-paper` rounds cover the whole dataset; a
//! rediscovery-armed pass over all of it takes ~17 s, so `rediscover-paper`
//! rounds cover a fixed stride sample of it instead. Host contention comes
//! and goes in stretches of seconds on a shared machine, so a run reports
//! its fastest whole round: a real pass, paying every cost every pass pays.

use crate::checks::{self, check_pass};
use crate::pct;
use crate::report::Report;
use crate::rng::Rng;
use crate::world::{self, Ctx};
use permadead_core::{
    analyze_link, default_stages, empty_stats, Dataset, LinkFinding, Stage, StageStats, Study,
    StudyEnv, StudyOptions,
};
use permadead_net::{Client, LiveStatus, RetryPolicy};
use permadead_rescue::{RescueIndex, DEFAULT_TOP_K, SHINGLE_K, SKETCH_THRESHOLD, TITLE_THRESHOLD};
use permadead_text::MinHashSketch;
use permadead_url::Url;
use permadead_worldstore::World;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// `rediscover-paper` rounds audit every this-many-th dataset link.
pub const REDISCOVER_STRIDE: usize = 32;

/// Fingerprints per run whose rediscovery query is checked against a
/// linear scan of the index.
const QUERY_CHECKS: usize = 12;

/// The study environment the CLI's `audit` uses by default: one attempt,
/// no CDX timeout, rediscovery only when an index is given.
pub fn env<'a>(
    world: &'a World,
    web: &'a dyn permadead_net::Network,
    rescue: Option<&'a RescueIndex>,
) -> StudyEnv<'a> {
    StudyEnv {
        web,
        archive: &world.archive,
        now: world.meta.study_time,
        retry: RetryPolicy::single(),
        cdx_timeout_ms: None,
        rescue,
    }
}

/// The links every round audits: every `stride`-th dataset index.
pub fn members(n: usize, stride: usize) -> Vec<usize> {
    (0..n).step_by(stride).collect()
}

/// `members` in the next seeded visiting order.
pub fn shuffled(members: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut order = members.to_vec();
    rng.shuffle(&mut order);
    order
}

/// One round's findings and per-link wall times (both by ascending
/// dataset index), stage counters, and wall time.
pub struct Round {
    pub findings: Vec<LinkFinding>,
    pub latencies_ms: Vec<f64>,
    pub stats: Vec<StageStats>,
    pub wall_s: f64,
}

/// Audit `order` once, each link at its own dataset index, so every
/// finding matches the batch study's whatever the order.
pub fn round(
    env: &StudyEnv<'_>,
    stages: &[Box<dyn Stage>],
    dataset: &Dataset,
    order: &[usize],
) -> Round {
    let mut audited = Vec::with_capacity(order.len());
    let mut stats = empty_stats(stages);
    let t0 = Instant::now();
    for &i in order {
        let t = Instant::now();
        let finding = analyze_link(env, stages, i, dataset.entries[i].clone(), &mut stats);
        audited.push((i, finding, t.elapsed().as_secs_f64() * 1e3));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    audited.sort_by_key(|(i, _, _)| *i);
    let latencies_ms = audited.iter().map(|a| a.2).collect();
    Round {
        findings: audited.into_iter().map(|(_, f, _)| f).collect(),
        latencies_ms,
        stats,
        wall_s,
    }
}

pub fn run(ctx: &Ctx, rediscover: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut world, dataset, setups) = world::load_repeatedly(&ctx.snapshot, SETUPS)?;
    report.phase("setup", SETUPS as u64, 0);
    let rescue = if rediscover {
        Some(
            world
                .rescue
                .take()
                .ok_or("the snapshot carries no rediscovery index")?,
        )
    } else {
        None
    };
    let stages = default_stages();
    let env = env(&world, &world.web, rescue.as_ref());
    let stride = if rediscover { REDISCOVER_STRIDE } else { 1 };
    let links = members(dataset.len(), stride);
    let mut rng = Rng::new(ctx.seed);

    // one untimed round first, so first-touch costs stay out of the window
    let first = round(&env, &stages, &dataset, &shuffled(&links, &mut rng));
    let started = Instant::now();
    let mut round_us = Vec::new();
    let mut differing = 0usize;
    while round_us.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let r = round(&env, &stages, &dataset, &shuffled(&links, &mut rng));
        if r.findings != first.findings || r.stats != first.stats {
            differing += 1;
        }
        round_us.push(r.wall_s * 1e6 / links.len() as f64);
    }
    let peak_rss = crate::procfs::peak_rss_mb(std::process::id()).map_err(|e| e.to_string())?;
    let fastest_us = pct::of(&round_us, 0.0);
    report.phase("audit", (round_us.len() * links.len()) as u64, 0);
    report.note(format!(
        "{} rounds of {} links, us per link: {:.2} fastest round ({:.0} links/s), \
         {:.2} lower quartile, {:.2} median, {:.2} slowest",
        round_us.len(),
        links.len(),
        fastest_us,
        1e6 / fastest_us,
        pct::of(&round_us, 25.0),
        pct::median(&round_us),
        pct::of(&round_us, 100.0),
    ));
    report.metric("setup_s", pct::median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("us_per_link", fastest_us, "us");

    // output checks
    report.check(differing == 0, || {
        format!("{differing} rounds differ from the first")
    });
    let by_surt = checks::snapshots_by_surt(&world.archive);
    let now = world.meta.study_time;
    let study = Study::run_with(
        &world.web,
        &world.archive,
        &dataset,
        now,
        StudyOptions::default(),
    );
    check_pass(&mut report, &study.findings, &study.stage_stats, &by_surt);
    let mismatched = archive_side_mismatches(&links, &first, &study.findings);
    report.check(mismatched == 0, || {
        format!("{mismatched} round findings differ from Study::run_with on archive-side fields")
    });
    match &rescue {
        Some(index) => {
            check_rediscovery(&mut report, ctx, &world, index, &first, &by_surt);
        }
        None => report.check(
            first
                .stats
                .iter()
                .all(|s| s.name != "rediscovery" || s.hits == 0),
            || "rediscovery ran with no index".into(),
        ),
    }
    Ok(report)
}

/// How many of `round`'s findings, for the dataset indices `links`, differ
/// from `reference` (one finding per dataset link) outside the
/// rediscovery field, which the rediscovery stage alone writes.
pub fn archive_side_mismatches(links: &[usize], round: &Round, reference: &[LinkFinding]) -> usize {
    links
        .iter()
        .zip(&round.findings)
        .filter(|(&i, f)| {
            let archive_side = LinkFinding {
                rediscovery: None,
                ..(*f).clone()
            };
            archive_side != reference[i]
        })
        .count()
}

/// The rediscovery checks of one armed round: stage hits, every rescue
/// re-fetched and re-scored, and a seeded sample of queries against a
/// linear scan. Returns the fingerprints of the round's dead links.
pub fn check_rediscovery(
    report: &mut Report,
    ctx: &Ctx,
    world: &World,
    index: &RescueIndex,
    round: &Round,
    by_surt: &std::collections::HashMap<&str, Vec<&permadead_archive::Snapshot>>,
) -> Vec<permadead_rescue::Fingerprint> {
    // the stage runs for every link that is not genuinely alive and has a
    // pre-tagging content capture
    let fingerprints: Vec<(usize, permadead_rescue::Fingerprint)> = round
        .findings
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.genuinely_alive())
        .filter_map(|(k, f)| {
            let surt = permadead_url::surt(&f.entry.url);
            checks::fingerprint(by_surt.get(surt.as_str()), f.entry.marked_at).map(|fp| (k, fp))
        })
        .collect();
    let stage_hits = round
        .stats
        .iter()
        .find(|s| s.name == "rediscovery")
        .map_or(0, |s| s.hits);
    report.check(stage_hits == fingerprints.len() as u64, || {
        format!(
            "rediscovery hits {stage_hits} != {} fingerprinted dead links",
            fingerprints.len()
        )
    });

    // every rescue, fetched again, is a different live page that matches
    let rescued: Vec<&LinkFinding> = round
        .findings
        .iter()
        .filter(|f| f.rediscovery.is_some())
        .collect();
    report.check(!rescued.is_empty(), || "no link was rescued".into());
    let client = Client::new();
    for f in &rescued {
        let r = f.rediscovery.as_ref().expect("filtered on rescue");
        let dead = f.entry.url.to_string();
        let surt = permadead_url::surt(&f.entry.url);
        let fp = checks::fingerprint(by_surt.get(surt.as_str()), f.entry.marked_at);
        let verdict = match (Url::parse(&r.new_url), fp) {
            (Ok(url), Some(fp)) => {
                let record = client.get(&world.web, &url, world.meta.study_time);
                let title = permadead_text::html::extract_title(&record.body).unwrap_or_default();
                let title_sim = checks::jaccard(
                    &checks::title_tokens(&fp.title),
                    &checks::title_tokens(&title),
                );
                let sketch_sim = fp
                    .sketch
                    .similarity(&MinHashSketch::of(&record.body, SHINGLE_K));
                if r.new_url == dead {
                    Err("points back at the dead URL".to_string())
                } else if record.live_status() != LiveStatus::Ok {
                    Err(format!("new URL answers {}", record.live_status()))
                } else if title_sim < TITLE_THRESHOLD || sketch_sim < SKETCH_THRESHOLD {
                    Err(format!(
                        "title {title_sim:.3}, sketch {sketch_sim:.3} below thresholds"
                    ))
                } else {
                    Ok(())
                }
            }
            (Err(_), _) => Err("unparseable new URL".into()),
            (_, None) => Err("rescued without a fingerprint".into()),
        };
        report.check(verdict.is_ok(), || {
            format!("rescue of {dead} → {}: {}", r.new_url, verdict.unwrap_err())
        });
    }
    report.note(format!(
        "rediscovery per round: {} of {} fingerprinted dead links rescued",
        rescued.len(),
        fingerprints.len()
    ));

    // a seeded sample of queries against a linear scan of the index
    let tokens = checks::entry_tokens(index);
    let mut rng = Rng::new(ctx.seed ^ 0x0051_7E57);
    let samples = QUERY_CHECKS.min(fingerprints.len());
    for _ in 0..samples {
        let (k, fp) = &fingerprints[rng.below(fingerprints.len())];
        let got = index.query(fp, DEFAULT_TOP_K);
        let want = checks::scan_top_k(index, &tokens, fp, DEFAULT_TOP_K);
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.entry == w.entry && g.score() == w.score());
        report.check(same, || {
            format!(
                "query for {} returned {:?}, linear scan {:?}",
                round.findings[*k].entry.url,
                got.iter().map(|c| c.entry).collect::<Vec<_>>(),
                want.iter().map(|c| c.entry).collect::<Vec<_>>()
            )
        });
    }
    report.phase("checks", samples as u64 + rescued.len() as u64, 0);
    fingerprints.into_iter().map(|(_, fp)| fp).collect()
}
