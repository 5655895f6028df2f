//! E19 — the lexical-signature rediscovery table as a repro artifact.
//!
//! Runs the March pipeline twice — archive-only, then with the rediscovery
//! rescue stage armed — and prints how the dead population splits across
//! the rescue ladder: §4.1 archived-200 copies, §4.2 valid redirect chains,
//! and finally content rediscovery against the title+shingle index. The
//! ceiling rows come from ground truth, the live web's page path history:
//! how many dead links are genuinely live at another URL today, and how
//! many of those left no pre-marking content snapshot for a signature to
//! be built from.
//!
//! The whole table is a pure function of `(seed, scale)` — the index build
//! is bit-identical for every `PERMADEAD_JOBS` — so CI diffs the
//! pinned-seed output against `results/RESCUE_TABLE_seed42.txt`.

use permadead_bench::Repro;
use permadead_core::ArchivalClass;
use std::sync::Arc;

fn main() {
    let mut repro = Repro::from_env();

    let t0 = std::time::Instant::now();
    let index = repro.rescue_index();
    eprintln!(
        "[bench] rediscovery index: {} pages in {:.1?}",
        index.len(),
        t0.elapsed()
    );
    let index = Arc::new(index);

    let world = &repro.world;
    let base = repro.march_study();
    let rescued = repro.march_study_with_rescue(index.clone());

    // The rescue stage must be purely additive: same findings, same
    // verdicts, the rediscovery annotation is the only delta.
    assert_eq!(base.len(), rescued.len(), "rescue stage changed the dataset");
    for (b, r) in base.findings.iter().zip(rescued.findings.iter()) {
        assert_eq!(b.entry.url, r.entry.url, "rescue stage reordered findings");
        assert_eq!(b.archival, r.archival, "rescue stage changed an archival class");
        assert!(b.rediscovery.is_none(), "rediscovery fired without an index");
    }

    let mut dead = 0usize;
    let mut rescued_41 = 0usize;
    let mut rescued_42 = 0usize;
    let mut unrescued = 0usize;
    let mut rediscovered = 0usize;
    let mut live_elsewhere = 0usize;
    let mut live_elsewhere_no_fp = 0usize;
    for f in &rescued.findings {
        if f.genuinely_alive() {
            continue;
        }
        dead += 1;
        let r41 = f.archival == ArchivalClass::Had200Copy;
        let r42 = f.redirect_verdict.as_ref().is_some_and(|v| v.is_valid());
        if r41 {
            rescued_41 += 1;
        }
        if r42 {
            rescued_42 += 1;
        }
        if !r41 && !r42 {
            unrescued += 1;
        }
        if f.rediscovery.is_some() {
            rediscovered += 1;
        }
        // Ground truth: does the page answer live on a different path today?
        let moved = {
            let host = f.entry.url.host();
            let pq = f.entry.url.path_and_query();
            world
                .web
                .site_by_host(host, f.entry.added_at)
                .or_else(|| world.web.site_by_host(host, world.meta.study_time))
                .and_then(|site| {
                    site.pages().iter().find(|p| p.all_paths().contains(&pq.as_str())).map(|p| {
                        let cur = p.current_path(world.meta.study_time);
                        cur != pq
                            && p.view_at(cur, world.meta.study_time)
                                == Some(permadead_web::page::PathView::Live)
                    })
                })
                .unwrap_or(false)
        };
        if moved {
            live_elsewhere += 1;
            let has_fp = world.archive.snapshots_of(&f.entry.url).into_iter().any(|s| {
                s.captured < f.entry.marked_at
                    && s.body_class == permadead_archive::BodyClass::Content
            });
            if !has_fp {
                live_elsewhere_no_fp += 1;
            }
        }
    }

    let report = rescued.report();
    assert_eq!(report.rediscovery_rescued, rediscovered, "report disagrees with findings");

    println!(
        "E19 lexical-signature rediscovery over {} links ({} pages indexed):",
        rescued.len(),
        index.len()
    );
    println!("  {:<46} {:<6}", "population", "links");
    println!("  {:-<46} {:-<6}", "", "");
    let row = |label: &str, n: usize| println!("  {label:<46} {n:<6}");
    row("dead at study time", dead);
    row("rescuable via archived 200 copy (§4.1)", rescued_41);
    row("rescuable via valid redirect chain (§4.2)", rescued_42);
    row("no archive-based rescue", unrescued);
    row("rediscovered live at a new URL (E19)", rediscovered);
    row("live elsewhere per ground truth (ceiling)", live_elsewhere);
    row("  … of which no pre-marking content snapshot", live_elsewhere_no_fp);

    // The tentpole's acceptance bar: the stage must buy a strictly positive
    // extra rescue rate over the archive-only ladder.
    assert!(
        rediscovered > 0,
        "rediscovery rescued nothing — the stage is dead weight at this seed"
    );

    let json = format!(
        "{{\"bench\":\"rescue_table\",\"links\":{},\"index_pages\":{},\"dead\":{},\
         \"rescued_200_copy\":{},\"rescued_redirect\":{},\"unrescued\":{},\
         \"rediscovery_rescued\":{},\"live_elsewhere\":{},\"live_elsewhere_no_fingerprint\":{}}}\n",
        rescued.len(),
        index.len(),
        dead,
        rescued_41,
        rescued_42,
        unrescued,
        rediscovered,
        live_elsewhere,
        live_elsewhere_no_fp,
    );
    match permadead_bench::persist_bench_results("rescue_table", &json) {
        Ok(path) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not persist results: {e}"),
    }
}
