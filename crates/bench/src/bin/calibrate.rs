//! Calibration diagnostic: ground-truth fate composition of the permanently
//! dead population, cross-tabulated with the pipeline's archival classes and
//! live statuses. Not part of the paper — this is the tool that tunes the
//! world so the *measured* numbers land near the paper's.
//!
//! The link specs and the tagged set are generation ground truth, so this
//! binary generates its scenario (it never reads `PERMADEAD_WORLD_CACHE`),
//! takes both out, and then lowers it into the world the study runs over.

use permadead_bench::{config_from_env, generate, Repro};
use permadead_core::ArchivalClass;
use std::collections::{BTreeMap, HashSet};

fn main() {
    let (scale, cfg) = config_from_env();
    let mut scenario = generate(cfg);
    let specs = std::mem::take(&mut scenario.specs);
    let spec_for = |url| specs.iter().find(|s| &s.url == url);
    let ppd: HashSet<String> = scenario
        .permanently_dead_urls()
        .iter()
        .map(|u| u.to_string())
        .collect();
    let repro = Repro::over(permadead_serve::world_from_scenario(scenario, &scale));
    let study = repro.september_study();

    let mut by_fate: BTreeMap<String, (usize, usize, usize, usize)> = BTreeMap::new();
    let mut unmatched = 0usize;
    for f in &study.findings {
        let Some(spec) = spec_for(&f.entry.url) else {
            unmatched += 1;
            continue;
        };
        let e = by_fate.entry(format!("{:?}", spec.fate)).or_default();
        e.0 += 1;
        match f.archival {
            ArchivalClass::NeverArchived => e.1 += 1,
            ArchivalClass::Had3xxOnly => e.2 += 1,
            ArchivalClass::Had200Copy => e.3 += 1,
            _ => {}
        }
    }
    let n = study.findings.len();
    println!("{n} links in study; {unmatched} without ground truth (healthy leaks)");
    println!("{:<22} {:>6} {:>7} {:>6} {:>6} {:>6}", "fate", "ppd", "ppd%", "never", "3xx", "200");
    for (fate, (count, never, x3, c200)) in &by_fate {
        println!(
            "{fate:<22} {count:>6} {:>6.1}% {never:>6} {x3:>6} {c200:>6}",
            *count as f64 * 100.0 / n as f64
        );
    }

    // how many generated rot links of each fate ended up tagged at all
    let mut gen_counts: BTreeMap<String, usize> = BTreeMap::new();
    for s in &specs {
        *gen_counts.entry(format!("{:?}", s.fate)).or_default() += 1;
    }
    println!("\ngenerated rot links per fate (for tag-rate comparison):");
    for (fate, count) in &gen_counts {
        let tagged = specs
            .iter()
            .filter(|s| format!("{:?}", s.fate) == *fate && ppd.contains(&s.url.to_string()))
            .count();
        println!(
            "{fate:<22} generated {count:>6}  tagged {tagged:>6}  ({:>5.1}%)",
            tagged as f64 * 100.0 / (*count).max(1) as f64
        );
    }

    let mut fate_fig4: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &study.findings {
        if let Some(spec) = spec_for(&f.entry.url) {
            *fate_fig4
                .entry((format!("{:?}", spec.fate), f.live.status.label().to_string()))
                .or_default() += 1;
        }
    }
    println!("\nfate × live-status (study-time fetch):");
    for ((fate, status), count) in &fate_fig4 {
        println!("{fate:<22} {status:<12} {count}");
    }
}
