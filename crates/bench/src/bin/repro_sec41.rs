//! E6 — §4.1: 200-status copies that IABot missed, and the WaybackMedic
//! rescue run.
//!
//! The paper finds 11% (1,082/10,000) of permanently dead links had
//! initial-200 archived copies before they were tagged — misses caused by
//! IABot's availability-lookup timeout. After the authors reported it, the
//! Internet Archive ran WaybackMedic (no timeout) and rescued 20,080 links
//! wiki-wide. We reproduce both: the measurement, and the medic run.
//!
//! The bot reports and the wiki are generation ground truth, so this binary
//! generates its scenario (it never reads `PERMADEAD_WORLD_CACHE`), reads
//! both, and then lowers it into the world the study runs over.

use permadead_bench::{config_from_env, generate, Repro};
use permadead_bot::WaybackMedic;

fn main() {
    let (scale, cfg) = config_from_env();
    let scenario = generate(cfg);
    let timeouts: usize = scenario.bot_reports.iter().map(|(_, r)| r.availability_timeouts).sum();
    // a copy of the wiki for the medic run; the world keeps only its tables
    let mut wiki = permadead_wiki::WikiStore::new();
    for a in scenario.wiki.articles() {
        wiki.insert(a.clone());
    }
    let repro = Repro::over(permadead_serve::world_from_scenario(scenario, &scale));
    let study = repro.march_study();
    let report = study.report();

    println!("§4.1 over {} permanently dead links:\n", report.n);
    println!(
        "  had an initial-200 copy before tagging: {} ({:.1}%; paper: 1,082/10,000 = 10.8%)",
        report.had_200_copy,
        report.had_200_copy as f64 * 100.0 / report.n.max(1) as f64
    );
    println!(
        "  availability-API timeouts across all IABot sweeps: {timeouts} \
         (each risked exactly this miss)\n"
    );

    // The medic run over the wiki copy.
    let before = wiki.unique_permanently_dead_urls().len();
    let medic = WaybackMedic::new();
    let medic_report = medic.run(&mut wiki, &repro.world.archive, repro.world.meta.study_time);
    let after = wiki.unique_permanently_dead_urls().len();
    println!("WaybackMedic run (no lookup timeout): {medic_report}");
    println!(
        "  permanently dead before: {before}; after: {after} \
         (paper: 20,080 links rescued wiki-wide)"
    );
}
