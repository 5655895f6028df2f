//! Pinned-seed golden: for seed 42, the snapshot round-trip —
//! generate → lower → save → load → audit — must reproduce the direct
//! generate → audit study bit for bit, and the incremental engine over the
//! loaded world must maintain that same report through a full re-audit.

use permadead_core::{Dataset, IncrementalAudit, Study, StudyOptions};
use permadead_serve::world_from_scenario;
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_worldstore::World;

#[test]
fn pinned_seed_snapshot_round_trip_reproduces_the_generated_audit() {
    let cfg = ScenarioConfig { rot_links: 400, ..ScenarioConfig::small(42) };
    let scenario = Scenario::generate(cfg.clone());

    // the direct path: generate → audit
    let march = Dataset::march(&scenario.wiki, cfg.sample_size, cfg.seed);
    let direct = Study::run_with(
        &scenario.web,
        &scenario.archive,
        &march,
        cfg.study_time,
        StudyOptions::default(),
    );

    // the snapshot path: lower → save → load → audit
    let dir = std::env::temp_dir().join(format!("pdw-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.pdw");
    world_from_scenario(scenario, "small").save(&path).unwrap();
    let world = World::load(&path).unwrap();
    assert_eq!(world.meta.seed, 42);

    let decoded = Dataset::from_table(&world.march, &world.interner);
    assert_eq!(march.entries, decoded.entries, "the march dataset survives the table codec");
    let loaded = Study::run_with(
        &world.web,
        &world.archive,
        &decoded,
        world.meta.study_time,
        StudyOptions::default(),
    );
    assert_eq!(direct.findings, loaded.findings, "per-link findings are bit-identical");
    assert_eq!(direct.report(), loaded.report());

    // and the incremental engine over the loaded world: the maintained
    // report equals the direct study's, and stays equal through a full
    // re-audit of every link at the same clock (which changes nothing)
    let mut audit = IncrementalAudit::build(
        &world.web,
        &world.archive,
        &decoded,
        world.meta.study_time,
        StudyOptions::default(),
    );
    assert_eq!(audit.report(), direct.report());
    let all: Vec<usize> = (0..decoded.len()).collect();
    let outcome = audit.reaudit_indices(&world.web, &world.archive, &all, world.meta.study_time);
    assert_eq!(outcome.reaudited, decoded.len());
    assert_eq!(outcome.changed, 0, "an unchanged world re-audits to the same verdicts");
    assert_eq!(audit.report(), direct.report());

    std::fs::remove_dir_all(&dir).unwrap();
}
