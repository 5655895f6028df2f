//! World + study construction shared by all repro binaries.

use permadead_core::{Dataset, Study, StudyOptions};
use permadead_net::SimTime;
use permadead_rescue::RescueIndex;
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_worldstore::World;
use std::sync::Arc;

/// Worker-thread count for pipeline runs: `PERMADEAD_JOBS` (0 = all cores),
/// default 1. Findings are identical for every value, so the repro binaries
/// can parallelize freely without perturbing any figure.
pub fn jobs_from_env() -> usize {
    std::env::var("PERMADEAD_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// `(scale label, config)` from `PERMADEAD_SEED` / `PERMADEAD_SCALE` — the
/// one place the env → [`ScenarioConfig`] mapping lives.
pub fn config_from_env() -> (String, ScenarioConfig) {
    let seed = std::env::var("PERMADEAD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let scale = std::env::var("PERMADEAD_SCALE").unwrap_or_else(|_| "small".into());
    let cfg = match scale.as_str() {
        "paper" => ScenarioConfig::paper(seed),
        _ => ScenarioConfig::small(seed),
    };
    (scale, cfg)
}

/// Generate the scenario for `cfg`, reporting progress on stderr. The
/// binaries that read generation ground truth call this, read what they
/// need, and then lower the scenario into a [`Repro`].
pub fn generate(cfg: ScenarioConfig) -> Scenario {
    eprintln!(
        "[permadead] generating world: {} rot links, seed {} ...",
        cfg.rot_links, cfg.seed
    );
    let t0 = std::time::Instant::now();
    let scenario = Scenario::generate(cfg);
    eprintln!(
        "[permadead] world ready in {:.1?}: {} snapshots archived, {} articles, {} permanently dead URLs",
        t0.elapsed(),
        scenario.archive.len(),
        scenario.wiki.len(),
        scenario.permanently_dead_urls().len(),
    );
    scenario
}

/// The world every figure reads, plus the two datasets the paper uses.
pub struct Repro {
    pub world: World,
    /// March-style: first N articles of the category, alphabetical.
    pub march: Dataset,
    /// September-style: random sample at a later date.
    pub september: Dataset,
}

impl Repro {
    /// The `(PERMADEAD_SEED, PERMADEAD_SCALE)` world. When
    /// `PERMADEAD_WORLD_CACHE` names a snapshot directory it comes from
    /// there (loaded on a hit, generated and saved on a miss, with the
    /// outcome and its time printed); otherwise it is generated and lowered.
    pub fn from_env() -> Repro {
        let (scale, cfg) = config_from_env();
        let Some(dir) = std::env::var_os("PERMADEAD_WORLD_CACHE") else {
            return Repro::over(permadead_serve::world_from_scenario(generate(cfg), &scale));
        };
        let (world, outcome) =
            permadead_serve::load_or_generate(std::path::Path::new(&dir), cfg, &scale)
                .expect("world cache directory is usable");
        eprintln!("[permadead] {}", outcome.describe());
        Repro::over(world)
    }

    /// Decode the datasets out of an already-obtained world.
    pub fn over(world: World) -> Repro {
        let march = Dataset::from_table(&world.march, &world.interner);
        let september = Dataset::from_table(&world.september, &world.interner);
        eprintln!(
            "[permadead] datasets: march={} links, september={} links",
            march.len(),
            september.len()
        );
        Repro { world, march, september }
    }

    /// Run the pipeline over the March dataset at study time, honouring
    /// `PERMADEAD_JOBS`.
    pub fn march_study(&self) -> Study {
        self.study(&self.march, self.world.meta.study_time, None)
    }

    /// Run the pipeline over the September dataset at the later date,
    /// honouring `PERMADEAD_JOBS`.
    pub fn september_study(&self) -> Study {
        self.study(&self.september, self.world.meta.random_sample_time, None)
    }

    /// March pipeline with the rediscovery rescue stage armed.
    pub fn march_study_with_rescue(&self, rescue: Arc<RescueIndex>) -> Study {
        self.study(&self.march, self.world.meta.study_time, Some(rescue))
    }

    fn study(&self, dataset: &Dataset, at: SimTime, rescue: Option<Arc<RescueIndex>>) -> Study {
        Study::run_with(
            &self.world.web,
            &self.world.archive,
            dataset,
            at,
            StudyOptions::with_jobs(jobs_from_env()).with_rescue(rescue),
        )
    }

    /// The rediscovery index over this world's live web at study time: the
    /// one a loaded snapshot carries, or a build honouring `PERMADEAD_JOBS`.
    pub fn rescue_index(&mut self) -> RescueIndex {
        permadead_serve::take_rescue_index(&mut self.world, jobs_from_env())
    }
}
