//! Scenario + study construction shared by all repro binaries.

use permadead_core::{Dataset, Study, StudyOptions};
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_worldstore::World;

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

/// A generated scenario plus the two datasets and studies the paper uses.
pub struct Repro {
    pub scenario: Scenario,
    /// March-style: first N articles of the category, alphabetical.
    pub march: Dataset,
    /// September-style: random sample at a later date.
    pub september: Dataset,
}

impl Repro {
    /// Read `PERMADEAD_SEED` / `PERMADEAD_SCALE` and build everything.
    pub fn from_env() -> Repro {
        Repro::build(config_from_env().1)
    }

    /// Build from an explicit config.
    fn build(cfg: ScenarioConfig) -> Repro {
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
        let (sample, seed) = (scenario.config.sample_size, scenario.config.seed);
        let march = Dataset::march(&scenario.wiki, sample, seed);
        let september = Dataset::september(&scenario.wiki, sample, seed);
        eprintln!(
            "[permadead] datasets: march={} links, september={} links",
            march.len(),
            september.len()
        );
        Repro {
            scenario,
            march,
            september,
        }
    }

    /// Run the pipeline over the March dataset at study time, honouring
    /// `PERMADEAD_JOBS`.
    pub fn march_study(&self) -> Study {
        Study::run_with(
            &self.scenario.web,
            &self.scenario.archive,
            &self.march,
            self.scenario.config.study_time,
            StudyOptions::with_jobs(jobs_from_env()),
        )
    }

    /// Run the pipeline over the September dataset at the later date,
    /// honouring `PERMADEAD_JOBS`.
    pub fn september_study(&self) -> Study {
        Study::run_with(
            &self.scenario.web,
            &self.scenario.archive,
            &self.september,
            self.scenario.config.random_sample_time,
            StudyOptions::with_jobs(jobs_from_env()),
        )
    }

    /// Build the rediscovery index over this scenario's live web at study
    /// time, honouring `PERMADEAD_JOBS` (the sharded build is bit-identical
    /// for every worker count).
    pub fn rescue_index(&self) -> permadead_rescue::RescueIndex {
        let jobs = match jobs_from_env() {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        permadead_rescue::RescueIndex::build(
            &self.scenario.web,
            self.scenario.config.study_time,
            jobs,
        )
    }

    /// March pipeline with the rediscovery rescue stage armed.
    pub fn march_study_with_rescue(
        &self,
        rescue: std::sync::Arc<permadead_rescue::RescueIndex>,
    ) -> Study {
        Study::run_with(
            &self.scenario.web,
            &self.scenario.archive,
            &self.march,
            self.scenario.config.study_time,
            StudyOptions::with_jobs(jobs_from_env()).with_rescue(Some(rescue)),
        )
    }
}

/// A snapshot-backed repro: web + archive + datasets decoded from a world
/// snapshot instead of replayed through generation. The worldstore
/// determinism contract makes its studies bit-identical to [`Repro`]'s;
/// only generation ground truth (the wiki, specs, bot reports) is absent,
/// so figure binaries that read those keep using [`Repro`].
pub struct WorldRepro {
    pub world: World,
    pub march: Dataset,
    pub september: Dataset,
}

impl WorldRepro {
    /// When `PERMADEAD_WORLD_CACHE` names a snapshot directory, satisfy the
    /// `(PERMADEAD_SEED, PERMADEAD_SCALE)` world from it — loading on a hit,
    /// generating and saving on a miss — and print the cache outcome with
    /// its load time. `None` when the env var is unset, so callers fall
    /// back to plain generation.
    pub fn from_env_cache() -> Option<WorldRepro> {
        let dir = std::env::var_os("PERMADEAD_WORLD_CACHE")?;
        let (scale, cfg) = config_from_env();
        let (world, outcome) =
            permadead_serve::load_or_generate(std::path::Path::new(&dir), cfg, &scale)
                .expect("world cache directory is usable");
        eprintln!("[permadead] {}", outcome.describe());
        Some(WorldRepro::over(world))
    }

    /// Decode the datasets out of an already-obtained world.
    pub fn over(world: World) -> WorldRepro {
        let march = Dataset::from_table(&world.march, &world.interner);
        let september = Dataset::from_table(&world.september, &world.interner);
        WorldRepro { world, march, september }
    }

    /// March pipeline at study time, honouring `PERMADEAD_JOBS`.
    pub fn march_study(&self) -> Study {
        Study::run_with(
            &self.world.web,
            &self.world.archive,
            &self.march,
            self.world.meta.study_time,
            StudyOptions::with_jobs(jobs_from_env()),
        )
    }

    /// September pipeline at the later date, honouring `PERMADEAD_JOBS`.
    pub fn september_study(&self) -> Study {
        Study::run_with(
            &self.world.web,
            &self.world.archive,
            &self.september,
            self.world.meta.random_sample_time,
            StudyOptions::with_jobs(jobs_from_env()),
        )
    }
}
