//! The paper-scale world every workload reads, and the run context.

use permadead_core::Dataset;
use permadead_worldstore::World;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The world's seed: the paper-scale world the repository's figures come
/// from. A workload's `--seed` varies its inputs, never the world.
pub const WORLD_SEED: u64 = 42;
pub const WORLD_SCALE: &str = "paper";

/// Everything a run is told on its command line.
#[derive(Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Offered `/check` rate of the serve workload.
    pub rate_hz: f64,
    /// The world-cache directory holding this build's snapshot.
    pub cache: PathBuf,
    /// The snapshot file inside `cache`.
    pub snapshot: PathBuf,
    /// The `permadead` binary of the same build.
    pub server_bin: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

pub fn snapshot_path(cache: &Path) -> PathBuf {
    permadead_serve::worldcache::world_cache_path(cache, WORLD_SEED, WORLD_SCALE)
}

/// `World::load` plus the March dataset decode: the batch set-up.
pub fn load(path: &Path) -> Result<(World, Dataset, f64), String> {
    let t0 = Instant::now();
    let world = World::load(path).map_err(|e| format!("loading {}: {e:?}", path.display()))?;
    let dataset = Dataset::from_table(&world.march, &world.interner);
    Ok((world, dataset, t0.elapsed().as_secs_f64()))
}

/// Set up `times` times, each world dropped before the next load; returns
/// the last world and every set-up time.
pub fn load_repeatedly(path: &Path, times: usize) -> Result<(World, Dataset, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let (world, dataset, s) = load(path)?;
        secs.push(s);
        last = Some((world, dataset));
    }
    let (world, dataset) = last.ok_or("no set-up ran")?;
    Ok((world, dataset, secs))
}
