//! Shared harness for the reproduction binaries and `bench-loadgen`.
//!
//! Every `repro_*` binary regenerates one figure or table from the paper:
//! obtain the world, collect the dataset(s), run the pipeline, print the
//! series. All of them go through [`harness::Repro`], one
//! [`World`](permadead_worldstore::World) with its two datasets, so that the
//! same world (same seed, same scale) backs every figure — exactly like the
//! paper's single March dataset backs all of its analyses. `repro_sec41`
//! and `calibrate` read generation ground truth (bot reports, the wiki, link
//! specs) from their scenario first and then lower it into the same
//! `Repro`; `repro_ablations` varies the generation config and keeps its
//! scenarios.
//!
//! Environment knobs (read once, at harness construction):
//! - `PERMADEAD_SEED` — world seed (default 42);
//! - `PERMADEAD_SCALE` — `small` (default; seconds) or `paper` (the full
//!   ~18k-rot-link world; takes a few minutes);
//! - `PERMADEAD_JOBS` — pipeline worker threads (default 1, 0 = all cores;
//!   findings are identical for every value);
//! - `PERMADEAD_WORLD_CACHE` — a directory of world snapshots; every binary
//!   built on [`Repro::from_env`] loads the world from it instead of
//!   regenerating, printing the cache hit/miss and load time.

pub mod harness;

pub use harness::{config_from_env, generate, jobs_from_env, Repro};

/// Persist a machine-readable benchmark summary under `results/`.
///
/// Bench binaries print their JSON lines to stdout for ad-hoc scraping, but
/// CI and the roadmap want them on disk next to the paper-comparison tables:
/// `results/BENCH_<name>.json`. The directory defaults to `<workspace>/results`
/// and can be redirected with `PERMADEAD_RESULTS_DIR` (tests point it at a
/// temp dir). Returns the path written, or the I/O error — callers decide
/// whether a failed persist is fatal (the bench binaries just warn).
pub fn persist_bench_results(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var_os("PERMADEAD_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("results")
        });
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn persist_writes_under_results_dir() {
        let dir = std::env::temp_dir().join("permadead-bench-results-test");
        // the env var is process-global; this is the only test that sets it
        std::env::set_var("PERMADEAD_RESULTS_DIR", &dir);
        let path = super::persist_bench_results("unit", "{\"ok\":true}\n").unwrap();
        std::env::remove_var("PERMADEAD_RESULTS_DIR");
        assert_eq!(path, dir.join("BENCH_unit.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
