//! Scenario → [`World`] composition and the on-disk world cache.
//!
//! `permadead-sim` deliberately knows nothing about `core`'s datasets or
//! `worldstore`'s tables, so lowering a generated scenario into a [`World`]
//! lives here, in the lowest crate that depends on all three. Every
//! command, the server and the repro binaries lower a scenario right after
//! generating it and run over the world from then on. The three link tables
//! are the [`Dataset::march`], [`Dataset::september`] and
//! [`Dataset::all_tagged`] samples, taken in one walk of the category by
//! [`Dataset::samples`], so a world decoded from a snapshot and one lowered
//! in memory answer bit-identically.
//!
//! [`load_or_generate`] is the `--world-cache` entry point the CLI and the
//! repro binaries share: hit → decode the snapshot (no wiki replay at all);
//! miss → generate, lower, index, save, and leave the snapshot behind for
//! next time.

use permadead_core::Dataset;
use permadead_rescue::RescueIndex;
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_worldstore::{Interner, World, WorldMeta};
use std::path::{Path, PathBuf};

/// Lower a fully generated scenario into a [`World`]. Consumes the
/// scenario: the web and archive move into the world unchanged, the wiki is
/// reduced to the three link tables, and ground truth (`specs`,
/// `bot_reports`) is dropped — a world answers audits, not calibration.
/// The world carries no rediscovery index; [`world_for_snapshot`] adds the
/// one every saved snapshot carries.
pub fn world_from_scenario(scenario: Scenario, scale: &str) -> World {
    let (sample, seed) = (scenario.config.sample_size, scenario.config.seed);
    let (march, september, all) = Dataset::samples(&scenario.wiki, sample, seed);

    let mut interner = Interner::new();
    let march = march.to_table(&mut interner);
    let september = september.to_table(&mut interner);
    let all = all.to_table(&mut interner);

    let meta = WorldMeta {
        seed: scenario.config.seed,
        scale: scale.to_string(),
        rot_links: scenario.config.rot_links as u32,
        sample_size: scenario.config.sample_size as u32,
        study_time: scenario.config.study_time,
        random_sample_time: scenario.config.random_sample_time,
        // the builder's derivation (simgen keys page content off the
        // scenario seed); recorded so `World::load` re-aims `LiveWeb::new`
        content_seed: scenario.config.seed ^ 0xC0FFEE,
    };
    World::assemble(meta, scenario.web, scenario.archive, interner, march, september, all)
}

/// Lower a scenario as it is saved: [`world_from_scenario`] plus the
/// rediscovery index over the live web's reachable pages at study time, so
/// a snapshot-backed run can use the rediscovery stage without
/// regenerating. The index build is bit-identical for any worker count, so
/// the snapshot bytes stay deterministic.
pub fn world_for_snapshot(scenario: Scenario, scale: &str) -> World {
    let mut world = world_from_scenario(scenario, scale);
    let index = take_rescue_index(&mut world, 0);
    world.with_rescue(index)
}

/// The rediscovery index over `world`'s live web at study time: the one the
/// world carries (a decoded snapshot's), moved out, or else a fresh build
/// over `jobs` workers (0 = one per core). The sharded build is
/// bit-identical for every worker count, so the two agree.
pub fn take_rescue_index(world: &mut World, jobs: usize) -> RescueIndex {
    if let Some(index) = world.rescue.take() {
        return index;
    }
    let jobs = match jobs {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    RescueIndex::build(&world.web, world.meta.study_time, jobs)
}

/// Where a `(seed, scale)` world lives inside a cache directory.
pub fn world_cache_path(dir: &Path, seed: u64, scale: &str) -> PathBuf {
    dir.join(format!("world_seed{seed}_{scale}.pdw"))
}

/// How [`load_or_generate`] satisfied a request.
#[derive(Debug)]
pub struct WorldCacheOutcome {
    /// True when the world came from an existing snapshot.
    pub hit: bool,
    /// The snapshot file consulted (and written, on a miss).
    pub path: PathBuf,
    /// Snapshot size in bytes.
    pub size_bytes: u64,
    /// Wall-clock of the load (hit) or the generate + lower + save (miss).
    pub elapsed: std::time::Duration,
    /// On a miss that found a file it could not trust, why the snapshot was
    /// discarded (wrong header, wrong format version, corruption). `None`
    /// for clean misses and for hits.
    pub notice: Option<String>,
}

impl WorldCacheOutcome {
    /// One operator-facing line: `world cache hit: … (412 KiB, 3.2ms)`.
    /// Misses that discarded an untrustworthy file say why.
    pub fn describe(&self) -> String {
        let mut line = format!(
            "world cache {}: {} ({} bytes, {:.1?})",
            if self.hit { "hit" } else { "miss" },
            self.path.display(),
            self.size_bytes,
            self.elapsed,
        );
        if let Some(notice) = &self.notice {
            line.push_str(&format!(" — stale snapshot ignored: {notice}"));
        }
        line
    }
}

/// Load the `(config.seed, scale)` world from `dir`, or generate it and
/// leave a snapshot behind for next time. A file whose header does not echo
/// the requested seed, scale, and corpus sizes — a renamed file, a stale
/// `--sample` override, a corrupt format — is regenerated and overwritten
/// rather than trusted.
pub fn load_or_generate(
    dir: &Path,
    config: ScenarioConfig,
    scale: &str,
) -> std::io::Result<(World, WorldCacheOutcome)> {
    let path = world_cache_path(dir, config.seed, scale);
    let t0 = std::time::Instant::now();
    let mut notice = None;
    if path.exists() {
        // wrong world under the right name, or undecodable: fall through to
        // regeneration, remembering why so the operator line can say so
        match World::load(&path) {
            Ok(world)
                if world.meta.seed == config.seed
                    && world.meta.scale == scale
                    && world.meta.rot_links == config.rot_links as u32
                    && world.meta.sample_size == config.sample_size as u32 =>
            {
                let size_bytes = std::fs::metadata(&path)?.len();
                let outcome = WorldCacheOutcome {
                    hit: true,
                    path,
                    size_bytes,
                    elapsed: t0.elapsed(),
                    notice: None,
                };
                return Ok((world, outcome));
            }
            Ok(world) => {
                notice = Some(format!(
                    "header mismatch (file has seed {} scale {:?} rot_links {} sample {}, \
                     wanted seed {} scale {:?} rot_links {} sample {})",
                    world.meta.seed,
                    world.meta.scale,
                    world.meta.rot_links,
                    world.meta.sample_size,
                    config.seed,
                    scale,
                    config.rot_links,
                    config.sample_size,
                ));
            }
            Err(e) => notice = Some(format!("undecodable snapshot ({e})")),
        }
    }
    std::fs::create_dir_all(dir)?;
    let world = world_for_snapshot(Scenario::generate(config), scale);
    let size_bytes = world.save(&path)?;
    let outcome =
        WorldCacheOutcome { hit: false, path, size_bytes, elapsed: t0.elapsed(), notice };
    Ok((world, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScenarioConfig {
        ScenarioConfig { rot_links: 40, ..ScenarioConfig::small(7) }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pdw-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit_yield_the_same_bytes() {
        let dir = tmpdir("roundtrip");
        let (first, out1) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(!out1.hit);
        assert_eq!(out1.size_bytes, std::fs::metadata(&out1.path).unwrap().len());

        let (second, out2) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(out2.hit, "second call must load the snapshot");
        assert_eq!(out2.path, out1.path);
        assert_eq!(first.to_bytes(), second.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_header_is_regenerated() {
        let dir = tmpdir("mismatch");
        let (_, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        // masquerade the seed-7 snapshot as seed 8
        let path8 = world_cache_path(&dir, 8, "small");
        std::fs::rename(&out.path, &path8).unwrap();
        let cfg8 = ScenarioConfig { rot_links: 40, ..ScenarioConfig::small(8) };
        let (world, out8) = load_or_generate(&dir, cfg8, "small").unwrap();
        assert!(!out8.hit, "a header echoing the wrong seed must not be trusted");
        assert_eq!(world.meta.seed, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sample_override_does_not_hit_a_stale_snapshot() {
        let dir = tmpdir("sample");
        let (_, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(!out.hit);
        // same seed + scale, different --sample: the cached world answers a
        // different question and must be regenerated, not served
        let smaller = ScenarioConfig { sample_size: 10, ..cfg() };
        let (world, out2) = load_or_generate(&dir, smaller, "small").unwrap();
        assert!(!out2.hit, "a stale sample size must not be trusted");
        assert_eq!(world.meta.sample_size, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_regenerated() {
        let dir = tmpdir("corrupt");
        let (_, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        let mut bytes = std::fs::read(&out.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&out.path, &bytes).unwrap();
        let (world, out2) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(!out2.hit);
        assert_eq!(world.meta.seed, 7);
        // the operator line still says "world cache miss" (scripts grep for
        // it) and now explains why the on-disk file was not trusted
        let line = out2.describe();
        assert!(line.contains("world cache miss"), "{line}");
        assert!(line.contains("stale snapshot ignored"), "{line}");
        assert!(out2.notice.as_deref().unwrap().contains("undecodable snapshot"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checksum_is_regenerated_with_notice() {
        let dir = tmpdir("truncated");
        let (_, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        let bytes = std::fs::read(&out.path).unwrap();
        // chop the trailing checksum: the codec must report, not panic
        std::fs::write(&out.path, &bytes[..bytes.len() - 4]).unwrap();
        let (world, out2) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(!out2.hit);
        assert_eq!(world.meta.seed, 7);
        assert!(out2.notice.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_format_version_is_regenerated_with_notice() {
        let dir = tmpdir("version");
        let (_, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        let mut bytes = std::fs::read(&out.path).unwrap();
        // masquerade as format v1 (bytes 4..8 hold the version word)
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&out.path, &bytes).unwrap();
        let (world, out2) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(!out2.hit, "a v1 file must be regenerated, not trusted");
        assert_eq!(world.meta.seed, 7);
        let line = out2.describe();
        assert!(line.contains("world cache miss"), "{line}");
        assert!(out2.notice.as_deref().unwrap().contains("decode error"), "{:?}", out2.notice);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_mismatch_notice_names_both_worlds() {
        let dir = tmpdir("mismatch-notice");
        let (_, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        let path8 = world_cache_path(&dir, 8, "small");
        std::fs::rename(&out.path, &path8).unwrap();
        let cfg8 = ScenarioConfig { rot_links: 40, ..ScenarioConfig::small(8) };
        let (_, out8) = load_or_generate(&dir, cfg8, "small").unwrap();
        assert!(!out8.hit);
        let notice = out8.notice.as_deref().unwrap();
        assert!(notice.contains("header mismatch"), "{notice}");
        assert!(notice.contains("seed 7") && notice.contains("seed 8"), "{notice}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_carries_the_rescue_index() {
        let dir = tmpdir("rescue");
        let (generated, _) = load_or_generate(&dir, cfg(), "small").unwrap();
        let (loaded, out) = load_or_generate(&dir, cfg(), "small").unwrap();
        assert!(out.hit);
        let built = generated.rescue.as_ref().expect("generated world carries an index");
        let thawed = loaded.rescue.as_ref().expect("snapshot-backed world carries an index");
        assert!(!built.is_empty(), "seed-7 world has live pages to index");
        assert_eq!(built, thawed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
