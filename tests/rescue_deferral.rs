//! A snapshot loaded from a file leaves its rediscovery entries on disk.
//! `World::load` checks them and keeps none; the index knows how many
//! there are, and reads them back from the file, verified against the
//! load's checksum, on first use. What it reads back equals what a decode
//! of the same bytes held from the start, whatever happens to the path
//! after the load, and a file rewritten in place under it is refused.

use permadead::archive::BodyClass;
use permadead::rescue::{Fingerprint, DEFAULT_TOP_K};
use permadead::serve::world_for_snapshot;
use permadead::sim::{Scenario, ScenarioConfig};
use permadead_worldstore::World;
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The snapshot of a small generated world with its rediscovery index.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = ScenarioConfig {
            rot_links: 40,
            ..ScenarioConfig::small(7)
        };
        world_for_snapshot(Scenario::generate(cfg), "small").to_bytes()
    })
}

/// The byte range of the snapshot's rescue section: its presence flag,
/// its count, and its entries.
fn rescue_section() -> (usize, usize) {
    let (_, sections) = World::from_bytes_with_sections(snapshot()).unwrap();
    let mut start = 0;
    for s in &sections {
        if s.name == "rescue-entries" {
            return (start, start + s.bytes);
        }
        start += s.bytes;
    }
    panic!("no rescue-entries section");
}

/// A scratch directory for one test's snapshot files, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("permadead-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write(&self, bytes: &[u8]) -> PathBuf {
        let path = self.0.join("world.pdw");
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fingerprints of the first archived content copies: queries that find
/// their own pages and queries that find only neighbours.
fn sample_fingerprints(world: &World) -> Vec<Fingerprint> {
    world
        .archive
        .iter()
        .filter(|s| s.body_class == BodyClass::Content && !s.title.is_empty())
        .step_by(7)
        .take(24)
        .map(|s| Fingerprint {
            title: s.title.clone(),
            sketch: s.sketch,
        })
        .collect()
}

#[test]
fn a_loaded_index_knows_its_length_and_reads_nothing() {
    let scratch = Scratch::new("deferral-len");
    let world = World::load(&scratch.write(snapshot())).unwrap();
    let decoded = World::from_bytes(snapshot()).unwrap();
    let (loaded, held) = (
        world.rescue.as_ref().unwrap(),
        decoded.rescue.as_ref().unwrap(),
    );
    assert!(
        held.entries_loaded(),
        "a decode from bytes reads the entries at once"
    );
    assert!(
        held.len() > 100,
        "the world has pages to index: {}",
        held.len()
    );
    assert_eq!(loaded.len(), held.len(), "the stored count");
    assert!(!loaded.is_empty());
    assert!(!loaded.entries_loaded(), "the length comes without a read");
    assert!(!loaded.postings_built());
}

#[test]
fn a_loaded_index_reads_back_what_a_decode_holds() {
    let scratch = Scratch::new("deferral-parity");
    let path = scratch.write(snapshot());
    let world = World::load(&path).unwrap();
    let decoded = World::from_bytes(snapshot()).unwrap();
    let (loaded, held) = (
        world.rescue.as_ref().unwrap(),
        decoded.rescue.as_ref().unwrap(),
    );

    let fingerprints = sample_fingerprints(&decoded);
    assert_eq!(fingerprints.len(), 24);
    for (i, fp) in fingerprints.iter().enumerate() {
        let answer = loaded.query(fp, DEFAULT_TOP_K);
        assert!(loaded.entries_loaded() && loaded.postings_built());
        assert_eq!(answer, held.query(fp, DEFAULT_TOP_K), "query {i}");
    }
    assert_eq!(loaded.entries(), held.entries());
    assert!(loaded == held);
    assert_eq!(world.to_bytes(), std::fs::read(&path).unwrap());
}

#[test]
fn a_save_over_the_path_leaves_the_deferred_entries_intact() {
    let scratch = Scratch::new("deferral-save");
    let path = scratch.write(snapshot());
    let world = World::load(&path).unwrap();
    let held = World::from_bytes(snapshot()).unwrap().rescue.unwrap();

    // another world, with no index, replaces the file at the same path
    let mut other = World::from_bytes(snapshot()).unwrap();
    other.rescue = None;
    other.meta.scale = "replaced".into();
    other.save(&path).unwrap();
    assert_ne!(
        std::fs::read(&path).unwrap(),
        snapshot(),
        "the path holds another world"
    );

    let loaded = world.rescue.as_ref().unwrap();
    assert!(!loaded.entries_loaded());
    assert_eq!(loaded.entries(), held.entries());
    assert_eq!(world.to_bytes(), snapshot());

    // and a world loaded from a path that is then deleted reads its
    // entries all the same
    let path = scratch.write(snapshot());
    let world = World::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(world.rescue.as_ref().unwrap().entries(), held.entries());
}

#[test]
fn a_byte_rewritten_in_place_fails_the_first_read() {
    let scratch = Scratch::new("deferral-rewrite");
    let path = scratch.write(snapshot());
    let world = World::load(&path).unwrap();
    let loaded = world.rescue.as_ref().unwrap();

    let (start, end) = rescue_section();
    let at = (start + end) / 2;
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(at as u64)).unwrap();
    file.read_exact(&mut byte).unwrap();
    file.seek(SeekFrom::Start(at as u64)).unwrap();
    file.write_all(&[byte[0] ^ 0x20]).unwrap();
    drop(file);

    let read = catch_unwind(AssertUnwindSafe(|| loaded.entries().len()));
    let message = match read {
        Ok(n) => panic!("a rewritten section read back {n} entries"),
        Err(payload) => *payload
            .downcast::<String>()
            .expect("a formatted panic message"),
    };
    assert!(
        message.contains(&path.display().to_string()),
        "names the file: {message}"
    );
    assert!(
        message.contains("changed since the load checked them"),
        "{message}"
    );
    assert!(
        !loaded.entries_loaded(),
        "nothing was kept from the failed read"
    );
}
