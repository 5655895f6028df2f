//! E17 — the economics of the world snapshot + incremental re-audit path:
//! what does generation cost, what does a snapshot cost to save and load
//! back, and what does one flipped link cost to re-audit against a full
//! study re-run?
//!
//! Prints one JSON line per measurement and persists them to
//! `results/BENCH_world.json`. The load is the streamed `World::load` path
//! every command takes, broken down by snapshot section (`world/section`
//! lines: bytes and decode time of the header, interner, link tables, live
//! web, archive, rescue entries and checksum); the sections' bytes sum to
//! the snapshot's size. A counting global allocator adds heap bytes: each
//! section line carries the live heap the load holds when that section
//! closes, and the `world/load` line the live heap after the load and its
//! peak during it, both counted from the load's start. The load checks the
//! rescue entries and leaves them in the file: the read a loaded index
//! makes of them on first use is forced on its own `world/rescue_entries`
//! line, and the postings it builds on its first query on the
//! `world/rescue_postings` line after it. The `world/save` line carries
//! the heap the save adds at its peak over the world it writes. Every heap
//! figure leaves out the snapshot path's own bytes (the save's temp path,
//! the path the load keeps for the deferred read), so that it does not
//! depend on where the run writes. The full study, the
//! incremental build and the single-flip re-audit are each timed over
//! [`ROUNDS`] rounds and reported as the median, with `speedup_vs_full`
//! taken from the medians.
//! Honours `PERMADEAD_SEED` / `PERMADEAD_SCALE` / `PERMADEAD_JOBS`; the
//! snapshot goes to `PERMADEAD_WORLD_CACHE` when set, a temp directory
//! otherwise.
//!
//! The run also asserts the reproduction's correctness contract along the
//! way: the loaded world's study report must be byte-identical to the
//! incremental engine's maintained report.

use permadead_bench::{config_from_env, jobs_from_env, persist_bench_results, Repro};
use permadead_core::{IncrementalAudit, StudyOptions};
use permadead_serve::worldcache;
use permadead_sim::Scenario;
use permadead_stats::percentile;
use permadead_worldstore::World;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    /// Counted as a move: the new block and the old one both count toward
    /// the peak, as they do whenever the block cannot grow in place.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        new
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Rounds each steady-state measurement is timed over.
const ROUNDS: usize = 7;

/// The heap bytes the value `make` returns holds: a path built as
/// `World::save` or `World::load` builds it, measured so that the heap
/// figures can leave it out.
fn held_by<T>(make: impl FnOnce() -> T) -> usize {
    let before = LIVE.load(Relaxed);
    let value = make();
    let held = LIVE.load(Relaxed).saturating_sub(before);
    drop(value);
    held
}

/// Run `op` [`ROUNDS`] times: the median wall-clock milliseconds of a round,
/// and the last round's output.
fn timed<T>(mut op: impl FnMut() -> T) -> (f64, T) {
    let mut ms = Vec::with_capacity(ROUNDS);
    let mut out = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        out = Some(op());
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (percentile(&ms, 50.0), out.expect("at least one round"))
}

fn main() {
    let (scale, cfg) = config_from_env();
    let jobs = jobs_from_env();
    let seed = cfg.seed;

    // 1. generation: the cost a snapshot saves us
    eprintln!("[permadead] generating world (seed {seed}, scale {scale}) …");
    let t0 = Instant::now();
    let scenario = Scenario::generate(cfg);
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;

    // 2. lower (with the rediscovery index every snapshot carries) + save
    let t0 = Instant::now();
    let world = worldcache::world_for_snapshot(scenario, &scale);
    let lower_ms = t0.elapsed().as_secs_f64() * 1e3;
    let dir = std::env::var_os("PERMADEAD_WORLD_CACHE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("permadead-world-scale"));
    std::fs::create_dir_all(&dir).expect("snapshot directory");
    let path = worldcache::world_cache_path(&dir, seed, &scale);
    let tmp_path_bytes = held_by(|| path.with_extension("pdw.tmp"));
    let heap0 = LIVE.load(Relaxed);
    PEAK.store(heap0, Relaxed);
    let t0 = Instant::now();
    let size_bytes = world.save(&path).expect("snapshot saves");
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let save_peak = PEAK.load(Relaxed).saturating_sub(heap0 + tmp_path_bytes);
    drop(world);

    // 3. load: what every later run pays instead of (1), section by section,
    // with the heap it holds counted from its start, less its path
    let heap0 = LIVE.load(Relaxed) + held_by(|| path.to_path_buf());
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let mut sections = Vec::new();
    let t0 = Instant::now();
    let world = World::load_with_sections(&path, |s| {
        sections.push((s.clone(), LIVE.load(Relaxed).saturating_sub(heap0)));
    })
    .expect("snapshot loads");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let load_heap = LIVE.load(Relaxed).saturating_sub(heap0);
    let load_peak = PEAK.load(Relaxed).saturating_sub(heap0);
    assert_eq!(
        sections.iter().map(|(s, _)| s.bytes as u64).sum::<u64>(),
        size_bytes,
        "every snapshot byte belongs to one section"
    );

    // the entries a loaded index reads back on first use, then the postings
    // it builds on its first query, each forced on its own
    let heap0 = LIVE.load(Relaxed);
    let t0 = Instant::now();
    let entries = world.rescue.as_ref().map_or(0, |index| index.entries().len());
    let entries_ms = t0.elapsed().as_secs_f64() * 1e3;
    let entries_heap = LIVE.load(Relaxed).saturating_sub(heap0);
    let heap0 = LIVE.load(Relaxed);
    let t0 = Instant::now();
    if let Some(index) = &world.rescue {
        index.ensure_postings();
    }
    let postings_ms = t0.elapsed().as_secs_f64() * 1e3;
    let postings_heap = LIVE.load(Relaxed).saturating_sub(heap0);
    let repro = Repro::over(world);
    let links = repro.march.len();

    // 4. full study over the loaded world
    let (full_study_ms, study) = timed(|| repro.march_study());

    // 5. incremental engine: build, then re-audit one link at a time — the
    // serve watch-pump's steady-state operation
    let (build_ms, mut audit) = timed(|| {
        IncrementalAudit::build(
            &repro.world.web,
            &repro.world.archive,
            &repro.march,
            repro.world.meta.study_time,
            StudyOptions::default(),
        )
    });
    assert_eq!(
        audit.report(),
        study.report(),
        "incremental report must match the from-scratch study"
    );
    let flips = links.min(64);
    let (flips_ms, ()) = timed(|| {
        for i in 0..flips {
            audit.reaudit_indices(
                &repro.world.web,
                &repro.world.archive,
                &[i],
                repro.world.meta.study_time,
            );
        }
    });
    let single_flip_ms = flips_ms / flips as f64;

    let load_speedup = generate_ms / load_ms;
    let flip_speedup = full_study_ms / single_flip_ms;
    let section_lines: String = sections
        .iter()
        .map(|(s, heap)| {
            format!(
                "{{\"bench\":\"world/section\",\"scale\":\"{scale}\",\"section\":\"{}\",\"bytes\":{},\"decode_ms\":{:.3},\"heap_bytes\":{heap}}}\n",
                s.name,
                s.bytes,
                s.decode.as_secs_f64() * 1e3
            )
        })
        .collect();
    let lines = format!(
        "{{\"bench\":\"world/generate\",\"scale\":\"{scale}\",\"links\":{links},\"mean_ms\":{generate_ms:.3}}}\n\
         {{\"bench\":\"world/lower\",\"scale\":\"{scale}\",\"mean_ms\":{lower_ms:.3}}}\n\
         {{\"bench\":\"world/save\",\"scale\":\"{scale}\",\"bytes\":{size_bytes},\"mean_ms\":{save_ms:.3},\"heap_peak_bytes\":{save_peak}}}\n\
         {{\"bench\":\"world/load\",\"scale\":\"{scale}\",\"mean_ms\":{load_ms:.3},\"speedup_vs_generate\":{load_speedup:.1},\"heap_bytes\":{load_heap},\"heap_peak_bytes\":{load_peak}}}\n\
         {section_lines}\
         {{\"bench\":\"world/rescue_entries\",\"scale\":\"{scale}\",\"entries\":{entries},\"mean_ms\":{entries_ms:.3},\"heap_bytes\":{entries_heap}}}\n\
         {{\"bench\":\"world/rescue_postings\",\"scale\":\"{scale}\",\"mean_ms\":{postings_ms:.3},\"heap_bytes\":{postings_heap}}}\n\
         {{\"bench\":\"world/full_study\",\"scale\":\"{scale}\",\"jobs\":{jobs},\"links\":{links},\"rounds\":{ROUNDS},\"median_ms\":{full_study_ms:.3}}}\n\
         {{\"bench\":\"world/incremental_build\",\"scale\":\"{scale}\",\"rounds\":{ROUNDS},\"median_ms\":{build_ms:.3}}}\n\
         {{\"bench\":\"world/single_flip_reaudit\",\"scale\":\"{scale}\",\"flips\":{flips},\"rounds\":{ROUNDS},\"median_ms\":{single_flip_ms:.4},\"speedup_vs_full\":{flip_speedup:.1}}}\n"
    );
    print!("{lines}");
    match persist_bench_results("world", &lines) {
        Ok(path) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not persist results: {e}"),
    }
}
