//! E11 — the conclusion's headline table, paper vs measured, for both the
//! March-style and September-style samples.
//!
//! With `PERMADEAD_WORLD_CACHE=DIR` the world comes from the snapshot cache
//! (generated and saved on the first run, decoded on every later one); the
//! tables are bit-identical either way. CI diffs the seed-42 small-scale
//! output against `results/SUMMARY_seed42_small.txt`.

use permadead_bench::Repro;

fn main() {
    let repro = Repro::from_env();
    for study in [repro.march_study(), repro.september_study()] {
        println!("{}", study.report().render_comparison());
        println!();
    }
}
