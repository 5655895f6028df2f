//! E15 — the §4.1 retry counterfactual as a standalone repro artifact.
//!
//! Replays the availability lookup IABot made for every March-dataset link
//! under an attempt ladder (1 = IABot, up to `PERMADEAD_RETRY_MAX`, default
//! 5) plus the unbounded WaybackMedic wait, and prints the rescued-copies
//! table. The whole table is a pure function of `(seed, scale)` — retry
//! jitter is seeded `seed ^ 0x5EC41` exactly like `permadead audit
//! --retry-table`, so CI diffs the pinned-seed output against a golden file.

use permadead_bench::Repro;
use permadead_core::{render_retry_counterfactual, retry_counterfactual, IABOT_TIMEOUT_MS};

fn main() {
    let repro = Repro::from_env();
    let max_attempts: u32 = std::env::var("PERMADEAD_RETRY_MAX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let seed = repro.world.meta.seed ^ 0x5EC41;
    let rows = retry_counterfactual(
        &repro.world.archive,
        &repro.march,
        IABOT_TIMEOUT_MS,
        seed,
        max_attempts,
    );
    println!("{}", render_retry_counterfactual(&rows, repro.march.len()));

    // machine-readable mirror, one JSON line per policy row
    let mut lines = String::new();
    for r in &rows {
        lines.push_str(&format!(
            "{{\"bench\":\"retry_table\",\"policy\":\"{}\",\"attempts\":{},\"rescued\":{},\"still_timed_out\":{},\"retries_spent\":{}}}\n",
            r.label, r.attempts, r.rescued, r.still_timed_out, r.retries_spent
        ));
    }
    match permadead_bench::persist_bench_results("retry_table", &lines) {
        Ok(path) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not persist results: {e}"),
    }
}
