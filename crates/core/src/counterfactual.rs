//! The §4.1 retry counterfactual.
//!
//! §4.1's bottom line: IABot marked links "permanently dead with no archived
//! copy" when its *single* availability lookup missed a client-side timeout,
//! even though 11% of those links had usable 200-status copies. This module
//! quantifies the obvious fix the paper implies but could not run: replay
//! the lookup IABot made for every dataset link, under (a) exactly one
//! attempt (IABot), (b) N attempts with exponential backoff, and (c) no
//! client timeout at all (WaybackMedic, which waits as long as it takes) —
//! and count how many "never archived" verdicts flip to a rescuable copy.
//!
//! Everything is deterministic: each link's base latency nonce is its
//! dataset index, and retries draw via [`attempt_nonce`], so the table is
//! reproducible bit-for-bit from `(dataset, seed)`.

use crate::dataset::Dataset;
use permadead_archive::{AvailabilityApi, AvailabilityPolicy, ArchiveStore};
use permadead_net::latency::Millis;
use permadead_net::RetryPolicy;
use permadead_stats::render_table;

/// IABot's client-side timeout on the Availability API, ms. The real value
/// is not public; what matters for the counterfactual is that it is tight
/// enough for the API's heavy tail to miss it sometimes.
pub const IABOT_TIMEOUT_MS: Millis = 4_000;

/// One row of the counterfactual table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryCounterfactualRow {
    /// Human-readable policy label ("1 attempt (IABot)", "3 attempts", …).
    pub label: String,
    /// Attempts the policy allows (0 = unbounded wait, the WaybackMedic row).
    pub attempts: u32,
    /// Links with a pre-marking copy the lookup found under this policy.
    pub rescued: usize,
    /// Links whose every attempt timed out — still (mis)classified
    /// "never archived".
    pub still_timed_out: usize,
    /// Total retries the policy actually spent across the dataset.
    pub retries_spent: u64,
}

/// Replay the §4.1 availability lookup for every dataset link under an
/// attempt ladder `1..=max_attempts`, plus the unbounded WaybackMedic row.
///
/// Each link's lookup asks for the copy closest to when the link was added,
/// restricted to snapshots captured before it was marked dead — exactly the
/// query IABot made — under `Initial200Only`, IABot's production policy.
/// `seed` feeds the retry jitter only; latency draws are keyed by dataset
/// index, so row 1 reproduces the study's own single-attempt behaviour.
pub fn retry_counterfactual(
    archive: &ArchiveStore,
    dataset: &Dataset,
    timeout_ms: Millis,
    seed: u64,
    max_attempts: u32,
) -> Vec<RetryCounterfactualRow> {
    let api = AvailabilityApi::with_default_latency(archive, seed);
    let mut rows = Vec::new();
    for attempts in 1..=max_attempts.max(1) {
        let policy = if attempts == 1 {
            RetryPolicy::single()
        } else {
            RetryPolicy::standard(attempts, seed)
        };
        let mut rescued = 0;
        let mut still_timed_out = 0;
        let mut retries_spent = 0;
        for (index, entry) in dataset.entries.iter().enumerate() {
            let (result, outcome) = api.closest_before_with_retry(
                &entry.url,
                entry.added_at,
                entry.marked_at,
                AvailabilityPolicy::Initial200Only,
                Some(timeout_ms),
                index as u64,
                &policy,
            );
            retries_spent += outcome.counts.total();
            match result {
                Ok(Some(_)) => rescued += 1,
                Ok(None) => {}
                Err(_) => still_timed_out += 1,
            }
        }
        rows.push(RetryCounterfactualRow {
            label: if attempts == 1 {
                "1 attempt (IABot)".to_string()
            } else {
                format!("{attempts} attempts")
            },
            attempts,
            rescued,
            still_timed_out,
            retries_spent,
        });
    }

    // WaybackMedic: no client timeout, so the lookup never misses a copy
    let mut rescued = 0;
    for (index, entry) in dataset.entries.iter().enumerate() {
        let found = api
            .closest_before(
                &entry.url,
                entry.added_at,
                entry.marked_at,
                AvailabilityPolicy::Initial200Only,
                None,
                index as u64,
            )
            .expect("unbounded lookup cannot time out");
        if found.is_some() {
            rescued += 1;
        }
    }
    rows.push(RetryCounterfactualRow {
        label: "unbounded wait (WaybackMedic)".to_string(),
        attempts: 0,
        rescued,
        still_timed_out: 0,
        retries_spent: 0,
    });
    rows
}

/// Render the counterfactual rows as the §4.1 report table.
pub fn render_retry_counterfactual(rows: &[RetryCounterfactualRow], n: usize) -> String {
    let mut table = vec![vec![
        "policy".to_string(),
        "rescued copies".to_string(),
        "still timed out".to_string(),
        "retries spent".to_string(),
    ]];
    for r in rows {
        table.push(vec![
            r.label.clone(),
            r.rescued.to_string(),
            r.still_timed_out.to_string(),
            r.retries_spent.to_string(),
        ]);
    }
    format!(
        "§4.1 retry counterfactual over {n} links (availability lookup, {}ms client timeout):\n{}",
        IABOT_TIMEOUT_MS,
        render_table(&table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use permadead_sim::{Scenario, ScenarioConfig};

    fn scenario_table() -> &'static (Scenario, Dataset) {
        // a full small() world: enough links with pre-marking 200 copies for
        // the 4s timeout's ~13% miss rate to produce observable flips.
        // Generated once — world generation dominates the tests' runtime.
        static WORLD: std::sync::OnceLock<(Scenario, Dataset)> = std::sync::OnceLock::new();
        WORLD.get_or_init(|| {
            let scenario = Scenario::generate(ScenarioConfig {
                rot_links: 400,
                ..ScenarioConfig::small(7)
            });
            let dataset = Dataset::alphabetical(&scenario.wiki, 10_000, 400, 42);
            (scenario, dataset)
        })
    }

    #[test]
    fn retries_rescue_strictly_more_than_single_attempt() {
        let (scenario, dataset) = scenario_table();
        let rows = retry_counterfactual(&scenario.archive, dataset, IABOT_TIMEOUT_MS, 0x5EC41, 5);
        assert_eq!(rows.len(), 6, "ladder of 5 plus the WaybackMedic row");
        let single = &rows[0];
        let best_retry = &rows[4];
        let medic = &rows[5];
        assert!(single.still_timed_out > 0, "timeout never fired — tighten the model");
        // the acceptance check: retries rescue strictly more copies
        assert!(
            best_retry.rescued > single.rescued,
            "5 attempts rescued {} vs single {}",
            best_retry.rescued,
            single.rescued,
        );
        assert!(best_retry.retries_spent > 0);
        assert_eq!(single.retries_spent, 0, "one attempt schedules no retries");
        // more attempts never rescue fewer (the ladder is monotone)
        for pair in rows[..5].windows(2) {
            assert!(pair[1].rescued >= pair[0].rescued, "{pair:?}");
            assert!(pair[1].still_timed_out <= pair[0].still_timed_out, "{pair:?}");
        }
        // the unbounded wait is the ceiling
        assert!(medic.rescued >= best_retry.rescued);
        assert_eq!(medic.still_timed_out, 0);
    }

    #[test]
    fn counterfactual_is_deterministic() {
        let (scenario, dataset) = scenario_table();
        let a = retry_counterfactual(&scenario.archive, dataset, IABOT_TIMEOUT_MS, 0x5EC41, 3);
        let b = retry_counterfactual(&scenario.archive, dataset, IABOT_TIMEOUT_MS, 0x5EC41, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn render_lists_every_row() {
        let (scenario, dataset) = scenario_table();
        let rows = retry_counterfactual(&scenario.archive, dataset, IABOT_TIMEOUT_MS, 0x5EC41, 3);
        let s = render_retry_counterfactual(&rows, dataset.len());
        assert!(s.contains("1 attempt (IABot)"));
        assert!(s.contains("3 attempts"));
        assert!(s.contains("WaybackMedic"));
        assert!(s.contains("rescued copies"));
    }
}
