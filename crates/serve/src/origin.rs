//! Per-origin retry budgets.
//!
//! A retrying audit service can spend unbounded simulated backoff on one
//! flapping origin: every `/check` against it schedules the full retry
//! ladder again. The ledger caps that spend per host — once an origin's
//! cumulative scheduled backoff crosses the budget, later checks against it
//! run with retries refused (single attempt), and each refusal is counted
//! for `/metrics`.
//!
//! Sharded like the verdict cache (FNV-1a over the host) so concurrent
//! workers auditing different origins never contend on one lock.

use parking_lot::Mutex;
use permadead_url::fnv1a;
use std::collections::HashMap;

const SHARDS: usize = 16;

#[derive(Default)]
struct OriginState {
    /// Cumulative backoff this host's retries scheduled, ms.
    spent_ms: u64,
    /// Checks that ran with retries refused after the budget was spent.
    refused_checks: u64,
}

/// Sharded per-host retry-budget accounting.
pub struct OriginLedger {
    budget_ms: u64,
    shards: Vec<Mutex<HashMap<String, OriginState>>>,
}

impl OriginLedger {
    pub fn new(budget_ms: u64) -> OriginLedger {
        OriginLedger {
            budget_ms,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, host: &str) -> &Mutex<HashMap<String, OriginState>> {
        &self.shards[(fnv1a(host.as_bytes()) % SHARDS as u64) as usize]
    }

    /// May a check against `host` still retry? A `false` answer counts the
    /// refusal, so callers must ask exactly once per audited check.
    pub fn admit_retries(&self, host: &str) -> bool {
        let mut shard = self.shard(host).lock();
        let state = shard.entry(host.to_string()).or_default();
        if state.spent_ms >= self.budget_ms {
            state.refused_checks += 1;
            return false;
        }
        true
    }

    /// Charge backoff a check actually scheduled against `host`.
    pub fn charge(&self, host: &str, backoff_ms: u64) {
        if backoff_ms == 0 {
            return;
        }
        let mut shard = self.shard(host).lock();
        shard.entry(host.to_string()).or_default().spent_ms += backoff_ms;
    }

    /// `(host, refused_checks)` for every host whose budget ran out, sorted
    /// by host for stable metric exposition.
    pub fn exhausted_snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .iter()
                    .filter(|(_, s)| s.refused_checks > 0)
                    .map(|(host, s)| (host.clone(), s.refused_checks))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_host_may_retry_and_nothing_is_exhausted() {
        let ledger = OriginLedger::new(1_000);
        assert!(ledger.admit_retries("a.example.org"));
        assert!(ledger.admit_retries("a.example.org"));
        assert!(ledger.exhausted_snapshot().is_empty());
    }

    #[test]
    fn spending_past_the_budget_refuses_and_counts() {
        let ledger = OriginLedger::new(1_000);
        assert!(ledger.admit_retries("flappy.org"));
        ledger.charge("flappy.org", 600);
        assert!(ledger.admit_retries("flappy.org"), "under budget: still admitted");
        ledger.charge("flappy.org", 600);
        // 1200 >= 1000: every later check is refused, each one counted
        assert!(!ledger.admit_retries("flappy.org"));
        assert!(!ledger.admit_retries("flappy.org"));
        assert_eq!(ledger.exhausted_snapshot(), vec![("flappy.org".to_string(), 2)]);
        // an unrelated host is untouched
        assert!(ledger.admit_retries("calm.org"));
        assert_eq!(ledger.exhausted_snapshot(), vec![("flappy.org".to_string(), 2)]);
    }

    #[test]
    fn zero_charge_allocates_nothing() {
        let ledger = OriginLedger::new(10);
        ledger.charge("quiet.org", 0);
        for shard in &ledger.shards {
            assert!(shard.lock().is_empty());
        }
    }

    #[test]
    fn snapshot_is_sorted_across_shards() {
        let ledger = OriginLedger::new(0);
        // budget 0: the very first check is already refused
        for host in ["zz.org", "aa.org", "mm.org"] {
            assert!(!ledger.admit_retries(host));
        }
        let snapshot = ledger.exhausted_snapshot();
        let hosts: Vec<&str> = snapshot.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(hosts, ["aa.org", "mm.org", "zz.org"]);
    }

    /// The sort contract under load: enough hosts to populate every FNV
    /// shard, registered in scrambled order, must come back globally sorted
    /// — not merely sorted within each shard — and identically on every
    /// call. HashMap iteration order varies run to run; without the final
    /// sort this flaps and `/metrics` emits unstable series orderings.
    #[test]
    fn snapshot_ordering_is_total_and_repeatable_over_many_hosts() {
        let ledger = OriginLedger::new(0);
        // register in a deliberately non-sorted, shard-scattering order
        let mut hosts: Vec<String> = (0..100).map(|i| format!("h{:03}.org", (i * 37) % 100)).collect();
        for host in &hosts {
            assert!(!ledger.admit_retries(host));
            assert!(!ledger.admit_retries(host), "second refusal counts too");
        }
        // every shard should actually hold something, else the test proves
        // nothing about cross-shard merging
        let populated = ledger.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(populated > SHARDS / 2, "only {populated}/{SHARDS} shards populated");

        let snapshot = ledger.exhausted_snapshot();
        assert_eq!(snapshot.len(), 100);
        hosts.sort();
        let got: Vec<&str> = snapshot.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(got, hosts.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(snapshot.iter().all(|(_, refused)| *refused == 2));
        assert_eq!(snapshot, ledger.exhausted_snapshot(), "snapshot must be repeatable");
    }
}
