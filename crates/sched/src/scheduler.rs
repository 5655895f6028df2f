//! The scheduler: a deterministic event queue over watcher state machines.
//!
//! Built on `permadead_net::EventQueue`, whose heap orders by
//! `(due, priority, seq)` — bit-identical pop order for the same insertion
//! sequence, which is exactly the determinism the batch frontend pins in
//! `tests/determinism.rs`. The scheduler owns the bookkeeping half of a
//! re-check (admission, deferral, next-due computation); the *tagging
//! decision* belongs to the configured `permadead-policy` machine, and the
//! *network* half — actually fetching the URL — stays with the caller, so
//! the CLI drives it against the simulated web, `permadead-serve` pumps it
//! through its worker pool, and unit tests feed scripted outcomes.

use crate::cadence::Cadence;
use crate::politeness::HostBudget;
use crate::watcher::Watcher;
use permadead_net::{Duration, EventQueue, SimTime};
use permadead_policy::{PolicySpec, StateDist, Transition};
use permadead_url::Url;
use std::collections::{BTreeSet, HashMap};

/// Everything that shapes a monitoring run.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The dead-link detection policy every watcher runs.
    pub policy: PolicySpec,
    pub cadence: Cadence,
    /// Per-host checks per UTC day; `None` disables politeness deferral.
    pub host_budget_per_day: Option<u32>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: PolicySpec::default(),
            cadence: Cadence::Fixed { every: Duration::days(1) },
            host_budget_per_day: None,
        }
    }
}

/// Monotonic event totals. `due` counts pops from the queue, `checks`
/// outcomes applied; they differ only by politeness deferrals and by checks
/// currently in flight between `pop_due` and `apply`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    pub due: u64,
    pub checks: u64,
    pub tagged: u64,
    pub revived: u64,
    pub deferred: u64,
}

impl SchedCounters {
    /// Per-interval deltas (the per-day timeline rows subtract snapshots).
    pub fn diff(self, earlier: SchedCounters) -> SchedCounters {
        SchedCounters {
            due: self.due - earlier.due,
            checks: self.checks - earlier.checks,
            tagged: self.tagged - earlier.tagged,
            revived: self.revived - earlier.revived,
            deferred: self.deferred - earlier.deferred,
        }
    }
}

/// A point-in-time view for `/metrics` and `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchSnapshot {
    pub counters: SchedCounters,
    /// Re-check events waiting in the queue.
    pub pending: usize,
    /// Watchers registered.
    pub watchlist: usize,
    /// Watchers currently tagged permanently dead.
    pub tagged_now: usize,
    /// How the watchlist distributes over the four link states.
    pub states: StateDist,
    /// The active policy's name.
    pub policy: &'static str,
}

impl Default for WatchSnapshot {
    fn default() -> Self {
        WatchSnapshot {
            counters: SchedCounters::default(),
            pending: 0,
            watchlist: 0,
            tagged_now: 0,
            states: StateDist::default(),
            policy: PolicySpec::default().name(),
        }
    }
}

/// The deterministic re-check scheduler.
pub struct Scheduler {
    config: SchedulerConfig,
    queue: EventQueue<usize>,
    watchers: Vec<Watcher>,
    id_of: HashMap<String, usize>,
    budget: Option<HostBudget>,
    /// Watchers whose state flipped (Tagged / Revived) since the last
    /// [`Self::take_dirty`] — the incremental re-audit's work list. Ordered
    /// and deduplicated so consumers re-audit each flipped link once, in a
    /// deterministic order.
    dirty: BTreeSet<usize>,
    pub counters: SchedCounters,
}

impl Scheduler {
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let budget = config.host_budget_per_day.map(HostBudget::new);
        Scheduler {
            config,
            queue: EventQueue::new(),
            watchers: Vec::new(),
            id_of: HashMap::new(),
            budget,
            dirty: BTreeSet::new(),
            counters: SchedCounters::default(),
        }
    }

    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Register `url` with its first check due at `first_due`. Returns the
    /// watcher id, or `None` if the URL is already watched (idempotent —
    /// re-registering must not double its cadence).
    pub fn watch(&mut self, url: Url, first_due: SimTime) -> Option<usize> {
        let key = url.to_string();
        if self.id_of.contains_key(&key) {
            return None;
        }
        let id = self.watchers.len();
        self.watchers.push(Watcher::new(url, self.config.policy.build()));
        self.id_of.insert(key, id);
        self.queue.schedule(first_due, 0, id);
        Some(id)
    }

    /// Register with the first check staggered deterministically inside the
    /// first day (an FNV hash of the URL, not a random draw), so a bulk
    /// registration doesn't slam every host at the same instant.
    pub fn watch_staggered(&mut self, url: Url, start: SimTime) -> Option<usize> {
        let stagger = (permadead_url::fnv1a(url.to_string().as_bytes()) % 86_400) as i64;
        self.watch(url, start + Duration::seconds(stagger))
    }

    pub fn id_of(&self, url: &str) -> Option<usize> {
        self.id_of.get(url).copied()
    }

    pub fn watcher(&self, id: usize) -> &Watcher {
        &self.watchers[id]
    }

    pub fn watchers(&self) -> &[Watcher] {
        &self.watchers
    }

    /// Watchers registered (the watchlist size).
    pub fn len(&self) -> usize {
        self.watchers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.watchers.is_empty()
    }

    /// Re-check events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// When the next event comes due, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the next admitted check due at or before `until`. Politeness
    /// refusals are handled internally: the event is deferred to the next
    /// UTC midnight and counted, and popping continues — so a returned
    /// `(id, at)` is always ready to fetch. The caller must follow up with
    /// [`Self::apply`] (or [`Self::requeue`]) for every pop.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(usize, SimTime)> {
        loop {
            if self.queue.peek_time()? > until {
                return None;
            }
            let (at, id) = self.queue.pop_next().expect("peeked non-empty");
            self.counters.due += 1;
            if let Some(budget) = &self.budget {
                if !budget.admit(&self.watchers[id].host, at) {
                    self.counters.deferred += 1;
                    let next_midnight =
                        SimTime::from_unix((at.as_unix().div_euclid(86_400) + 1) * 86_400);
                    self.queue.schedule(next_midnight, 0, id);
                    continue;
                }
            }
            return Some((id, at));
        }
    }

    /// Put a popped check back unprocessed (serve uses this when the worker
    /// queue is full). Undoes the pop's `due` count so dispatch counters
    /// stay in parity with checks actually attempted.
    pub fn requeue(&mut self, id: usize, at: SimTime) {
        self.counters.due -= 1;
        self.queue.schedule(at, 0, id);
    }

    /// Apply one fetched outcome and schedule the watcher's next check. The
    /// policy may override the configured cadence with its own interval
    /// (adaptive back-off); otherwise the cadence decides.
    pub fn apply(&mut self, id: usize, at: SimTime, ok: bool) -> Transition {
        self.counters.checks += 1;
        let w = &mut self.watchers[id];
        let obs = w.observe(ok, at);
        match obs.transition {
            Transition::Tagged => {
                self.counters.tagged += 1;
                self.dirty.insert(id);
            }
            Transition::Revived => {
                self.counters.revived += 1;
                self.dirty.insert(id);
            }
            _ => {}
        }
        let delay = match obs.next_check_in {
            Some(d) => d.max(Duration::seconds(1)),
            None => {
                let key = w.url.to_string();
                self.config.cadence.next_delay(&key, w.stable_streak, w.checks)
            }
        };
        self.queue.schedule(at + delay, 0, id);
        obs.transition
    }

    /// Drain the set of watchers whose state flipped since the last call,
    /// in ascending id order. A link that flapped (tagged then revived)
    /// between drains appears once — consumers re-audit its *current*
    /// state, so coalescing is exactly right.
    pub fn take_dirty(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Flipped watchers waiting to be drained (for `/metrics`).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Watchers currently tagged permanently dead.
    pub fn tagged_now(&self) -> usize {
        self.watchers.iter().filter(|w| w.is_tagged()).count()
    }

    /// How the watchlist distributes over the four link states.
    pub fn state_dist(&self) -> StateDist {
        let mut dist = StateDist::default();
        for w in &self.watchers {
            dist.add(w.state());
        }
        dist
    }

    pub fn snapshot(&self) -> WatchSnapshot {
        WatchSnapshot {
            counters: self.counters,
            pending: self.queue.len(),
            watchlist: self.watchers.len(),
            tagged_now: self.tagged_now(),
            states: self.state_dist(),
            policy: self.config.policy.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_policy::LinkState;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn day(d: i64) -> SimTime {
        SimTime::from_ymd(2022, 3, 1) + Duration::days(d)
    }

    fn sched() -> Scheduler {
        Scheduler::new(SchedulerConfig::default())
    }

    #[test]
    fn registration_is_idempotent() {
        let mut s = sched();
        assert_eq!(s.watch(url("http://a.org/x"), day(0)), Some(0));
        assert_eq!(s.watch(url("http://a.org/x"), day(5)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pending(), 1, "the duplicate must not enqueue a second event");
        assert_eq!(s.id_of("http://a.org/x"), Some(0));
    }

    #[test]
    fn pop_apply_drives_the_iabot_ladder_to_a_tag_and_revival() {
        let mut s = sched();
        s.watch(url("http://dead.org/x"), day(0));
        // three daily failures: strike, strike, tagged (span = 2d >= min 2d)
        for (d, expect) in [
            (0, Transition::Strike),
            (1, Transition::Strike),
            (2, Transition::Tagged),
        ] {
            let (id, at) = s.pop_due(day(d)).expect("due");
            assert_eq!(at, day(d));
            assert_eq!(s.apply(id, at, false), expect, "day {d}");
        }
        assert_eq!(s.tagged_now(), 1);
        // next day it answers 200 again: revival
        let (id, at) = s.pop_due(day(3)).expect("due");
        assert_eq!(s.apply(id, at, true), Transition::Revived);
        assert_eq!(s.tagged_now(), 0);
        assert_eq!(s.counters.tagged, 1);
        assert_eq!(s.counters.revived, 1);
        assert_eq!(s.counters.checks, 4);
        assert_eq!(s.counters.due, 4);
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut s = sched();
        s.watch(url("http://a.org/x"), day(3));
        assert_eq!(s.pop_due(day(2)), None);
        assert!(s.pop_due(day(3)).is_some());
    }

    #[test]
    fn same_instant_pops_in_registration_order() {
        let mut s = sched();
        for host in ["b", "a", "c"] {
            s.watch(url(&format!("http://{host}.org/x")), day(0));
        }
        let order: Vec<usize> = std::iter::from_fn(|| {
            s.pop_due(day(0)).map(|(id, at)| {
                s.apply(id, at, false);
                id
            })
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2], "(due, seq) tie-break is insertion order");
    }

    #[test]
    fn politeness_defers_past_the_budget_to_next_midnight() {
        let mut s = Scheduler::new(SchedulerConfig {
            host_budget_per_day: Some(2),
            ..SchedulerConfig::default()
        });
        for i in 0..4 {
            s.watch(url(&format!("http://busy.org/{i}")), day(0));
        }
        s.watch(url("http://calm.org/x"), day(0));
        // only 2 busy.org checks admitted today; calm.org unaffected
        let mut admitted = Vec::new();
        while let Some((id, at)) = s.pop_due(day(0) + Duration::hours(23)) {
            admitted.push(s.watcher(id).host.clone());
            s.apply(id, at, false);
        }
        assert_eq!(admitted, ["busy.org", "busy.org", "calm.org"]);
        assert_eq!(s.counters.deferred, 2);
        // the deferred pair lands exactly at the next midnight
        assert_eq!(s.next_due(), Some(day(1)));
        let (id, at) = s.pop_due(day(1)).expect("deferred check re-admitted");
        assert_eq!(at, day(1));
        assert_eq!(s.watcher(id).host, "busy.org");
    }

    #[test]
    fn requeue_restores_the_event_and_the_counter() {
        let mut s = sched();
        s.watch(url("http://a.org/x"), day(0));
        let (id, at) = s.pop_due(day(0)).unwrap();
        assert_eq!(s.counters.due, 1);
        s.requeue(id, at);
        assert_eq!(s.counters.due, 0);
        assert_eq!(s.pending(), 1);
        let (id2, at2) = s.pop_due(day(0)).unwrap();
        assert_eq!((id2, at2), (id, at));
    }

    #[test]
    fn snapshot_reflects_counters_and_population() {
        let mut s = sched();
        s.watch(url("http://a.org/x"), day(0));
        s.watch(url("http://b.org/x"), day(0));
        for d in 0..3 {
            while let Some((id, at)) = s.pop_due(day(d)) {
                s.apply(id, at, id == 0 || d < 2); // b.org starts failing late
            }
        }
        let snap = s.snapshot();
        assert_eq!(snap.watchlist, 2);
        assert_eq!(snap.counters.checks, 6);
        assert_eq!(snap.pending, 2, "both watchers have a next check queued");
        assert_eq!(snap.tagged_now, 0);
        assert_eq!(snap.policy, "iabot-strikes");
        assert_eq!(snap.states.healthy, 1);
        assert_eq!(snap.states.suspicious, 1, "b.org has a strike outstanding");
        assert_eq!(snap.states.total(), snap.watchlist);
    }

    #[test]
    fn dirty_set_collects_flips_once_and_drains() {
        let mut s = sched();
        s.watch(url("http://dead.org/x"), day(0)); // id 0: will tag
        s.watch(url("http://fine.org/x"), day(0)); // id 1: stays healthy
        assert_eq!(s.take_dirty(), Vec::<usize>::new());
        for d in 0..3 {
            while let Some((id, at)) = s.pop_due(day(d)) {
                s.apply(id, at, id == 1);
            }
        }
        assert_eq!(s.dirty_len(), 1);
        assert_eq!(s.take_dirty(), vec![0], "only the tagged link is dirty");
        assert_eq!(s.take_dirty(), Vec::<usize>::new(), "drain empties the set");
        // a revival dirties it again; strikes alone never do
        let (id, at) = s.pop_due(day(3)).expect("due");
        assert_eq!(s.apply(id, at, true), Transition::Revived);
        let (id1, at1) = s.pop_due(day(3)).expect("due");
        assert_eq!(s.apply(id1, at1, false), Transition::Strike);
        assert_eq!(s.take_dirty(), vec![0]);
    }

    #[test]
    fn flapping_link_appears_once_per_drain() {
        let mut s = sched();
        s.watch(url("http://flap.org/x"), day(0));
        for d in 0..3 {
            let (id, at) = s.pop_due(day(d)).unwrap();
            s.apply(id, at, false);
        }
        let (id, at) = s.pop_due(day(3)).unwrap();
        assert_eq!(s.apply(id, at, true), Transition::Revived);
        // tagged then revived without a drain in between: one entry
        assert_eq!(s.take_dirty(), vec![0]);
    }

    #[test]
    fn staggered_registration_spreads_first_checks_deterministically() {
        let build = || {
            let mut s = sched();
            for i in 0..50 {
                s.watch_staggered(url(&format!("http://h{i}.org/p")), day(0));
            }
            let mut order = Vec::new();
            while let Some((id, at)) = s.pop_due(day(1)) {
                order.push((id, at));
                s.apply(id, at, true);
            }
            order
        };
        let a = build();
        assert_eq!(a, build(), "stagger must be a pure function of the URL");
        let distinct: std::collections::HashSet<i64> =
            a.iter().map(|(_, at)| at.as_unix()).collect();
        assert!(distinct.len() > 40, "stagger should spread across the day");
        assert!(a.iter().all(|(_, at)| *at < day(1)), "stagger stays inside day one");
    }

    #[test]
    fn health_score_policy_drives_adaptive_cadence() {
        let mut s = Scheduler::new(SchedulerConfig {
            policy: PolicySpec::HealthScore { base: Duration::days(1) },
            ..SchedulerConfig::default()
        });
        s.watch(url("http://fading.org/x"), day(0));
        // two failures: healthy (day cadence), then suspicious (half-day)
        let (id, at) = s.pop_due(day(0)).unwrap();
        s.apply(id, at, false);
        assert_eq!(s.next_due(), Some(day(1)), "still healthy: cadence rules");
        let (id, at) = s.pop_due(day(1)).unwrap();
        s.apply(id, at, false);
        assert_eq!(
            s.next_due(),
            Some(day(1) + Duration::hours(12)),
            "suspicious: the policy override halves the interval"
        );
        let (id, at) = s.pop_due(day(2)).unwrap();
        s.apply(id, at, false); // quarantined: base * 2
        assert_eq!(s.next_due(), Some(day(1) + Duration::hours(12) + Duration::days(2)));
        assert_eq!(s.watcher(id).state(), LinkState::Quarantined);
        assert_eq!(s.snapshot().states.quarantined, 1);
    }
}
