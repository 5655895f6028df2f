//! Sharded TTL+LRU verdict cache.
//!
//! Repeated `/check` queries for the same URL must never re-drive the
//! simulated network: the world is deterministic, so a verdict computed once
//! is the verdict. The cache makes that an invariant you can observe — a
//! cache hit produces **zero** new requests in the web's
//! [`MetricsSnapshot`](permadead_net::MetricsSnapshot) — while staying
//! bounded in memory and forgetting entries after a TTL (on real
//! infrastructure the live web drifts; the TTL models the re-check cadence
//! IABot itself uses between sweeps).
//!
//! Design: N independent shards, each a mutex-guarded map with its own
//! capacity slice and a logical access clock. Eviction is strict LRU by that
//! clock, which makes it *deterministic*: for a fixed sequence of
//! inserts/gets, the same entries survive on every run (no wall-clock, no
//! random tiebreak). Hit/miss/eviction/expiry counters are cache-global
//! atomics, so per-shard traffic rolls up into one accounting view.
//!
//! Shard choice is `mix64(fnv1a(url)) % shards`, a pure function of the
//! URL: every reactor and worker resolves a key to the same shard without
//! coordination, and the finalizer spreads keys evenly so no shard's lock
//! is the contended one. The shard count is fixed when the cache is built
//! and every run starts cold, so there is no warm key set for a resize to
//! keep in place.

use parking_lot::Mutex;
use permadead_net::{Counter, Duration, SimTime};
use permadead_url::fnv1a;
use std::collections::HashMap;

/// Shape of the cache: shard count, total capacity, entry TTL.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to at least 1). More shards
    /// = less lock contention under concurrent workers.
    pub shards: usize,
    /// Total entry budget across all shards (each shard gets an equal
    /// slice, rounded up, so the real bound is `ceil(cap/shards) * shards`).
    pub capacity: usize,
    /// How long an entry stays valid, in simulated time.
    pub ttl: Duration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity: 4096,
            ttl: Duration::hours(1),
        }
    }
}

struct Entry<V> {
    value: V,
    inserted: SimTime,
    /// Logical access tick within the owning shard; strictly increasing, so
    /// LRU order is total and eviction deterministic.
    last_used: u64,
}

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    tick: u64,
    capacity: usize,
}

impl<V> Shard<V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Key of the least-recently-used entry (the unique minimum tick).
    fn lru_key(&self) -> Option<String> {
        self.map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
    }
}

/// Frozen counter values for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub expirations: u64,
    pub entries: u64,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded TTL+LRU cache. Values are cloned out on hit, so `V` should be
/// cheap to clone (the serve crate stores pre-rendered response bodies).
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    expirations: Counter,
    ttl: Duration,
}

/// SplitMix64 finalizer. FNV-1a is weak in its low bits (bit 0 is the
/// parity of the key bytes' low bits), and `% shards` reads exactly those
/// bits: unmixed, same-shaped URLs land on half the shards or fewer. One
/// multiply-xor cascade spreads every input bit over the whole word.
fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl<V: Clone> ShardedCache<V> {
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
            expirations: Counter::default(),
            ttl: config.ttl,
        }
    }

    /// Which shard a key lands in — stable across runs, processes, and
    /// reactor threads (the mixed FNV of the key, modulo the shard count).
    pub fn shard_of(&self, key: &str) -> usize {
        (mix64(fnv1a(key.as_bytes())) % self.shards.len() as u64) as usize
    }

    fn expired(&self, entry_inserted: SimTime, now: SimTime) -> bool {
        now - entry_inserted >= self.ttl
    }

    /// Look up `key` at simulated time `now`. A present-but-expired entry is
    /// removed and counted as an expiration *and* a miss (the caller will
    /// recompute and re-insert, exactly like a cold key).
    pub fn get(&self, key: &str, now: SimTime) -> Option<V> {
        let mut shard = self.shards[self.shard_of(key)].lock();
        let tick = shard.touch();
        match shard.map.get_mut(key) {
            Some(entry) if !self.expired(entry.inserted, now) => {
                entry.last_used = tick;
                self.hits.incr();
                Some(entry.value.clone())
            }
            Some(_) => {
                shard.map.remove(key);
                self.expirations.incr();
                self.misses.incr();
                None
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Look up `key` like [`Self::get`], but count and touch a fresh hit
    /// only: an absent or expired key returns `None` and leaves the entry
    /// and every counter as they were, so the `get` that follows counts the
    /// miss (or the expiry) once. The reactor probes with this before it
    /// hands a `/check` to a worker.
    pub fn get_hit(&self, key: &str, now: SimTime) -> Option<V> {
        let mut guard = self.shards[self.shard_of(key)].lock();
        let shard = &mut *guard;
        let entry = shard.map.get_mut(key).filter(|e| !self.expired(e.inserted, now))?;
        shard.tick += 1;
        entry.last_used = shard.tick;
        self.hits.incr();
        Some(entry.value.clone())
    }

    /// Insert (or refresh) `key`. A full shard first sweeps its expired
    /// entries — dead weight only `get` used to reclaim, one key at a time,
    /// so a cold shard full of stale verdicts would evict *fresh* entries to
    /// admit new ones — and only evicts the least-recently-used live entry
    /// if still at capacity. Swept entries count as expirations, not
    /// evictions.
    pub fn insert(&self, key: &str, value: V, now: SimTime) {
        let mut shard = self.shards[self.shard_of(key)].lock();
        if !shard.map.contains_key(key) && shard.map.len() >= shard.capacity {
            let dead: Vec<String> = shard
                .map
                .iter()
                .filter(|(_, e)| self.expired(e.inserted, now))
                .map(|(k, _)| k.clone())
                .collect();
            for k in &dead {
                shard.map.remove(k);
                self.expirations.incr();
            }
            if shard.map.len() >= shard.capacity {
                if let Some(victim) = shard.lru_key() {
                    shard.map.remove(&victim);
                    self.evictions.incr();
                }
            }
        }
        let tick = shard.touch();
        shard.map.insert(
            key.to_string(),
            Entry {
                value,
                inserted: now,
                last_used: tick,
            },
        );
    }

    /// Entries currently resident, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is this exact key resident (ignoring TTL)? Test/diagnostic helper.
    pub fn contains(&self, key: &str) -> bool {
        self.shards[self.shard_of(key)].lock().map.contains_key(key)
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            expirations: self.expirations.get(),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::from_ymd(2022, 3, 1)
    }

    fn tiny(shards: usize, capacity: usize) -> ShardedCache<u32> {
        ShardedCache::new(CacheConfig {
            shards,
            capacity,
            ttl: Duration::hours(1),
        })
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = tiny(4, 16);
        assert_eq!(c.get("a", t0()), None);
        c.insert("a", 1, t0());
        assert_eq!(c.get("a", t0()), Some(1));
        assert_eq!(c.get("b", t0()), None);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 1);
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn get_hit_counts_and_touches_fresh_hits_only() {
        // a hit counts once and moves the key up the LRU order as `get`
        // does: touching a makes b the victim of the next insert
        let c = tiny(1, 2);
        c.insert("a", 1, t0());
        c.insert("b", 2, t0());
        assert_eq!(c.get_hit("a", t0()), Some(1));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
        c.insert("c", 3, t0());
        assert!(c.contains("a") && !c.contains("b"), "get_hit did not touch a");

        // absent and expired keys: `None`, nothing counted, nothing removed
        let expired = t0() + Duration::hours(1);
        assert_eq!(c.get_hit("zz", t0()), None);
        assert_eq!(c.get_hit("a", expired), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations, s.entries), (1, 0, 0, 2));
        assert!(c.contains("a"), "get_hit removed an expired entry");

        // the `get` that follows counts the miss and the expiry, once each
        assert_eq!(c.get("zz", t0()), None);
        assert_eq!(c.get("a", expired), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations, s.entries), (1, 2, 1, 1));
        assert!(!c.contains("a"));
    }

    #[test]
    fn deterministic_eviction_under_fixed_sequence() {
        // one shard, capacity 3: after inserting a,b,c, touching a and c
        // makes b the unique LRU — the 4th insert must evict exactly b,
        // every run
        let seq = |keys: &mut Vec<&'static str>| {
            let c = tiny(1, 3);
            c.insert("a", 1, t0());
            c.insert("b", 2, t0());
            c.insert("c", 3, t0());
            c.get("a", t0());
            c.get("c", t0());
            c.insert("d", 4, t0());
            for k in ["a", "b", "c", "d"] {
                if c.contains(k) {
                    keys.push(k);
                }
            }
            assert_eq!(c.stats().evictions, 1);
        };
        let mut first = Vec::new();
        seq(&mut first);
        assert_eq!(first, ["a", "c", "d"]);
        // replay: identical survivors
        let mut again = Vec::new();
        seq(&mut again);
        assert_eq!(first, again);
    }

    #[test]
    fn eviction_chain_follows_lru_order() {
        let c = tiny(1, 2);
        c.insert("a", 1, t0());
        c.insert("b", 2, t0());
        c.insert("c", 3, t0()); // evicts a
        assert!(!c.contains("a"));
        assert!(c.contains("b") && c.contains("c"));
        c.get("b", t0()); // b now more recent than c
        c.insert("d", 4, t0()); // evicts c
        assert!(!c.contains("c"));
        assert!(c.contains("b") && c.contains("d"));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn ttl_expiry_at_pinned_simtime() {
        let c = ShardedCache::new(CacheConfig {
            shards: 2,
            capacity: 8,
            ttl: Duration::minutes(10),
        });
        c.insert("k", 9, t0());
        // one tick before the deadline: still valid
        let just_before = t0() + Duration::seconds(10 * 60 - 1);
        assert_eq!(c.get("k", just_before), Some(9));
        // exactly at the deadline: expired, removed, counted
        let at_deadline = t0() + Duration::minutes(10);
        assert_eq!(c.get("k", at_deadline), None);
        let s = c.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.entries, 0);
        // re-insert after expiry restarts the clock
        c.insert("k", 10, at_deadline);
        assert_eq!(c.get("k", at_deadline + Duration::minutes(9)), Some(10));
    }

    #[test]
    fn full_shard_of_expired_entries_admits_without_evicting_fresh_ones() {
        // one shard, capacity 3: two entries inserted at t0 expire an hour
        // later; one refreshed entry stays live. At capacity, inserting a new
        // key must sweep the two corpses (expirations) and keep the fresh
        // entry — not evict it as the tick-wise LRU victim.
        let c = tiny(1, 3);
        c.insert("old-a", 1, t0());
        c.insert("old-b", 2, t0());
        let later = t0() + Duration::minutes(50);
        c.insert("fresh", 3, later);
        let after_expiry = t0() + Duration::hours(1); // old-* dead, fresh alive
        c.insert("new", 4, after_expiry);
        assert!(c.contains("fresh"), "live entry evicted in favor of corpses");
        assert!(c.contains("new"));
        assert!(!c.contains("old-a") && !c.contains("old-b"));
        let s = c.stats();
        assert_eq!(s.evictions, 0, "sweeping expired entries is not an eviction");
        assert_eq!(s.expirations, 2);
        assert_eq!(s.entries, 2);
        // with every resident entry live, the LRU path still works
        c.insert("more", 5, after_expiry); // at capacity 3 after this
        c.insert("even-more", 6, after_expiry); // now a live eviction
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.contains("fresh"), "fresh was the LRU live entry");
    }

    #[test]
    fn cross_shard_hit_miss_accounting() {
        // capacity well above 64 keys: with keys spreading near-binomially
        // over the shards, a 16-entry shard slice would sit exactly at the
        // mean occupancy and evict on ordinary variance — this test is
        // about the accounting ledger, not capacity pressure
        let c = tiny(4, 256);
        // find keys covering at least 3 distinct shards
        let keys: Vec<String> = (0..64).map(|i| format!("http://s{i}.org/p")).collect();
        let mut shards_seen: std::collections::HashSet<usize> = Default::default();
        for k in &keys {
            shards_seen.insert(c.shard_of(k));
        }
        assert!(shards_seen.len() >= 3, "keys did not spread over shards");
        for k in &keys {
            c.insert(k, 7, t0());
        }
        for k in &keys {
            assert_eq!(c.get(k, t0()), Some(7));
        }
        for k in &keys {
            assert_eq!(c.get(&format!("{k}?missing"), t0()), None);
        }
        // traffic hit every shard, but the accounting is one global ledger
        let s = c.stats();
        assert_eq!(s.hits, 64);
        assert_eq!(s.misses, 64);
        assert_eq!(s.entries, 64);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn capacity_is_per_shard_slice() {
        // 2 shards, capacity 4 → 2 per shard; no shard exceeds its slice
        let c = tiny(2, 4);
        for i in 0..32 {
            c.insert(&format!("k{i}"), i, t0());
        }
        assert!(c.len() <= 4);
        assert!(c.stats().evictions >= 28);
    }

    #[test]
    fn shard_choice_is_stable() {
        // two caches with equal shard counts choose alike for every key
        let (a, b) = (tiny(8, 8), tiny(8, 8));
        for k in ["http://a.org/", "http://b.example/x?y=1", "zzz", ""] {
            assert_eq!(a.shard_of(k), b.shard_of(k));
        }
    }

    #[test]
    fn every_shard_owns_keys_and_load_is_balanced() {
        // same-shaped URLs: unmixed `fnv1a % 8` puts these on 4 of the 8
        // shards, so this also guards the finalizer
        let c = tiny(8, 8);
        let mut counts = vec![0usize; 8];
        for i in 0..8000 {
            counts[c.shard_of(&format!("http://host{i}.example/page/{i}"))] += 1;
        }
        let mean = 1000.0;
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (n as f64) > mean * 0.4 && (n as f64) < mean * 2.0,
                "shard {shard} holds {n} of 8000 keys — badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let c = tiny(0, 8);
        for i in 0..100 {
            assert_eq!(c.shard_of(&format!("k{i}")), 0);
        }
        c.insert("k", 1, t0());
        assert_eq!(c.get("k", t0()), Some(1));
    }
}
