//! FNV-1a (64-bit), the workspace's one stable hash.
//!
//! Every seeded draw keyed by a URL or host (fault windows, retry jitter,
//! latency samples, watch stagger, cache shards) and the world-snapshot
//! checksum fold bytes through this function. Unlike `DefaultHasher` it is
//! fixed across platforms, processes and Rust versions, so the worlds and
//! every golden built from them stay reproducible.
//!
//! Both forms are `#[inline]`: the release build has no LTO, and the
//! snapshot checksum runs once per byte of a paper-scale world.
//!
//! [`IdTable`] is the one hash table built on it: the world interner's
//! symbol table and the archive's URL and host indexes.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a: `write` any number of slices, then `finish`. The
/// result equals [`fnv1a`] over their concatenation.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Marks an empty slot of an [`IdTable`].
const EMPTY: u32 = u32::MAX;

/// An open-addressing hash table of `u32` ids, each naming a string kept
/// elsewhere: an interner's arena, an archive row. It stores only the ids.
/// A probe hashes the wanted key with [`fnv1a`] and compares it against the
/// string each candidate id names, so no key is held a second time.
///
/// Linear probing, at most half full. The caller passes every key's hash
/// in, so a key need not be one contiguous string. Ids are never removed.
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

impl IdTable {
    /// A table that takes `n` ids without growing.
    pub fn with_capacity(n: usize) -> IdTable {
        let slots = n.saturating_mul(2).max(8).next_power_of_two();
        IdTable {
            slots: vec![EMPTY; slots],
            len: 0,
        }
    }

    /// Number of ids stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot a hash probes first: the top bits of the hash times
    /// 2^64/φ, so every bit of the hash picks the slot.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slots from `hash`'s home onward, up to the first empty one.
    #[inline]
    fn probe(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len().wrapping_sub(1);
        let home = if self.slots.is_empty() {
            0
        } else {
            self.home(hash)
        };
        (0..self.slots.len())
            .map(move |i| (home + i) & mask)
            .take_while(move |&slot| self.slots[slot] != EMPTY)
    }

    /// The stored id whose key hashes to `hash` and for which `is(id)`
    /// holds.
    #[inline]
    pub fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(hash)
            .map(|slot| self.slots[slot])
            .find(|&id| is(id))
    }

    /// Store `id`, whose key hashes to `hash` and is not in the table yet.
    /// A table that would pass half full doubles first, re-placing every
    /// stored id by `rehash(id)`, the hash of its key.
    pub fn insert(&mut self, hash: u64, id: u32, rehash: impl Fn(u32) -> u64) {
        assert_ne!(id, EMPTY, "u32::MAX marks an empty slot");
        if (self.len + 1) * 2 > self.slots.len() {
            let old = std::mem::replace(self, IdTable::with_capacity(self.len + 1));
            for stored in old.slots.into_iter().filter(|&s| s != EMPTY) {
                self.place(rehash(stored), stored);
            }
        }
        self.place(hash, id);
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id;
        self.len += 1;
    }

    /// Put `new` in the slot that holds `old`, whose key hashes to `hash`:
    /// the key now names a different id. Returns whether `old` was there.
    pub fn replace(&mut self, hash: u64, old: u32, new: u32) -> bool {
        assert_ne!(new, EMPTY, "u32::MAX marks an empty slot");
        let found = self.probe(hash).find(|&slot| self.slots[slot] == old);
        if let Some(slot) = found {
            self.slots[slot] = new;
        }
        found.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_values() {
        // reference vectors for FNV-1a 64-bit
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        for part in [&b"http://"[..], b"", b"example.org", b"/a"] {
            h.write(part);
        }
        assert_eq!(h.finish(), fnv1a(b"http://example.org/a"));
    }

    /// Names for ids: the id's decimal spelling, so every key is distinct.
    fn name(id: u32) -> String {
        format!("key-{id}")
    }

    fn get(t: &IdTable, key: &str) -> Option<u32> {
        t.find(fnv1a(key.as_bytes()), |id| name(id) == key)
    }

    #[test]
    fn ids_survive_growth() {
        let mut t = IdTable::default();
        assert_eq!(get(&t, "key-0"), None, "an empty table answers");
        for id in 0..1000 {
            t.insert(fnv1a(name(id).as_bytes()), id, |id| {
                fnv1a(name(id).as_bytes())
            });
        }
        assert_eq!(t.len(), 1000);
        for id in 0..1000 {
            assert_eq!(get(&t, &name(id)), Some(id));
        }
        assert_eq!(get(&t, "key-1000"), None);
        assert_eq!(get(&t, ""), None);
    }

    #[test]
    fn presized_table_does_not_grow() {
        let mut t = IdTable::with_capacity(100);
        let slots = t.slots.len();
        for id in 0..100 {
            t.insert(fnv1a(name(id).as_bytes()), id, |_| {
                unreachable!("no growth")
            });
        }
        assert_eq!(t.slots.len(), slots);
    }

    #[test]
    fn replace_moves_a_key_to_a_new_id() {
        let mut t = IdTable::default();
        let h = fnv1a(b"k");
        t.insert(h, 7, |_| unreachable!());
        assert!(t.replace(h, 7, 9));
        assert!(!t.replace(h, 7, 11), "7 is gone");
        assert_eq!(t.find(h, |_| true), Some(9));
        assert_eq!(t.len(), 1);
    }
}
