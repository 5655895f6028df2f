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
}
