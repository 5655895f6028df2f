//! Seeded, URL-addressed prose generation.
//!
//! Every page body in the simulated web is a pure function of
//! `(world seed, key)` where the key is usually the page's URL. That gives us
//! the two properties the soft-404 probe needs:
//!
//! 1. *Stability*: fetching the same URL twice yields near-identical bodies
//!    (we add a small per-fetch jitter sentence, because the paper notes that
//!    "multiple requests for even the same URL can yield slightly different
//!    responses" and deliberately compares with a <100% threshold).
//! 2. *Distinctness*: different URLs yield bodies whose shingle similarity is
//!    far below any plausible threshold.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Word bank for generated prose. 128 common words — enough entropy per word
/// (7 bits) that 150-word documents collide with negligible probability.
const WORDS: &[&str] = &[
    "the", "of", "and", "a", "to", "in", "is", "was", "he", "for", "it", "with", "as", "his",
    "on", "be", "at", "by", "had", "not", "are", "but", "from", "or", "have", "an", "they",
    "which", "one", "you", "were", "her", "all", "she", "there", "would", "their", "we", "him",
    "been", "has", "when", "who", "will", "more", "no", "if", "out", "so", "said", "what", "up",
    "its", "about", "into", "than", "them", "can", "only", "other", "new", "some", "could",
    "time", "these", "two", "may", "then", "do", "first", "any", "my", "now", "such", "like",
    "our", "over", "man", "me", "even", "most", "made", "after", "also", "did", "many", "before",
    "must", "through", "years", "where", "much", "your", "way", "well", "down", "should",
    "because", "each", "just", "those", "people", "mr", "how", "too", "little", "state", "good",
    "very", "make", "world", "still", "own", "see", "men", "work", "long", "get", "here",
    "between", "both", "life", "being", "under", "never", "day",
];

/// Deterministic content generator.
///
/// Cheap to construct; carries only the world seed.
#[derive(Debug, Clone, Copy)]
pub struct ContentGen {
    seed: u64,
}

impl ContentGen {
    pub fn new(seed: u64) -> Self {
        ContentGen { seed }
    }

    /// The world seed this generator derives every body from (for world
    /// serialization: a generator round-trips through [`ContentGen::new`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn rng_for(&self, key: &str) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ fnv1a(key.as_bytes()))
    }

    /// A stable title for the page identified by `key`.
    pub fn title(&self, key: &str) -> String {
        let mut rng = self.rng_for(&format!("title:{key}"));
        let n = rng.gen_range(3..7);
        let mut words: Vec<&str> = (0..n)
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
            .collect();
        words.dedup();
        let mut s = words.join(" ");
        if let Some(first) = s.get_mut(..1) {
            first.make_ascii_uppercase();
        }
        s
    }

    /// The body text for `key`: `sentences` sentences of seeded prose, plus a
    /// jitter sentence that varies with `fetch_nonce` to model dynamic page
    /// furniture (timestamps, ad slots). With the default sentence count the
    /// jitter keeps self-similarity above 99% while leaving it below 100%.
    pub fn body(&self, key: &str, sentences: usize, fetch_nonce: u64) -> String {
        let mut rng = self.rng_for(key);
        let mut out = String::new();
        for _ in 0..sentences {
            let len = rng.gen_range(8..16);
            for i in 0..len {
                let w = WORDS[rng.gen_range(0..WORDS.len())];
                if i == 0 {
                    let mut c = w.chars();
                    if let Some(f) = c.next() {
                        out.push(f.to_ascii_uppercase());
                        out.push_str(c.as_str());
                    }
                } else {
                    out.push(' ');
                    out.push_str(w);
                }
            }
            out.push_str(". ");
        }
        // per-fetch jitter: one short trailing sentence
        let mut jrng = SmallRng::seed_from_u64(self.seed ^ fnv1a(key.as_bytes()) ^ fetch_nonce);
        out.push_str("Served ");
        for _ in 0..3 {
            out.push_str(WORDS[jrng.gen_range(0..WORDS.len())]);
            out.push(' ');
        }
        out.push('.');
        out
    }

    /// Standard article-sized body (~60 sentences).
    pub fn article_body(&self, key: &str, fetch_nonce: u64) -> String {
        self.body(key, 60, fetch_nonce)
    }
}

/// FNV-1a, used to fold string keys into RNG seeds and to digest sketched
/// text. Stable across platforms and Rust versions (unlike `DefaultHasher`),
/// which keeps the worlds — and therefore every figure — reproducible. This
/// crate sits below `permadead-url`, so it keeps its own copy of
/// `permadead_url::fnv1a`; crates that see both use that one.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::shingle_similarity;

    #[test]
    fn same_key_same_body() {
        let g = ContentGen::new(42);
        assert_eq!(g.body("http://e.org/a", 20, 7), g.body("http://e.org/a", 20, 7));
        assert_eq!(g.title("x"), g.title("x"));
    }

    #[test]
    fn different_seed_different_body() {
        let a = ContentGen::new(1).body("k", 20, 0);
        let b = ContentGen::new(2).body("k", 20, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn different_keys_are_dissimilar() {
        let g = ContentGen::new(42);
        let a = g.article_body("http://e.org/a", 0);
        let b = g.article_body("http://e.org/b", 0);
        let sim = shingle_similarity(&a, &b, 5);
        assert!(sim < 0.30, "similarity {sim} unexpectedly high");
    }

    #[test]
    fn refetch_jitter_is_small_but_nonzero() {
        let g = ContentGen::new(42);
        let a = g.article_body("http://e.org/a", 1);
        let b = g.article_body("http://e.org/a", 2);
        assert_ne!(a, b, "jitter should change the body");
        let sim = shingle_similarity(&a, &b, 5);
        assert!(sim > 0.99, "self-similarity {sim} too low");
    }

    #[test]
    fn fnv1a_known_values() {
        // reference vectors for FNV-1a 64-bit
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn titles_are_short_and_capitalized() {
        let g = ContentGen::new(7);
        for key in ["a", "b", "c", "http://x.org/y"] {
            let t = g.title(key);
            assert!(!t.is_empty());
            assert!(t.chars().next().unwrap().is_ascii_uppercase());
            assert!(t.split(' ').count() <= 7);
        }
    }
}
