//! MinHash sketches of shingle sets.
//!
//! A real web archive stores response bytes; storing full bodies for every
//! snapshot in a simulated 15-year crawl would be wasteful. The pipeline
//! only ever asks two questions about archived content: *is this body the
//! same template as that one?* (exact digest) and *how similar are these two
//! bodies?* (Jaccard over shingles). A MinHash sketch (Broder 1997) answers
//! the second with bounded error in constant space, so snapshots carry
//! `(digest, sketch)` instead of bodies.

use crate::gen::fnv1a;
use crate::shingle::shingles;

/// Number of hash permutations. 32 gives a standard error of ~1/√32 ≈ 0.18
/// per estimate; the pipeline thresholds at 0.5 when comparing sketches, far
/// from the decision boundary for the identical-template (1.0) and
/// unrelated-content (≈0.0) cases it distinguishes.
pub const SKETCH_SIZE: usize = 32;

/// A MinHash sketch of a document's shingle set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MinHashSketch {
    mins: [u64; SKETCH_SIZE],
    /// FNV digest of the exact text — equality ⇒ identical bodies.
    pub digest: u64,
    /// Whether the document had any shingles at all (empty bodies happen:
    /// redirects, some error responses).
    pub empty: bool,
}

impl MinHashSketch {
    /// Sketch a document with word-level `k`-shingles.
    pub fn of(text: &str, k: usize) -> MinHashSketch {
        let set = shingles(text, k);
        let mut mins = [u64::MAX; SKETCH_SIZE];
        for &s in &set {
            for (i, m) in mins.iter_mut().enumerate() {
                // cheap family of hash functions: multiply-xor with odd
                // constants derived from splitmix64
                let h = mix(s ^ SALTS[i]);
                if h < *m {
                    *m = h;
                }
            }
        }
        MinHashSketch {
            mins,
            digest: fnv1a(text.as_bytes()),
            empty: set.is_empty(),
        }
    }

    /// Estimated Jaccard similarity between the underlying shingle sets.
    /// Two empty documents estimate 1.0; empty vs non-empty estimates 0.0.
    pub fn similarity(&self, other: &MinHashSketch) -> f64 {
        if self.digest == other.digest {
            return 1.0;
        }
        if self.empty || other.empty {
            return if self.empty == other.empty { 1.0 } else { 0.0 };
        }
        let agree = self
            .mins
            .iter()
            .zip(other.mins.iter())
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / SKETCH_SIZE as f64
    }

    /// Exact-equality check via digest.
    pub fn same_body(&self, other: &MinHashSketch) -> bool {
        self.digest == other.digest
    }

    /// The raw permutation minima (for serialization — CDX files persist
    /// sketches so a reloaded archive compares content identically).
    pub fn mins(&self) -> &[u64; SKETCH_SIZE] {
        &self.mins
    }

    /// Rebuild a sketch from serialized parts. The inverse of reading
    /// [`Self::mins`], [`Self::digest`] and [`Self::empty`].
    pub fn from_parts(mins: [u64; SKETCH_SIZE], digest: u64, empty: bool) -> MinHashSketch {
        MinHashSketch { mins, digest, empty }
    }
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Per-permutation salts (first 32 values of splitmix64 from seed 0xDEAD).
const SALTS: [u64; SKETCH_SIZE] = {
    let mut salts = [0u64; SKETCH_SIZE];
    let mut state: u64 = 0xDEAD;
    let mut i = 0;
    while i < SKETCH_SIZE {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        salts[i] = z ^ (z >> 31);
        i += 1;
    }
    salts
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::shingle_similarity;

    #[test]
    fn identical_docs_similarity_one() {
        let t = "the quick brown fox jumps over the lazy dog again and again";
        let a = MinHashSketch::of(t, 3);
        let b = MinHashSketch::of(t, 3);
        assert_eq!(a.similarity(&b), 1.0);
        assert!(a.same_body(&b));
    }

    #[test]
    fn disjoint_docs_similarity_near_zero() {
        let a = MinHashSketch::of(&word_doc("alpha", 100), 3);
        let b = MinHashSketch::of(&word_doc("omega", 100), 3);
        assert!(a.similarity(&b) < 0.15, "{}", a.similarity(&b));
        assert!(!a.same_body(&b));
    }

    #[test]
    fn empty_handling() {
        let e = MinHashSketch::of("", 3);
        let f = MinHashSketch::of("", 3);
        let x = MinHashSketch::of("some words", 3);
        assert_eq!(e.similarity(&f), 1.0);
        assert_eq!(e.similarity(&x), 0.0);
        assert!(e.empty && !x.empty);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // overlapping docs: share half the text
        let shared = word_doc("shared", 120);
        let a = format!("{shared} {}", word_doc("lefty", 120));
        let b = format!("{shared} {}", word_doc("right", 120));
        let true_sim = shingle_similarity(&a, &b, 3);
        let est = MinHashSketch::of(&a, 3).similarity(&MinHashSketch::of(&b, 3));
        assert!(
            (est - true_sim).abs() < 0.25,
            "estimate {est} vs true {true_sim}"
        );
    }

    #[test]
    fn sketch_is_deterministic() {
        let a = MinHashSketch::of("deterministic content here", 2);
        let b = MinHashSketch::of("deterministic content here", 2);
        assert_eq!(a, b);
    }

    fn word_doc(prefix: &str, n: usize) -> String {
        (0..n).map(|i| format!("{prefix}{i} ")).collect()
    }
}
