//! k-shingling and Jaccard similarity (Broder et al., *Syntactic clustering
//! of the web*, 1997) — the document-similarity measure the paper's soft-404
//! detector uses (§3): `u` is declared broken when the similarity between the
//! responses for `u` and a random sibling `u'` exceeds 99%.
//!
//! A shingle set is a sorted, deduplicated `Vec<u64>` of window hashes, so
//! two sets meet in one merge and a document is shingled with no allocation
//! per token: each window is hashed straight from the text's bytes.

use std::cmp::Ordering;

/// The set of word-level k-shingles of `text`, sorted and deduplicated.
///
/// Tokenization: a token is a run of ASCII alphanumerics, lowercased. Every
/// other byte separates tokens, so punctuation, whitespace and each byte of
/// a non-ASCII character all end a token and are never part of one. A
/// document with fewer than `k` tokens contributes its whole token sequence
/// as a single shingle, so short error pages still compare sensibly.
///
/// A window's hash is FNV-1a over each token's lowercase bytes, each token
/// followed by `0x1f`.
pub fn shingles(text: &str, k: usize) -> Vec<u64> {
    let bytes = text.as_bytes();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut start = None;
    for (i, b) in bytes.iter().enumerate() {
        match (b.is_ascii_alphanumeric(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, bytes.len()));
    }
    if spans.is_empty() {
        return Vec::new();
    }
    if spans.len() < k {
        return vec![hash_window(bytes, &spans)];
    }
    let mut out: Vec<u64> = spans.windows(k).map(|w| hash_window(bytes, w)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn hash_window(text: &[u8], window: &[(usize, usize)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &(from, to) in window {
        for &b in &text[from..to] {
            h ^= b.to_ascii_lowercase() as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x1f; // token separator
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Jaccard similarity of two shingle sets: `|A ∩ B| / |A ∪ B|`, in `[0, 1]`.
/// Both must be sorted and deduplicated, as [`shingles`] returns them. Two
/// empty sets are defined as identical (similarity 1).
pub fn jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Convenience: shingle both texts with window `k` and return the Jaccard
/// similarity.
pub fn shingle_similarity(a: &str, b: &str, k: usize) -> f64 {
    jaccard(&shingles(a, k), &shingles(b, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_texts_similarity_one() {
        let t = "the quick brown fox jumps over the lazy dog";
        assert_eq!(shingle_similarity(t, t, 3), 1.0);
    }

    #[test]
    fn disjoint_texts_similarity_zero() {
        assert_eq!(
            shingle_similarity("alpha beta gamma delta", "one two three four", 2),
            0.0
        );
    }

    #[test]
    fn empty_texts() {
        assert_eq!(shingle_similarity("", "", 3), 1.0);
        assert_eq!(shingle_similarity("", "some words here", 3), 0.0);
    }

    #[test]
    fn short_text_single_shingle() {
        // fewer than k tokens → whole text is one shingle
        assert_eq!(shingles("one two", 5).len(), 1);
        assert_eq!(shingle_similarity("one two", "one two", 5), 1.0);
        assert_eq!(shingle_similarity("one two", "one three", 5), 0.0);
    }

    #[test]
    fn tokenization_case_and_punct_insensitive() {
        assert_eq!(
            shingle_similarity("Hello, World! Again", "hello world again", 2),
            1.0
        );
    }

    #[test]
    fn non_ascii_bytes_separate_tokens() {
        // "é" is two bytes, neither ASCII alphanumeric: "caf" and "s" are
        // two tokens, as "caf s" would be
        assert_eq!(shingles("cafés", 1), shingles("caf s", 1));
        assert_eq!(shingles("cafés", 1).len(), 2);
    }

    #[test]
    fn small_change_high_similarity() {
        let a: String = (0..200).map(|i| format!("word{i} ")).collect();
        let mut b = a.clone();
        b.push_str("extra tail token");
        let sim = shingle_similarity(&a, &b, 5);
        assert!(sim > 0.95 && sim < 1.0, "sim={sim}");
    }

    #[test]
    fn shingle_count_matches_window_count() {
        // distinct tokens → every window unique
        let text: String = (0..50).map(|i| format!("tok{i} ")).collect();
        assert_eq!(shingles(&text, 4).len(), 50 - 4 + 1);
    }

    #[test]
    fn repeated_windows_count_once() {
        let set = shingles("a b a b a b", 2);
        assert_eq!(set.len(), 2); // "a b" and "b a"
        assert!(set.windows(2).all(|w| w[0] < w[1]));
    }

    proptest! {
        #[test]
        fn similarity_in_unit_range(a in "[a-f ]{0,60}", b in "[a-f ]{0,60}", k in 1usize..6) {
            let s = shingle_similarity(&a, &b, k);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn similarity_symmetric(a in "[a-f ]{0,60}", b in "[a-f ]{0,60}", k in 1usize..6) {
            prop_assert_eq!(
                shingle_similarity(&a, &b, k).to_bits(),
                shingle_similarity(&b, &a, k).to_bits()
            );
        }

        #[test]
        fn self_similarity_is_one(a in "[a-z ]{1,80}", k in 1usize..6) {
            prop_assert_eq!(shingle_similarity(&a, &a, k), 1.0);
        }
    }
}
