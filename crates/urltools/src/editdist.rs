//! Edit distance for the typo analysis (§5.2).
//!
//! The paper deems a never-archived link a *potential typo* when exactly one
//! archived URL under the same domain sits at Levenshtein distance 1 from it.
//! The scan compares one URL against many candidates, so alongside the plain
//! distance we provide a banded variant, [`bounded_levenshtein`], that bails
//! out as soon as the distance provably exceeds a threshold, and
//! [`at_distance_one`], the §5.2 predicate itself: one linear pass, no
//! allocation.

/// Classic Levenshtein distance (insertions, deletions, substitutions all
/// cost 1), computed over bytes. URLs in the study are ASCII; comparing bytes
/// keeps the semantics identical to the paper's string comparison.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a = a.as_bytes();
    let b = b.as_bytes();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Levenshtein distance if it is `<= bound`, else `None`.
///
/// Uses the standard diagonal band of width `2*bound + 1`; rows whose minimum
/// exceeds the bound abort early. `bounded_levenshtein(a, b, 1)` is the §5.2
/// typo predicate.
pub fn bounded_levenshtein(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a = a.as_bytes();
    let b = b.as_bytes();
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > bound {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    if m == 0 {
        return Some(n);
    }
    const BIG: usize = usize::MAX / 2;
    let mut prev = vec![BIG; m + 1];
    let mut cur = vec![BIG; m + 1];
    for (j, p) in prev.iter_mut().enumerate().take(bound.min(m) + 1) {
        *p = j;
    }
    for i in 1..=n {
        let lo = i.saturating_sub(bound).max(1);
        let hi = (i + bound).min(m);
        if lo > hi {
            return None;
        }
        cur[lo - 1] = if lo == 1 { i } else { BIG };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let v = (prev[j - 1] + cost)
                .min(prev[j].saturating_add(1))
                .min(cur[j - 1].saturating_add(1));
            cur[j] = v;
            row_min = row_min.min(v);
        }
        if hi < m {
            cur[hi + 1] = BIG; // stale cell guard for next row's diagonal read
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[m];
    (d <= bound).then_some(d)
}

/// Whether `a` and `b` sit at Levenshtein distance exactly 1, over bytes:
/// equal lengths differing in one byte, or one string the other with one
/// byte inserted. The §5.2 typo predicate, equal to
/// `bounded_levenshtein(a, b, 1) == Some(1)`.
pub fn at_distance_one(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > 1 {
        return false;
    }
    let Some(i) = short.iter().zip(long).position(|(x, y)| x != y) else {
        // `short` is a prefix of `long`: one byte longer, or equal
        return long.len() != short.len();
    };
    if long.len() == short.len() {
        short[i + 1..] == long[i + 1..]
    } else {
        short[i..] == long[i + 1..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_is_zero() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn single_edits() {
        assert_eq!(levenshtein("abc", "abd"), 1); // substitute
        assert_eq!(levenshtein("abc", "abcd"), 1); // insert
        assert_eq!(levenshtein("abc", "ab"), 1); // delete
    }

    #[test]
    fn classic_pairs() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "xyz"), 3);
    }

    #[test]
    fn paper_typo_example_is_distance_one() {
        // §5.2: "may" vs "mai" in the lnr.fr URL — a single substitution.
        let bad = "http://www.lnr.fr/top-14-paris-26-may-1984.html";
        let good = "http://www.lnr.fr/top-14-paris-26-mai-1984.html";
        assert_eq!(levenshtein(bad, good), 1);
        assert_eq!(bounded_levenshtein(bad, good, 1), Some(1));
        assert!(at_distance_one(bad, good));
    }

    #[test]
    fn distance_one_predicate() {
        assert!(at_distance_one("abc", "abd"));
        assert!(at_distance_one("abc", "abcd"));
        assert!(at_distance_one("abcd", "acd"));
        assert!(at_distance_one("", "x"));
        assert!(!at_distance_one("", ""));
        assert!(!at_distance_one("abc", "abc"));
        assert!(!at_distance_one("abc", "bca"));
        assert!(!at_distance_one("abc", "a"));
        assert!(!at_distance_one("ab", "ba"));
    }

    #[test]
    fn bounded_rejects_when_over() {
        assert_eq!(bounded_levenshtein("abc", "xyz", 1), None);
        assert_eq!(bounded_levenshtein("abcdef", "abc", 1), None); // length gap 3
        assert_eq!(bounded_levenshtein("kitten", "sitting", 2), None);
        assert_eq!(bounded_levenshtein("kitten", "sitting", 3), Some(3));
    }

    #[test]
    fn bounded_zero_bound_is_equality() {
        assert_eq!(bounded_levenshtein("abc", "abc", 0), Some(0));
        assert_eq!(bounded_levenshtein("abc", "abd", 0), None);
    }

    proptest! {
        #[test]
        fn bounded_agrees_with_full(a in "[a-z/.]{0,24}", b in "[a-z/.]{0,24}", bound in 0usize..4) {
            let full = levenshtein(&a, &b);
            let bounded = bounded_levenshtein(&a, &b, bound);
            if full <= bound {
                prop_assert_eq!(bounded, Some(full));
            } else {
                prop_assert_eq!(bounded, None);
            }
        }

        #[test]
        fn metric_axioms(a in "[a-z]{0,16}", b in "[a-z]{0,16}", c in "[a-z]{0,16}") {
            let ab = levenshtein(&a, &b);
            let ba = levenshtein(&b, &a);
            prop_assert_eq!(ab, ba); // symmetry
            prop_assert_eq!(levenshtein(&a, &a), 0); // identity
            let ac = levenshtein(&a, &c);
            let cb = levenshtein(&c, &b);
            prop_assert!(ab <= ac + cb); // triangle inequality
        }

        #[test]
        fn distance_bounded_by_longer_length(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            prop_assert!(levenshtein(&a, &b) <= a.len().max(b.len()));
        }
    }
}
