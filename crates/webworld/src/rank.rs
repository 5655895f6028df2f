//! Site popularity ranking.
//!
//! Figure 3(b) plots the Alexa rank of every sampled URL's site; the
//! distribution spans the full 1..1M range with a bias toward popular sites.
//! Alexa is gone, so the world generator assigns ranks itself:
//! sites get distinct ranks in `1..=universe`, and page counts correlate with
//! rank through a Zipf-like law (rank 1 hosts far more pages than rank 10⁵),
//! which in turn reproduces Figure 3(a)'s heavy tail of URLs-per-domain.

use std::collections::HashMap;

/// Maps hosts to ranks. Ranks are unique, 1-based, lower = more popular.
#[derive(Debug, Clone, Default)]
pub struct RankTable {
    by_host: HashMap<String, u32>,
    /// The size of the ranked universe (Alexa's was 1M); unranked hosts
    /// report this value + 1.
    pub universe: u32,
}

impl RankTable {
    pub fn new(universe: u32) -> Self {
        RankTable {
            by_host: HashMap::new(),
            universe,
        }
    }

    pub fn insert(&mut self, host: &str, rank: u32) {
        if let Err(rule) = self.try_insert(host, rank) {
            panic!("{rule}");
        }
    }

    /// [`RankTable::insert`], returning the broken rule instead of
    /// panicking (for decoding untrusted bytes).
    pub fn try_insert(&mut self, host: &str, rank: u32) -> Result<(), &'static str> {
        if rank == 0 {
            return Err("ranks are 1-based");
        }
        self.by_host.insert(host.to_ascii_lowercase(), rank);
        Ok(())
    }

    /// The host's rank, or `universe + 1` for unranked hosts (the paper
    /// plots unranked sites at the tail).
    pub fn rank(&self, host: &str) -> u32 {
        self.by_host
            .get(&host.to_ascii_lowercase())
            .copied()
            .unwrap_or(self.universe + 1)
    }

    pub fn is_ranked(&self, host: &str) -> bool {
        self.by_host.contains_key(&host.to_ascii_lowercase())
    }

    pub fn len(&self) -> usize {
        self.by_host.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_host.is_empty()
    }

    /// Every `(host, rank)` pair, in arbitrary order (serializers sort).
    pub fn entries(&self) -> impl Iterator<Item = (&String, u32)> {
        self.by_host.iter().map(|(h, &r)| (h, r))
    }
}

/// Expected number of pages for a site of the given rank under a Zipf-like
/// law: `base * (rank)^(-alpha)`, clamped to `[min_pages, max_pages]`.
///
/// With `alpha ≈ 0.55`, `base ≈ 4000`: rank 1 → 4000 pages, rank 1000 → ~90,
/// rank 500k → ~3. Matches the paper's observation that >70% of domains
/// contribute one URL while a few contribute hundreds.
pub fn zipf_page_count(rank: u32, base: f64, alpha: f64, min_pages: u32, max_pages: u32) -> u32 {
    let raw = base * f64::from(rank.max(1)).powf(-alpha);
    (raw.round() as u32).clamp(min_pages, max_pages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_lookup() {
        let mut t = RankTable::new(1_000_000);
        t.insert("Big.example", 10);
        assert_eq!(t.rank("big.example"), 10);
        assert_eq!(t.rank("BIG.EXAMPLE"), 10);
        assert!(t.is_ranked("big.example"));
    }

    #[test]
    fn unranked_reports_tail() {
        let t = RankTable::new(1_000_000);
        assert_eq!(t.rank("nobody.example"), 1_000_001);
        assert!(!t.is_ranked("nobody.example"));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_rank_rejected() {
        RankTable::new(100).insert("x", 0);
    }

    #[test]
    fn zipf_decreasing_in_rank() {
        let counts: Vec<u32> = [1u32, 10, 100, 1_000, 100_000]
            .iter()
            .map(|&r| zipf_page_count(r, 4000.0, 0.55, 1, 100_000))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), zipf_page_count(100_000, 4000.0, 0.55, 1, 100_000));
    }

    #[test]
    fn zipf_respects_clamps() {
        assert_eq!(zipf_page_count(1, 1e9, 0.1, 1, 500), 500);
        assert_eq!(zipf_page_count(1_000_000, 10.0, 2.0, 1, 500), 1);
    }

    #[test]
    fn zipf_head_vs_tail_matches_figure3a_shape() {
        // head sites host hundreds of pages; tail sites host a handful
        assert!(zipf_page_count(1, 4000.0, 0.55, 1, 100_000) > 1000);
        assert!(zipf_page_count(500_000, 4000.0, 0.55, 1, 100_000) <= 5);
    }
}
