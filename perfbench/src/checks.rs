//! Output checks computed apart from the program: archival classes from one
//! linear scan of the archive, title-token Jaccard, content fingerprints,
//! and a linear-scan reference for rediscovery queries.

use crate::report::Report;
use permadead_archive::{ArchiveStore, BodyClass, Snapshot};
use permadead_core::{ArchivalClass, LinkFinding, StageStats};
use permadead_net::{LiveStatus, SimTime};
use permadead_rescue::{Candidate, Fingerprint, RescueIndex};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Every snapshot, grouped by SURT key in capture order, from one pass
/// over `ArchiveStore::iter` (which leaves the access counters alone).
pub fn snapshots_by_surt(archive: &ArchiveStore) -> HashMap<&str, Vec<&Snapshot>> {
    let mut by: HashMap<&str, Vec<&Snapshot>> = HashMap::new();
    for s in archive.iter() {
        by.entry(s.surt.as_str()).or_default().push(s);
    }
    by
}

/// The §4.1/§4.2 taxonomy from a link's captures and its tagging time.
pub fn expected_class(snaps: Option<&Vec<&Snapshot>>, marked_at: SimTime) -> ArchivalClass {
    let Some(snaps) = snaps.filter(|s| !s.is_empty()) else {
        return ArchivalClass::NeverArchived;
    };
    let pre: Vec<u16> = snaps
        .iter()
        .filter(|s| s.captured < marked_at)
        .map(|s| s.initial_status.as_u16())
        .collect();
    if pre.is_empty() {
        ArchivalClass::NothingBeforeMarking
    } else if pre.contains(&200) {
        ArchivalClass::Had200Copy
    } else if pre.iter().any(|s| (300..400).contains(s)) {
        ArchivalClass::Had3xxOnly
    } else {
        ArchivalClass::HadErroneousOnly
    }
}

/// The last pre-tagging content capture's title and sketch.
pub fn fingerprint(snaps: Option<&Vec<&Snapshot>>, marked_at: SimTime) -> Option<Fingerprint> {
    snaps?
        .iter()
        .rev()
        .find(|s| s.captured < marked_at && s.body_class == BodyClass::Content)
        .map(|s| Fingerprint {
            title: s.title.clone(),
            sketch: s.sketch,
        })
}

/// Lowercase alphanumeric tokens of a title.
pub fn title_tokens(title: &str) -> BTreeSet<String> {
    title
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// Token-set Jaccard; two empty sets are identical, one empty set is
/// disjoint from any other.
pub fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Title tokens of every index entry, computed once per run.
pub fn entry_tokens(index: &RescueIndex) -> Vec<BTreeSet<String>> {
    index
        .entries()
        .iter()
        .map(|e| title_tokens(&e.title))
        .collect()
}

/// The top `k` entries by the index's score, found by scanning every entry
/// that shares a title token or a sketch minimum with `fp`; ties go to
/// the lower entry id.
pub fn scan_top_k(
    index: &RescueIndex,
    tokens: &[BTreeSet<String>],
    fp: &Fingerprint,
    k: usize,
) -> Vec<Candidate> {
    let fp_tokens = title_tokens(&fp.title);
    let fp_mins: HashSet<u64> = if fp.sketch.empty {
        HashSet::new()
    } else {
        fp.sketch.mins().iter().copied().collect()
    };
    let mut found: Vec<Candidate> = index
        .entries()
        .iter()
        .zip(tokens)
        .enumerate()
        .filter(|(_, (e, t))| {
            !t.is_disjoint(&fp_tokens)
                || (!e.sketch.empty && e.sketch.mins().iter().any(|m| fp_mins.contains(m)))
        })
        .map(|(id, (e, t))| Candidate {
            entry: id,
            title_similarity: jaccard(&fp_tokens, t),
            content_similarity: fp.sketch.similarity(&e.sketch),
        })
        .collect();
    found.sort_by(|a, b| b.score().total_cmp(&a.score()).then(a.entry.cmp(&b.entry)));
    found.truncate(k);
    found
}

/// Paper values (§3, §4.1, §4.2, §5.2) and the band each measured share
/// must fall in.
const PAPER_SHARES: [(&str, f64); 4] = [
    ("final-200", 0.16),
    ("200-copy", 0.11),
    ("3xx-only", 0.38),
    ("never-archived", 0.20),
];
const SHARE_BAND: f64 = 0.05;

fn hits(stats: &[StageStats], stage: &str) -> u64 {
    stats.iter().find(|s| s.name == stage).map_or(0, |s| s.hits)
}

/// The checks every batch pass must pass: stage-hit identities, archival
/// classes against a linear scan, and the paper-shape bands.
pub fn check_pass(
    report: &mut Report,
    findings: &[LinkFinding],
    stats: &[StageStats],
    by_surt: &HashMap<&str, Vec<&Snapshot>>,
) {
    let n = findings.len() as u64;
    let count = |f: &dyn Fn(&LinkFinding) -> bool| findings.iter().filter(|x| f(x)).count() as u64;
    let final_200 = count(&|f| f.live.status == LiveStatus::Ok);
    let had_200 = count(&|f| f.archival == ArchivalClass::Had200Copy);
    let only_3xx = count(&|f| f.archival == ArchivalClass::Had3xxOnly);
    let never = count(&|f| f.archival == ArchivalClass::NeverArchived);
    for stage in ["live-check", "archival-class", "post-marking", "temporal"] {
        report.check(hits(stats, stage) == n, || {
            format!("{stage} hit {} of {n} links", hits(stats, stage))
        });
    }
    report.check(hits(stats, "soft404-probe") == final_200, || {
        format!(
            "soft404-probe hits {} != final-200 links {final_200}",
            hits(stats, "soft404-probe")
        )
    });
    report.check(hits(stats, "rescue-scan") == never, || {
        format!(
            "rescue-scan hits {} != never-archived links {never}",
            hits(stats, "rescue-scan")
        )
    });
    report.check(hits(stats, "redirect-3xx") <= only_3xx, || {
        format!(
            "redirect-3xx hits {} > 3xx-only links {only_3xx}",
            hits(stats, "redirect-3xx")
        )
    });

    let mismatched: Vec<&LinkFinding> = findings
        .iter()
        .filter(|f| {
            let surt = permadead_url::surt(&f.entry.url);
            expected_class(by_surt.get(surt.as_str()), f.entry.marked_at) != f.archival
        })
        .collect();
    report.check(mismatched.is_empty(), || {
        format!(
            "{} archival classes differ from the linear scan, first {}",
            mismatched.len(),
            mismatched[0].entry.url
        )
    });

    for ((name, paper), measured) in PAPER_SHARES
        .iter()
        .zip([final_200, had_200, only_3xx, never])
    {
        let share = measured as f64 / n as f64;
        report.check((share - paper).abs() <= SHARE_BAND, || {
            format!("{name} share {share:.3} outside {paper} ± {SHARE_BAND}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_on_titles() {
        let a = title_tokens("Steve's Portfolio — Home");
        let b = title_tokens("steve portfolio");
        assert_eq!(a.len(), 4);
        assert_eq!(jaccard(&a, &b), 0.5);
        assert_eq!(jaccard(&title_tokens(""), &title_tokens("")), 1.0);
        assert_eq!(jaccard(&title_tokens(""), &b), 0.0);
    }
}
