//! Typo detection (§5.2).
//!
//! Some never-archived links were mis-typed by the editor who added them —
//! the paper's lnr.fr example used the English "may" where the URL needed
//! the French "mai". Detection: compare the dead URL against archived URLs
//! under the same host; deem it a potential typo when **exactly one**
//! archived URL sits at edit distance exactly 1. (With several candidates
//! the neighbours are usually numeric page ids, not typos.)

use permadead_archive::ArchiveStore;
use permadead_url::{at_distance_one, surt_host_prefix, Url};
use std::fmt::Write;

/// A detected potential typo.
#[derive(Debug, Clone, PartialEq)]
pub struct TypoCandidate {
    /// The dead URL as posted.
    pub typo_url: Url,
    /// The unique archived URL at edit distance 1 — presumably what the
    /// editor meant.
    pub intended_url: Url,
}

/// Scan the archive for a unique distance-1 neighbour of `url` under the
/// same hostname.
///
/// One pass over the host's rows, which come grouped by SURT: each
/// archived URL is judged by its first capture (CDX `collapse=urlkey`). A
/// URL whose display form is more than one byte longer or shorter than
/// `url`'s cannot be at distance 1 and is never formatted; the rest are
/// formatted into one reused buffer. URLs with distinct SURTs display
/// differently, so each neighbour met is a new one, and the scan stops at
/// the second.
pub fn find_typo_candidate(archive: &ArchiveStore, url: &Url) -> Option<TypoCandidate> {
    let target = url.to_string();
    let mut candidate = String::new();
    let mut found: Option<String> = None;
    let mut last_surt: Option<&str> = None;
    for snap in archive.scan_surt_prefix(&surt_host_prefix(url.host())) {
        if last_surt == Some(snap.surt.as_str()) {
            continue;
        }
        last_surt = Some(&snap.surt);
        if snap.url.display_len().abs_diff(target.len()) > 1 {
            continue;
        }
        candidate.clear();
        write!(candidate, "{}", snap.url).expect("writing to a String cannot fail");
        if !at_distance_one(&target, &candidate) {
            continue;
        }
        if found.is_some() {
            return None; // ambiguous: not a typo signature
        }
        found = Some(candidate.clone());
    }
    Some(TypoCandidate {
        typo_url: url.clone(),
        intended_url: Url::parse(&found?).expect("stored URLs parse"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_archive::Snapshot;
    use permadead_net::{SimTime, StatusCode};

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t() -> SimTime {
        SimTime::from_ymd(2015, 5, 1)
    }

    fn archive_with(urls: &[&str]) -> ArchiveStore {
        let mut a = ArchiveStore::new();
        for url in urls {
            a.insert(Snapshot::from_observation(&u(url), t(), StatusCode::OK, None, "b"));
        }
        a
    }

    #[test]
    fn unique_neighbour_detected() {
        let a = archive_with(&[
            "http://lnr.fr/top-14-paris-26-mai-1984.html",
            "http://lnr.fr/some-other-page.html",
        ]);
        let typo = u("http://lnr.fr/top-14-paris-26-may-1984.html");
        let c = find_typo_candidate(&a, &typo).unwrap();
        assert_eq!(
            c.intended_url,
            u("http://lnr.fr/top-14-paris-26-mai-1984.html")
        );
    }

    #[test]
    fn ambiguous_numeric_neighbours_rejected() {
        // page-id URLs: /story-1.html, /story-2.html … distance 1 from
        // /story-3.html in more than one way
        let a = archive_with(&[
            "http://n.org/story-1.html",
            "http://n.org/story-2.html",
        ]);
        assert_eq!(find_typo_candidate(&a, &u("http://n.org/story-3.html")), None);
    }

    #[test]
    fn no_neighbours_no_candidate() {
        let a = archive_with(&["http://n.org/completely/different.html"]);
        assert_eq!(find_typo_candidate(&a, &u("http://n.org/story-3.html")), None);
    }

    #[test]
    fn other_hosts_not_consulted() {
        let a = archive_with(&["http://other.org/story-3x.html"]);
        assert_eq!(find_typo_candidate(&a, &u("http://n.org/story-3.html")), None);
    }

    #[test]
    fn distance_two_not_matched() {
        let a = archive_with(&["http://n.org/stary-3x.html"]);
        assert_eq!(find_typo_candidate(&a, &u("http://n.org/story-3.html")), None);
    }

    #[test]
    fn multiple_captures_of_one_url_still_unique() {
        let mut a = archive_with(&["http://n.org/story-mai.html"]);
        a.insert(Snapshot::from_observation(
            &u("http://n.org/story-mai.html"),
            SimTime::from_ymd(2018, 1, 1),
            StatusCode::OK,
            None,
            "b2",
        ));
        let c = find_typo_candidate(&a, &u("http://n.org/story-may.html")).unwrap();
        assert_eq!(c.intended_url, u("http://n.org/story-mai.html"));
    }
}
