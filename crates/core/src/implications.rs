//! The paper's implications, operationalized.
//!
//! Each section of the paper ends with an *Implications* box; this module
//! turns a completed [`Study`] into the concrete work-list those boxes call
//! for: which links to patch with which copies, which to re-check, which to
//! fix as typos. (On real Wikipedia this would drive bot edits; here it is
//! the machine-checkable form of the paper's recommendations.)

use crate::archival::first_3xx_before;
use crate::report::Study;
use crate::{ArchivalClass, RedirectVerdict};
use permadead_archive::ArchiveStore;
use permadead_net::SimTime;
use permadead_url::Url;

/// One actionable recommendation about one tagged link.
#[derive(Debug, Clone, PartialEq)]
pub enum Recommendation {
    /// §3: the link answers a genuine 200 today — remove the tag.
    Untag { url: Url },
    /// §4.1: a pre-marking initial-200 copy exists — patch with it.
    PatchWith200Copy { url: Url, captured: SimTime },
    /// §4.2: a validated non-erroneous redirect copy exists — patch with it.
    PatchWithRedirectCopy { url: Url, captured: SimTime, target: Url },
    /// §5.2: the link is a probable typo — propose the intended URL.
    FixTypo { url: Url, intended: Url },
    /// §5.2 implication: an archived copy exists under a permuted query
    /// spelling — patch with it.
    PatchWithParamReorder { url: Url, archived_spelling: Url },
}

impl Recommendation {
    /// The tagged URL the recommendation is about.
    pub fn url(&self) -> &Url {
        match self {
            Recommendation::Untag { url }
            | Recommendation::PatchWith200Copy { url, .. }
            | Recommendation::PatchWithRedirectCopy { url, .. }
            | Recommendation::FixTypo { url, .. }
            | Recommendation::PatchWithParamReorder { url, .. } => url,
        }
    }

    /// Short kind label for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Recommendation::Untag { .. } => "untag",
            Recommendation::PatchWith200Copy { .. } => "patch-200",
            Recommendation::PatchWithRedirectCopy { .. } => "patch-redirect",
            Recommendation::FixTypo { .. } => "fix-typo",
            Recommendation::PatchWithParamReorder { .. } => "patch-param-reorder",
        }
    }
}

/// The recommendation for a single finding, if any — in the paper's own
/// priority order: a genuinely-alive link should be untagged (not patched);
/// a 200 copy beats a redirect copy; typo fixes and param rescues apply
/// only to never-archived links. The per-link form exists so an online
/// audit service can answer one query without assembling a [`Study`].
pub fn recommend_for(
    f: &crate::report::LinkFinding,
    archive: &ArchiveStore,
) -> Option<Recommendation> {
    let url = &f.entry.url;
    if f.genuinely_alive() {
        return Some(Recommendation::Untag { url: url.clone() });
    }
    match f.archival {
        ArchivalClass::Had200Copy => archive
            .snapshots_of(url)
            .into_iter()
            .find(|s| s.captured < f.entry.marked_at && s.is_initial_200())
            .map(|snap| Recommendation::PatchWith200Copy {
                url: url.clone(),
                captured: snap.captured,
            }),
        ArchivalClass::Had3xxOnly => {
            if matches!(f.redirect_verdict, Some(RedirectVerdict::Valid)) {
                let snap = first_3xx_before(archive, url, f.entry.marked_at)?;
                let target = snap.redirect_target.as_deref()?;
                Some(Recommendation::PatchWithRedirectCopy {
                    url: url.clone(),
                    captured: snap.captured,
                    target: target.clone(),
                })
            } else {
                None
            }
        }
        ArchivalClass::NeverArchived => {
            if let Some(t) = &f.typo {
                Some(Recommendation::FixTypo {
                    url: url.clone(),
                    intended: t.intended_url.clone(),
                })
            } else {
                f.param_rescue
                    .as_ref()
                    .map(|r| Recommendation::PatchWithParamReorder {
                        url: url.clone(),
                        archived_spelling: r.archived_url.clone(),
                    })
            }
        }
        _ => None,
    }
}

/// Derive the full work-list from a study: [`recommend_for`] over every
/// finding, at most one recommendation per link.
pub fn recommendations(study: &Study, archive: &ArchiveStore) -> Vec<Recommendation> {
    study
        .findings
        .iter()
        .filter_map(|f| recommend_for(f, archive))
        .collect()
}

/// Counts per recommendation kind, for summaries.
pub fn summarize(recs: &[Recommendation]) -> Vec<(&'static str, usize)> {
    let kinds = ["untag", "patch-200", "patch-redirect", "fix-typo", "patch-param-reorder"];
    kinds
        .iter()
        .map(|k| (*k, recs.iter().filter(|r| r.kind() == *k).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use permadead_archive::Snapshot;
    use permadead_net::{FetchError, Network, Request, Response, StatusCode};
    use permadead_wiki::wikitext::{CiteRef, DeadLinkTag, Document};
    use permadead_wiki::{Article, User, WikiStore};

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 1)
    }

    /// A network where /alive answers 200 and everything else 404s.
    struct HalfDead;
    impl Network for HalfDead {
        fn request(&self, req: &Request) -> Result<Response, FetchError> {
            if req.url.path() == "/alive" {
                Ok(Response::ok("genuine page content words here".into()))
            } else {
                Ok(Response::not_found())
            }
        }
    }

    fn tagged_wiki(urls: &[&str]) -> WikiStore {
        let mut w = WikiStore::new();
        let mut a = Article::new("T");
        let mut doc = Document::new();
        for url in urls {
            let mut r = CiteRef::cite_web(u(url), "t");
            r.dead_link = Some(DeadLinkTag {
                date: "May 2019".into(),
                bot: Some("InternetArchiveBot".into()),
            });
            doc.push_ref(r);
        }
        a.save_doc(t(2015), User::iabot(), &doc, "tag");
        w.insert(a);
        w
    }

    #[test]
    fn one_recommendation_per_link_in_priority_order() {
        let wiki = tagged_wiki(&[
            "http://e.org/alive",      // untag
            "http://e.org/had200",     // patch-200
            "http://e.org/neverseen",  // no rec (no copies, no typo)
        ]);
        let mut archive = ArchiveStore::new();
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/had200"),
            t(2013),
            StatusCode::OK,
            None,
            "copy body",
        ));
        // the alive link also has a 200 copy — untag must win over patch
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/alive"),
            t(2013),
            StatusCode::OK,
            None,
            "copy body two",
        ));
        let ds = Dataset::random(&wiki, 10, 1);
        let study = Study::run(&HalfDead, &archive, &ds, t(2022));
        let recs = recommendations(&study, &archive);
        assert_eq!(recs.len(), 2);
        let by_url: std::collections::HashMap<String, &str> = recs
            .iter()
            .map(|r| (r.url().to_string(), r.kind()))
            .collect();
        assert_eq!(by_url["http://e.org/alive"], "untag");
        assert_eq!(by_url["http://e.org/had200"], "patch-200");
    }

    #[test]
    fn typo_recommendation_for_never_archived() {
        let wiki = tagged_wiki(&["http://e.org/story-may.html"]);
        let mut archive = ArchiveStore::new();
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/story-mai.html"),
            t(2013),
            StatusCode::OK,
            None,
            "b",
        ));
        let ds = Dataset::random(&wiki, 10, 1);
        let study = Study::run(&HalfDead, &archive, &ds, t(2022));
        let recs = recommendations(&study, &archive);
        assert_eq!(recs.len(), 1);
        match &recs[0] {
            Recommendation::FixTypo { intended, .. } => {
                assert_eq!(intended, &u("http://e.org/story-mai.html"));
            }
            other => panic!("expected typo fix, got {other:?}"),
        }
    }

    #[test]
    fn summarize_counts_kinds() {
        let recs = vec![
            Recommendation::Untag { url: u("http://a.org/1") },
            Recommendation::Untag { url: u("http://a.org/2") },
            Recommendation::FixTypo {
                url: u("http://a.org/3"),
                intended: u("http://a.org/4"),
            },
        ];
        let sum = summarize(&recs);
        assert!(sum.contains(&("untag", 2)));
        assert!(sum.contains(&("fix-typo", 1)));
        assert!(sum.contains(&("patch-200", 0)));
    }
}
