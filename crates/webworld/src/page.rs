//! Pages and their lifecycles.
//!
//! A page is born at some path, and may later move (leaving its old URL
//! broken), gain a redirect from old to new (possibly much later — the §3
//! revival mechanism), or be deleted outright. The page's *content identity*
//! is stable across moves: the same prose is served from whichever path is
//! current, exactly like the paper's fishman.com example where the old and
//! new URL host the same artist page.

use permadead_net::SimTime;

/// Identifies a page within its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// A timestamped lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum PageEvent {
    /// The page moves to a new path. The old path stops serving content
    /// (what it serves instead is the site's unknown-path policy) until a
    /// `RedirectAdded` event covers it.
    Moved { to_path: String },
    /// The site operator wires up a redirect from the page's previous path
    /// to its current one. Uses a 301.
    RedirectAdded,
    /// The page is removed; its path falls back to the unknown-path policy.
    Deleted,
}

/// A page: an initial path plus a time-ordered event list.
#[derive(Debug, Clone)]
pub struct Page {
    pub id: PageId,
    pub created: SimTime,
    pub initial_path: String,
    events: Vec<(SimTime, PageEvent)>,
}

/// What a page's state looks like from a given path at a given time.
#[derive(Debug, Clone, PartialEq)]
pub enum PathView {
    /// This path currently serves the page's content.
    Live,
    /// This path 301s to the page's current path.
    Redirects { to_path: String },
    /// The page once lived here but no longer does (and no redirect exists);
    /// the site's unknown-path policy applies.
    Stale,
    /// The page is deleted; unknown-path policy applies.
    Deleted,
}

impl Page {
    pub fn new(id: PageId, created: SimTime, initial_path: &str) -> Self {
        Page::try_new(id, created, initial_path).unwrap_or_else(|rule| panic!("{rule}"))
    }

    /// [`Page::new`], returning the broken rule instead of panicking (for
    /// decoding untrusted bytes).
    pub fn try_new(id: PageId, created: SimTime, initial_path: &str) -> Result<Self, &'static str> {
        if !initial_path.starts_with('/') {
            return Err("paths are absolute");
        }
        Ok(Page {
            id,
            created,
            initial_path: initial_path.to_string(),
            events: Vec::new(),
        })
    }

    /// Append an event; events must be pushed in time order and must be
    /// consistent (no move after delete, redirect only after a move).
    pub fn push_event(&mut self, at: SimTime, event: PageEvent) {
        if let Err(rule) = self.try_push_event(at, event) {
            panic!("{rule}");
        }
    }

    /// [`Page::push_event`], returning the broken rule instead of panicking.
    pub fn try_push_event(&mut self, at: SimTime, event: PageEvent) -> Result<(), &'static str> {
        if let Some((last, prev)) = self.events.last() {
            if at < *last {
                return Err("events must be time-ordered");
            }
            if matches!(prev, PageEvent::Deleted) {
                return Err("no events after deletion");
            }
        }
        if matches!(event, PageEvent::RedirectAdded)
            && !self.events.iter().any(|(_, e)| matches!(e, PageEvent::Moved { .. }))
        {
            return Err("redirect requires a prior move");
        }
        self.events.push((at, event));
        Ok(())
    }

    /// The raw event list, time-ordered (for world serialization: a page
    /// round-trips by replaying these through [`Page::push_event`]).
    pub fn events(&self) -> &[(SimTime, PageEvent)] {
        &self.events
    }

    /// The path serving this page's content at `t` (regardless of deletion).
    pub fn current_path(&self, t: SimTime) -> &str {
        let mut path = self.initial_path.as_str();
        for (at, e) in &self.events {
            if *at > t {
                break;
            }
            if let PageEvent::Moved { to_path } = e {
                path = to_path;
            }
        }
        path
    }

    /// Is the page deleted at `t`?
    pub fn is_deleted(&self, t: SimTime) -> bool {
        self.events
            .iter()
            .any(|(at, e)| *at <= t && matches!(e, PageEvent::Deleted))
    }

    /// Does the page exist yet at `t`?
    pub fn exists(&self, t: SimTime) -> bool {
        self.created <= t
    }

    /// Every path this page has ever been reachable at (for building the
    /// site's path index).
    pub fn all_paths(&self) -> Vec<&str> {
        let mut v = vec![self.initial_path.as_str()];
        for (_, e) in &self.events {
            if let PageEvent::Moved { to_path } = e {
                v.push(to_path.as_str());
            }
        }
        v
    }

    /// How the page presents at `path` at time `t`. Returns `None` when
    /// `path` has never belonged to this page or the page doesn't exist yet.
    pub fn view_at(&self, path: &str, t: SimTime) -> Option<PathView> {
        if !self.exists(t) || !self.all_paths().contains(&path) {
            return None;
        }
        if self.is_deleted(t) {
            return Some(PathView::Deleted);
        }
        let current = self.current_path(t);
        if current == path {
            return Some(PathView::Live);
        }
        // `path` is an old location. Does a redirect cover it? A redirect
        // covers the path the page occupied just before the move that the
        // redirect follows. We replay history to find out.
        let mut prev_path = self.initial_path.as_str();
        let mut redirected_paths: Vec<(&str, SimTime)> = Vec::new();
        let mut pending_old: Option<&str> = None;
        for (at, e) in &self.events {
            if *at > t {
                break;
            }
            match e {
                PageEvent::Moved { to_path } => {
                    pending_old = Some(prev_path);
                    prev_path = to_path;
                }
                PageEvent::RedirectAdded => {
                    if let Some(old) = pending_old.take() {
                        redirected_paths.push((old, *at));
                    }
                }
                PageEvent::Deleted => {}
            }
        }
        if redirected_paths.iter().any(|(p, _)| *p == path) {
            Some(PathView::Redirects {
                to_path: current.to_string(),
            })
        } else {
            Some(PathView::Stale)
        }
    }

    /// Stable key for content generation: pages keep their prose across
    /// moves.
    pub fn content_key(&self, site_id: u64) -> String {
        format!("site{}:page{}", site_id, self.id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::Duration;

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 1, 1)
    }

    fn page() -> Page {
        Page::new(PageId(1), t(2010), "/news/story.html")
    }

    #[test]
    fn fresh_page_is_live_at_its_path() {
        let p = page();
        assert_eq!(p.view_at("/news/story.html", t(2012)), Some(PathView::Live));
        assert_eq!(p.current_path(t(2012)), "/news/story.html");
        assert!(!p.is_deleted(t(2012)));
    }

    #[test]
    fn not_yet_created() {
        let p = page();
        assert_eq!(p.view_at("/news/story.html", t(2005)), None);
        assert!(!p.exists(t(2005)));
    }

    #[test]
    fn unknown_path_is_none() {
        let p = page();
        assert_eq!(p.view_at("/other", t(2012)), None);
    }

    #[test]
    fn move_leaves_old_path_stale() {
        let mut p = page();
        p.push_event(t(2015), PageEvent::Moved { to_path: "/archive/story.html".into() });
        // before the move
        assert_eq!(p.view_at("/news/story.html", t(2014)), Some(PathView::Live));
        // after the move: old path stale, new path live
        assert_eq!(p.view_at("/news/story.html", t(2016)), Some(PathView::Stale));
        assert_eq!(p.view_at("/archive/story.html", t(2016)), Some(PathView::Live));
        // new path did not exist before the move
        assert_eq!(p.view_at("/archive/story.html", t(2014)), Some(PathView::Stale));
    }

    #[test]
    fn late_redirect_revives_old_path() {
        // the §3 revival scenario: move in 2015, redirect added in 2021
        let mut p = page();
        p.push_event(t(2015), PageEvent::Moved { to_path: "/new/story.html".into() });
        p.push_event(t(2021), PageEvent::RedirectAdded);
        assert_eq!(p.view_at("/news/story.html", t(2018)), Some(PathView::Stale));
        assert_eq!(
            p.view_at("/news/story.html", t(2022)),
            Some(PathView::Redirects { to_path: "/new/story.html".into() })
        );
    }

    #[test]
    fn deleted_page() {
        let mut p = page();
        p.push_event(t(2017), PageEvent::Deleted);
        assert_eq!(p.view_at("/news/story.html", t(2016)), Some(PathView::Live));
        assert_eq!(p.view_at("/news/story.html", t(2018)), Some(PathView::Deleted));
        assert!(p.is_deleted(t(2018)));
    }

    #[test]
    fn double_move_with_redirect_chain_target_is_current() {
        let mut p = page();
        p.push_event(t(2012), PageEvent::Moved { to_path: "/v2/story".into() });
        p.push_event(t(2013), PageEvent::RedirectAdded);
        p.push_event(t(2016), PageEvent::Moved { to_path: "/v3/story".into() });
        // the 2013 redirect covered /news/story.html; after the second move
        // it points at the page's *current* path (site keeps it updated)
        assert_eq!(
            p.view_at("/news/story.html", t(2017)),
            Some(PathView::Redirects { to_path: "/v3/story".into() })
        );
        // /v2/story got no redirect of its own
        assert_eq!(p.view_at("/v2/story", t(2017)), Some(PathView::Stale));
    }

    #[test]
    fn all_paths_accumulates() {
        let mut p = page();
        p.push_event(t(2012), PageEvent::Moved { to_path: "/v2".into() });
        p.push_event(t(2016), PageEvent::Moved { to_path: "/v3".into() });
        assert_eq!(p.all_paths(), vec!["/news/story.html", "/v2", "/v3"]);
    }

    #[test]
    #[should_panic(expected = "redirect requires a prior move")]
    fn redirect_without_move_panics() {
        let mut p = page();
        p.push_event(t(2015), PageEvent::RedirectAdded);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_events_panic() {
        let mut p = page();
        p.push_event(t(2015), PageEvent::Moved { to_path: "/x".into() });
        p.push_event(t(2014), PageEvent::Deleted);
    }

    #[test]
    #[should_panic(expected = "no events after deletion")]
    fn events_after_delete_panic() {
        let mut p = page();
        p.push_event(t(2015), PageEvent::Deleted);
        p.push_event(t(2016), PageEvent::Moved { to_path: "/x".into() });
    }

    #[test]
    fn content_key_stable_across_moves() {
        let mut p = page();
        let before = p.content_key(9);
        p.push_event(t(2012), PageEvent::Moved { to_path: "/v2".into() });
        assert_eq!(p.content_key(9), before);
    }

    mod lifecycle_properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary-but-valid event scripts: moves, one optional redirect
        /// after a move, optional trailing delete.
        fn arb_script() -> impl Strategy<Value = Vec<(i64, PageEvent)>> {
            proptest::collection::vec((1i64..5000, 0u8..3), 0..5).prop_map(|raw| {
                let mut t_acc = 0i64;
                let mut moved_pending = false;
                let mut out = Vec::new();
                for (dt, kind) in raw {
                    t_acc += dt;
                    match kind {
                        0 => {
                            out.push((t_acc, PageEvent::Moved {
                                to_path: format!("/moved/{t_acc}"),
                            }));
                            moved_pending = true;
                        }
                        1 if moved_pending => {
                            out.push((t_acc, PageEvent::RedirectAdded));
                            moved_pending = false;
                        }
                        2 => {
                            out.push((t_acc, PageEvent::Deleted));
                            break;
                        }
                        _ => {}
                    }
                }
                out
            })
        }

        proptest! {
            #[test]
            fn views_are_total_and_consistent(script in arb_script(), probe_day in 0i64..6000) {
                let mut p = Page::new(PageId(1), SimTime(0), "/start");
                for (day, e) in &script {
                    p.push_event(SimTime(day * 86_400), e.clone());
                }
                let t = SimTime(probe_day * 86_400);
                // every historical path yields a view; exactly one path is
                // Live unless the page is deleted
                let mut live = 0;
                for path in p.all_paths() {
                    match p.view_at(path, t) {
                        Some(PathView::Live) => live += 1,
                        Some(_) => {}
                        None => prop_assert!(!p.exists(t)),
                    }
                }
                if p.exists(t) && !p.is_deleted(t) {
                    prop_assert_eq!(live, 1, "exactly one live path");
                } else {
                    prop_assert_eq!(live, 0);
                }
                // redirects always point at the current path
                for path in p.all_paths() {
                    if let Some(PathView::Redirects { to_path }) = p.view_at(path, t) {
                        prop_assert_eq!(to_path, p.current_path(t).to_string());
                    }
                }
            }
        }
    }

    #[test]
    fn event_boundary_inclusive() {
        let mut p = page();
        let when = t(2015) + Duration::days(10);
        p.push_event(when, PageEvent::Moved { to_path: "/x".into() });
        assert_eq!(p.current_path(when), "/x");
        assert_eq!(p.current_path(when - Duration::seconds(1)), "/news/story.html");
    }
}
