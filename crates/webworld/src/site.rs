//! Sites: a host (or a few), a bag of pages, policies, and a lifecycle.
//!
//! The site is where the paper's misleading behaviours live:
//!
//! - [`UnknownPathPolicy`] decides what a request for a non-existent path
//!   gets. `NotFound` is the honest answer; `Soft404` serves a 200 template
//!   (the §3 soft-404s); `RedirectHome`/`RedirectLogin` produce the
//!   *erroneous redirections* that make IABot distrust every archived 3xx
//!   copy (§4.2).
//! - [`SiteLifecycle`] describes abandonment and parking. A parked site
//!   serves a sale lander with status 200 for every path — the znaci.net
//!   example.

use crate::page::{Page, PageId, PathView};
use permadead_net::fault::FaultProfile;
use permadead_net::{Response, SimTime, StatusCode};
use permadead_text::{
    login_page_body, parked_domain_body, soft404_body, ContentGen,
};
use permadead_url::Url;
use std::collections::HashMap;

/// Global site identifier (also the DNS origin id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u64);

/// What a site serves for a path it doesn't recognize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownPathPolicy {
    /// Honest 404.
    NotFound,
    /// Rare honest variant: 410 Gone.
    Gone,
    /// 200 with a branded "not found" template — a soft-404.
    Soft404,
    /// 302 to the site root — the "old URL for a news article might redirect
    /// to the news site's homepage" case from the paper's introduction.
    RedirectHome,
    /// 302 to the login page.
    RedirectLogin,
}

/// Site-level lifecycle. DNS-level death (lapse, re-registration) is modeled
/// in the DNS timelines; this covers behaviour while the host still resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteLifecycle {
    /// Before this, the site doesn't exist (requests shouldn't reach it —
    /// DNS won't resolve — but we answer 503 defensively).
    pub founded: SimTime,
    /// From this time on, every path serves the parked lander (the domain
    /// was re-registered by a parker).
    pub parked_from: Option<SimTime>,
}

impl SiteLifecycle {
    pub fn active_from(founded: SimTime) -> Self {
        SiteLifecycle {
            founded,
            parked_from: None,
        }
    }

    pub fn parked_at(mut self, t: SimTime) -> Self {
        self.parked_from = Some(t);
        self
    }

    pub fn is_parked(&self, t: SimTime) -> bool {
        self.parked_from.is_some_and(|p| t >= p)
    }
}

/// A web site.
#[derive(Debug, Clone)]
pub struct Site {
    pub id: SiteId,
    /// Primary hostname.
    pub host: String,
    pub lifecycle: SiteLifecycle,
    /// Unknown-path policy over time: `(from, policy)` pairs, time-ordered.
    /// Sites change their error handling across redesigns — a link tagged
    /// dead under an honest 404 era can answer a soft 200 today (§3).
    policies: Vec<(SimTime, UnknownPathPolicy)>,
    pub faults: FaultProfile,
    pages: Vec<Page>,
    /// Any path a page ever occupied → index into `pages`. Paths are unique
    /// per site by construction of the world generator.
    path_index: HashMap<String, usize>,
}

impl Site {
    pub fn new(
        id: SiteId,
        host: &str,
        lifecycle: SiteLifecycle,
        unknown_path: UnknownPathPolicy,
    ) -> Self {
        Site {
            id,
            host: host.to_ascii_lowercase(),
            lifecycle,
            policies: vec![(SimTime(i64::MIN / 2), unknown_path)],
            faults: FaultProfile::none(id.0),
            pages: Vec::new(),
            path_index: HashMap::new(),
        }
    }

    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// Switch the unknown-path policy from `from` onward. Changes must be
    /// pushed in time order.
    pub fn change_policy(&mut self, from: SimTime, policy: UnknownPathPolicy) {
        if let Err(rule) = self.try_change_policy(from, policy) {
            panic!("{rule}");
        }
    }

    /// [`Site::change_policy`], returning the broken rule instead of
    /// panicking (for decoding untrusted bytes).
    pub fn try_change_policy(
        &mut self,
        from: SimTime,
        policy: UnknownPathPolicy,
    ) -> Result<(), &'static str> {
        let last = self.policies.last().expect("at least the initial policy");
        if from < last.0 {
            return Err("policy changes must be time-ordered");
        }
        self.policies.push((from, policy));
        Ok(())
    }

    /// The full policy history, time-ordered, *excluding* the initial policy
    /// (which [`Site::new`] installs at the dawn of time). For world
    /// serialization: a site round-trips via `Site::new(initial)` plus
    /// replaying these through [`Site::change_policy`].
    pub fn policy_changes(&self) -> &[(SimTime, UnknownPathPolicy)] {
        &self.policies[1..]
    }

    /// The initial unknown-path policy passed to [`Site::new`].
    pub fn initial_policy(&self) -> UnknownPathPolicy {
        self.policies[0].1
    }

    /// The unknown-path policy in effect at `t`.
    pub fn policy_at(&self, t: SimTime) -> UnknownPathPolicy {
        self.policies
            .iter()
            .rev()
            .find(|&&(from, _)| from <= t)
            .map(|&(_, p)| p)
            .expect("initial policy covers all time")
    }

    /// Add a page; re-indexes all of its (past and future) paths. Paths
    /// containing a query string are *additionally* indexed under a
    /// canonical (order-insensitive) form of their parameters: most real
    /// servers treat `?a=1&b=2` and `?b=2&a=1` identically, and §5.2's
    /// implications lean on exactly that.
    pub fn add_page(&mut self, page: Page) {
        if let Err(rule) = self.try_add_page(page) {
            panic!("{rule} on site {}", self.host);
        }
    }

    /// [`Site::add_page`], returning the broken rule instead of panicking
    /// (for decoding untrusted bytes). A refused page indexes nothing.
    pub fn try_add_page(&mut self, page: Page) -> Result<(), &'static str> {
        let paths = page.all_paths();
        for (i, path) in paths.iter().enumerate() {
            if self.path_index.contains_key(*path) || paths[..i].contains(path) {
                return Err("duplicate path");
            }
        }
        let idx = self.pages.len();
        for path in paths {
            self.path_index.insert(path.to_string(), idx);
            if let Some((base, query)) = path.split_once('?') {
                let canon = format!("{base}?[{}]", permadead_url::canonical_query(query));
                self.path_index.insert(canon, idx);
            }
        }
        self.pages.push(page);
        Ok(())
    }

    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    pub fn page(&self, id: PageId) -> Option<&Page> {
        self.pages.iter().find(|p| p.id == id)
    }

    /// The URL of the page's current location at `t`.
    pub fn url_of(&self, page: &Page, t: SimTime) -> Url {
        Url::parse(&format!("http://{}{}", self.host, page.current_path(t)))
            .expect("site paths are valid")
    }

    /// Serve a request for `path` at time `t`. Faults are checked by the
    /// caller ([`crate::world::LiveWeb`]); this is the origin's own logic.
    pub fn serve(&self, path_and_query: &str, t: SimTime, content: &ContentGen) -> Response {
        if t < self.lifecycle.founded {
            return Response::status_only(StatusCode::SERVICE_UNAVAILABLE);
        }
        if self.lifecycle.is_parked(t) {
            return Response::ok(parked_domain_body(&self.host));
        }
        // login wall is always present
        if permadead_text::soft404::is_login_path(path_and_query) {
            return Response::ok(login_page_body(&self.host));
        }
        // root always serves a homepage
        let path_only = path_and_query.split(['?', '#']).next().unwrap_or("/");
        if path_only == "/" {
            return Response::ok(self.render_page_body("home", t, content));
        }
        let canon_key = path_and_query.split_once('?').map(|(base, query)| {
            format!("{base}?[{}]", permadead_url::canonical_query(query))
        });
        let resolved: Option<(&Page, String)> = if let Some(&idx) = self.path_index.get(path_and_query) {
            Some((&self.pages[idx], path_and_query.to_string()))
        } else if let Some(&idx) = self.path_index.get(path_only) {
            Some((&self.pages[idx], path_only.to_string()))
        } else if let Some(&idx) = canon_key.and_then(|k| self.path_index.get(&k)) {
            // parameter-order-insensitive hit: find the stored spelling
            let page = &self.pages[idx];
            page.all_paths()
                .into_iter()
                .find(|p| {
                    p.split_once('?').is_some_and(|(b, q)| {
                        path_and_query.split_once('?').is_some_and(|(rb, rq)| {
                            b == rb
                                && permadead_url::canonical_query(q)
                                    == permadead_url::canonical_query(rq)
                        })
                    })
                })
                .map(|p| (page, p.to_string()))
        } else {
            None
        };
        match resolved.and_then(|(p, key)| p.view_at(&key, t).map(|v| (p, v))) {
            Some((page, PathView::Live)) => {
                let nonce = t.as_unix() as u64;
                Response::ok(page_html(page, self.id, t, content, nonce))
            }
            Some((page, PathView::Redirects { to_path })) => {
                let to = Url::parse(&format!("http://{}{}", self.host, to_path))
                    .expect("valid redirect target");
                let _ = page;
                Response::redirect(StatusCode::MOVED_PERMANENTLY, to)
            }
            Some((_, PathView::Stale)) | Some((_, PathView::Deleted)) | None => {
                self.serve_unknown(path_and_query, t)
            }
        }
    }

    fn serve_unknown(&self, _path: &str, t: SimTime) -> Response {
        match self.policy_at(t) {
            UnknownPathPolicy::NotFound => Response::not_found(),
            UnknownPathPolicy::Gone => Response::status_only(StatusCode::GONE),
            UnknownPathPolicy::Soft404 => Response::ok(soft404_body(&self.host)),
            UnknownPathPolicy::RedirectHome => Response::redirect(
                StatusCode::FOUND,
                Url::parse(&format!("http://{}/", self.host)).unwrap(),
            ),
            UnknownPathPolicy::RedirectLogin => Response::redirect(
                StatusCode::FOUND,
                Url::parse(&format!("http://{}/login", self.host)).unwrap(),
            ),
        }
    }

    fn render_page_body(&self, key: &str, t: SimTime, content: &ContentGen) -> String {
        let full_key = format!("site{}:{key}", self.id.0);
        let title = content.title(&full_key);
        let body = content.body(&full_key, 14, t.as_unix() as u64);
        permadead_text::render_page(&title, &[&body])
    }
}

fn page_html(page: &Page, site: SiteId, t: SimTime, content: &ContentGen, nonce: u64) -> String {
    let key = page.content_key(site.0);
    let title = content.title(&key);
    let body = content.body(&key, 18, nonce ^ t.as_unix() as u64);
    permadead_text::render_page(&title, &[&body])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageEvent;
    use permadead_text::shingle_similarity;

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 1, 1)
    }

    fn gen() -> ContentGen {
        ContentGen::new(77)
    }

    fn site(policy: UnknownPathPolicy) -> Site {
        let mut s = Site::new(
            SiteId(5),
            "news.example.org",
            SiteLifecycle::active_from(t(2005)),
            policy,
        );
        let mut p = Page::new(PageId(1), t(2008), "/stories/a.html");
        p.push_event(t(2015), PageEvent::Moved { to_path: "/archive/a.html".into() });
        s.add_page(p);
        s.add_page(Page::new(PageId(2), t(2009), "/stories/b.html"));
        s
    }

    #[test]
    fn live_page_serves_200_content() {
        let s = site(UnknownPathPolicy::NotFound);
        let r = s.serve("/stories/b.html", t(2012), &gen());
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.contains("<html>"));
    }

    #[test]
    fn moved_page_404s_at_old_path() {
        let s = site(UnknownPathPolicy::NotFound);
        assert_eq!(s.serve("/stories/a.html", t(2016), &gen()).status, StatusCode::NOT_FOUND);
        assert_eq!(s.serve("/archive/a.html", t(2016), &gen()).status, StatusCode::OK);
    }

    #[test]
    fn content_survives_the_move() {
        let s = site(UnknownPathPolicy::NotFound);
        let before = s.serve("/stories/a.html", t(2014), &gen()).body;
        let after = s.serve("/archive/a.html", t(2016), &gen()).body;
        assert!(
            shingle_similarity(&before, &after, 5) > 0.95,
            "same page should keep its prose across the move"
        );
    }

    #[test]
    fn soft404_policy_serves_200_template() {
        let s = site(UnknownPathPolicy::Soft404);
        let r = s.serve("/no/such/path", t(2012), &gen());
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.contains("could not find"));
        // crucial property: identical for different paths
        let r2 = s.serve("/different/path", t(2012), &gen());
        assert_eq!(r.body, r2.body);
    }

    #[test]
    fn redirect_home_policy() {
        let s = site(UnknownPathPolicy::RedirectHome);
        let r = s.serve("/no/such/path", t(2012), &gen());
        assert_eq!(r.status, StatusCode::FOUND);
        assert_eq!(r.location.unwrap().to_string(), "http://news.example.org/");
    }

    #[test]
    fn redirect_login_policy_and_login_wall() {
        let s = site(UnknownPathPolicy::RedirectLogin);
        let r = s.serve("/private/thing", t(2012), &gen());
        assert_eq!(r.status, StatusCode::FOUND);
        let login = r.location.unwrap();
        assert_eq!(login.path(), "/login");
        let wall = s.serve("/login", t(2012), &gen());
        assert_eq!(wall.status, StatusCode::OK);
        assert!(wall.body.contains("Sign in"));
    }

    #[test]
    fn parked_site_serves_lander_everywhere() {
        let mut s = site(UnknownPathPolicy::NotFound);
        s.lifecycle = s.lifecycle.parked_at(t(2018));
        let r = s.serve("/stories/b.html", t(2019), &gen());
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.body.contains("for sale"));
        // before parking it worked normally
        assert!(s.serve("/stories/b.html", t(2017), &gen()).body.contains("<html>"));
        assert!(!s.serve("/stories/b.html", t(2017), &gen()).body.contains("for sale"));
    }

    #[test]
    fn root_serves_homepage() {
        let s = site(UnknownPathPolicy::NotFound);
        assert_eq!(s.serve("/", t(2012), &gen()).status, StatusCode::OK);
    }

    #[test]
    fn gone_policy() {
        let s = site(UnknownPathPolicy::Gone);
        assert_eq!(s.serve("/nope", t(2012), &gen()).status, StatusCode::GONE);
    }

    #[test]
    fn before_founding_503() {
        let s = site(UnknownPathPolicy::NotFound);
        assert_eq!(s.serve("/stories/b.html", t(2001), &gen()).status, StatusCode::SERVICE_UNAVAILABLE);
    }

    #[test]
    fn redirect_after_move_serves_301() {
        let mut s = Site::new(
            SiteId(6),
            "fishman.example",
            SiteLifecycle::active_from(t(2005)),
            UnknownPathPolicy::NotFound,
        );
        let mut p = Page::new(PageId(1), t(2008), "/artists/steve");
        p.push_event(t(2016), PageEvent::Moved { to_path: "/portfolio/steve".into() });
        p.push_event(t(2020), PageEvent::RedirectAdded);
        s.add_page(p);
        // 2017: moved, no redirect yet → 404 (IABot would mark it dead)
        assert_eq!(s.serve("/artists/steve", t(2017), &gen()).status, StatusCode::NOT_FOUND);
        // 2022: redirect exists → 301 to the new home (the revival)
        let r = s.serve("/artists/steve", t(2022), &gen());
        assert_eq!(r.status, StatusCode::MOVED_PERMANENTLY);
        assert_eq!(r.location.unwrap().path(), "/portfolio/steve");
    }

    #[test]
    #[should_panic(expected = "duplicate path")]
    fn duplicate_paths_rejected() {
        let mut s = site(UnknownPathPolicy::NotFound);
        s.add_page(Page::new(PageId(9), t(2010), "/stories/b.html"));
    }

    #[test]
    fn policy_change_over_time() {
        // honest 404 era, then a redesign serving soft-404s — the §3
        // "tagged dead then 200 today" mechanism
        let mut s = site(UnknownPathPolicy::NotFound);
        s.change_policy(t(2019), UnknownPathPolicy::Soft404);
        assert_eq!(s.serve("/gone", t(2016), &gen()).status, StatusCode::NOT_FOUND);
        let late = s.serve("/gone", t(2020), &gen());
        assert_eq!(late.status, StatusCode::OK);
        assert!(late.body.contains("could not find"));
        assert_eq!(s.policy_at(t(2016)), UnknownPathPolicy::NotFound);
        assert_eq!(s.policy_at(t(2020)), UnknownPathPolicy::Soft404);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_policy_change_panics() {
        let mut s = site(UnknownPathPolicy::NotFound);
        s.change_policy(t(2019), UnknownPathPolicy::Soft404);
        s.change_policy(t(2018), UnknownPathPolicy::NotFound);
    }

    #[test]
    fn query_param_order_is_insensitive() {
        let mut s = Site::new(
            SiteId(9),
            "dyn.example",
            SiteLifecycle::active_from(t(2005)),
            UnknownPathPolicy::NotFound,
        );
        s.add_page(Page::new(PageId(1), t(2006), "/cgi/story.asp?id=7&view=full"));
        // canonical spelling answers
        assert_eq!(
            s.serve("/cgi/story.asp?id=7&view=full", t(2010), &gen()).status,
            StatusCode::OK
        );
        // permuted parameters answer the same page
        let permuted = s.serve("/cgi/story.asp?view=full&id=7", t(2010), &gen());
        assert_eq!(permuted.status, StatusCode::OK);
        // a changed value does not
        assert_eq!(
            s.serve("/cgi/story.asp?view=full&id=8", t(2010), &gen()).status,
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn url_of_tracks_moves() {
        let s = site(UnknownPathPolicy::NotFound);
        let p = s.page(PageId(1)).unwrap();
        assert_eq!(s.url_of(p, t(2012)).to_string(), "http://news.example.org/stories/a.html");
        assert_eq!(s.url_of(p, t(2016)).to_string(), "http://news.example.org/archive/a.html");
    }
}
