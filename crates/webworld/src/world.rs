//! The assembled live web: DNS + sites + faults, implementing
//! [`permadead_net::Network`].

use crate::rank::RankTable;
use crate::site::{Site, SiteId};
use permadead_net::fault::Fault;
use permadead_net::{FetchError, Request, Response, SimTime, StaticDns, StatusCode};
use permadead_text::ContentGen;
use permadead_url::Url;
use std::collections::HashMap;

/// The whole simulated web.
#[derive(Debug)]
pub struct LiveWeb {
    sites: HashMap<SiteId, Site>,
    pub dns: StaticDns,
    pub ranks: RankTable,
    content: ContentGen,
    /// Request accounting (the measurement-cost side of every experiment).
    pub metrics: permadead_net::NetMetrics,
}

impl LiveWeb {
    pub fn new(seed: u64) -> Self {
        LiveWeb {
            sites: HashMap::new(),
            dns: StaticDns::new(),
            ranks: RankTable::new(1_000_000),
            content: ContentGen::new(seed),
            metrics: permadead_net::NetMetrics::new(),
        }
    }

    /// Add a site whose DNS is active for all time. Generators with richer
    /// DNS lifecycles insert their own timelines via [`LiveWeb::dns`].
    pub fn add_site(&mut self, site: Site) {
        self.dns.insert_active(&site.host, site.id.0);
        self.sites.insert(site.id, site);
    }

    /// Add a site *without* touching DNS (caller installs the timeline).
    pub fn add_site_raw(&mut self, site: Site) {
        self.sites.insert(site.id, site);
    }

    pub fn site(&self, id: SiteId) -> Option<&Site> {
        self.sites.get(&id)
    }

    pub fn site_mut(&mut self, id: SiteId) -> Option<&mut Site> {
        self.sites.get_mut(&id)
    }

    pub fn site_by_host(&self, host: &str, t: SimTime) -> Option<&Site> {
        let rec = self.dns.resolve(host, t).ok()?;
        self.sites.get(&SiteId(rec.origin_id))
    }

    pub fn sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.values()
    }

    pub fn content(&self) -> &ContentGen {
        &self.content
    }

    /// Structural invariant check, for world-generation tests: every page
    /// path forms a valid URL on its host, every site's host is lowercase,
    /// and page IDs are unique per site. Returns the list of violations
    /// (empty = consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for site in self.sites.values() {
            if site.host != site.host.to_ascii_lowercase() {
                problems.push(format!("host not lowercase: {}", site.host));
            }
            let mut ids = std::collections::HashSet::new();
            for page in site.pages() {
                if !ids.insert(page.id) {
                    problems.push(format!("duplicate page id {:?} on {}", page.id, site.host));
                }
                for path in page.all_paths() {
                    if Url::parse(&format!("http://{}{}", site.host, path)).is_err() {
                        problems.push(format!("unparseable page URL: {}{}", site.host, path));
                    }
                }
            }
        }
        problems
    }
}

impl permadead_net::Network for LiveWeb {
    fn request(&self, req: &Request) -> Result<Response, FetchError> {
        let outcome = self.request_inner(req);
        self.metrics.record(&outcome);
        outcome
    }
}

impl LiveWeb {
    fn request_inner(&self, req: &Request) -> Result<Response, FetchError> {
        // 1. DNS
        let record = self
            .dns
            .resolve(req.url.host(), req.time)
            .map_err(FetchError::Dns)?;
        // 2. the origin the record points at (a record for a vanished origin
        //    is a dangling zone — connection will time out)
        let Some(site) = self.sites.get(&SiteId(record.origin_id)) else {
            return Err(FetchError::ConnectTimeout);
        };
        // 3. faults (geo-blocking, transient outages) fire before app logic
        if let Some(fault) = site
            .faults
            .check_attempt(&req.url.to_string(), req.vantage, req.time, req.attempt)
        {
            // 429/503 carry the origin's honest Retry-After (how long until
            // the budget resets / the outage window ends), which the retry
            // policies honor end-to-end
            let with_hint = |resp: Response| match site.faults.retry_after_secs(fault, req.time) {
                Some(secs) => resp.with_header("Retry-After", secs.to_string()),
                None => resp,
            };
            return match fault {
                Fault::ConnectTimeout => Err(FetchError::ConnectTimeout),
                Fault::Unavailable => {
                    Ok(with_hint(Response::status_only(StatusCode::SERVICE_UNAVAILABLE)))
                }
                Fault::GeoBlocked => Ok(Response::status_only(StatusCode::FORBIDDEN)),
                Fault::RateLimited => {
                    Ok(with_hint(Response::status_only(StatusCode::TOO_MANY_REQUESTS)))
                }
            };
        }
        // 4. the origin answers
        Ok(site.serve(&req.url.path_and_query(), req.time, &self.content))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Page, PageEvent, PageId};
    use crate::site::{SiteLifecycle, UnknownPathPolicy};
    use permadead_net::dns::{HostState, HostTimeline};
    use permadead_net::fault::FaultProfile;
    use permadead_net::http::Vantage;
    use permadead_net::{Client, LiveStatus};

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 15)
    }

    fn build_world() -> LiveWeb {
        let mut web = LiveWeb::new(1234);

        // a healthy site with a page that moves and later gets a redirect
        let mut good = Site::new(
            SiteId(1),
            "alive.example.org",
            SiteLifecycle::active_from(t(2004)),
            UnknownPathPolicy::NotFound,
        );
        let mut p = Page::new(PageId(1), t(2008), "/artists/steve");
        p.push_event(t(2016), PageEvent::Moved { to_path: "/portfolio/steve".into() });
        p.push_event(t(2020), PageEvent::RedirectAdded);
        good.add_page(p);
        good.add_page(Page::new(PageId(2), t(2009), "/about.html"));
        web.add_site(good);

        // a site whose domain lapses in 2018
        let mut dying = Site::new(
            SiteId(2),
            "dying.example.net",
            SiteLifecycle::active_from(t(2004)),
            UnknownPathPolicy::NotFound,
        );
        dying.add_page(Page::new(PageId(1), t(2007), "/story.html"));
        let mut tl = HostTimeline::new();
        tl.push(t(2004), HostState::Active { origin_id: 2 });
        tl.push(t(2018), HostState::Lapsed);
        web.dns.insert("dying.example.net", tl);
        web.add_site_raw(dying);

        // a geo-blocking site
        let geo = Site::new(
            SiteId(3),
            "geo.example.com",
            SiteLifecycle::active_from(t(2004)),
            UnknownPathPolicy::NotFound,
        )
        .with_faults(FaultProfile::none(3).with_geo_block(&[Vantage::UsEducation]));
        web.add_site(geo);

        web
    }

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn end_to_end_revival() {
        let web = build_world();
        let client = Client::new();
        let url = u("http://alive.example.org/artists/steve");
        // live originally
        assert_eq!(client.get(&web, &url, t(2012)).live_status(), LiveStatus::Ok);
        // broken after the move (this is when IABot would mark it)
        assert_eq!(client.get(&web, &url, t(2018)).live_status(), LiveStatus::NotFound);
        // revived once the redirect appears (this is the paper's 3%)
        let rec = client.get(&web, &url, t(2022));
        assert_eq!(rec.live_status(), LiveStatus::Ok);
        assert!(rec.was_redirected());
        assert_eq!(rec.final_url().unwrap().path(), "/portfolio/steve");
    }

    #[test]
    fn lapsed_domain_is_dns_failure() {
        let web = build_world();
        let client = Client::new();
        let url = u("http://dying.example.net/story.html");
        assert_eq!(client.get(&web, &url, t(2015)).live_status(), LiveStatus::Ok);
        assert_eq!(
            client.get(&web, &url, t(2020)).live_status(),
            LiveStatus::DnsFailure
        );
    }

    #[test]
    fn geo_block_depends_on_vantage() {
        let web = build_world();
        let url = u("http://geo.example.com/");
        let us = Client::new().with_vantage(Vantage::UsEducation);
        let eu = Client::new().with_vantage(Vantage::Europe);
        assert_eq!(us.get(&web, &url, t(2022)).live_status(), LiveStatus::Other);
        assert_eq!(eu.get(&web, &url, t(2022)).live_status(), LiveStatus::Ok);
    }

    #[test]
    fn fault_responses_carry_retry_after() {
        let mut web = build_world();
        web.site_mut(SiteId(1)).unwrap().faults = FaultProfile::none(5).with_daily_rate_limit(0);
        let rec = Client::new().get(&web, &u("http://alive.example.org/about.html"), t(2022));
        assert_eq!(rec.outcome, Ok(permadead_net::StatusCode::TOO_MANY_REQUESTS));
        // t(2022) is midnight UTC: a full day to the reset, capped at 30s
        assert_eq!(
            rec.retry_after_ms,
            Some(permadead_net::fault::MAX_RETRY_AFTER_SECS * 1_000)
        );
    }

    #[test]
    fn unknown_host_dns_failure() {
        let web = build_world();
        let rec = Client::new().get(&web, &u("http://never-registered.example/x"), t(2022));
        assert_eq!(rec.live_status(), LiveStatus::DnsFailure);
    }

    #[test]
    fn site_by_host_respects_time() {
        let web = build_world();
        assert!(web.site_by_host("dying.example.net", t(2015)).is_some());
        assert!(web.site_by_host("dying.example.net", t(2020)).is_none());
    }

    #[test]
    fn fetch_is_deterministic() {
        let web = build_world();
        let client = Client::new();
        let url = u("http://alive.example.org/about.html");
        let a = client.get(&web, &url, t(2019));
        let b = client.get(&web, &url, t(2019));
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.body, b.body);
    }
}
