//! Archived snapshots.
//!
//! A snapshot records what the crawler saw when it requested a URL once,
//! *without* following redirects — that is how Wayback CDX entries work, and
//! it is why the paper can distinguish "archived copy with initial status
//! 200" from "archived copy that was a redirect" (§4).

use permadead_net::{SimTime, StatusCode};
use permadead_text::MinHashSketch;
use permadead_url::Url;

/// Coarse classification of a snapshot's stored content. Real archives store
/// bytes; we store a content sketch plus this label derived *mechanically*
/// from the response (not from world ground truth): the crawler knows only
/// what an archive would — status code, body, redirect target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyClass {
    /// A 2xx body was stored.
    Content,
    /// No body: the response was a redirect.
    Redirect,
    /// No body worth storing: an error status.
    Error,
}

/// One capture of one URL.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The URL as requested.
    pub url: Url,
    /// SURT key (computed once at insert).
    pub surt: String,
    /// Capture instant.
    pub captured: SimTime,
    /// Status code of the *first* response — the paper's "initial status".
    pub initial_status: StatusCode,
    /// Redirect target if `initial_status` is 3xx. Boxed: a `Url` is 104
    /// bytes and only redirect rows have one.
    pub redirect_target: Option<Box<Url>>,
    /// What kind of content was stored.
    pub body_class: BodyClass,
    /// Sketch of the stored body (meaningful for `Content`; a sketch of the
    /// empty string otherwise).
    pub sketch: MinHashSketch,
    /// `<title>` of the stored body, or empty — the durable lexical
    /// signature the rediscovery rescue queries with. Real CDX rows carry
    /// this too (the Wayback `urlkey`/`original` metadata includes titles
    /// for indexed HTML).
    pub title: String,
}

impl Snapshot {
    /// Build a snapshot from a single-hop observation.
    pub fn from_observation(
        url: &Url,
        captured: SimTime,
        status: StatusCode,
        redirect_target: Option<Url>,
        body: &str,
    ) -> Snapshot {
        let body_class = if status.is_redirect() {
            BodyClass::Redirect
        } else if status.is_success() {
            BodyClass::Content
        } else {
            BodyClass::Error
        };
        Snapshot {
            url: url.clone(),
            surt: permadead_url::surt(url),
            captured,
            initial_status: status,
            redirect_target: redirect_target.map(Box::new),
            body_class,
            sketch: MinHashSketch::of(body, 5),
            title: permadead_text::html::extract_title(body).unwrap_or_default(),
        }
    }

    /// Is this the kind of copy IABot trusts: initial status exactly 200?
    /// (§4: "IABot marks a broken link as permanently dead if it finds no
    /// archived copy for the link where the initial status code was 200.")
    pub fn is_initial_200(&self) -> bool {
        self.initial_status == StatusCode::OK
    }

    /// Is this copy a recorded redirection (the §4.2 population)?
    pub fn is_redirect(&self) -> bool {
        self.initial_status.is_redirect()
    }

    /// Status-code family digit (2, 3, 4, 5) — the CDX filter granularity.
    pub fn status_family(&self) -> u16 {
        self.initial_status.as_u16() / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t() -> SimTime {
        SimTime::from_ymd(2014, 5, 1)
    }

    #[test]
    fn classify_content() {
        let s = Snapshot::from_observation(&u("http://e.org/a"), t(), StatusCode::OK, None, "body text here");
        assert_eq!(s.body_class, BodyClass::Content);
        assert!(s.is_initial_200());
        assert!(!s.is_redirect());
        assert_eq!(s.status_family(), 2);
    }

    #[test]
    fn classify_redirect() {
        let s = Snapshot::from_observation(
            &u("http://e.org/old"),
            t(),
            StatusCode::MOVED_PERMANENTLY,
            Some(u("http://e.org/new")),
            "",
        );
        assert_eq!(s.body_class, BodyClass::Redirect);
        assert!(s.is_redirect());
        assert!(!s.is_initial_200());
        assert_eq!(s.redirect_target.as_ref().unwrap().path(), "/new");
        assert_eq!(s.status_family(), 3);
    }

    #[test]
    fn classify_error() {
        let s = Snapshot::from_observation(&u("http://e.org/x"), t(), StatusCode::NOT_FOUND, None, "");
        assert_eq!(s.body_class, BodyClass::Error);
        assert_eq!(s.status_family(), 4);
    }

    #[test]
    fn surt_computed() {
        let s = Snapshot::from_observation(&u("http://www.e.org/a?x=1"), t(), StatusCode::OK, None, "b");
        assert_eq!(s.surt, "org,e,www)/a?x=1");
    }

    #[test]
    fn title_extracted_from_content_body() {
        let body = "<html><head><title>Steve: Selected Works</title></head><body>x</body></html>";
        let s = Snapshot::from_observation(&u("http://e.org/a"), t(), StatusCode::OK, None, body);
        assert_eq!(s.title, "Steve: Selected Works");
        let bare = Snapshot::from_observation(&u("http://e.org/b"), t(), StatusCode::OK, None, "no markup");
        assert_eq!(bare.title, "");
    }

    #[test]
    fn sketches_compare() {
        let a = Snapshot::from_observation(&u("http://e.org/a"), t(), StatusCode::OK, None, "identical template body");
        let b = Snapshot::from_observation(&u("http://e.org/b"), t(), StatusCode::OK, None, "identical template body");
        assert!(a.sketch.same_body(&b.sketch));
    }
}
