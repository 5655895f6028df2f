//! SURT — Sort-friendly URI Reordering Transform.
//!
//! Wayback-style CDX indices key snapshots by SURT: the hostname with its
//! labels reversed and comma-joined, followed by the path and query, e.g.
//!
//! `http://www.example.org/a/b?x=1` → `org,example,www)/a/b?x=1`
//!
//! Reversing the host makes a lexicographic sort group URLs by registrable
//! domain, then host, then directory — which is exactly what makes the CDX
//! prefix/host queries of §4.2 and §5.2 efficient range scans.
//!
//! Our SURT form canonicalizes scheme away (http and https collapse, as the
//! real Wayback CDX does) and drops fragments, but keeps query strings. The
//! path and query are normalized as [`normalize()`](crate::normalize()) does,
//! in the same pass that writes the key.

use crate::normalize::{push_normalized_path, push_percent_normalized};
use crate::parse::Url;
use std::fmt::Write as _;

/// The SURT form of just a hostname: labels reversed, comma-joined.
///
/// ```
/// use permadead_url::surt_host;
/// assert_eq!(surt_host("www.example.org"), "org,example,www");
/// ```
pub fn surt_host(host: &str) -> String {
    let mut s = String::with_capacity(host.len());
    push_surt_host(&mut s, host);
    s
}

fn push_surt_host(s: &mut String, host: &str) {
    for (i, label) in host.trim_end_matches('.').rsplit('.').enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(label);
    }
}

/// `reversed,host[:port])` then the normalized path: the part the full key
/// and the directory prefix share.
fn host_and_path(url: &Url, extra: usize) -> String {
    let mut s = String::with_capacity(url.host().len() + url.path().len() + extra + 8);
    push_surt_host(&mut s, url.host());
    if let Some(p) = url.explicit_port() {
        let _ = write!(s, ":{p}");
    }
    s.push(')');
    push_normalized_path(&mut s, url.path());
    s
}

/// The full SURT key of a URL: `reversed,host)/path?query`, normalized and
/// scheme-free.
///
/// ```
/// use permadead_url::{Url, surt};
/// let u = Url::parse("https://News.Example.org/a/b.html?x=1#frag").unwrap();
/// assert_eq!(surt(&u), "org,example,news)/a/b.html?x=1");
/// ```
pub fn surt(url: &Url) -> String {
    let query = url.query().filter(|q| !q.is_empty());
    let mut s = host_and_path(url, query.map_or(0, |q| q.len() + 1));
    if let Some(q) = query {
        s.push('?');
        push_percent_normalized(&mut s, q);
    }
    s
}

/// SURT prefix that matches everything in the same directory as `url`
/// (the paper's "same prefix until the last '/'").
pub fn surt_directory_prefix(url: &Url) -> String {
    let mut s = host_and_path(url, 0);
    // the normalized path starts with '/', and no host holds one
    let cut = s.rfind('/').expect("a normalized path starts with '/'");
    s.truncate(cut + 1);
    s
}

/// SURT prefix that matches every URL under a hostname.
pub fn surt_host_prefix(host: &str) -> String {
    let mut s = String::with_capacity(host.len() + 1);
    push_surt_host(&mut s, host);
    s.push(')');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use proptest::prelude::*;

    /// Normalization and the SURT key as first written: normalize the
    /// whole URL into a new `Url`, then read the key off it. The one-pass
    /// [`surt`], [`surt_directory_prefix`] and [`normalize`] must agree
    /// with it everywhere.
    mod oracle {
        use crate::parse::Url;

        pub fn normalize(url: &Url) -> Url {
            let path = normalize_path(url.path());
            let query = match url.query() {
                Some("") | None => None,
                Some(q) => Some(normalize_percent(q)),
            };
            url.with_path(&path).with_query(query.as_deref())
        }

        fn normalize_path(path: &str) -> String {
            let collapsed = normalize_percent(path);
            let mut out: Vec<&str> = Vec::new();
            for seg in collapsed.split('/') {
                match seg {
                    "" | "." => {}
                    ".." => {
                        out.pop();
                    }
                    s => out.push(s),
                }
            }
            let mut s = String::with_capacity(collapsed.len());
            for seg in &out {
                s.push('/');
                s.push_str(seg);
            }
            if s.is_empty() {
                s.push('/');
            }
            if collapsed.len() > 1 && collapsed.ends_with('/') && !s.ends_with('/') {
                s.push('/');
            }
            s
        }

        fn normalize_percent(s: &str) -> String {
            let bytes = s.as_bytes();
            let mut out = String::with_capacity(s.len());
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i] == b'%' {
                    if let (Some(h), Some(l)) = (
                        bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                        bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                    ) {
                        let v = (h * 16 + l) as u8;
                        if v.is_ascii_alphanumeric() || matches!(v, b'-' | b'.' | b'_' | b'~') {
                            out.push(v as char);
                        } else {
                            out.push('%');
                            out.push(char::from_digit(h, 16).unwrap().to_ascii_uppercase());
                            out.push(char::from_digit(l, 16).unwrap().to_ascii_uppercase());
                        }
                        i += 3;
                        continue;
                    }
                }
                out.push(bytes[i] as char);
                i += 1;
            }
            out
        }

        /// `reversed,host[:port])` of an already normalized URL.
        fn host_key(url: &Url) -> String {
            let mut labels: Vec<&str> = url.host().trim_end_matches('.').split('.').collect();
            labels.reverse();
            let mut s = labels.join(",");
            if let Some(p) = url.explicit_port() {
                s.push(':');
                s.push_str(&p.to_string());
            }
            s.push(')');
            s
        }

        pub fn surt(url: &Url) -> String {
            let url = normalize(url);
            let mut s = host_key(&url);
            s.push_str(url.path());
            if let Some(q) = url.query() {
                s.push('?');
                s.push_str(q);
            }
            s
        }

        pub fn surt_directory_prefix(url: &Url) -> String {
            let url = normalize(url);
            let path = url.path();
            let cut = path.rfind('/').map(|i| i + 1).unwrap_or(path.len());
            let mut s = host_key(&url);
            s.push_str(&path[..cut]);
            s
        }
    }

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn host_reversal() {
        assert_eq!(surt_host("example.org"), "org,example");
        assert_eq!(surt_host("a.b.c.example.co.uk"), "uk,co,example,c,b,a");
        assert_eq!(surt_host("localhost"), "localhost");
    }

    #[test]
    fn schemes_collapse() {
        assert_eq!(surt(&u("http://e.org/a")), surt(&u("https://e.org/a")));
    }

    #[test]
    fn fragment_dropped_query_kept() {
        assert_eq!(surt(&u("http://e.org/a?x=1#f")), "org,e)/a?x=1");
    }

    #[test]
    fn port_kept_when_non_default() {
        assert_eq!(surt(&u("http://e.org:8080/a")), "org,e:8080)/a");
        assert_eq!(surt(&u("http://e.org:80/a")), "org,e)/a");
    }

    #[test]
    fn directory_prefix_is_a_prefix_of_members() {
        let dir = surt_directory_prefix(&u("http://e.org/news/2014/story.html"));
        assert_eq!(dir, "org,e)/news/2014/");
        assert!(surt(&u("http://e.org/news/2014/other.html")).starts_with(&dir));
        assert!(!surt(&u("http://e.org/news/other.html")).starts_with(&dir));
    }

    #[test]
    fn host_prefix_matches_all_paths_but_not_subdomain_cousins() {
        let hp = surt_host_prefix("e.org");
        assert!(surt(&u("http://e.org/any/thing?q=1")).starts_with(&hp));
        // sibling host "ee.org" must not match
        assert!(!surt(&u("http://ee.org/x")).starts_with(&hp));
        // subdomain "a.e.org" sorts under "org,e," not "org,e)" — also no match
        assert!(!surt(&u("http://a.e.org/x")).starts_with(&hp));
    }

    #[test]
    fn sort_groups_hosts_by_domain() {
        let mut keys = [
            surt(&u("http://z-unrelated.com/a")),
            surt(&u("http://www.example.org/x")),
            surt(&u("http://example.org/y")),
            surt(&u("http://mail.example.org/z")),
        ];
        keys.sort();
        // the three example.org hosts must be adjacent after sorting
        let pos: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.starts_with("org,example"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(pos.len(), 3);
        assert!(pos.windows(2).all(|w| w[1] == w[0] + 1), "not adjacent: {pos:?}");
    }

    proptest! {
        #[test]
        fn surt_deterministic_and_normalized(
            host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,3}",
            path in "(/[a-z0-9]{1,6}){0,4}",
        ) {
            let a = u(&format!("http://{host}{path}"));
            let b = u(&format!("HTTPS://{}{path}#frag", host.to_uppercase()));
            prop_assert_eq!(surt(&a), surt(&b));
        }

        #[test]
        fn directory_prefix_always_prefixes_surt(
            host in "[a-z]{1,8}\\.[a-z]{2,3}",
            path in "(/[a-z0-9]{1,6}){1,4}",
        ) {
            let url = u(&format!("http://{host}{path}"));
            prop_assert!(surt(&url).starts_with(&surt_directory_prefix(&url)));
        }
    }

    proptest! {
        /// The one-pass key equals normalize-then-build for every URL
        /// shape normalization touches: case, ports, empty and trailing-dot
        /// hosts' labels, escapes (valid, lowercase, unreserved, reserved,
        /// malformed, truncated), dot segments, doubled and trailing
        /// slashes, empty and non-empty queries, fragments, and non-ASCII.
        #[test]
        fn one_pass_surt_matches_normalize_then_build(
            scheme in "(http|HTTPS|hTTp)",
            host in "[a-zA-Z0-9),-]{1,6}(\\.[a-z0-9-]{0,5}){0,3}\\.?",
            port in "(|:80|:443|:8080|:1)",
            path in "(/|//|/\\.|/\\.\\.|/%2[eE]|/%2[fF]|/%[0-9a-fA-F]{2}|/%[g-z]{1,2}|/%|/[a-z~._-]{1,4}|/ü|/\\.\\.[a-z]){0,6}/?",
            query in "(|\\?|\\?[a-z=&]{1,6}|\\?%[0-9a-f]{2}[a-z]?|\\?x=%|\\?ü)",
            fragment in "(|#|#f|#a/b)",
        ) {
            let raw = format!("{scheme}://{host}{port}{path}{query}{fragment}");
            let Ok(url) = Url::parse(&raw) else {
                return Ok(());
            };
            prop_assert_eq!(surt(&url), oracle::surt(&url), "{}", raw);
            prop_assert_eq!(surt_directory_prefix(&url), oracle::surt_directory_prefix(&url), "{}", raw);
            prop_assert_eq!(normalize(&url), oracle::normalize(&url), "{}", raw);
        }
    }
}
