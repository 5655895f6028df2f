//! URL normalization.
//!
//! Two spellings of the same resource must compare equal before any grouping
//! or dataset-join step: the wiki stores what editors typed, the archive
//! stores what its crawler fetched, and the live web serves what the origin
//! canonicalizes to. Normalization is deliberately conservative — it only
//! applies transformations that never change which resource is addressed:
//!
//! - lowercase scheme and host (done by the parser already);
//! - drop default ports (done by the parser);
//! - drop fragments;
//! - collapse duplicate slashes in the path (`//a///b` → `/a/b`);
//! - resolve `.` and `..` path segments;
//! - uppercase percent-encoding hex digits (`%3a` → `%3A`);
//! - decode percent-encoded unreserved characters (`%41` → `A`);
//! - drop a lone trailing `?`.
//!
//! It does **not** reorder query parameters (order is semantically visible to
//! some servers; the order-insensitive comparison lives in [`crate::query`]),
//! strip `www.`, or touch trailing slashes (both change the resource on many
//! real sites).

use crate::parse::Url;

/// Normalize a URL per the rules above.
pub fn normalize(url: &Url) -> Url {
    let mut path = String::with_capacity(url.path().len());
    push_normalized_path(&mut path, url.path());
    let query = url.query().filter(|q| !q.is_empty()).map(|q| {
        let mut s = String::with_capacity(q.len());
        push_percent_normalized(&mut s, q);
        s
    });
    // with_path/with_query drop query and fragment respectively, so the
    // rebuild order matters: path first, then re-attach the query.
    url.with_path(&path).with_query(query.as_deref())
}

/// Append `path` with duplicate slashes collapsed, dot segments resolved
/// and percent escapes normalized. Always appends a path starting with `/`.
///
/// Escapes are normalized segment by segment as they are appended: an
/// escape never decodes to `/` (it is reserved), so the segments are the
/// raw path's, and a segment that decodes to `.` or `..` is taken back.
pub(crate) fn push_normalized_path(out: &mut String, path: &str) {
    let base = out.len();
    for raw in path.split('/') {
        let start = out.len();
        out.push('/');
        push_percent_normalized(out, raw);
        match &out[start + 1..] {
            "" | "." => out.truncate(start),
            ".." => {
                out.truncate(start);
                let parent = out[base..].rfind('/').map_or(base, |i| base + i);
                out.truncate(parent);
            }
            _ => {}
        }
    }
    if out.len() == base {
        out.push('/');
    }
    // preserve a trailing slash: it distinguishes a directory listing from a
    // file on most origins
    if path.ends_with('/') && !out.ends_with('/') {
        out.push('/');
    }
}

/// Append `s` with hex digits in percent escapes uppercased and unreserved
/// characters decoded. Every other byte is appended as the char of that
/// value, so a non-ASCII character comes out as one Latin-1 char per UTF-8
/// byte.
pub(crate) fn push_percent_normalized(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'%' || !b.is_ascii()) {
        out.push_str(s);
        return;
    }
    let bytes = s.as_bytes();
    let hex = |i: usize| bytes.get(i).and_then(|b| (*b as char).to_digit(16));
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(h), Some(l)) = (hex(i + 1), hex(i + 2)) {
                let v = (h * 16 + l) as u8;
                if is_unreserved(v) {
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
}

/// RFC 3986 unreserved characters: never need escaping.
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> String {
        normalize(&Url::parse(s).unwrap()).to_string()
    }

    #[test]
    fn drops_fragment() {
        assert_eq!(n("http://e.org/a#x"), "http://e.org/a");
    }

    #[test]
    fn collapses_slashes() {
        assert_eq!(n("http://e.org//a///b"), "http://e.org/a/b");
    }

    #[test]
    fn resolves_dot_segments() {
        assert_eq!(n("http://e.org/a/./b/../c"), "http://e.org/a/c");
        assert_eq!(n("http://e.org/../../x"), "http://e.org/x");
    }

    #[test]
    fn preserves_trailing_slash() {
        assert_eq!(n("http://e.org/dir/"), "http://e.org/dir/");
        assert_eq!(n("http://e.org/dir"), "http://e.org/dir");
    }

    #[test]
    fn percent_case_and_unreserved() {
        assert_eq!(n("http://e.org/%7euser/%3a"), "http://e.org/~user/%3A");
        assert_eq!(n("http://e.org/%41%42"), "http://e.org/AB");
    }

    #[test]
    fn empty_query_dropped_nonempty_kept() {
        assert_eq!(n("http://e.org/a?"), "http://e.org/a");
        assert_eq!(n("http://e.org/a?x=%3a"), "http://e.org/a?x=%3A");
    }

    #[test]
    fn does_not_reorder_query() {
        assert_eq!(n("http://e.org/a?b=2&a=1"), "http://e.org/a?b=2&a=1");
    }

    #[test]
    fn does_not_strip_www() {
        assert_eq!(n("http://www.e.org/"), "http://www.e.org/");
    }

    #[test]
    fn idempotent() {
        for s in [
            "http://E.org//a/../b/%7e?q=%41#f",
            "https://www.example.co.uk/x//y/./z/",
            "http://e.org/%zz-not-an-escape",
        ] {
            let once = normalize(&Url::parse(s).unwrap());
            let twice = normalize(&once);
            assert_eq!(once, twice, "{s}");
        }
    }

    #[test]
    fn malformed_escape_is_left_alone() {
        assert_eq!(n("http://e.org/%zz"), "http://e.org/%zz");
        assert_eq!(n("http://e.org/a%4"), "http://e.org/a%4");
    }
}
