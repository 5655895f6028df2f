//! CDX file serialization.
//!
//! Real Wayback deployments persist their index as sorted CDX text files —
//! one space-separated line per capture — which the CDX server range-scans.
//! We do the same: an [`ArchiveStore`] round-trips through a plain-text CDX
//! file, so worlds can be generated once and re-analyzed many times.
//!
//! Line format (ours, CDX-server-flavoured):
//!
//! ```text
//! <urlkey> <timestamp14> <original-url> <status> <redirect-target|-> <digest-hex> <empty-flag> <sketch-csv> <title|->
//! ```
//!
//! Fields never contain spaces (URLs with spaces don't parse into the store
//! in the first place, and titles are percent-encoded), so splitting on
//! spaces is unambiguous.

use crate::snapshot::{BodyClass, Snapshot};
use crate::store::ArchiveStore;
use permadead_net::{Duration, SimTime, StatusCode};
use permadead_text::sketch::SKETCH_SIZE;
use permadead_text::MinHashSketch;
use permadead_url::Url;
use std::fmt::Write as _;

/// Serialize the whole store, one line per snapshot, in SURT-then-time
/// order (the order the index iterates naturally).
pub fn to_cdx_string(store: &ArchiveStore) -> String {
    let mut out = String::new();
    for snap in store.scan_surt_prefix("") {
        write_line(&mut out, snap);
    }
    out
}

fn write_line(out: &mut String, snap: &Snapshot) {
    let ts = timestamp14(snap.captured);
    let redirect = snap
        .redirect_target
        .as_ref()
        .map(|u| u.to_string())
        .unwrap_or_else(|| "-".to_string());
    let sketch_csv = snap
        .sketch
        .mins()
        .iter()
        .map(|m| format!("{m:x}"))
        .collect::<Vec<_>>()
        .join(",");
    let _ = writeln!(
        out,
        "{} {} {} {} {} {:x} {} {} {}",
        snap.surt,
        ts,
        snap.url,
        snap.initial_status.as_u16(),
        redirect,
        snap.sketch.digest,
        u8::from(snap.sketch.empty),
        sketch_csv,
        encode_title(&snap.title),
    );
}

/// Percent-encode a title so it fits a space-separated line. Empty titles
/// serialize as `-` (the CDX "no value" convention).
fn encode_title(title: &str) -> String {
    if title.is_empty() {
        return "-".to_string();
    }
    let mut out = String::with_capacity(title.len());
    for b in title.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'.' | b'~' | b'!' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// Inverse of [`encode_title`]. `None` on malformed escapes or bad UTF-8.
fn decode_title(field: &str) -> Option<String> {
    if field == "-" {
        return Some(String::new());
    }
    let bytes = field.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Why a CDX line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdxParseError {
    /// Wrong number of fields.
    FieldCount { line: usize, got: usize },
    /// A field failed to parse (url, timestamp, status, digest…).
    BadField { line: usize, field: &'static str },
}

impl std::fmt::Display for CdxParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdxParseError::FieldCount { line, got } => {
                write!(f, "line {line}: expected 9 fields, got {got}")
            }
            CdxParseError::BadField { line, field } => {
                write!(f, "line {line}: bad {field} field")
            }
        }
    }
}

impl std::error::Error for CdxParseError {}

/// Parse a CDX dump back into a store. Empty lines and `#` comments are
/// skipped; any malformed line is an error (an archive index must not be
/// silently lossy). The rows are collected in one bulk build, which sorts
/// them into key order: one linear pass over a dump already in it.
pub fn from_cdx_string(text: &str) -> Result<ArchiveStore, CdxParseError> {
    let mut rows = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        if fields.len() != 9 {
            return Err(CdxParseError::FieldCount {
                line: line_no,
                got: fields.len(),
            });
        }
        let captured = parse_timestamp14(fields[1]).ok_or(CdxParseError::BadField {
            line: line_no,
            field: "timestamp",
        })?;
        let url = Url::parse(fields[2]).map_err(|_| CdxParseError::BadField {
            line: line_no,
            field: "url",
        })?;
        let status: u16 = fields[3].parse().map_err(|_| CdxParseError::BadField {
            line: line_no,
            field: "status",
        })?;
        let redirect_target = if fields[4] == "-" {
            None
        } else {
            Some(Box::new(Url::parse(fields[4]).map_err(|_| {
                CdxParseError::BadField {
                    line: line_no,
                    field: "redirect",
                }
            })?))
        };
        let digest = u64::from_str_radix(fields[5], 16).map_err(|_| CdxParseError::BadField {
            line: line_no,
            field: "digest",
        })?;
        let empty = fields[6] == "1";
        let mut mins = [0u64; SKETCH_SIZE];
        let parts: Vec<&str> = fields[7].split(',').collect();
        if parts.len() != SKETCH_SIZE {
            return Err(CdxParseError::BadField {
                line: line_no,
                field: "sketch",
            });
        }
        for (slot, part) in mins.iter_mut().zip(parts) {
            *slot = u64::from_str_radix(part, 16).map_err(|_| CdxParseError::BadField {
                line: line_no,
                field: "sketch",
            })?;
        }
        let status = StatusCode(status);
        let body_class = if status.is_redirect() {
            BodyClass::Redirect
        } else if status.is_success() {
            BodyClass::Content
        } else {
            BodyClass::Error
        };
        let title = decode_title(fields[8]).ok_or(CdxParseError::BadField {
            line: line_no,
            field: "title",
        })?;
        rows.push(Snapshot {
            url: url.clone(),
            surt: permadead_url::surt(&url),
            captured,
            initial_status: status,
            redirect_target,
            body_class,
            sketch: MinHashSketch::from_parts(mins, digest, empty),
            title,
        });
    }
    Ok(rows.into_iter().collect())
}

/// `yyyymmddhhmmss`, the Wayback timestamp format.
pub fn timestamp14(t: SimTime) -> String {
    let d = t.date();
    let secs = t.as_unix().rem_euclid(86_400);
    format!(
        "{:04}{:02}{:02}{:02}{:02}{:02}",
        d.year,
        d.month,
        d.day,
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

/// Parse a 14-digit Wayback timestamp.
pub fn parse_timestamp14(ts: &str) -> Option<SimTime> {
    if ts.len() != 14 || !ts.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let year: i32 = ts[0..4].parse().ok()?;
    let month: u32 = ts[4..6].parse().ok()?;
    let day: u32 = ts[6..8].parse().ok()?;
    let h: i64 = ts[8..10].parse().ok()?;
    let m: i64 = ts[10..12].parse().ok()?;
    let s: i64 = ts[12..14].parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) || h > 23 || m > 59 || s > 59 {
        return None;
    }
    Some(SimTime::from_ymd(year, month, day) + Duration::seconds(h * 3600 + m * 60 + s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn sample_store() -> ArchiveStore {
        let mut s = ArchiveStore::new();
        s.insert(Snapshot::from_observation(
            &u("http://e.org/a.html"),
            SimTime::from_ymd(2010, 5, 3) + Duration::hours(14),
            StatusCode::OK,
            None,
            "the page body with several words in it",
        ));
        s.insert(Snapshot::from_observation(
            &u("http://e.org/old"),
            SimTime::from_ymd(2014, 1, 1),
            StatusCode::MOVED_PERMANENTLY,
            Some(u("http://e.org/new")),
            "",
        ));
        s.insert(Snapshot::from_observation(
            &u("http://f.org/x?b=2&a=1"),
            SimTime::from_ymd(2016, 12, 31),
            StatusCode::NOT_FOUND,
            None,
            "",
        ));
        s
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = sample_store();
        let text = to_cdx_string(&store);
        let back = from_cdx_string(&text).unwrap();
        assert_eq!(back.len(), store.len());
        for (a, b) in store.scan_surt_prefix("").zip(back.scan_surt_prefix("")) {
            assert_eq!(a.url, b.url);
            assert_eq!(a.surt, b.surt);
            assert_eq!(a.captured, b.captured);
            assert_eq!(a.initial_status, b.initial_status);
            assert_eq!(a.redirect_target, b.redirect_target);
            assert_eq!(a.body_class, b.body_class);
            assert_eq!(a.sketch, b.sketch);
            assert_eq!(a.title, b.title);
        }
        // and the text itself is stable
        assert_eq!(to_cdx_string(&back), text);
    }

    #[test]
    fn lines_are_surt_sorted() {
        let text = to_cdx_string(&sample_store());
        let keys: Vec<&str> = text.lines().map(|l| l.split(' ').next().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = format!("# cdx dump\n\n{}", to_cdx_string(&sample_store()));
        assert_eq!(from_cdx_string(&text).unwrap().len(), 3);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(matches!(
            from_cdx_string("too few fields"),
            Err(CdxParseError::FieldCount { .. })
        ));
        let good = to_cdx_string(&sample_store());
        let broken = good.replacen("http://", "nothttp-", 1);
        // first URL occurrence is inside the surt? no — surt has no scheme;
        // the replacement hits the original-url field
        assert!(from_cdx_string(&broken).is_err());
    }

    #[test]
    fn titles_round_trip_percent_encoded() {
        let mut store = ArchiveStore::new();
        store.insert(Snapshot::from_observation(
            &u("http://e.org/t"),
            SimTime::from_ymd(2012, 2, 2),
            StatusCode::OK,
            None,
            "<html><head><title>Quel été! 100% \"done\" — right?</title></head><body>x</body></html>",
        ));
        let text = to_cdx_string(&store);
        assert_eq!(text.lines().next().unwrap().split(' ').count(), 9, "encoded titles add no fields");
        let back = from_cdx_string(&text).unwrap();
        assert_eq!(
            back.scan_surt_prefix("").next().unwrap().title,
            "Quel été! 100% \"done\" — right?"
        );
    }

    #[test]
    fn timestamp_round_trip() {
        let t = SimTime::from_ymd(2022, 3, 15) + Duration::hours(13) + Duration::seconds(59);
        assert_eq!(parse_timestamp14(&timestamp14(t)), Some(t));
        assert_eq!(parse_timestamp14("2022031"), None);
        assert_eq!(parse_timestamp14("20221315000000"), None); // month 13
    }

    proptest! {
        #[test]
        fn arbitrary_snapshots_round_trip(
            host in "[a-z]{2,8}\\.(org|com|sim)",
            path in "(/[a-z0-9]{1,6}){1,3}",
            status in prop_oneof![Just(200u16), Just(301), Just(302), Just(404), Just(503)],
            day in 0i64..15000,
            body in "[a-z ]{0,40}",
        ) {
            let url = u(&format!("http://{host}{path}"));
            let target = (300..400).contains(&status).then(|| u(&format!("http://{host}/")));
            let mut store = ArchiveStore::new();
            store.insert(Snapshot::from_observation(
                &url,
                SimTime(day * 86_400),
                StatusCode(status),
                target,
                &body,
            ));
            let back = from_cdx_string(&to_cdx_string(&store)).unwrap();
            prop_assert_eq!(back.len(), 1);
            let orig = store.snapshots_of(&url);
            let re = back.snapshots_of(&url);
            prop_assert_eq!(orig[0].sketch, re[0].sketch);
            prop_assert_eq!(orig[0].initial_status, re[0].initial_status);
        }
    }
}
