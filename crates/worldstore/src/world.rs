//! A complete generated world and its on-disk snapshot format.
//!
//! A [`World`] bundles everything an audit needs — the live web, the
//! archive, and the study's link tables over a shared [`Interner`] — plus
//! the metadata identifying how it was generated. [`World::save`] writes a
//! versioned binary snapshot; [`World::load`] reconstructs a world that is
//! *behaviorally bit-identical* to the generated original: every fetch,
//! every archive range scan, every dataset row answers the same.
//!
//! Determinism contract (asserted by tests):
//! - the byte stream is a pure function of the world: all hash maps are
//!   serialized in sorted key order, all integers are fixed-width
//!   little-endian, `f64`s are written as IEEE-754 bit patterns;
//! - save → load → save is byte-identical;
//! - volatile runtime state (request metrics, archive access counters,
//!   rate-limiter day counts) is deliberately *not* serialized — each is
//!   re-derived or pruned-by-construction such that post-load behaviour
//!   matches (see `DailyRateLimiter::per_day` for the argument).
//!
//! The full format is specified field-by-field in DESIGN.md ("World
//! snapshot format"); this file is the normative implementation.

use crate::codec::{CodecError, Reader, Writer};
use crate::intern::{Interner, Sym};
use crate::tables::LinkTable;
use permadead_archive::{ArchiveStore, BodyClass, Snapshot};
use permadead_net::dns::{HostState, HostTimeline};
use permadead_net::fault::{Fault, FaultProfile};
use permadead_net::http::Vantage;
use permadead_net::{SimTime, StatusCode};
use permadead_rescue::{RescueEntry, RescueIndex};
use permadead_text::sketch::{MinHashSketch, SKETCH_SIZE};
use permadead_url::Url;
use permadead_web::{LiveWeb, Page, PageEvent, PageId, Site, SiteId, SiteLifecycle, UnknownPathPolicy};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Leading magic: "PDWS" = PermaDead World Snapshot.
pub const MAGIC: [u8; 4] = *b"PDWS";
/// Current format version. Bump on any layout change.
///
/// v2: archive snapshots carry their `<title>` and the optional rediscovery
/// rescue index is serialized after the archive section. v1 files are
/// rejected with `UnsupportedVersion` — callers (`serve::load_or_generate`)
/// treat that as a cache miss and regenerate.
pub const FORMAT_VERSION: u32 = 2;

/// The smallest encoding of one element of each counted collection: its
/// fixed-width fields, with every string and nested collection empty.
/// [`Reader::count`] rejects a count whose elements could not fit in the
/// bytes left, so a corrupted prefix fails before anything is allocated.
mod min_bytes {
    use permadead_text::sketch::SKETCH_SIZE;

    /// An empty `str`, or a `len` prefix of an empty collection.
    const PREFIX: usize = 4;
    const SYM: usize = 4;
    const TAG: usize = 1;
    const SKETCH: usize = SKETCH_SIZE * 8 + 8 + 1;
    const FAULTS: usize = 8 + 8 + 8 + PREFIX + 1 + PREFIX;

    pub const STRING: usize = PREFIX;
    pub const LINK_ROW: usize = SYM + SYM + 8 + 8 + SYM;
    pub const RANK: usize = SYM + 4;
    pub const ZONE: usize = SYM + PREFIX;
    pub const HOST_STATE: usize = 8 + TAG;
    pub const SITE: usize = 8 + SYM + 8 + 1 + TAG + PREFIX + FAULTS + PREFIX;
    pub const POLICY_CHANGE: usize = 8 + TAG;
    pub const PAGE: usize = 4 + 8 + PREFIX + PREFIX;
    pub const PAGE_EVENT: usize = 8 + TAG;
    pub const VANTAGE: usize = TAG;
    pub const FAULT_WINDOW: usize = 8 + 8 + TAG;
    pub const SNAPSHOT: usize = SYM + 8 + 2 + 1 + TAG + SKETCH + PREFIX;
    pub const RESCUE_ENTRY: usize = PREFIX + PREFIX + SKETCH;
}

/// The encoded size and decode time of one section of a snapshot, in
/// stream order (see [`World::from_bytes_with_sections`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SectionCost {
    pub name: &'static str,
    pub bytes: usize,
    pub decode: Duration,
}

/// Section boundaries, reported as the decoder passes them.
struct Sections<'f> {
    on_close: &'f mut dyn FnMut(&SectionCost),
    start: usize,
    since: Instant,
}

impl Sections<'_> {
    /// Close the section that ends at stream offset `end`. The report's own
    /// time is charged to no section.
    fn close(&mut self, name: &'static str, end: usize) {
        let decode = self.since.elapsed();
        (self.on_close)(&SectionCost { name, bytes: end - self.start, decode });
        self.start = end;
        self.since = Instant::now();
    }
}

/// Generation provenance, stored in the snapshot header so a cache hit can
/// verify it is answering for the right `(seed, scale)` before anything
/// else is decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldMeta {
    /// The scenario seed everything derives from.
    pub seed: u64,
    /// Scale label ("small", "paper", ...), informational + cache-key.
    pub scale: String,
    /// Config echo: number of rot links requested.
    pub rot_links: u32,
    /// Config echo: study sample size.
    pub sample_size: u32,
    /// The March-2022 analogue study instant.
    pub study_time: SimTime,
    /// The September-2022 analogue re-measurement instant.
    pub random_sample_time: SimTime,
    /// Seed of the live web's content generator (derived from `seed` by the
    /// builder; recorded so `LiveWeb::new` can be re-aimed exactly).
    pub content_seed: u64,
}

/// Everything an audit consumes, ready to save or just loaded.
#[derive(Debug)]
pub struct World {
    pub meta: WorldMeta,
    pub interner: Interner,
    /// The parity study sample (the paper's March 2022 corpus analogue).
    pub march: LinkTable,
    /// The random re-measurement sample (September 2022 analogue).
    pub september: LinkTable,
    /// Every tagged link in the wiki — serve's lookup universe.
    pub all_tagged: LinkTable,
    pub web: LiveWeb,
    pub archive: ArchiveStore,
    /// The lexical-signature rediscovery index over the live web at study
    /// time, when the world was built with rescue support. Only the entry
    /// list is serialized; a loaded index builds its postings from it on
    /// its first query, so a run that never queries never pays for them.
    pub rescue: Option<RescueIndex>,
}

/// A link row as plain borrowed strings, the construction-time currency
/// between `core`'s `Dataset` (which this crate must not depend on) and the
/// interned tables.
#[derive(Debug, Clone, Copy)]
pub struct RawLink<'a> {
    pub url: &'a str,
    pub article: &'a str,
    pub added_at: i64,
    pub marked_at: i64,
    pub marked_by: &'a str,
}

/// Errors from [`World::load`].
#[derive(Debug)]
pub enum LoadError {
    Io(io::Error),
    Codec(CodecError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "world snapshot I/O error: {e}"),
            LoadError::Codec(e) => write!(f, "world snapshot decode error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<CodecError> for LoadError {
    fn from(e: CodecError) -> Self {
        LoadError::Codec(e)
    }
}

impl World {
    /// Assemble a world from generated parts. Interning order is fixed —
    /// march rows, september rows, all-tagged rows, then site hosts (by
    /// site id), DNS hosts (sorted), rank hosts (sorted), then archive URLs
    /// in index order — so the same inputs always produce the same symbol
    /// assignment, and therefore the same snapshot bytes.
    pub fn from_parts(
        meta: WorldMeta,
        web: LiveWeb,
        archive: ArchiveStore,
        march: (&str, &[RawLink<'_>]),
        september: (&str, &[RawLink<'_>]),
        all_tagged: (&str, &[RawLink<'_>]),
    ) -> World {
        let mut interner = Interner::new();
        let build = |label_rows: (&str, &[RawLink<'_>]), interner: &mut Interner| {
            let (label, rows) = label_rows;
            let mut t = LinkTable::new(label);
            for r in rows {
                t.push(interner, r.url, r.article, r.added_at, r.marked_at, r.marked_by);
            }
            t
        };
        let march = build(march, &mut interner);
        let september = build(september, &mut interner);
        let all_tagged = build(all_tagged, &mut interner);
        World::assemble(meta, web, archive, interner, march, september, all_tagged)
    }

    /// Like [`World::from_parts`], but for callers that already built the
    /// link tables over `interner` (e.g. `core`'s `Dataset::to_table`).
    /// Finishes the interner with the web's hosts and the archive's URLs in
    /// the fixed order documented on `from_parts`.
    pub fn assemble(
        meta: WorldMeta,
        web: LiveWeb,
        archive: ArchiveStore,
        mut interner: Interner,
        march: LinkTable,
        september: LinkTable,
        all_tagged: LinkTable,
    ) -> World {
        let mut site_ids: Vec<SiteId> = web.sites().map(|s| s.id).collect();
        site_ids.sort();
        for id in &site_ids {
            interner.intern(&web.site(*id).expect("listed site").host);
        }
        let mut dns_hosts: Vec<&String> = web.dns.zones().map(|(h, _)| h).collect();
        dns_hosts.sort();
        for h in dns_hosts {
            interner.intern(h);
        }
        let mut rank_hosts: Vec<&String> = web.ranks.entries().map(|(h, _)| h).collect();
        rank_hosts.sort();
        for h in rank_hosts {
            interner.intern(h);
        }
        for snap in archive.iter() {
            interner.intern(&snap.url.to_string());
            if let Some(t) = &snap.redirect_target {
                interner.intern(&t.to_string());
            }
        }

        World { meta, interner, march, september, all_tagged, web, archive, rescue: None }
    }

    /// Attach a rediscovery rescue index (serialized with the snapshot).
    pub fn with_rescue(mut self, rescue: RescueIndex) -> World {
        self.rescue = Some(rescue);
        self
    }

    /// Serialize to the versioned binary snapshot format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(Writer::new())
            .finish()
            .expect("writing to a Vec cannot fail")
    }

    /// Write the snapshot through `w`; [`Writer::finish`] then appends the
    /// checksum.
    fn encode<W: Write>(&self, mut w: Writer<W>) -> Writer<W> {
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);

        // --- meta ---
        w.u64(self.meta.seed);
        w.str(&self.meta.scale);
        w.u32(self.meta.rot_links);
        w.u32(self.meta.sample_size);
        w.i64(self.meta.study_time.0);
        w.i64(self.meta.random_sample_time.0);
        w.u64(self.meta.content_seed);

        // --- interner ---
        w.len(self.interner.len());
        for s in self.interner.iter() {
            w.str(s);
        }

        // --- link tables ---
        for table in [&self.march, &self.september, &self.all_tagged] {
            write_table(&mut w, table);
        }

        // --- live web ---
        w.u32(self.web.ranks.universe);
        let mut ranks: Vec<(&String, u32)> = self.web.ranks.entries().collect();
        ranks.sort();
        w.len(ranks.len());
        for (host, rank) in ranks {
            w.u32(self.sym(host).0);
            w.u32(rank);
        }

        let mut zones: Vec<(&String, &HostTimeline)> = self.web.dns.zones().collect();
        zones.sort_by_key(|(h, _)| *h);
        w.len(zones.len());
        for (host, tl) in zones {
            w.u32(self.sym(host).0);
            w.len(tl.states().len());
            for &(at, state) in tl.states() {
                w.i64(at.0);
                match state {
                    HostState::Active { origin_id } => {
                        w.u8(0);
                        w.u64(origin_id);
                    }
                    HostState::Lapsed => w.u8(1),
                    HostState::Broken => w.u8(2),
                }
            }
        }

        let mut site_ids: Vec<SiteId> = self.web.sites().map(|s| s.id).collect();
        site_ids.sort();
        w.len(site_ids.len());
        for id in site_ids {
            let site = self.web.site(id).expect("listed site");
            w.u64(site.id.0);
            w.u32(self.sym(&site.host).0);
            w.i64(site.lifecycle.founded.0);
            match site.lifecycle.parked_from {
                Some(t) => {
                    w.bool(true);
                    w.i64(t.0);
                }
                None => w.bool(false),
            }
            w.u8(policy_tag(site.initial_policy()));
            w.len(site.policy_changes().len());
            for &(at, p) in site.policy_changes() {
                w.i64(at.0);
                w.u8(policy_tag(p));
            }
            write_faults(&mut w, &site.faults);
            w.len(site.pages().len());
            for page in site.pages() {
                w.u32(page.id.0);
                w.i64(page.created.0);
                w.str(&page.initial_path);
                w.len(page.events().len());
                for (at, e) in page.events() {
                    w.i64(at.0);
                    match e {
                        PageEvent::Moved { to_path } => {
                            w.u8(0);
                            w.str(to_path);
                        }
                        PageEvent::RedirectAdded => w.u8(1),
                        PageEvent::Deleted => w.u8(2),
                    }
                }
            }
        }

        // --- archive (index order; SURTs and seqs re-derive on load) ---
        w.len(self.archive.len());
        for snap in self.archive.iter() {
            w.u32(self.sym(&snap.url.to_string()).0);
            w.i64(snap.captured.0);
            w.u16(snap.initial_status.0);
            match &snap.redirect_target {
                Some(t) => {
                    w.bool(true);
                    w.u32(self.sym(&t.to_string()).0);
                }
                None => w.bool(false),
            }
            w.u8(match snap.body_class {
                BodyClass::Content => 0,
                BodyClass::Redirect => 1,
                BodyClass::Error => 2,
            });
            for &m in snap.sketch.mins() {
                w.u64(m);
            }
            w.u64(snap.sketch.digest);
            w.bool(snap.sketch.empty);
            w.str(&snap.title);
        }

        // --- rescue index (entries only; a loaded index builds its postings
        // on first query).
        // URLs/titles are written inline rather than interned: the index is
        // optional, and threading its strings through the interner would
        // perturb symbol assignment for worlds that carry no index. ---
        match &self.rescue {
            Some(idx) => {
                w.bool(true);
                w.len(idx.len());
                for e in idx.entries() {
                    w.str(&e.url);
                    w.str(&e.title);
                    for &m in e.sketch.mins() {
                        w.u64(m);
                    }
                    w.u64(e.sketch.digest);
                    w.bool(e.sketch.empty);
                }
            }
            None => w.bool(false),
        }
        w
    }

    /// Decode a snapshot produced by [`World::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<World, CodecError> {
        World::decode(&mut Reader::new(buf), &mut |_| {})
    }

    /// [`World::from_bytes`], also reporting what each section of the
    /// snapshot cost: `header` (magic, version, meta), `interner`,
    /// `link-tables`, `live-web`, `archive`, `rescue-entries`, `checksum`.
    /// Every byte belongs to exactly one section.
    pub fn from_bytes_with_sections(buf: &[u8]) -> Result<(World, Vec<SectionCost>), CodecError> {
        let mut done = Vec::new();
        let world = World::decode(&mut Reader::new(buf), &mut |s| done.push(s.clone()))?;
        Ok((world, done))
    }

    /// The one decoder behind [`World::from_bytes`] and [`World::load`]:
    /// reads the stream once, front to back, and returns the world only
    /// once the trailing checksum has verified.
    fn decode<R: Read>(
        r: &mut Reader<R>,
        on_section: &mut dyn FnMut(&SectionCost),
    ) -> Result<World, CodecError> {
        let mut sections = Sections { on_close: on_section, start: 0, since: Instant::now() };
        let magic: [u8; 4] = r.array()?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }

        let meta = WorldMeta {
            seed: r.u64()?,
            scale: r.str()?,
            rot_links: r.u32()?,
            sample_size: r.u32()?,
            study_time: SimTime(r.i64()?),
            random_sample_time: SimTime(r.i64()?),
            content_seed: r.u64()?,
        };
        sections.close("header", r.position());

        let n_strings = r.count(min_bytes::STRING)?;
        // presized for the count only as far as the bytes left back it: a
        // string costs the presized interner up to 20 bytes (16 of table,
        // 4 of offset), so a count raised in a corrupted file presizes less
        // heap than the file holds. A world's strings are far fewer: under
        // a twentieth of the cap at both scales, seed 42.
        let mut interner = Interner::with_capacity(n_strings.min(r.remaining() / 32));
        for _ in 0..n_strings {
            interner.intern(&r.str()?);
        }
        interner.shrink_to_fit();
        sections.close("interner", r.position());

        let march = read_table(r)?;
        let september = read_table(r)?;
        let all_tagged = read_table(r)?;
        sections.close("link-tables", r.position());

        let web = read_web(r, &interner, meta.content_seed)?;
        sections.close("live-web", r.position());

        let n_snaps = r.count(min_bytes::SNAPSHOT)?;
        let archive = (0..n_snaps)
            .map(|_| read_snapshot(r, &interner))
            .collect::<Result<ArchiveStore, _>>()?;
        sections.close("archive", r.position());

        let rescue = if r.bool()? {
            let n_entries = r.count(min_bytes::RESCUE_ENTRY)?;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                let (url, title) = (r.str()?, r.str()?);
                entries.push(RescueEntry { url, title, sketch: read_sketch(r)? });
            }
            Some(RescueIndex::from_entries_lazy(entries))
        } else {
            None
        };
        sections.close("rescue-entries", r.position());

        r.verify_checksum()?;
        sections.close("checksum", r.position());
        Ok(World { meta, interner, march, september, all_tagged, web, archive, rescue })
    }

    /// Write the snapshot to `path` (atomically: temp file + rename),
    /// encoding it as it streams out: the snapshot is never resident whole.
    /// Returns the snapshot size in bytes.
    pub fn save(&self, path: &Path) -> io::Result<u64> {
        let tmp = path.with_extension("pdw.tmp");
        let out = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
        let file = self
            .encode(Writer::to(out))
            .finish()?
            .into_inner()
            .map_err(|e| e.into_error())?;
        let size = file.metadata()?.len();
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(size)
    }

    /// Read a snapshot from `path`, decoding it as it streams in: the file
    /// is never resident whole.
    pub fn load(path: &Path) -> Result<World, LoadError> {
        World::load_with_sections(path, |_| {})
    }

    /// [`World::load`], calling `on_section` as each section of the snapshot
    /// closes (the sections of [`World::from_bytes_with_sections`]), so a
    /// caller can sample what the load holds at each boundary.
    pub fn load_with_sections(
        path: &Path,
        mut on_section: impl FnMut(&SectionCost),
    ) -> Result<World, LoadError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = Reader::from_stream(BufReader::with_capacity(1 << 16, file), len);
        World::decode(&mut r, &mut on_section).map_err(|e| match r.take_io_error() {
            Some(io) => LoadError::Io(io),
            None => LoadError::Codec(e),
        })
    }

    fn sym(&self, s: &str) -> Sym {
        self.interner
            .get(s)
            .unwrap_or_else(|| panic!("string not interned at build time: {s:?}"))
    }
}

fn write_table(w: &mut Writer<impl Write>, t: &LinkTable) {
    w.str(&t.label);
    w.len(t.len());
    for row in t.rows() {
        w.u32(row.url.0);
        w.u32(row.article.0);
        w.i64(row.added_at);
        w.i64(row.marked_at);
        w.u32(row.marked_by.0);
    }
}

/// Read a symbol and resolve it against the decoded interner, surfacing a
/// decode error (not a panic) when corrupted bytes point outside it.
fn read_sym_str<'i>(
    r: &mut Reader<impl Read>,
    interner: &'i Interner,
) -> Result<&'i str, CodecError> {
    let at = r.position();
    let sym = Sym(r.u32()?);
    interner
        .try_resolve(sym)
        .ok_or(CodecError::BadSymbol { at, sym: sym.0 })
}

fn read_table(r: &mut Reader<impl Read>) -> Result<LinkTable, CodecError> {
    let label = r.str()?;
    let mut t = LinkTable::new(&label);
    let n = r.count(min_bytes::LINK_ROW)?;
    for _ in 0..n {
        t.push_row(crate::tables::LinkRow {
            url: Sym(r.u32()?),
            article: Sym(r.u32()?),
            added_at: r.i64()?,
            marked_at: r.i64()?,
            marked_by: Sym(r.u32()?),
        });
    }
    Ok(t)
}

fn read_web(
    r: &mut Reader<impl Read>,
    interner: &Interner,
    content_seed: u64,
) -> Result<LiveWeb, CodecError> {
    let mut web = LiveWeb::new(content_seed);
    web.ranks.universe = r.u32()?;
    let n_ranks = r.count(min_bytes::RANK)?;
    for _ in 0..n_ranks {
        let at = r.position();
        let host = read_sym_str(r, interner)?;
        let rank = r.u32()?;
        web.ranks.try_insert(host, rank).map_err(invalid(at))?;
    }

    let n_zones = r.count(min_bytes::ZONE)?;
    for _ in 0..n_zones {
        let host = read_sym_str(r, interner)?;
        let n_states = r.count(min_bytes::HOST_STATE)?;
        let mut tl = HostTimeline::new();
        for _ in 0..n_states {
            let state_at = r.position();
            let at = SimTime(r.i64()?);
            let tag_at = r.position();
            let state = match r.u8()? {
                0 => HostState::Active { origin_id: r.u64()? },
                1 => HostState::Lapsed,
                2 => HostState::Broken,
                tag => return Err(CodecError::BadTag { at: tag_at, tag, what: "host state" }),
            };
            tl.try_push(at, state).map_err(invalid(state_at))?;
        }
        web.dns.insert(host, tl);
    }

    let n_sites = r.count(min_bytes::SITE)?;
    for _ in 0..n_sites {
        let id = SiteId(r.u64()?);
        let host = read_sym_str(r, interner)?;
        let founded = SimTime(r.i64()?);
        let parked_from = if r.bool()? { Some(SimTime(r.i64()?)) } else { None };
        let lifecycle = SiteLifecycle { founded, parked_from };
        let tag_at = r.position();
        let initial = read_policy(r.u8()?, tag_at)?;
        let mut site = Site::new(id, host, lifecycle, initial);
        let n_changes = r.count(min_bytes::POLICY_CHANGE)?;
        for _ in 0..n_changes {
            let change_at = r.position();
            let at = SimTime(r.i64()?);
            let tag_at = r.position();
            let p = read_policy(r.u8()?, tag_at)?;
            site.try_change_policy(at, p).map_err(invalid(change_at))?;
        }
        site = site.with_faults(read_faults(r)?);
        let n_pages = r.count(min_bytes::PAGE)?;
        for _ in 0..n_pages {
            let page_at = r.position();
            let pid = PageId(r.u32()?);
            let created = SimTime(r.i64()?);
            let path = r.str()?;
            let mut page = Page::try_new(pid, created, &path).map_err(invalid(page_at))?;
            let n_events = r.count(min_bytes::PAGE_EVENT)?;
            for _ in 0..n_events {
                let event_at = r.position();
                let at = SimTime(r.i64()?);
                let tag_at = r.position();
                let event = match r.u8()? {
                    0 => PageEvent::Moved { to_path: r.str()? },
                    1 => PageEvent::RedirectAdded,
                    2 => PageEvent::Deleted,
                    tag => return Err(CodecError::BadTag { at: tag_at, tag, what: "page event" }),
                };
                page.try_push_event(at, event).map_err(invalid(event_at))?;
            }
            site.try_add_page(page).map_err(invalid(page_at))?;
        }
        web.add_site_raw(site);
    }
    Ok(web)
}

/// The decode error for a value the web model refuses (its builders assert
/// their rules; the decoder calls their `try_` forms instead).
fn invalid(at: usize) -> impl FnOnce(&'static str) -> CodecError {
    move |rule| CodecError::Invalid { at, rule }
}

fn read_snapshot(r: &mut Reader<impl Read>, interner: &Interner) -> Result<Snapshot, CodecError> {
    let url_at = r.position();
    let url_str = read_sym_str(r, interner)?;
    let url = Url::parse(url_str).map_err(|_| CodecError::BadUtf8 { at: url_at })?;
    let captured = SimTime(r.i64()?);
    let initial_status = StatusCode(r.u16()?);
    let redirect_target = if r.bool()? {
        let t_at = r.position();
        let t_str = read_sym_str(r, interner)?;
        Some(Box::new(
            Url::parse(t_str).map_err(|_| CodecError::BadUtf8 { at: t_at })?,
        ))
    } else {
        None
    };
    let tag_at = r.position();
    let body_class = match r.u8()? {
        0 => BodyClass::Content,
        1 => BodyClass::Redirect,
        2 => BodyClass::Error,
        tag => return Err(CodecError::BadTag { at: tag_at, tag, what: "body class" }),
    };
    let sketch = read_sketch(r)?;
    let title = r.str()?;
    let surt = permadead_url::surt(&url);
    Ok(Snapshot { url, surt, captured, initial_status, redirect_target, body_class, sketch, title })
}

fn read_sketch(r: &mut Reader<impl Read>) -> Result<MinHashSketch, CodecError> {
    let mut mins = [0u64; SKETCH_SIZE];
    for m in &mut mins {
        *m = r.u64()?;
    }
    let digest = r.u64()?;
    let empty = r.bool()?;
    Ok(MinHashSketch::from_parts(mins, digest, empty))
}

fn policy_tag(p: UnknownPathPolicy) -> u8 {
    match p {
        UnknownPathPolicy::NotFound => 0,
        UnknownPathPolicy::Gone => 1,
        UnknownPathPolicy::Soft404 => 2,
        UnknownPathPolicy::RedirectHome => 3,
        UnknownPathPolicy::RedirectLogin => 4,
    }
}

fn read_policy(tag: u8, at: usize) -> Result<UnknownPathPolicy, CodecError> {
    Ok(match tag {
        0 => UnknownPathPolicy::NotFound,
        1 => UnknownPathPolicy::Gone,
        2 => UnknownPathPolicy::Soft404,
        3 => UnknownPathPolicy::RedirectHome,
        4 => UnknownPathPolicy::RedirectLogin,
        tag => return Err(CodecError::BadTag { at, tag, what: "unknown-path policy" }),
    })
}

fn vantage_tag(v: Vantage) -> u8 {
    match v {
        Vantage::UsEducation => 0,
        Vantage::Europe => 1,
        Vantage::Asia => 2,
        Vantage::Crawler => 3,
    }
}

fn fault_tag(f: Fault) -> u8 {
    match f {
        Fault::ConnectTimeout => 0,
        Fault::Unavailable => 1,
        Fault::GeoBlocked => 2,
        Fault::RateLimited => 3,
    }
}

fn read_fault(tag: u8, at: usize) -> Result<Fault, CodecError> {
    Ok(match tag {
        0 => Fault::ConnectTimeout,
        1 => Fault::Unavailable,
        2 => Fault::GeoBlocked,
        3 => Fault::RateLimited,
        tag => return Err(CodecError::BadTag { at, tag, what: "fault" }),
    })
}

fn write_faults(w: &mut Writer<impl Write>, f: &FaultProfile) {
    w.u64(f.seed());
    w.f64(f.timeout_p);
    w.f64(f.unavailable_p);
    w.len(f.geo_blocked.len());
    for &v in &f.geo_blocked {
        w.u8(vantage_tag(v));
    }
    match &f.daily_rate_limit {
        // day counts are volatile runtime state; see DailyRateLimiter::per_day
        Some(l) => {
            w.bool(true);
            w.u32(l.per_day());
        }
        None => w.bool(false),
    }
    w.len(f.windows.len());
    for win in &f.windows {
        w.i64(win.from.0);
        w.i64(win.to.0);
        w.u8(fault_tag(win.fault));
    }
}

fn read_faults(r: &mut Reader<impl Read>) -> Result<FaultProfile, CodecError> {
    let seed = r.u64()?;
    let timeout_p = r.f64()?;
    let unavailable_p = r.f64()?;
    let mut profile = FaultProfile::none(seed)
        .with_timeouts(timeout_p)
        .with_unavailable(unavailable_p);
    let n_geo = r.count(min_bytes::VANTAGE)?;
    let mut geo = Vec::with_capacity(n_geo);
    for _ in 0..n_geo {
        let at = r.position();
        geo.push(match r.u8()? {
            0 => Vantage::UsEducation,
            1 => Vantage::Europe,
            2 => Vantage::Asia,
            3 => Vantage::Crawler,
            tag => return Err(CodecError::BadTag { at, tag, what: "vantage" }),
        });
    }
    profile = profile.with_geo_block(&geo);
    if r.bool()? {
        profile = profile.with_daily_rate_limit(r.u32()?);
    }
    let n_windows = r.count(min_bytes::FAULT_WINDOW)?;
    for _ in 0..n_windows {
        let from = SimTime(r.i64()?);
        let to = SimTime(r.i64()?);
        let at = r.position();
        let fault = read_fault(r.u8()?, at)?;
        profile = profile.with_window(from, to, fault);
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_net::{Client, Duration, Network, Request};

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 15)
    }

    /// A small hand-built world exercising every serialized feature:
    /// policy changes, parked lifecycle, fault windows + rate limits +
    /// geo-blocks, DNS lapses, page moves/redirects/deletes, archive
    /// captures with redirects.
    fn build_world() -> World {
        let mut web = LiveWeb::new(777);
        web.ranks.insert("alive.example.org", 12);
        web.ranks.insert("parked.example.net", 40_000);

        let mut alive = Site::new(
            SiteId(1),
            "alive.example.org",
            SiteLifecycle::active_from(t(2004)),
            UnknownPathPolicy::NotFound,
        );
        alive.change_policy(t(2016), UnknownPathPolicy::Soft404);
        let mut p = Page::new(PageId(1), t(2008), "/artists/steve");
        p.push_event(t(2015), PageEvent::Moved { to_path: "/portfolio/steve".into() });
        p.push_event(t(2020), PageEvent::RedirectAdded);
        alive.add_page(p);
        let mut gone = Page::new(PageId(2), t(2009), "/temp.html");
        gone.push_event(t(2012), PageEvent::Deleted);
        alive.add_page(gone);
        web.add_site(
            alive.with_faults(
                FaultProfile::none(1)
                    .with_timeouts(0.25)
                    .with_window(t(2019), t(2020), Fault::Unavailable)
                    .with_daily_rate_limit(100)
                    .with_geo_block(&[Vantage::Asia]),
            ),
        );

        let mut parked = Site::new(
            SiteId(2),
            "parked.example.net",
            SiteLifecycle::active_from(t(2004)).parked_at(t(2018)),
            UnknownPathPolicy::RedirectHome,
        );
        parked.add_page(Page::new(PageId(1), t(2006), "/story.html"));
        let mut tl = HostTimeline::new();
        tl.push(t(2004), HostState::Active { origin_id: 2 });
        tl.push(t(2017), HostState::Broken);
        tl.push(t(2018), HostState::Active { origin_id: 2 });
        web.dns.insert("parked.example.net", tl);
        web.add_site_raw(parked);

        let mut archive = ArchiveStore::new();
        let u = |s: &str| Url::parse(s).unwrap();
        archive.insert(Snapshot::from_observation(
            &u("http://alive.example.org/artists/steve"),
            t(2010),
            StatusCode(200),
            None,
            "body text here",
        ));
        archive.insert(Snapshot::from_observation(
            &u("http://alive.example.org/artists/steve"),
            t(2017),
            StatusCode(301),
            Some(u("http://alive.example.org/portfolio/steve")),
            "",
        ));
        archive.insert(Snapshot::from_observation(
            &u("http://parked.example.net/story.html"),
            t(2012),
            StatusCode(200),
            None,
            "old story",
        ));

        let links = [
            RawLink {
                url: "http://alive.example.org/artists/steve",
                article: "Steve (artist)",
                added_at: t(2010).0,
                marked_at: t(2018).0,
                marked_by: "IABot",
            },
            RawLink {
                url: "http://parked.example.net/story.html",
                article: "Some Event",
                added_at: t(2008).0,
                marked_at: t(2019).0,
                marked_by: "IABot",
            },
        ];
        let meta = WorldMeta {
            seed: 42,
            scale: "unit".into(),
            rot_links: 2,
            sample_size: 2,
            study_time: t(2022),
            random_sample_time: t(2022) + Duration::days(180),
            content_seed: 777,
        };
        World::from_parts(meta, web, archive, ("march", &links), ("september", &links[..1]), ("all", &links))
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let world = build_world();
        let bytes = world.to_bytes();
        let loaded = World::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn meta_and_tables_round_trip() {
        let world = build_world();
        let loaded = World::from_bytes(&world.to_bytes()).unwrap();
        assert_eq!(loaded.meta, world.meta);
        assert_eq!(loaded.march.len(), 2);
        assert_eq!(loaded.september.len(), 1);
        assert_eq!(loaded.all_tagged.len(), 2);
        let row = loaded.march.row(0);
        assert_eq!(loaded.interner.resolve(row.url), "http://alive.example.org/artists/steve");
        assert_eq!(loaded.interner.resolve(row.article), "Steve (artist)");
        assert_eq!(loaded.interner.resolve(row.marked_by), "IABot");
    }

    #[test]
    fn loaded_web_serves_identically() {
        let world = build_world();
        let loaded = World::from_bytes(&world.to_bytes()).unwrap();
        let client = Client::new();
        let u = |s: &str| Url::parse(s).unwrap();
        // probe across every behavioural regime: pre/post move, redirect
        // revival, policy change, parked lander, DNS brokenness, deletion
        for (url, at) in [
            ("http://alive.example.org/artists/steve", t(2012)),
            ("http://alive.example.org/artists/steve", t(2017)),
            ("http://alive.example.org/artists/steve", t(2021)),
            ("http://alive.example.org/temp.html", t(2013)),
            ("http://alive.example.org/nope", t(2017)),
            ("http://parked.example.net/story.html", t(2012)),
            ("http://parked.example.net/story.html", t(2017)),
            ("http://parked.example.net/story.html", t(2021)),
        ] {
            let a = client.get(&world.web, &u(url), at);
            let b = client.get(&loaded.web, &u(url), at);
            assert_eq!(a.outcome, b.outcome, "{url} at {at:?}");
            assert_eq!(a.body, b.body, "{url} at {at:?}");
            assert_eq!(a.final_url(), b.final_url(), "{url} at {at:?}");
        }
        // probabilistic faults re-derive from the serialized seed
        let req = Request::get(u("http://alive.example.org/artists/steve"), t(2022));
        assert_eq!(
            world.web.request(&req).map(|r| r.status),
            loaded.web.request(&req).map(|r| r.status)
        );
    }

    #[test]
    fn loaded_archive_scans_identically() {
        let world = build_world();
        let loaded = World::from_bytes(&world.to_bytes()).unwrap();
        assert_eq!(loaded.archive.len(), world.archive.len());
        let u = Url::parse("http://alive.example.org/artists/steve").unwrap();
        let a: Vec<_> = world.archive.snapshots_of(&u);
        let b: Vec<_> = loaded.archive.snapshots_of(&u);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.captured, y.captured);
            assert_eq!(x.initial_status, y.initial_status);
            assert_eq!(x.surt, y.surt);
            assert_eq!(x.redirect_target.as_ref().map(|t| t.to_string()),
                       y.redirect_target.as_ref().map(|t| t.to_string()));
            assert_eq!(x.sketch.digest, y.sketch.digest);
            assert_eq!(x.sketch.mins(), y.sketch.mins());
        }
    }

    #[test]
    fn snapshot_titles_round_trip() {
        let world = build_world();
        let loaded = World::from_bytes(&world.to_bytes()).unwrap();
        let u = Url::parse("http://alive.example.org/artists/steve").unwrap();
        let orig: Vec<_> = world.archive.snapshots_of(&u);
        let back: Vec<_> = loaded.archive.snapshots_of(&u);
        for (a, b) in orig.iter().zip(&back) {
            assert_eq!(a.title, b.title);
        }
    }

    #[test]
    fn rescue_index_round_trips_and_answers_identically() {
        let base = build_world();
        let idx = permadead_rescue::RescueIndex::build(&base.web, t(2022), 2);
        assert!(!idx.is_empty(), "the hand-built world has live pages");
        let world = build_world().with_rescue(idx.clone());
        let bytes = world.to_bytes();
        assert_ne!(bytes, base.to_bytes(), "the index is part of the snapshot");
        let loaded = World::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes, "save → load → save stays byte-identical");

        let rescue = loaded.rescue.as_ref().unwrap();
        assert!(!rescue.postings_built(), "a decoded index builds its postings on first use");
        let fp = permadead_rescue::Fingerprint {
            title: idx.entries()[0].title.clone(),
            sketch: idx.entries()[0].sketch,
        };
        assert_eq!(rescue.query(&fp, 3), idx.query(&fp, 3), "the first query's answer");
        assert!(rescue.postings_built());
        assert_eq!(rescue, &idx);
    }

    #[test]
    fn sections_cover_every_byte_in_stream_order() {
        let base = build_world();
        let world = build_world().with_rescue(RescueIndex::build(&base.web, t(2022), 1));
        let bytes = world.to_bytes();
        let (loaded, sections) = World::from_bytes_with_sections(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes);
        let names: Vec<&str> = sections.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["header", "interner", "link-tables", "live-web", "archive", "rescue-entries", "checksum"]
        );
        let size = |name: &str| sections.iter().find(|s| s.name == name).unwrap().bytes;
        assert_eq!(sections.iter().map(|s| s.bytes).sum::<usize>(), bytes.len());
        // magic, version, seed, scale, rot_links, sample_size, two times, content seed
        assert_eq!(size("header"), 4 + 4 + 8 + (4 + "unit".len()) + 4 + 4 + 8 + 8 + 8);
        assert_eq!(size("checksum"), 8);
        assert_eq!(size("rescue-entries"), bytes.len() - base.to_bytes().len() + 1);
    }

    #[test]
    fn v1_snapshot_rejected_as_unsupported() {
        let world = build_world();
        let mut bytes = world.to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            World::from_bytes(&bytes),
            Err(CodecError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let world = build_world();
        let mut bytes = world.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(World::from_bytes(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn future_version_rejected() {
        let world = build_world();
        let mut bytes = world.to_bytes();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(World::from_bytes(&bytes), Err(CodecError::UnsupportedVersion(_))));
    }

    #[test]
    fn flipped_bit_rejected() {
        let world = build_world();
        let mut bytes = world.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(World::from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let base = build_world();
        let world = build_world().with_rescue(RescueIndex::build(&base.web, t(2022), 1));
        let dir = std::env::temp_dir().join(format!("pdws-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.pdw");
        let size = world.save(&path).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        let saved = std::fs::read(&path).unwrap();
        assert!(saved == world.to_bytes(), "the streamed save writes to_bytes's bytes");
        let mut streamed = Vec::new();
        let loaded = World::load_with_sections(&path, |s| streamed.push(s.clone())).unwrap();
        assert_eq!(loaded.to_bytes(), world.to_bytes());
        let (_, sections) = World::from_bytes_with_sections(&world.to_bytes()).unwrap();
        let layout = |v: &[SectionCost]| v.iter().map(|s| (s.name, s.bytes)).collect::<Vec<_>>();
        assert_eq!(layout(&streamed), layout(&sections), "one decoder, two sources");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
