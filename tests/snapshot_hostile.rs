//! Hostile world-snapshot bytes. A snapshot is read back from a cache
//! directory, so one corrupted byte must come back as a decode error —
//! which `worldcache` turns into "stale snapshot ignored → regenerate" —
//! never as a panic or an attempt to allocate billions of elements.
//!
//! One sweep raises every 4-byte window of a small snapshot to `u32::MAX`
//! and re-stamps the FNV-1a trailer, so the checksum cannot be what catches
//! it: each collection count raised that way must be rejected where it
//! stands, before anything is allocated for it. Another flips every bit.
//! The file-backed cases run the same decoder as it streams a snapshot
//! from disk through `World::load`. A counting allocator checks that a
//! count the decoder accepts but the bytes cannot fill presizes no more
//! heap than the file holds.

use permadead::archive::{ArchiveStore, Snapshot};
use permadead::net::dns::{HostState, HostTimeline};
use permadead::net::fault::{Fault, FaultProfile};
use permadead::net::http::Vantage;
use permadead::net::{Duration, SimTime, StatusCode};
use permadead::rescue::RescueIndex;
use permadead::url::Url;
use permadead::web::{
    LiveWeb, Page, PageEvent, PageId, Site, SiteId, SiteLifecycle, UnknownPathPolicy,
};
use permadead_worldstore::{CodecError, LoadError, RawLink, World, WorldMeta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// The system allocator, counting each thread's live heap bytes and their
/// high-water mark, so a test reads its own decode's heap while others run.
/// A realloc counts as a move: the new block and the old one both count
/// toward the peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn counted(bytes: isize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            counted(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        counted(-(layout.size() as isize));
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The most heap `f` holds at once on this thread, above what it held
/// before.
fn heap_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    (out, (PEAK.get() - base) as usize)
}

fn t(y: i32) -> SimTime {
    SimTime::from_ymd(y, 6, 15)
}

/// A small world in which every counted collection of the format holds
/// more than one element, plus a rediscovery index.
fn world() -> World {
    let mut web = LiveWeb::new(5);
    web.ranks.insert("alive.example.org", 12);
    web.ranks.insert("parked.example.net", 40_000);

    let mut alive = Site::new(
        SiteId(1),
        "alive.example.org",
        SiteLifecycle::active_from(t(2004)),
        UnknownPathPolicy::NotFound,
    );
    alive.change_policy(t(2014), UnknownPathPolicy::Soft404);
    alive.change_policy(t(2016), UnknownPathPolicy::Gone);
    let mut moved = Page::new(PageId(1), t(2008), "/artists/steve");
    moved.push_event(t(2015), PageEvent::Moved { to_path: "/portfolio/steve".into() });
    moved.push_event(t(2020), PageEvent::RedirectAdded);
    alive.add_page(moved);
    let mut gone = Page::new(PageId(2), t(2009), "/temp.html");
    gone.push_event(t(2011), PageEvent::Moved { to_path: "/old/temp.html".into() });
    gone.push_event(t(2012), PageEvent::Deleted);
    alive.add_page(gone);
    alive.add_page(Page::new(PageId(3), t(2010), "/about.html"));
    web.add_site(
        alive.with_faults(
            FaultProfile::none(1)
                .with_timeouts(0.25)
                .with_window(t(2017), t(2018), Fault::ConnectTimeout)
                .with_window(t(2019), t(2020), Fault::Unavailable)
                .with_daily_rate_limit(100)
                .with_geo_block(&[Vantage::Asia, Vantage::Europe]),
        ),
    );

    let mut parked = Site::new(
        SiteId(2),
        "parked.example.net",
        SiteLifecycle::active_from(t(2004)).parked_at(t(2018)),
        UnknownPathPolicy::RedirectHome,
    );
    parked.change_policy(t(2010), UnknownPathPolicy::NotFound);
    let mut story = Page::new(PageId(1), t(2006), "/story.html");
    story.push_event(t(2009), PageEvent::Moved { to_path: "/news/story.html".into() });
    story.push_event(t(2010), PageEvent::RedirectAdded);
    parked.add_page(story);
    parked.add_page(Page::new(PageId(2), t(2007), "/index.html"));
    let mut timeline = HostTimeline::new();
    timeline.push(t(2004), HostState::Active { origin_id: 2 });
    timeline.push(t(2017), HostState::Broken);
    timeline.push(t(2018), HostState::Active { origin_id: 2 });
    web.dns.insert("parked.example.net", timeline);
    web.add_site_raw(
        parked.with_faults(
            FaultProfile::none(2)
                .with_geo_block(&[Vantage::Crawler, Vantage::UsEducation])
                .with_window(t(2013), t(2014), Fault::RateLimited)
                .with_window(t(2015), t(2016), Fault::GeoBlocked),
        ),
    );

    let u = |s: &str| Url::parse(s).unwrap();
    let steve = u("http://alive.example.org/artists/steve");
    let moved_to = Some(u("http://alive.example.org/portfolio/steve"));
    let story = u("http://parked.example.net/story.html");
    let archive: ArchiveStore = [
        Snapshot::from_observation(&steve, t(2010), StatusCode(200), None, "<title>Steve</title>"),
        Snapshot::from_observation(&steve, t(2017), StatusCode(301), moved_to, ""),
        Snapshot::from_observation(&story, t(2012), StatusCode(200), None, "old story"),
    ]
    .into_iter()
    .collect();

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
        scale: "hostile".into(),
        rot_links: 2,
        sample_size: 2,
        study_time: t(2022),
        random_sample_time: t(2022) + Duration::days(180),
        content_seed: 5,
    };
    let rescue = RescueIndex::build(&web, t(2022), 1);
    World::from_parts(meta, web, archive, ("march", &links), ("september", &links), ("all", &links))
        .with_rescue(rescue)
}

/// How many collection counts the snapshot of `world` carries.
fn counts_in(world: &World) -> usize {
    let zones = world.web.dns.zones().count();
    let per_site: usize = world
        .web
        .sites()
        // policy changes, geo-blocked vantages, fault windows, pages, and
        // one event list per page
        .map(|site| 4 + site.pages().len())
        .sum();
    // interner, three link tables, ranks, zones (+ a state timeline each),
    // sites, archive, rescue entries
    1 + 3 + 1 + 1 + zones + 1 + per_site + 1 + usize::from(world.rescue.is_some())
}

fn restamp(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..body] {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    bytes[body..].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn every_count_raised_to_u32_max_is_rejected_where_it_stands() {
    let world = world();
    assert!(world.rescue.as_ref().is_some_and(|r| r.len() >= 2), "the index has entries");
    assert!(world.web.sites().all(|s| s.pages().iter().any(|p| p.events().len() >= 2)));
    let bytes = world.to_bytes();
    let mut restamped = bytes.clone();
    restamp(&mut restamped);
    assert_eq!(restamped, bytes, "the trailer is FNV-1a over everything before it");

    let mut rejected = Vec::new();
    for at in 0..=bytes.len() - 8 - 4 {
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        restamp(&mut hostile);
        // any other window may decode (a raised timestamp is still a
        // timestamp) or fail; it must not panic or abort
        if let Err(CodecError::CountTooLarge { at: count_at, .. }) = World::from_bytes(&hostile) {
            if count_at == at {
                rejected.push(at);
            }
        }
    }
    assert_eq!(rejected.len(), counts_in(&world), "count prefixes rejected at {rejected:?}");
}

#[test]
fn a_raised_string_count_presizes_less_heap_than_the_file_holds() {
    let bytes = world().to_bytes();
    let (_, sections) = World::from_bytes_with_sections(&bytes).unwrap();
    assert_eq!((sections[0].name, sections[1].name), ("header", "interner"));
    // the interner's count opens its section
    let at = sections[0].bytes;
    let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());

    // the largest count the decoder accepts: as many strings as the bytes
    // left hold empty ones
    let raised = (bytes.len() - at - 4) / 4;
    assert!(raised > 20 * count as usize, "the raised count is far above the real one");
    let mut hostile = bytes.clone();
    hostile[at..at + 4].copy_from_slice(&(raised as u32).to_le_bytes());
    restamp(&mut hostile);
    let (decoded, peak) = heap_peak(|| World::from_bytes(&hostile).map(drop));
    assert!(decoded.is_err(), "the strings run out before the count does");
    assert!(peak < bytes.len(), "a raised string count held {peak} B for a {} B file", bytes.len());
}

#[test]
fn every_flipped_bit_is_a_decode_error() {
    let bytes = world().to_bytes();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            assert!(World::from_bytes(&flipped).is_err(), "bit {bit} of byte {at}");
        }
    }
}

/// A scratch directory for one test's snapshot files, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("permadead-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write(&self, bytes: &[u8]) -> PathBuf {
        let path = self.0.join("world.pdw");
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_streamed_load_equals_a_slice_decode() {
    let scratch = Scratch::new("stream-parity");
    let bytes = world().to_bytes();
    let path = scratch.write(&bytes);
    let streamed = World::load(&path).expect("the snapshot loads");
    let sliced = World::from_bytes(&std::fs::read(&path).unwrap()).expect("the snapshot decodes");
    assert_eq!(streamed.to_bytes(), sliced.to_bytes());
    assert_eq!(streamed.to_bytes(), bytes);
}

#[test]
fn hostile_files_are_load_errors() {
    let scratch = Scratch::new("hostile-file");
    let bytes = world().to_bytes();
    let (_, sections) = World::from_bytes_with_sections(&bytes).unwrap();
    let mut ends = Vec::new();
    let mut end = 0;
    for s in &sections {
        ends.push((s.name, end, end + s.bytes));
        end += s.bytes;
    }
    assert_eq!(end, bytes.len());

    // cut short at every section boundary and at the last byte
    let cuts = ends.iter().map(|&(_, _, end)| end).filter(|&end| end < bytes.len());
    for cut in cuts.chain([bytes.len() - 1]) {
        let path = scratch.write(&bytes[..cut]);
        assert!(
            matches!(World::load(&path), Err(LoadError::Codec(_))),
            "truncated to {cut} of {} bytes",
            bytes.len()
        );
    }

    // one byte past the checksum
    let mut longer = bytes.clone();
    longer.push(0);
    let path = scratch.write(&longer);
    assert!(matches!(
        World::load(&path),
        Err(LoadError::Codec(CodecError::TrailingBytes { at })) if at == bytes.len()
    ));

    // one flipped bit in the middle of every section
    for &(name, start, end) in &ends {
        let mut flipped = bytes.clone();
        flipped[(start + end) / 2] ^= 0x10;
        let path = scratch.write(&flipped);
        assert!(matches!(World::load(&path), Err(LoadError::Codec(_))), "bit flipped in {name}");
    }

    // a directory opens, but reading it fails
    assert!(matches!(World::load(&scratch.0), Err(LoadError::Io(_))));
    assert!(matches!(World::load(&scratch.0.join("missing.pdw")), Err(LoadError::Io(_))));
}
