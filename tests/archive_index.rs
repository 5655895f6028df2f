//! The archive index against a linear reference, on the seed-42 small world.
//!
//! `ArchiveStore::iter` walks every row in key order. Once that walk is
//! checked to hold every row in (surt, captured) order, the rows an index
//! query should return are a run of it: an exact lookup, a host scan and a
//! directory scan must each return exactly that run, row for row, and count
//! one lookup (and, for a scan, one scanned row per row) each. Both of the
//! world's archives are checked: the one generation built by inserts, and
//! the one a snapshot decode builds in bulk.

use permadead::archive::{ArchiveStore, Snapshot};
use permadead::serve::world_from_scenario;
use permadead::sim::{Scenario, ScenarioConfig};
use permadead::url::{surt, surt_directory_prefix, surt_host_prefix, Url};
use permadead_worldstore::World;

/// The rows of the sorted reference whose SURT starts with `prefix`. In a
/// sorted list they are one run, found here by binary search.
fn run<'a, 'r>(reference: &'r [&'a Snapshot], prefix: &str) -> &'r [&'a Snapshot] {
    let from = reference.partition_point(|s| s.surt.as_str() < prefix);
    let len = reference[from..].partition_point(|s| s.surt.starts_with(prefix));
    &reference[from..from + len]
}

/// The same rows, the same row objects, in the same order.
fn same_rows<'a>(got: impl IntoIterator<Item = &'a Snapshot>, want: &[&'a Snapshot]) -> bool {
    let got: Vec<&Snapshot> = got.into_iter().collect();
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| std::ptr::eq(*a, *b))
}

fn check_against_linear_reference(archive: &ArchiveStore, dataset: &[Url]) {
    let reference: Vec<&Snapshot> = archive.iter().collect();
    assert_eq!(
        reference.len(),
        archive.len(),
        "iter() yields every row once"
    );
    assert!(
        reference
            .windows(2)
            .all(|w| (&w[0].surt, w[0].captured) <= (&w[1].surt, w[1].captured)),
        "iter() yields rows in (surt, captured) order"
    );

    // every distinct archived URL (its first row's), then every dataset URL
    let mut urls: Vec<&Url> = Vec::new();
    for (i, s) in reference.iter().enumerate() {
        if i == 0 || reference[i - 1].surt != s.surt {
            urls.push(&s.url);
        }
    }
    assert_eq!(archive.distinct_urls(), urls.len());
    urls.extend(dataset);
    assert!(
        dataset
            .iter()
            .any(|u| archive.first_snapshot_of(u).is_none()),
        "some dataset URL was never archived"
    );

    let (lookups, rows_scanned) = (archive.lookups.get(), archive.rows_scanned.get());
    let mut scanned = 0;
    for url in &urls {
        let key = surt(url);
        let exact: Vec<&Snapshot> = run(&reference, &key)
            .iter()
            .copied()
            .take_while(|s| s.surt == key)
            .collect();
        assert!(
            same_rows(archive.snapshots_of(url), &exact),
            "snapshots_of {url}"
        );
        assert!(
            archive.first_snapshot_of(url).map(|s| s as *const Snapshot)
                == exact.first().map(|s| *s as *const Snapshot),
            "first_snapshot_of {url}"
        );
        for prefix in [surt_host_prefix(url.host()), surt_directory_prefix(url)] {
            let want = run(&reference, &prefix);
            assert!(
                same_rows(archive.scan_surt_prefix(&prefix), want),
                "scan_surt_prefix {prefix}"
            );
            scanned += want.len() as u64;
        }
    }
    assert_eq!(
        archive.lookups.get() - lookups,
        4 * urls.len() as u64,
        "one lookup per query"
    );
    assert_eq!(
        archive.rows_scanned.get() - rows_scanned,
        scanned,
        "one scanned row per row a scan yields"
    );
}

#[test]
fn every_index_query_matches_a_linear_scan_of_the_archive() {
    let world = world_from_scenario(Scenario::generate(ScenarioConfig::small(42)), "small");
    let dataset: Vec<Url> = [&world.march, &world.september, &world.all_tagged]
        .into_iter()
        .flat_map(|table| table.rows())
        .map(|row| Url::parse(world.interner.resolve(row.url)).expect("stored URL parses"))
        .collect();
    assert!(
        world.archive.len() > 10_000,
        "a world worth indexing: {} rows",
        world.archive.len()
    );

    check_against_linear_reference(&world.archive, &dataset);
    let decoded = World::from_bytes(&world.to_bytes()).expect("snapshot decodes");
    check_against_linear_reference(&decoded.archive, &dataset);
    let seen = |a: &ArchiveStore| {
        a.iter()
            .map(|s| (s.surt.clone(), s.captured, s.initial_status))
            .collect::<Vec<_>>()
    };
    assert!(
        seen(&world.archive) == seen(&decoded.archive),
        "the decoded archive holds the same rows in the same order"
    );
}
