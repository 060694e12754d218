//! End-to-end tests of the HEAVEN system: insert → export → transparent
//! query across the hierarchy → maintenance.

use heaven_array::{CellType, Condenser, MDArray, Minterval, Point, Tiling};
use heaven_arraydb::{ArrayDb, TileProvider};
use heaven_core::{
    AccessPattern, ClusteringStrategy, EvictionPolicy, ExportMode, Heaven, HeavenConfig,
    HeavenError, PrefetchPolicy,
};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, FaultConfig, MediumId, SimClock, TapeLibrary, WritePayload};
use std::sync::Arc;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

fn value_at(p: &Point) -> f64 {
    (p.coord(0) * 1000 + p.coord(1)) as f64
}

/// Build a Heaven with one 60x60 i32 object in 10x10 tiles.
fn setup(config: HeavenConfig) -> (Heaven, u64) {
    let clock = SimClock::new();
    let db = Database::new(heaven_tape::DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("climate", CellType::I32, 2).unwrap();
    let arr = MDArray::generate(mi(&[(0, 59), (0, 59)]), CellType::I32, value_at);
    let oid = adb
        .insert_object(
            "climate",
            &arr,
            Tiling::Regular {
                tile_shape: vec![10, 10],
            },
        )
        .unwrap();
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock);
    (Heaven::new(adb, lib, config), oid)
}

fn small_st_config() -> HeavenConfig {
    HeavenConfig {
        // ~4 tiles of 10x10 i32 (400 B payload + header) per super-tile
        supertile_bytes: Some(4 * 500),
        clustering: ClusteringStrategy::EStar(AccessPattern::Uniform),
        ..HeavenConfig::default()
    }
}

#[test]
fn export_then_query_returns_identical_data() {
    let (mut heaven, oid) = setup(small_st_config());
    let before = heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 59), (0, 59)]))
        .unwrap();
    let report = heaven.export_object(oid, ExportMode::Tct).unwrap();
    assert!(report.supertiles > 1);
    assert!(report.bytes > 0);
    heaven.clear_caches();
    let after = heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 59), (0, 59)]))
        .unwrap();
    assert_eq!(before, after, "data must survive the tape roundtrip");
}

#[test]
fn provider_object_meta_shares_the_tile_list() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    let a = TileProvider::object_meta(&heaven, oid).unwrap();
    let b = TileProvider::object_meta(&heaven, oid).unwrap();
    assert_eq!(a.tiles.len(), 36);
    assert!(
        Arc::ptr_eq(&a.tiles, &b.tiles),
        "object_meta copied the tile list"
    );
    assert!(Arc::ptr_eq(
        &a.tiles,
        &heaven.arraydb().object(oid).unwrap().tiles
    ));
}

#[test]
fn naive_export_also_roundtrips() {
    let (mut heaven, oid) = setup(small_st_config());
    let report = heaven.export_object(oid, ExportMode::Naive).unwrap();
    assert_eq!(report.supertiles, 36, "one block per tile");
    heaven.clear_caches();
    let sub = heaven
        .fetch_region_hierarchical(oid, &mi(&[(15, 25), (35, 45)]))
        .unwrap();
    for p in sub.domain().iter_points() {
        assert_eq!(sub.get_f64(&p).unwrap(), value_at(&p));
    }
}

#[test]
fn partial_query_fetches_only_touching_supertiles() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let total_sts = heaven.catalog().object_supertiles(oid).len();
    // A query inside one tile.
    heaven
        .fetch_region_hierarchical(oid, &mi(&[(2, 5), (2, 5)]))
        .unwrap();
    let fetched = heaven.stats().st_tape_fetches;
    assert!(fetched >= 1);
    assert!(
        (fetched as usize) < total_sts,
        "fetched {fetched} of {total_sts} super-tiles for a tiny query"
    );
}

#[test]
fn caches_serve_repeated_queries_without_tape() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let q = mi(&[(0, 19), (0, 19)]);
    heaven.fetch_region_hierarchical(oid, &q).unwrap();
    let tape_after_first = heaven.tape_stats().bytes_read;
    heaven.fetch_region_hierarchical(oid, &q).unwrap();
    assert_eq!(
        heaven.tape_stats().bytes_read,
        tape_after_first,
        "second identical query must not touch tape"
    );
    assert!(heaven.tile_cache_stats().hits > 0);
}

#[test]
fn query_language_works_over_exported_objects() {
    let (mut heaven, oid) = setup(small_st_config());
    // compute expected average over a region before export
    let region = mi(&[(10, 29), (10, 29)]);
    let direct = heaven.fetch_region_hierarchical(oid, &region).unwrap();
    let expected = Condenser::Avg.eval(&direct).unwrap();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let rs = heaven_arraydb::run(
        &mut heaven,
        "select avg_cells(c[10:29, 10:29]) from climate as c",
    )
    .unwrap();
    assert_eq!(rs[0].value.as_scalar().unwrap(), expected);
}

#[test]
fn framing_query_over_archive_fetches_less_than_bbox() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();

    // L-frame: two corners; bounding box would cover everything.
    heaven.clear_caches();
    let rs = heaven_arraydb::run(
        &mut heaven,
        "select c[0:9,0:9 | 50:59,50:59] from climate as c",
    )
    .unwrap();
    let frame_bytes = heaven.stats().st_tape_bytes;
    let arr = rs[0].value.as_array().unwrap();
    assert_eq!(arr.get_f64(&Point::new(vec![5, 5])).unwrap(), 5005.0);
    assert_eq!(arr.get_f64(&Point::new(vec![55, 55])).unwrap(), 55055.0);
    assert_eq!(arr.get_f64(&Point::new(vec![30, 30])).unwrap(), 0.0);

    // Fresh system for the bounding-box comparison.
    let (mut heaven2, oid2) = setup(small_st_config());
    heaven2.export_object(oid2, ExportMode::Tct).unwrap();
    heaven2.clear_caches();
    heaven2
        .fetch_region_hierarchical(oid2, &mi(&[(0, 59), (0, 59)]))
        .unwrap();
    let bbox_bytes = heaven2.stats().st_tape_bytes;
    assert!(
        frame_bytes < bbox_bytes,
        "frame fetch ({frame_bytes}) must move less than bbox fetch ({bbox_bytes})"
    );
}

#[test]
fn precomputed_catalog_answers_without_tape() {
    let mut config = small_st_config();
    config.precompute = vec![Condenser::Avg, Condenser::Sum];
    let (mut heaven, oid) = setup(config);
    let region = mi(&[(0, 59), (0, 59)]);
    let expected = {
        let direct = heaven.fetch_region_hierarchical(oid, &region).unwrap();
        Condenser::Avg.eval(&direct).unwrap()
    };
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let tape_before = heaven.tape_stats().bytes_read;
    let rs = heaven_arraydb::run(
        &mut heaven,
        "select avg_cells(c[0:59, 0:59]) from climate as c",
    )
    .unwrap();
    assert_eq!(rs[0].value.as_scalar().unwrap(), expected);
    assert_eq!(
        heaven.tape_stats().bytes_read,
        tape_before,
        "aggregate over whole tiles must combine precomputed partials, not read tape"
    );
    assert!(heaven.precomp_stats().combine_hits >= 1);
}

#[test]
fn reimport_restores_tiles_to_disk() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    heaven.reimport_object(oid).unwrap();
    // every tile back on disk
    let tiles: Vec<u64> = heaven
        .arraydb()
        .object(oid)
        .unwrap()
        .tiles
        .iter()
        .map(|&(_, t)| t)
        .collect();
    for t in tiles {
        assert_eq!(
            heaven.arraydb().tile_location(t).unwrap(),
            heaven_arraydb::TileLocation::Disk
        );
    }
    // data intact, no tape reads needed
    let before = heaven.tape_stats().bytes_read;
    let sub = heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 59), (0, 59)]))
        .unwrap();
    assert_eq!(heaven.tape_stats().bytes_read, before);
    assert_eq!(
        sub.get_f64(&Point::new(vec![42, 17])).unwrap(),
        value_at(&Point::new(vec![42, 17]))
    );
    // re-import twice is an error
    assert!(heaven.reimport_object(oid).is_err());
}

#[test]
fn update_region_rewrites_affected_supertiles() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let patch = MDArray::generate(mi(&[(5, 14), (5, 14)]), CellType::I32, |_| -1.0);
    heaven.update_region(oid, &patch).unwrap();
    heaven.clear_caches();
    let sub = heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 19), (0, 19)]))
        .unwrap();
    assert_eq!(sub.get_f64(&Point::new(vec![10, 10])).unwrap(), -1.0);
    assert_eq!(sub.get_f64(&Point::new(vec![0, 0])).unwrap(), 0.0);
    assert_eq!(
        sub.get_f64(&Point::new(vec![15, 15])).unwrap(),
        value_at(&Point::new(vec![15, 15]))
    );
    // dead space appeared on some medium
    let total_dead: u64 = heaven
        .arraydb()
        .object(oid)
        .map(|_| ())
        .ok()
        .map(|_| {
            heaven
                .catalog()
                .object_supertiles(oid)
                .iter()
                .map(|&st| heaven.catalog().address(st).unwrap().medium)
                .map(|m| heaven.dead_bytes_on(m))
                .sum()
        })
        .unwrap_or(0);
    assert!(total_dead > 0);
}

#[test]
fn delete_object_leaves_dead_space_and_reclaim_compacts() {
    let (mut heaven, oid) = setup(small_st_config());
    // add a second object so the medium keeps live data after the delete
    let arr2 = MDArray::generate(mi(&[(0, 29), (0, 29)]), CellType::I32, |_| 7.0);
    let oid2 = heaven
        .arraydb_mut()
        .insert_object(
            "climate",
            &arr2,
            Tiling::Regular {
                tile_shape: vec![10, 10],
            },
        )
        .unwrap();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.export_object(oid2, ExportMode::Tct).unwrap();
    let medium = heaven
        .catalog()
        .address(heaven.catalog().object_supertiles(oid)[0])
        .unwrap()
        .medium;

    heaven.delete_object(oid).unwrap();
    assert!(heaven.dead_fraction(medium) > 0.0);
    assert!(heaven.arraydb().object(oid).is_err());

    // compaction rewrites only live super-tiles
    let rewritten = heaven.reclaim_medium(medium, 0.1).unwrap();
    assert!(rewritten > 0);
    assert_eq!(heaven.dead_bytes_on(medium), 0);
    // second object still fully readable
    heaven.clear_caches();
    let sub = heaven
        .fetch_region_hierarchical(oid2, &mi(&[(0, 29), (0, 29)]))
        .unwrap();
    assert_eq!(sub.sum(), 7.0 * 900.0);
}

/// The `setup` object plus a second 30x30 object of constant 7, both
/// exported with the TCT.
fn two_exported_objects(config: HeavenConfig) -> (Heaven, u64, u64) {
    let (mut heaven, oid) = setup(config);
    let arr2 = MDArray::generate(mi(&[(0, 29), (0, 29)]), CellType::I32, |_| 7.0);
    let oid2 = heaven
        .arraydb_mut()
        .insert_object(
            "climate",
            &arr2,
            Tiling::Regular {
                tile_shape: vec![10, 10],
            },
        )
        .unwrap();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.export_object(oid2, ExportMode::Tct).unwrap();
    (heaven, oid, oid2)
}

/// Used bytes minus the live copies of every catalogued super-tile on
/// each medium, computed object by object.
fn expected_dead(heaven: &Heaven) -> Vec<(MediumId, u64)> {
    let media = heaven.store().library().media_ids();
    let oids = heaven.arraydb().object_ids();
    media
        .into_iter()
        .map(|m| {
            let live: u64 = oids
                .iter()
                .flat_map(|&oid| heaven.catalog().object_supertiles(oid))
                .flat_map(|st| heaven.catalog().entry(st).unwrap().copies())
                .filter(|a| a.medium == m)
                .map(|a| a.len)
                .sum();
            let used = heaven.store().library().medium_used(m).unwrap();
            (m, used - live)
        })
        .collect()
}

fn dead_per_medium(heaven: &Heaven) -> Vec<(MediumId, u64)> {
    let media = heaven.store().library().media_ids();
    media
        .into_iter()
        .map(|m| (m, heaven.dead_bytes_on(m)))
        .collect()
}

#[test]
fn reclaiming_a_replica_medium_keeps_its_live_replicas() {
    let (mut heaven, oid, oid2) = two_exported_objects(HeavenConfig {
        dual_copy: true,
        ..small_st_config()
    });
    heaven.delete_object(oid).unwrap();
    let sts = heaven.catalog().object_supertiles(oid2);
    let first = heaven.catalog().entry(sts[0]).unwrap().clone();
    let (primary_medium, replica_medium) = (first.addr.medium, first.replica.unwrap().medium);
    assert!(heaven.dead_fraction(replica_medium) > 0.5);

    // Every live copy on the medium is rewritten, replicas included.
    let rewritten = heaven.reclaim_medium(replica_medium, 0.1).unwrap();
    assert_eq!(rewritten, sts.len());
    assert_eq!(heaven.dead_bytes_on(replica_medium), 0);
    for &st in &sts {
        for a in heaven.catalog().entry(st).unwrap().copies() {
            assert!(
                heaven
                    .store()
                    .library()
                    .covers(a.medium, a.offset, a.len)
                    .unwrap(),
                "catalogued copy {a:?} of super-tile {st} is not on its medium"
            );
        }
    }

    // Recycle the primary medium (erased, then overwritten with foreign
    // bytes): every read must fail over to the relocated replicas.
    {
        let mut store = heaven.store();
        let lib = store.library_mut();
        let used = lib.medium_used(primary_medium).unwrap();
        lib.erase_medium(primary_medium).unwrap();
        lib.write(
            primary_medium,
            WritePayload::real(vec![0xA5u8; used as usize]),
        )
        .unwrap();
    }
    heaven.clear_caches();
    let failures_before = heaven.metrics().counter("hsm.checksum_failures").get();
    let sub = heaven
        .fetch_region_hierarchical(oid2, &mi(&[(0, 29), (0, 29)]))
        .unwrap();
    assert_eq!(sub.sum(), 7.0 * 900.0);
    assert_eq!(
        heaven.metrics().counter("hsm.checksum_failures").get() - failures_before,
        sts.len() as u64,
        "every super-tile was served by its replica"
    );
}

#[test]
fn dual_copy_dead_space_counts_every_copy_and_survives_rebuilds() {
    let (mut heaven, oid) = setup(HeavenConfig {
        dual_copy: true,
        ..small_st_config()
    });
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    let patch = MDArray::generate(mi(&[(10, 12), (10, 12)]), CellType::I32, |_| -1.0);
    heaven.update_region(oid, &patch).unwrap();
    // The rewritten super-tile's old primary and old replica are both
    // dead, each on its own medium.
    let dead = dead_per_medium(&heaven);
    assert_eq!(dead.len(), 2);
    assert!(dead[0].1 > 0 && dead[0].1 == dead[1].1, "{dead:?}");
    assert_eq!(dead, expected_dead(&heaven));
    heaven.rebuild_archive_catalog().unwrap();
    assert_eq!(dead_per_medium(&heaven), dead);
    // A media scan re-registers what it finds (replicas supersede their
    // primaries in tape order); dead space follows the new catalog.
    heaven.scavenge_catalog_from_media().unwrap();
    assert_eq!(dead_per_medium(&heaven), expected_dead(&heaven));
    heaven.clear_caches();
    let sub = heaven
        .fetch_region_hierarchical(oid, &mi(&[(9, 13), (9, 13)]))
        .unwrap();
    assert_eq!(sub.get_f64(&Point::new(vec![11, 11])).unwrap(), -1.0);
    assert_eq!(
        sub.get_f64(&Point::new(vec![9, 9])).unwrap(),
        value_at(&Point::new(vec![9, 9]))
    );
}

#[test]
fn reclaim_under_corruption_erases_nothing() {
    let (mut heaven, oid, oid2) = two_exported_objects(small_st_config());
    let medium = heaven
        .catalog()
        .address(heaven.catalog().object_supertiles(oid)[0])
        .unwrap()
        .medium;
    heaven.delete_object(oid).unwrap();
    let segments = heaven.store().library().medium_segments(medium).unwrap();
    let dead = heaven.dead_bytes_on(medium);
    heaven.set_fault_plan(Some(FaultConfig {
        corrupt_per_read: 1.0,
        ..FaultConfig::quiet(5)
    }));
    let err = heaven.reclaim_medium(medium, 0.1).unwrap_err();
    assert!(matches!(err, HeavenError::MediaLost { .. }), "{err}");
    assert_eq!(
        heaven.store().library().medium_segments(medium).unwrap(),
        segments,
        "a failed reclaim must leave the medium untouched"
    );
    assert_eq!(heaven.dead_bytes_on(medium), dead);
    heaven.set_fault_plan(None);
    heaven.clear_caches();
    let sub = heaven
        .fetch_region_hierarchical(oid2, &mi(&[(0, 29), (0, 29)]))
        .unwrap();
    assert_eq!(sub.sum(), 7.0 * 900.0);
}

#[test]
fn prefetched_supertile_serves_next_query_from_cache() {
    let mut config = small_st_config();
    config.prefetch = PrefetchPolicy::NextInOrder(3);
    let (mut heaven, oid) = setup(config);
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let sts = heaven.catalog().object_supertiles(oid);
    let r0 = heaven.catalog().meta(sts[0]).unwrap().members[0]
        .domain
        .clone();
    let r1 = heaven.catalog().meta(sts[1]).unwrap().members[0]
        .domain
        .clone();
    heaven.fetch_region_hierarchical(oid, &r0).unwrap();
    let foreground = |h: &Heaven| h.tape_stats().bytes_read - h.stats().prefetch_bytes;
    let fg_after_first = foreground(&heaven);
    heaven.fetch_region_hierarchical(oid, &r1).unwrap();
    assert_eq!(
        foreground(&heaven),
        fg_after_first,
        "successor query must be served by the prefetched super-tile \
         (only background prefetch traffic may grow)"
    );
}

#[test]
fn double_export_rejected() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    assert!(heaven.export_object(oid, ExportMode::Tct).is_err());
}

#[test]
fn eviction_policies_all_function_end_to_end() {
    for policy in EvictionPolicy::all() {
        let mut config = small_st_config();
        config.eviction = policy;
        config.disk_cache_bytes = 3 * 2048; // room for ~3 small super-tiles
        let (mut heaven, oid) = setup(config);
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        heaven.clear_caches();
        // sweep all corners twice
        for _ in 0..2 {
            for q in [
                mi(&[(0, 9), (0, 9)]),
                mi(&[(50, 59), (0, 9)]),
                mi(&[(0, 9), (50, 59)]),
                mi(&[(50, 59), (50, 59)]),
            ] {
                let sub = heaven.fetch_region_hierarchical(oid, &q).unwrap();
                let p = sub.domain().lo();
                assert_eq!(sub.get_f64(&p).unwrap(), value_at(&p), "{policy:?}");
            }
        }
    }
}

#[test]
fn tct_pipelined_time_beats_serialized() {
    let (mut heaven, oid) = setup(small_st_config());
    let report = heaven.export_object(oid, ExportMode::Tct).unwrap();
    assert!(report.pipelined_s <= report.elapsed_s + 1e-9);
    assert!(report.pipelined_s > 0.0);
}

#[test]
fn scheduling_toggle_changes_fetch_order_not_results() {
    for scheduling in [true, false] {
        let mut config = small_st_config();
        config.scheduling = scheduling;
        let (mut heaven, oid) = setup(config);
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        heaven.clear_caches();
        let sub = heaven
            .fetch_region_hierarchical(oid, &mi(&[(0, 59), (0, 59)]))
            .unwrap();
        let p = Point::new(vec![33, 44]);
        assert_eq!(sub.get_f64(&p).unwrap(), value_at(&p));
    }
}

/// Sessions open on a `Heaven` between its `&mut` operations: two
/// sessions read the archive, close, the same system exports a new
/// object, and a fresh session reads that object byte-exact.
#[test]
fn sessions_on_a_heaven_interleave_with_exports() {
    let (mut heaven, oid) = setup(small_st_config());
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let whole = mi(&[(0, 59), (0, 59)]);
    {
        let (a, b) = (heaven.session(), heaven.session());
        std::thread::scope(|s| {
            for (session, half) in [
                (&a, mi(&[(0, 29), (0, 59)])),
                (&b, mi(&[(30, 59), (0, 59)])),
            ] {
                s.spawn(move || {
                    let got = session.fetch_region(oid, &half).unwrap();
                    assert_eq!(got, MDArray::generate(half, CellType::I32, value_at));
                });
            }
        });
    }
    let second = |p: &Point| -value_at(p);
    let arr = MDArray::generate(whole.clone(), CellType::I32, second);
    let oid2 = heaven
        .arraydb_mut()
        .insert_object(
            "climate",
            &arr,
            Tiling::Regular {
                tile_shape: vec![10, 10],
            },
        )
        .unwrap();
    heaven.export_object(oid2, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let fetches = heaven.stats().st_tape_fetches;
    assert_eq!(heaven.session().fetch_region(oid2, &whole).unwrap(), arr);
    assert!(
        heaven.stats().st_tape_fetches > fetches,
        "the new object must be read back from tape"
    );
}
