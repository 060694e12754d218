//! Tests of inter-query batch scheduling and export-report invariants.

use heaven_array::{CellType, MDArray, Minterval, Point, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{
    AccessPattern, ClusteringStrategy, ExportMode, Heaven, HeavenConfig, PrefetchPolicy,
};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

fn value_at(k: u64, p: &Point) -> f64 {
    (k * 100_000) as f64 + (p.coord(0) * 100 + p.coord(1)) as f64
}

/// Heaven with `n` 40x40 objects on a single drive.
fn setup(n: u64, scheduling: bool) -> (Heaven, Vec<u64>) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("c", CellType::F64, 2).unwrap();
    let mut oids = Vec::new();
    for k in 0..n {
        let arr = MDArray::generate(mi(&[(0, 39), (0, 39)]), CellType::F64, |p| value_at(k, p));
        oids.push(
            adb.insert_object(
                "c",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![10, 10],
                },
            )
            .unwrap(),
        );
    }
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
    let config = HeavenConfig {
        supertile_bytes: Some(4 * 1024),
        clustering: ClusteringStrategy::EStar(AccessPattern::Uniform),
        scheduling,
        medium_per_object: true, // spread objects over media
        ..HeavenConfig::default()
    };
    (Heaven::new(adb, lib, config), oids)
}

#[test]
fn batch_returns_correct_results_in_request_order() {
    let (mut heaven, oids) = setup(3, true);
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    heaven.clear_caches();
    // interleave objects deliberately
    let batch = vec![
        (oids[2], mi(&[(0, 9), (0, 9)])),
        (oids[0], mi(&[(30, 39), (30, 39)])),
        (oids[1], mi(&[(10, 19), (10, 19)])),
        (oids[2], mi(&[(20, 29), (0, 9)])),
    ];
    let results = heaven.fetch_batch(&batch).unwrap();
    assert_eq!(results.len(), 4);
    for ((oid, region), res) in batch.iter().zip(&results) {
        assert_eq!(res.domain(), region);
        let k = oids.iter().position(|o| o == oid).unwrap() as u64;
        for p in region.iter_points() {
            assert_eq!(res.get_f64(&p).unwrap(), value_at(k, &p), "object {oid}");
        }
    }
}

#[test]
fn batch_scheduling_reduces_mounts_on_interleaved_objects() {
    // Same batch, scheduling on vs off; objects on different media with a
    // single drive, so interleaved access thrashes.
    let batch_spec: Vec<(usize, Minterval)> =
        (0..8).map(|i| (i % 4, mi(&[(0, 39), (0, 39)]))).collect();
    let mut mounts = Vec::new();
    for scheduling in [false, true] {
        let (mut heaven, oids) = setup(4, scheduling);
        for &oid in &oids {
            heaven.export_object(oid, ExportMode::Tct).unwrap();
        }
        heaven.clear_caches();
        let before = heaven.tape_stats().mounts;
        let batch: Vec<(u64, Minterval)> = batch_spec
            .iter()
            .map(|&(i, ref r)| (oids[i], r.clone()))
            .collect();
        heaven.fetch_batch(&batch).unwrap();
        mounts.push(heaven.tape_stats().mounts - before);
    }
    assert!(
        mounts[1] <= mounts[0],
        "scheduled {} mounts vs naive {}",
        mounts[1],
        mounts[0]
    );
    // with medium-per-object and 4 objects, the scheduled batch needs at
    // most one mount per medium (one may still be warm from the export)
    assert!(mounts[1] <= 4, "scheduled mounts {}", mounts[1]);
}

#[test]
fn batch_on_unexported_objects_reads_from_disk() {
    let (mut heaven, oids) = setup(2, true);
    // nothing exported: the batch must work purely from secondary storage
    let batch = vec![
        (oids[0], mi(&[(0, 19), (0, 19)])),
        (oids[1], mi(&[(20, 39), (20, 39)])),
    ];
    let results = heaven.fetch_batch(&batch).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(heaven.tape_stats().bytes_read, 0);
    assert_eq!(
        results[1].get_f64(&Point::new(vec![25, 25])).unwrap(),
        value_at(1, &Point::new(vec![25, 25]))
    );
}

#[test]
fn export_report_accounts_bytes_and_media() {
    // A tiny buffer pool forces the export's tile reads to hit the disk,
    // so the DBMS stage cost is visible.
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 8);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("c", CellType::F64, 2).unwrap();
    let arr = MDArray::generate(mi(&[(0, 39), (0, 39)]), CellType::F64, |p| value_at(0, p));
    let oid = adb
        .insert_object(
            "c",
            &arr,
            Tiling::Regular {
                tile_shape: vec![10, 10],
            },
        )
        .unwrap();
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
    let mut heaven = Heaven::new(
        adb,
        lib,
        HeavenConfig {
            supertile_bytes: Some(4 * 1024),
            ..HeavenConfig::default()
        },
    );
    let oids = [oid];
    let rep = heaven.export_object(oids[0], ExportMode::Tct).unwrap();
    // bytes = sum of encoded tile sizes
    let meta = heaven.arraydb().object(oids[0]).unwrap();
    let expect: u64 = meta
        .tiles
        .iter()
        .map(|(d, _)| heaven_array::Tile::header_len(2) as u64 + d.cell_count() * 8)
        .sum();
    assert_eq!(rep.bytes, expect);
    assert!(!rep.media.is_empty());
    assert!(rep.dbms_read_s > 0.0);
    assert!(rep.tape_write_s > 0.0);
    assert!(rep.pipelined_s <= rep.elapsed_s + 1e-9);
    // catalog agrees with report
    assert_eq!(
        heaven.catalog().object_supertiles(oids[0]).len(),
        rep.supertiles
    );
}

#[test]
fn medium_per_object_isolates_objects() {
    let (mut heaven, oids) = setup(3, true);
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    let mut media: Vec<u64> = oids
        .iter()
        .flat_map(|&oid| {
            heaven
                .catalog()
                .object_supertiles(oid)
                .into_iter()
                .map(|st| heaven.catalog().address(st).unwrap().medium)
                .collect::<Vec<_>>()
        })
        .collect();
    media.sort_unstable();
    media.dedup();
    assert_eq!(media.len(), 3, "each object on its own medium");
}

#[test]
fn naive_and_tct_exports_produce_identical_query_results() {
    let region = mi(&[(5, 34), (5, 34)]);
    let mut results = Vec::new();
    for mode in [ExportMode::Naive, ExportMode::Tct] {
        let (mut heaven, oids) = setup(1, true);
        heaven.export_object(oids[0], mode).unwrap();
        heaven.clear_caches();
        results.push(heaven.fetch_region_hierarchical(oids[0], &region).unwrap());
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn export_collection_archives_everything_once() {
    let (mut heaven, oids) = setup(3, true);
    // pre-export one object: export_collection must skip it
    heaven.export_object(oids[0], ExportMode::Tct).unwrap();
    let reports = heaven.export_collection("c", ExportMode::Tct).unwrap();
    assert_eq!(reports.len(), 2);
    for &oid in &oids {
        assert!(heaven.catalog().is_exported(oid));
    }
    // idempotent: second run exports nothing
    let again = heaven.export_collection("c", ExportMode::Tct).unwrap();
    assert!(again.is_empty());
}

#[test]
fn archive_report_reflects_state() {
    let (mut heaven, oids) = setup(2, true);
    heaven.export_object(oids[0], ExportMode::Tct).unwrap();
    let r = heaven.archive_report();
    assert_eq!(r.exported_objects, 1);
    assert_eq!(r.resident_objects, 1);
    assert!(r.supertiles > 0);
    assert!(!r.media.is_empty());
    assert!(r.simulated_s > 0.0);
    let text = r.to_string();
    assert!(text.contains("1 exported / 1 resident"));
    assert!(text.contains("medium"));
}

#[test]
fn mo_media_serve_sparse_queries_with_partial_supertile_reads() {
    // Same archive on tape vs a magneto-optical jukebox: the MO system may
    // read individual member tiles out of a super-tile block; tape must
    // stream the whole block.
    let build = |profile: DeviceProfile| -> (Heaven, u64) {
        let clock = SimClock::new();
        let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
        let mut adb = ArrayDb::create(db).unwrap();
        adb.create_collection("c", CellType::F64, 2).unwrap();
        let arr = MDArray::generate(mi(&[(0, 39), (0, 39)]), CellType::F64, |p| value_at(0, p));
        let oid = adb
            .insert_object(
                "c",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![10, 10],
                },
            )
            .unwrap();
        let lib = TapeLibrary::new(profile, 1, clock);
        let mut heaven = Heaven::new(
            adb,
            lib,
            HeavenConfig {
                supertile_bytes: Some(16 * 1024), // all 16 tiles in one ST
                ..HeavenConfig::default()
            },
        );
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        heaven.clear_caches();
        (heaven, oid)
    };
    let q = mi(&[(0, 9), (0, 9)]); // one tile of sixteen
    let (mut tape, oid_t) = build(DeviceProfile::ibm3590());
    let sub_t = tape.fetch_region_hierarchical(oid_t, &q).unwrap();
    let (mut mo, oid_m) = build(DeviceProfile::mo_disk());
    let sub_m = mo.fetch_region_hierarchical(oid_m, &q).unwrap();
    assert_eq!(sub_t, sub_m, "identical data either way");
    assert!(
        mo.stats().st_tape_bytes < tape.stats().st_tape_bytes / 4,
        "MO read {} bytes, tape {}",
        mo.stats().st_tape_bytes,
        tape.stats().st_tape_bytes
    );
}

#[test]
fn slot_limited_archive_pays_shelf_fetches() {
    let (mut heaven, oids) = setup(4, true); // medium per object
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    heaven.clear_caches();
    heaven.set_slot_config(heaven_tape::SlotConfig {
        slots: 2,
        shelf_fetch_s: 240.0,
    });
    // touching all four objects must unshelve at least one medium
    let t0 = heaven.clock().now_s();
    for &oid in &oids {
        heaven
            .fetch_region_hierarchical(oid, &mi(&[(0, 9), (0, 9)]))
            .unwrap();
    }
    let lib = heaven.store().library();
    assert!(lib.shelf_fetches() >= 1);
    assert!(heaven.clock().now_s() - t0 >= 240.0);
}

#[test]
fn compressed_export_roundtrips_and_shrinks_tape_traffic() {
    // Classified-raster-like data (long runs) compresses; the query result
    // must be identical either way.
    let build = |compress: bool| -> (Heaven, u64) {
        let clock = SimClock::new();
        let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
        let mut adb = ArrayDb::create(db).unwrap();
        adb.create_collection("mask", CellType::U8, 2).unwrap();
        // a step mask: big constant regions
        let arr = MDArray::generate(mi(&[(0, 63), (0, 63)]), CellType::U8, |p| {
            if p.coord(0) < 32 {
                0.0
            } else {
                200.0
            }
        });
        let oid = adb
            .insert_object(
                "mask",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![16, 16],
                },
            )
            .unwrap();
        let lib = TapeLibrary::new(DeviceProfile::dlt7000(), 1, clock);
        let mut heaven = Heaven::new(
            adb,
            lib,
            HeavenConfig {
                supertile_bytes: Some(2048),
                compress,
                ..HeavenConfig::default()
            },
        );
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        heaven.clear_caches();
        (heaven, oid)
    };
    let (mut plain, oid_p) = build(false);
    let (mut comp, oid_c) = build(true);
    let q = mi(&[(10, 50), (10, 50)]);
    let a = plain.fetch_region_hierarchical(oid_p, &q).unwrap();
    let b = comp.fetch_region_hierarchical(oid_c, &q).unwrap();
    assert_eq!(a, b, "compression must be lossless");
    assert!(
        comp.stats().st_tape_bytes < plain.stats().st_tape_bytes / 2,
        "compressed moved {} vs plain {}",
        comp.stats().st_tape_bytes,
        plain.stats().st_tape_bytes
    );
}

/// A compressed archive of one 64x64 u8 object (runs of equal cells, 16
/// tiles, several tiles per super-tile) plus an unexported `ArrayDb`
/// holding the same cells as ground truth.
fn compressed_with_truth(prefetch: PrefetchPolicy) -> (Heaven, ArrayDb, u64) {
    let value = |p: &Point| ((p.coord(0) / 8) * 10 + p.coord(1) / 32) as f64;
    let arr = MDArray::generate(mi(&[(0, 63), (0, 63)]), CellType::U8, value);
    let tiling = Tiling::Regular {
        tile_shape: vec![16, 16],
    };
    let clock = SimClock::new();
    let mut adbs = [0, 1].map(|_| {
        let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
        let mut adb = ArrayDb::create(db).unwrap();
        adb.create_collection("m", CellType::U8, 2).unwrap();
        adb
    });
    let oid = adbs[0].insert_object("m", &arr, tiling.clone()).unwrap();
    assert_eq!(adbs[1].insert_object("m", &arr, tiling).unwrap(), oid);
    let [adb, truth] = adbs;
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
    let config = HeavenConfig {
        supertile_bytes: Some(2048),
        compress: true,
        prefetch,
        ..HeavenConfig::default()
    };
    let mut heaven = Heaven::new(adb, lib, config);
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    (heaven, truth, oid)
}

#[test]
fn compressed_batch_returns_ground_truth_cells() {
    let (mut heaven, mut truth, oid) = compressed_with_truth(PrefetchPolicy::None);
    let batch = vec![
        (oid, mi(&[(0, 40), (5, 63)])),
        (oid, mi(&[(30, 63), (0, 20)])),
    ];
    let results = heaven.fetch_batch(&batch).unwrap();
    for ((oid, region), got) in batch.iter().zip(&results) {
        assert_eq!(*got, truth.read_subarray(*oid, region).unwrap(), "{region}");
    }
}

#[test]
fn compressed_prefetch_returns_ground_truth_cells() {
    let (mut heaven, mut truth, oid) = compressed_with_truth(PrefetchPolicy::NextInOrder(2));
    // The first query prefetches its successors; the next ones read them.
    for region in [mi(&[(0, 15), (0, 15)]), mi(&[(0, 63), (0, 63)])] {
        let got = heaven.fetch_region_hierarchical(oid, &region).unwrap();
        assert_eq!(got, truth.read_subarray(oid, &region).unwrap(), "{region}");
    }
    assert!(heaven.metrics().counter("heaven.prefetches").get() > 0);
}

#[test]
fn compressed_archive_survives_update_and_restart() {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("m", CellType::U8, 2).unwrap();
    let arr = MDArray::generate(mi(&[(0, 31), (0, 31)]), CellType::U8, |_| 7.0);
    let oid = adb
        .insert_object(
            "m",
            &arr,
            Tiling::Regular {
                tile_shape: vec![16, 16],
            },
        )
        .unwrap();
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
    let mut heaven = Heaven::new(
        adb,
        lib,
        HeavenConfig {
            supertile_bytes: Some(2048),
            compress: true,
            ..HeavenConfig::default()
        },
    );
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    let patch = MDArray::generate(mi(&[(0, 7), (0, 7)]), CellType::U8, |_| 9.0);
    heaven.update_region(oid, &patch).unwrap();
    heaven.arraydb_mut().database_mut().checkpoint().unwrap();
    heaven.arraydb_mut().database_mut().crash();
    heaven.arraydb_mut().database_mut().recover().unwrap();
    heaven.arraydb_mut().rebuild_catalogs().unwrap();
    heaven.rebuild_archive_catalog().unwrap();
    let back = heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 31), (0, 31)]))
        .unwrap();
    assert_eq!(back.get_f64(&Point::new(vec![2, 2])).unwrap(), 9.0);
    assert_eq!(back.get_f64(&Point::new(vec![20, 20])).unwrap(), 7.0);
}

#[test]
fn media_scan_rebuilds_a_lost_catalog() {
    // Total catalog loss (in-memory AND persisted): a sequential scan over
    // the media recovers every super-tile, including post-update versions.
    let (mut heaven, oids) = setup(2, true);
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    // update one region: appends a new block, leaves a dead one behind
    let patch = MDArray::generate(mi(&[(0, 4), (0, 4)]), CellType::F64, |_| -3.0);
    heaven.update_region(oids[0], &patch).unwrap();
    let before: Vec<usize> = oids
        .iter()
        .map(|&o| heaven.catalog().object_supertiles(o).len())
        .collect();

    let recovered = heaven.scavenge_catalog_from_media().unwrap();
    assert!(recovered > 0);
    let after: Vec<usize> = oids
        .iter()
        .map(|&o| heaven.catalog().object_supertiles(o).len())
        .collect();
    assert_eq!(before, after, "same live super-tiles per object");

    // data correct, including the update (the newer block wins)
    let sub = heaven
        .fetch_region_hierarchical(oids[0], &mi(&[(0, 9), (0, 9)]))
        .unwrap();
    assert_eq!(sub.get_f64(&Point::new(vec![2, 2])).unwrap(), -3.0);
    assert_eq!(
        sub.get_f64(&Point::new(vec![8, 8])).unwrap(),
        value_at(0, &Point::new(vec![8, 8]))
    );
    let sub2 = heaven
        .fetch_region_hierarchical(oids[1], &mi(&[(30, 39), (30, 39)]))
        .unwrap();
    assert_eq!(
        sub2.get_f64(&Point::new(vec![35, 35])).unwrap(),
        value_at(1, &Point::new(vec![35, 35]))
    );
}
