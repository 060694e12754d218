//! Acceptance test for zero-copy tile materialization: a warm-cache
//! region fetch over a 16-tile super-tile must perform exactly one
//! payload-sized copy — patching the member cells into the result array.
//! Everything upstream (cache hit, member decode) is refcounted buffer
//! sharing and must not contribute to `heaven.bytes_copied`.

use heaven_array::{CellType, MDArray, Minterval, Point, Tile, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{AccessPattern, ClusteringStrategy, ExportMode, Heaven, HeavenConfig};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, SimClock, TapeLibrary};

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// One 40x40 i32 object in 10x10 tiles → a 4x4 grid of 16 tiles.
fn setup() -> (Heaven, u64) {
    let clock = SimClock::new();
    let db = Database::new(heaven_tape::DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("climate", CellType::I32, 2).unwrap();
    let arr = MDArray::generate(mi(&[(0, 39), (0, 39)]), CellType::I32, |p| {
        (p.coord(0) * 100 + p.coord(1)) as f64
    });
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
    let tile_encoded = (Tile::header_len(2) + 10 * 10 * 4) as u64;
    let config = HeavenConfig {
        // all 16 tiles in a single super-tile
        supertile_bytes: Some(16 * tile_encoded),
        clustering: ClusteringStrategy::EStar(AccessPattern::Uniform),
        // no in-memory tile cache: the warm path must go through the
        // shared super-tile decode, not tile-cache hits
        mem_cache_bytes: 0,
        ..HeavenConfig::default()
    };
    (Heaven::new(adb, lib, config), oid)
}

#[test]
fn warm_fetch_of_16_tile_supertile_copies_payload_exactly_once() {
    let (mut heaven, oid) = setup();
    let report = heaven.export_object(oid, ExportMode::Tct).unwrap();
    assert_eq!(report.supertiles, 1, "16 tiles must land in one super-tile");
    let st = heaven.catalog().object_supertiles(oid)[0];
    assert_eq!(heaven.catalog().meta(st).unwrap().members.len(), 16);

    let region = mi(&[(0, 39), (0, 39)]);
    // Cold fetch stages the super-tile payload into the disk cache.
    let cold = heaven.fetch_region_hierarchical(oid, &region).unwrap();

    let before = heaven.stats().bytes_copied;
    let warm = heaven.fetch_region_hierarchical(oid, &region).unwrap();
    let copied = heaven.stats().bytes_copied - before;

    let payload_bytes = region.cell_count() * CellType::I32.size_bytes() as u64;
    assert_eq!(
        copied, payload_bytes,
        "warm fetch must copy exactly one payload worth of bytes"
    );
    // the per-query breakdown carries the same delta (shown by \timing)
    let b = heaven.last_query_breakdown().unwrap();
    assert_eq!(b.bytes_copied, payload_bytes);
    assert_eq!(warm, cold);
    assert_eq!(warm.get_f64(&Point::new(vec![23, 7])).unwrap(), 2307.0);
}

#[test]
fn bytes_copied_is_visible_in_the_metrics_registry() {
    let (mut heaven, oid) = setup();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    let region = mi(&[(0, 9), (0, 9)]);
    heaven.fetch_region_hierarchical(oid, &region).unwrap();
    let snap = heaven.metrics().snapshot();
    let v = snap
        .iter()
        .find_map(|(name, v)| match (*name, v) {
            ("heaven.bytes_copied", heaven_obs::MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .unwrap_or(0);
    assert_eq!(v, heaven.stats().bytes_copied);
    assert!(v >= 10 * 10 * 4, "at least the patched region was counted");
}

#[test]
fn warm_plain_trim_condenser_copies_nothing() {
    let (mut heaven, oid) = setup();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    let region = mi(&[(5, 34), (3, 36)]);
    let whole = heaven.fetch_region_hierarchical(oid, &region).unwrap();
    // Warm: the super-tile is staged. The condenser folds every tile
    // piece where it lies instead of assembling the region.
    let rs = heaven_arraydb::run(
        &mut heaven,
        "select add_cells(climate[5:34, 3:36]) from climate",
    )
    .unwrap();
    assert_eq!(rs[0].value.as_scalar().unwrap(), whole.sum());
    let b = heaven.last_query_breakdown().unwrap();
    assert_eq!(
        b.bytes_copied, 0,
        "a condenser must not assemble its region"
    );
    assert!(
        b.disk_cache_hits > 0,
        "the pieces came from the staged super-tile"
    );
    assert_eq!(b.tape_fetches, 0);
}
