//! Property tests of the failure model: under *any* seeded fault
//! schedule, with dual-copy archival on, every query either returns the
//! exact fault-free bytes or fails with a typed
//! [`HeavenError::MediaLost`] — never silent corruption — and every
//! corrupted read is caught by its checksum.
//!
//! The configuration matrix below runs every combination of
//! compression, prefetch, dual copy, faults, eviction policy and cache
//! striping through the single owner (single fetches and batches) and
//! through one or four sessions (batched and FIFO), and checks every
//! answer against `ArrayDb::read_subarray` on a never-exported twin.
//!
//! The condenser oracle runs every condenser over every cell type through
//! RasQL and requires HEAVEN's folds to equal the twin's bit for bit,
//! whichever level serves each tile piece.

use heaven_array::{CellType, Condenser, MDArray, Minterval, ObjectId, Point, Tile, Tiling};
use heaven_arraydb::{ArrayDb, ObjectMeta, TileProvider};
use heaven_core::{EvictionPolicy, ExportMode, Heaven, HeavenConfig, HeavenError, PrefetchPolicy};
use heaven_obs::MetricValue;
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, FaultConfig, SimClock, TapeLibrary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TILE_EDGE: i64 = 16;
const GRID: i64 = 2;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

fn tile_region(t: i64) -> Minterval {
    let (gx, gy) = (t % GRID, t / GRID);
    mi(&[
        (gx * TILE_EDGE, (gx + 1) * TILE_EDGE - 1),
        (gy * TILE_EDGE, (gy + 1) * TILE_EDGE - 1),
    ])
}

/// A small archived system: one object, GRID x GRID tiles, one
/// super-tile per tile, dual-copy on. Exports happen fault-free; the
/// plan is armed afterwards so only the read path sees chaos.
fn build(plan: Option<FaultConfig>, compress: bool) -> (Heaven, u64) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("chaos", CellType::F32, 2).unwrap();
    let dom = mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]);
    let arr = MDArray::generate(dom, CellType::F32, |p: &Point| {
        (p.coord(0) * 1000 + p.coord(1)) as f64
    });
    let oid = adb
        .insert_object(
            "chaos",
            &arr,
            Tiling::Regular {
                tile_shape: vec![TILE_EDGE as u64, TILE_EDGE as u64],
            },
        )
        .unwrap();
    let tile_encoded = (Tile::header_len(2) + (TILE_EDGE * TILE_EDGE) as usize * 4) as u64;
    let config = HeavenConfig {
        supertile_bytes: Some(tile_encoded),
        mem_cache_bytes: 0,
        dual_copy: true,
        compress,
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock);
    let mut heaven = Heaven::new(adb, lib, config);
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.set_fault_plan(plan);
    (heaven, oid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any fault schedule: correct bytes or a typed `MediaLost`, never a
    /// silently wrong answer; checksum failures account for every
    /// corrupted read.
    #[test]
    fn faults_never_cause_silent_corruption(
        seed in 0u64..10_000,
        drive in 0.0f64..0.6,
        media in 0.0f64..0.6,
        corrupt in 0.0f64..0.6,
        robot in 0.0f64..0.5,
    ) {
        let (mut clean, oid) = build(None, false);
        let reference: Vec<MDArray> = (0..GRID * GRID)
            .map(|t| clean.fetch_region_hierarchical(oid, &tile_region(t)).unwrap())
            .collect();

        let mut fc = FaultConfig::chaos(seed);
        fc.drive_failure_per_read = drive;
        fc.media_read_error_per_read = media;
        fc.corrupt_per_read = corrupt;
        fc.robot_contention_per_mount = robot;
        let (mut faulty, oid_f) = build(Some(fc), false);
        prop_assert_eq!(oid_f, oid);

        for t in 0..GRID * GRID {
            match faulty.fetch_region_hierarchical(oid, &tile_region(t)) {
                Ok(got) => prop_assert_eq!(
                    &got,
                    &reference[t as usize],
                    "tile {} returned wrong bytes under faults",
                    t
                ),
                Err(HeavenError::MediaLost { .. }) => {} // typed loss is allowed
                Err(e) => prop_assert!(false, "untyped failure leaked: {e}"),
            }
        }
        let m = faulty.metrics();
        prop_assert_eq!(
            m.counter("hsm.checksum_failures").get(),
            m.counter("tape.corrupted_reads").get(),
            "every corrupted read must be rejected by its checksum"
        );
        // MediaLost is only legal when both copies were actually exhausted.
        if m.counter("hsm.media_lost").get() > 0 {
            prop_assert!(
                m.counter("tape.drive_failures").get()
                    + m.counter("tape.media_read_errors").get()
                    + m.counter("tape.corrupted_reads").get()
                    > 0
            );
        }
    }

    /// With faults disabled the whole ladder is dormant: zero recovery
    /// activity, byte-exact answers.
    #[test]
    fn quiet_plan_is_a_no_op(seed in 0u64..10_000) {
        let (mut clean, oid) = build(None, false);
        let (mut quiet, _) = build(Some(FaultConfig::quiet(seed)), false);
        for t in 0..GRID * GRID {
            let a = clean.fetch_region_hierarchical(oid, &tile_region(t)).unwrap();
            let b = quiet.fetch_region_hierarchical(oid, &tile_region(t)).unwrap();
            prop_assert_eq!(a, b);
        }
        let m = quiet.metrics();
        for c in ["hsm.retries", "hsm.failovers", "hsm.checksum_failures", "hsm.media_lost"] {
            prop_assert_eq!(m.counter(c).get(), 0, "{} must stay zero", c);
        }
    }

    /// Compression under chaos: the adaptive codec sits between the wire
    /// checksum and the cache. A flipped bit in a compressed block must
    /// surface as a typed error and fail over to the replica — never a
    /// panic, a codec-level wrong answer, or silently wrong bytes.
    #[test]
    fn compressed_archive_survives_chaos(
        seed in 0u64..10_000,
        drive in 0.0f64..0.5,
        media in 0.0f64..0.5,
        corrupt in 0.0f64..0.6,
    ) {
        let (mut clean, oid) = build(None, true);
        let reference: Vec<MDArray> = (0..GRID * GRID)
            .map(|t| clean.fetch_region_hierarchical(oid, &tile_region(t)).unwrap())
            .collect();

        let mut fc = FaultConfig::chaos(seed);
        fc.drive_failure_per_read = drive;
        fc.media_read_error_per_read = media;
        fc.corrupt_per_read = corrupt;
        fc.robot_contention_per_mount = 0.0;
        let (mut faulty, _) = build(Some(fc), true);

        for t in 0..GRID * GRID {
            match faulty.fetch_region_hierarchical(oid, &tile_region(t)) {
                Ok(got) => prop_assert_eq!(
                    &got,
                    &reference[t as usize],
                    "tile {} returned wrong bytes under faults with compression",
                    t
                ),
                Err(HeavenError::MediaLost { .. }) => {} // typed loss is allowed
                Err(e) => prop_assert!(false, "untyped failure leaked through the codec: {e}"),
            }
        }
        let m = faulty.metrics();
        prop_assert_eq!(
            m.counter("hsm.checksum_failures").get(),
            m.counter("tape.corrupted_reads").get(),
            "every corrupted compressed read must be rejected by its checksum"
        );
    }
}

// ------------------------------------------------------ config matrix

/// Tiles per axis of the matrix object (one super-tile per tile).
const MATRIX_GRID: i64 = 4;

/// Runs of one value in every other tile (compressible) beside unique
/// values (incompressible), so the adaptive codec takes both branches.
fn matrix_value(p: &Point) -> f64 {
    if (p.coord(0) / TILE_EDGE + p.coord(1) / TILE_EDGE) % 2 == 0 {
        7.0
    } else {
        (p.coord(0) * 1000 + p.coord(1)) as f64
    }
}

/// A fresh DBMS holding the matrix object, never exported: built once as
/// the ground-truth twin and once per case under HEAVEN.
fn matrix_db(clock: SimClock) -> (ArrayDb, u64) {
    let db = Database::new(DiskProfile::scsi2003(), clock, 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("matrix", CellType::F32, 2).unwrap();
    let edge = MATRIX_GRID * TILE_EDGE;
    let arr = MDArray::generate(
        mi(&[(0, edge - 1), (0, edge - 1)]),
        CellType::F32,
        matrix_value,
    );
    let tiling = Tiling::Regular {
        tile_shape: vec![TILE_EDGE as u64, TILE_EDGE as u64],
    };
    let oid = adb.insert_object("matrix", &arr, tiling).unwrap();
    (adb, oid)
}

/// Single tiles, rows, an unaligned window and the whole object, with
/// repeats, so both cache levels hit, miss and evict.
fn matrix_queries() -> Vec<Minterval> {
    let (e, last) = (TILE_EDGE, MATRIX_GRID * TILE_EDGE - 1);
    let tile = |t: i64| {
        let (x, y) = (t % MATRIX_GRID * e, t / MATRIX_GRID * e);
        mi(&[(x, x + e - 1), (y, y + e - 1)])
    };
    vec![
        tile(0),
        tile(5),
        mi(&[(0, last), (0, e - 1)]),
        mi(&[(e / 2, 2 * e + e / 2), (e / 2, 2 * e + e / 2)]),
        mi(&[(0, last), (0, last)]),
        tile(0),
        tile(15),
        mi(&[(2 * e, 3 * e - 1), (0, last)]),
        tile(5),
        mi(&[(0, last), (0, last)]),
        tile(10),
        mi(&[(e, last), (3 * e, last)]),
    ]
}

/// How a matrix case reads its queries.
#[derive(Debug, Clone, Copy)]
enum Access {
    /// `Heaven::fetch_region_hierarchical`, one query at a time.
    Owner,
    /// `Heaven::fetch_batch`, three queries per batch.
    OwnerBatch,
    /// Sessions opened on the `Heaven`, one per thread, with the queries
    /// dealt round-robin.
    Sessions { threads: usize, batched: bool },
}

/// One point of the configuration matrix.
#[derive(Debug, Clone, Copy)]
struct Case {
    compress: bool,
    prefetch: bool,
    dual_copy: bool,
    /// Seed of a `FaultConfig::chaos` plan armed after export.
    faults: Option<u64>,
    eviction: EvictionPolicy,
    shards: usize,
    access: Access,
}

/// Every combination of the other dimensions for one access mode.
fn matrix(access: Access) -> Vec<Case> {
    let mut cases = Vec::new();
    for compress in [false, true] {
        for prefetch in [false, true] {
            for dual_copy in [false, true] {
                for faulty in [false, true] {
                    for eviction in EvictionPolicy::all() {
                        for shards in [1, 4] {
                            let seed = cases.len() as u64 * 7919 + 1;
                            cases.push(Case {
                                compress,
                                prefetch,
                                dual_copy,
                                faults: faulty.then_some(seed),
                                eviction,
                                shards,
                                access,
                            });
                        }
                    }
                }
            }
        }
    }
    cases
}

/// The archived system of one case: small caches at both levels (a
/// quarter of the object's tiles in memory, six of its sixteen
/// super-tiles on disk), so eviction runs.
fn build_case(c: &Case) -> (Heaven, u64) {
    let clock = SimClock::new();
    let (adb, oid) = matrix_db(clock.clone());
    let tile_cells = (TILE_EDGE * TILE_EDGE) as u64 * 4;
    let tile_encoded = Tile::header_len(2) as u64 + tile_cells;
    let config = HeavenConfig {
        supertile_bytes: Some(tile_encoded),
        mem_cache_bytes: 4 * tile_cells,
        disk_cache_bytes: 6 * tile_encoded,
        eviction: c.eviction,
        cache_shards: c.shards,
        compress: c.compress,
        dual_copy: c.dual_copy,
        prefetch: if c.prefetch {
            PrefetchPolicy::NextInOrder(2)
        } else {
            PrefetchPolicy::None
        },
        cross_session_batching: matches!(c.access, Access::Sessions { batched: true, .. }),
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock);
    let mut heaven = Heaven::new(adb, lib, config);
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.set_fault_plan(c.faults.map(FaultConfig::chaos));
    (heaven, oid)
}

/// A query's outcome: the bytes, or the super-tile a typed `MediaLost`
/// named. Any other error fails the test on the spot.
type Answer = std::result::Result<MDArray, u64>;

fn answer(c: &Case, r: heaven_core::Result<MDArray>) -> Answer {
    match r {
        Ok(a) => Ok(a),
        Err(HeavenError::MediaLost { st }) => Err(st),
        Err(e) => panic!("{c:?}: untyped failure leaked: {e}"),
    }
}

/// Run one case; returns its answers in query order and its `hsm.*` and
/// `heaven.*` counters.
fn run_case(c: &Case, queries: &[Minterval]) -> (Vec<Answer>, Vec<(&'static str, MetricValue)>) {
    let (mut heaven, oid) = build_case(c);
    let answers: Vec<Answer> = match c.access {
        Access::Owner => queries
            .iter()
            .map(|q| answer(c, heaven.fetch_region_hierarchical(oid, q)))
            .collect(),
        Access::OwnerBatch => queries
            .chunks(3)
            .flat_map(|chunk| {
                let reqs: Vec<(u64, Minterval)> = chunk.iter().map(|q| (oid, q.clone())).collect();
                match heaven.fetch_batch(&reqs) {
                    Ok(got) => got.into_iter().map(Ok).collect(),
                    // A batch stages everything first: a lost super-tile
                    // fails every query of the batch.
                    Err(e) => match answer(c, Err(e)) {
                        Err(st) => vec![Err(st); chunk.len()],
                        Ok(_) => unreachable!(),
                    },
                }
            })
            .collect(),
        Access::Sessions { threads, .. } => {
            let h = &heaven;
            let mut slots: Vec<Option<Answer>> = vec![None; queries.len()];
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|w| {
                        s.spawn(move || {
                            let session = h.session();
                            (w..queries.len())
                                .step_by(threads)
                                .map(|i| (i, answer(c, session.fetch_region(oid, &queries[i]))))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for w in workers {
                    for (i, a) in w.join().unwrap() {
                        slots[i] = Some(a);
                    }
                }
            });
            slots.into_iter().map(Option::unwrap).collect()
        }
    };
    let lost = answers.iter().any(Result::is_err);
    let m = heaven.metrics();
    assert!(
        lost || m.counter("cache.st.evictions").get() > 0,
        "{c:?}: the disk cache never evicted"
    );
    let counters = m
        .snapshot()
        .into_iter()
        .filter(|(name, v)| {
            (name.starts_with("hsm.") || name.starts_with("heaven."))
                && matches!(v, MetricValue::Counter(_) | MetricValue::FloatCounter(_))
        })
        .collect();
    (answers, counters)
}

/// Every case of `access`'s matrix answers each query with the ground
/// truth's bytes or a typed `MediaLost`; single-threaded access modes also
/// repeat themselves exactly under the same seed.
fn check_matrix(access: Access) {
    let queries = matrix_queries();
    let (mut twin, oid) = matrix_db(SimClock::new());
    let truth: Vec<MDArray> = queries
        .iter()
        .map(|q| twin.read_subarray(oid, q).unwrap())
        .collect();
    let deterministic = !matches!(access, Access::Sessions { threads: 4, .. });
    for c in matrix(access) {
        let (answers, counters) = run_case(&c, &queries);
        for (i, (a, t)) in answers.iter().zip(&truth).enumerate() {
            if let Ok(a) = a {
                assert_eq!(a, t, "{c:?}: query {i} returned wrong bytes");
            }
        }
        assert!(
            c.faults.is_some() || answers.iter().all(Result::is_ok),
            "{c:?}: fault-free run lost data"
        );
        if deterministic {
            let (again, counters_again) = run_case(&c, &queries);
            assert_eq!(answers, again, "{c:?}: same seed, different bytes");
            assert_eq!(
                counters, counters_again,
                "{c:?}: same seed, different counters"
            );
        }
    }
}

#[test]
fn matrix_owner_single_fetches_match_ground_truth() {
    check_matrix(Access::Owner);
}

#[test]
fn matrix_owner_batches_match_ground_truth() {
    check_matrix(Access::OwnerBatch);
}

#[test]
fn matrix_one_batched_session_matches_ground_truth() {
    check_matrix(Access::Sessions {
        threads: 1,
        batched: true,
    });
}

#[test]
fn matrix_one_fifo_session_matches_ground_truth() {
    check_matrix(Access::Sessions {
        threads: 1,
        batched: false,
    });
}

#[test]
fn matrix_four_batched_sessions_match_ground_truth() {
    check_matrix(Access::Sessions {
        threads: 4,
        batched: true,
    });
}

#[test]
fn matrix_four_fifo_sessions_match_ground_truth() {
    check_matrix(Access::Sessions {
        threads: 4,
        batched: false,
    });
}

/// The condenser oracle's object: `ORACLE_GRID` x `ORACLE_GRID` tiles of
/// `ORACLE_EDGE` cells, four tiles per super-tile (eight on random-access
/// media, so that member-only reads fetch several members).
const ORACLE_EDGE: i64 = 8;
const ORACLE_GRID: i64 = 4;

const CELL_TYPES: [CellType; 5] = [
    CellType::U8,
    CellType::I16,
    CellType::I32,
    CellType::F32,
    CellType::F64,
];

/// Where a HEAVEN variant of the oracle finds its tile pieces.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Not exported: DBMS tiles, then tile-cache hits.
    Dbms,
    /// Exported and read once whole: tile-cache hits.
    Warm,
    /// Exported, caches cleared before every query: tape.
    Cold,
    /// As `Cold`, with the adaptive codec on.
    Compressed,
    /// Exported, a 4-tile memory and a 2-super-tile disk cache: pieces
    /// from memory, disk and tape within one query.
    SmallCaches,
    /// Exported to random-access media, caches cleared before every
    /// query: member-only (sparse) reads.
    Sparse,
}

const SOURCES: [Source; 6] = [
    Source::Dbms,
    Source::Warm,
    Source::Cold,
    Source::Compressed,
    Source::SmallCaches,
    Source::Sparse,
];

/// Cell values with zeros, negatives and (for the float types)
/// non-integers, so sums depend on the order of their additions.
fn oracle_value(ty: CellType, p: &Point) -> f64 {
    let k = ((p.coord(0) * 37 + p.coord(1) * 11) % 251) as f64;
    match ty {
        CellType::U8 => k,
        CellType::I16 => (k - 125.0) * 100.0,
        CellType::I32 => (k - 125.0) * 1_000_003.0,
        CellType::F32 => (k - 125.0) / 3.0,
        CellType::F64 => (k - 125.0) / 7.0 + 0.1,
    }
}

/// A fresh DBMS holding the oracle object of cell type `ty`.
fn oracle_db(ty: CellType, clock: SimClock) -> ArrayDb {
    let db = Database::new(DiskProfile::scsi2003(), clock, 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("o", ty, 2).unwrap();
    let edge = ORACLE_GRID * ORACLE_EDGE;
    let arr = MDArray::generate(mi(&[(0, edge - 1), (0, edge - 1)]), ty, |p| {
        oracle_value(ty, p)
    });
    let tiling = Tiling::Regular {
        tile_shape: vec![ORACLE_EDGE as u64, ORACLE_EDGE as u64],
    };
    adb.insert_object("o", &arr, tiling).unwrap();
    adb
}

/// The HEAVEN variant of the oracle object for `source`.
fn oracle_heaven(ty: CellType, source: Source) -> Heaven {
    let clock = SimClock::new();
    let adb = oracle_db(ty, clock.clone());
    let oid = adb.collection("o").unwrap().objects[0];
    let tile_cells = (ORACLE_EDGE * ORACLE_EDGE) as u64 * ty.size_bytes() as u64;
    let tile_encoded = Tile::header_len(2) as u64 + tile_cells;
    let per_supertile = if matches!(source, Source::Sparse) {
        8
    } else {
        4
    };
    let mut config = HeavenConfig {
        supertile_bytes: Some(per_supertile * tile_encoded),
        compress: matches!(source, Source::Compressed),
        ..HeavenConfig::default()
    };
    if matches!(source, Source::SmallCaches) {
        config.mem_cache_bytes = 4 * tile_cells;
        config.disk_cache_bytes = 2 * 4 * tile_encoded;
    }
    let profile = match source {
        Source::Sparse => DeviceProfile::mo_disk(),
        _ => DeviceProfile::ibm3590(),
    };
    let mut heaven = Heaven::new(adb, TapeLibrary::new(profile, 2, clock), config);
    if !matches!(source, Source::Dbms) {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    if matches!(source, Source::Warm) {
        let dom = heaven.arraydb().object(oid).unwrap().domain.clone();
        heaven.fetch_region_hierarchical(oid, &dom).unwrap();
    }
    heaven
}

/// A provider that implements only `fetch_region`, so the executor runs
/// on the default visitor.
struct FetchOnly<'a>(&'a mut ArrayDb);

impl TileProvider for FetchOnly<'_> {
    fn object_meta(&self, oid: ObjectId) -> heaven_arraydb::Result<ObjectMeta> {
        self.0.object_meta(oid)
    }

    fn collection_objects(&self, name: &str) -> heaven_arraydb::Result<Vec<ObjectId>> {
        self.0.collection_objects(name)
    }

    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven_arraydb::Result<MDArray> {
        self.0.fetch_region(oid, region)
    }
}

/// The condenser's value over `region` as bits.
fn condense_bits(p: &mut dyn TileProvider, op: Condenser, region: &Minterval) -> u64 {
    let q = format!(
        "select {}(o[{}:{}, {}:{}]) from o",
        op.name(),
        region.axis(0).lo,
        region.axis(0).hi,
        region.axis(1).lo,
        region.axis(1).hi
    );
    let rs = heaven_arraydb::run(p, &q).unwrap();
    rs[0].value.as_scalar().unwrap().to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every condenser over every cell type and random regions folds to
    /// the same bits on `ArrayDb`, on a provider running the default
    /// visitor, and on HEAVEN whichever level serves the pieces.
    #[test]
    fn condensers_fold_to_the_same_bits_everywhere(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let last = ORACLE_GRID * ORACLE_EDGE - 1;
        let regions: Vec<Minterval> = (0..4)
            .map(|_| {
                let (x, y) = (rng.gen_range(0..=last), rng.gen_range(0..=last));
                let (w, h) = (rng.gen_range(0..=last - x), rng.gen_range(0..=last - y));
                mi(&[(x, x + w), (y, y + h)])
            })
            .collect();
        for ty in CELL_TYPES {
            let mut twin = oracle_db(ty, SimClock::new());
            let mut variants: Vec<(Source, Heaven)> =
                SOURCES.iter().map(|&s| (s, oracle_heaven(ty, s))).collect();
            for region in &regions {
                for op in Condenser::ALL {
                    let want = condense_bits(&mut twin, op, region);
                    let default_visitor = condense_bits(&mut FetchOnly(&mut twin), op, region);
                    prop_assert_eq!(default_visitor, want, "{:?} {:?} {}: default visitor", ty, op, region);
                    for (source, heaven) in &mut variants {
                        if matches!(source, Source::Cold | Source::Compressed | Source::Sparse) {
                            heaven.clear_caches();
                        }
                        let got = condense_bits(heaven, op, region);
                        prop_assert_eq!(got, want, "{:?} {:?} {} from {:?}", ty, op, region, source);
                    }
                }
            }
        }
    }
}
