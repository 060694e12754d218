//! Property-based tests of HEAVEN's core invariants: STAR/eSTAR
//! partitioning, the scheduler, the cache, the super-tile codec, and
//! archive maintenance (the catalog, the media and dead space agree after
//! any sequence of exports, updates, deletes, re-imports, reclaims and
//! catalog rebuilds).

use heaven_array::{CellType, LinearOrder, MDArray, Minterval, Point, Tile, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{
    count_exchanges, decode_all, encode_supertile, estar_partition, schedule, star_partition,
    AccessPattern, EvictionPolicy, ExportMode, FetchRequest, Heaven, HeavenConfig, HeavenError,
    SuperTileCache, TileCache, TileInfo,
};
use heaven_hsm::BlockAddress;
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};
use proptest::prelude::*;
use std::collections::HashMap;

fn tile_infos(gx: u64, gy: u64, bytes: u64) -> (Vec<TileInfo>, Vec<u64>) {
    let dom = Minterval::new(&[(0, gx as i64 * 10 - 1), (0, gy as i64 * 10 - 1)]).unwrap();
    let tiling = Tiling::Regular {
        tile_shape: vec![10, 10],
    };
    let domains = tiling.tile_domains(&dom, CellType::U8).unwrap();
    let (grid, shape) = tiling.tile_grid(&dom, CellType::U8).unwrap();
    let tiles = domains
        .into_iter()
        .zip(grid)
        .enumerate()
        .map(|(i, (domain, gc))| TileInfo {
            id: i as u64,
            domain,
            bytes,
            grid: gc,
        })
        .collect();
    (tiles, shape)
}

/// One entry of [`RefCache`].
#[derive(Debug)]
struct RefEntry {
    size: u64,
    last_access: u64,
    access_count: u64,
    insert_seq: u64,
    refetch_cost_s: f64,
}

/// One stripe of [`RefCache`].
#[derive(Debug, Default)]
struct RefShard {
    capacity: u64,
    used: u64,
    counter: u64,
    entries: HashMap<u64, RefEntry>,
}

impl RefShard {
    /// The linear-scan victim choice the cache's victim heap replaced:
    /// least float score, ties to the oldest insert.
    fn pick_victim(&self, policy: EvictionPolicy) -> Option<u64> {
        let score = |e: &RefEntry| -> f64 {
            match policy {
                EvictionPolicy::Lru => e.last_access as f64,
                EvictionPolicy::Lfu => e.access_count as f64 * 1e12 + e.last_access as f64,
                EvictionPolicy::Fifo => e.insert_seq as f64,
                EvictionPolicy::CostAware => {
                    e.refetch_cost_s * e.access_count as f64 / (e.size.max(1) as f64)
                }
            }
        };
        self.entries
            .iter()
            .min_by(|(_, a), (_, b)| {
                score(a)
                    .partial_cmp(&score(b))
                    .expect("no NaN")
                    .then(a.insert_seq.cmp(&b.insert_seq))
            })
            .map(|(&id, _)| id)
    }
}

/// Reference model of both caches' residency: the same stripes, stamps
/// and admission rules, choosing victims by a scan of the shard.
#[derive(Debug)]
struct RefCache {
    policy: EvictionPolicy,
    shards: Vec<RefShard>,
}

impl RefCache {
    fn new(capacity: u64, policy: EvictionPolicy, shards: usize) -> RefCache {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| RefShard {
                capacity: capacity / n as u64,
                ..RefShard::default()
            })
            .collect();
        RefCache { policy, shards }
    }

    fn shard(&mut self, id: u64) -> &mut RefShard {
        let n = self.shards.len();
        &mut self.shards[((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) & (n - 1)]
    }

    fn get(&mut self, id: u64) -> bool {
        let shard = self.shard(id);
        shard.counter += 1;
        let counter = shard.counter;
        match shard.entries.get_mut(&id) {
            Some(e) => {
                e.last_access = counter;
                e.access_count += 1;
                true
            }
            None => false,
        }
    }

    fn put(&mut self, id: u64, size: u64, refetch_cost_s: f64) {
        let policy = self.policy;
        let shard = self.shard(id);
        if size > shard.capacity {
            return;
        }
        if let Some(old) = shard.entries.remove(&id) {
            shard.used -= old.size;
        }
        while shard.used + size > shard.capacity {
            let victim = shard.pick_victim(policy).expect("a resident victim");
            shard.used -= shard.entries.remove(&victim).expect("victim exists").size;
        }
        shard.counter += 1;
        let counter = shard.counter;
        shard.entries.insert(
            id,
            RefEntry {
                size,
                last_access: counter,
                access_count: 1,
                insert_seq: counter,
                refetch_cost_s,
            },
        );
        shard.used += size;
    }

    fn invalidate(&mut self, id: u64) {
        let shard = self.shard(id);
        if let Some(e) = shard.entries.remove(&id) {
            shard.used -= e.size;
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.shards.iter().any(|s| s.entries.contains_key(&id))
    }

    fn used(&self) -> u64 {
        self.shards.iter().map(|s| s.used).sum()
    }
}

/// Refetch costs of the victim-order tests: few distinct values, so
/// cost-aware scores tie and the insert-order tie-break is exercised; a
/// negative cost checks the float order below zero.
const REF_COSTS: [f64; 5] = [-3.0, 0.0, 1.0, 2.5, 40.0];

proptest! {
    #[test]
    fn star_partition_is_exact_cover(
        gx in 1u64..10,
        gy in 1u64..10,
        tile_bytes in 1u64..500,
        target in 1u64..2000,
        order_idx in 0usize..3,
    ) {
        let order = [LinearOrder::RowMajor, LinearOrder::ZOrder, LinearOrder::Hilbert][order_idx];
        let (tiles, shape) = tile_infos(gx, gy, tile_bytes);
        let p = star_partition(&tiles, &shape, target, order);
        let mut seen = vec![0u32; tiles.len()];
        for g in &p {
            prop_assert!(!g.is_empty());
            let sz: u64 = g.iter().map(|&i| tiles[i].bytes).sum();
            prop_assert!(sz <= target.max(tile_bytes), "group {sz} > target {target}");
            for &i in g {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn estar_partition_is_exact_cover(
        gx in 1u64..8,
        gy in 1u64..8,
        target in 100u64..3000,
        pattern_idx in 0usize..3,
    ) {
        let pattern = [
            AccessPattern::Uniform,
            AccessPattern::Directional { axis: 1 },
            AccessPattern::SliceDominant { axis: 0 },
        ][pattern_idx];
        let (tiles, shape) = tile_infos(gx, gy, 100);
        let p = estar_partition(&tiles, &shape, target, pattern);
        let mut seen = vec![0u32; tiles.len()];
        for g in &p {
            for &i in g {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // merge tolerance: no group exceeds 1.25 * target + one tile
        for g in &p {
            let sz: u64 = g.iter().map(|&i| tiles[i].bytes).sum();
            prop_assert!(sz as f64 <= 1.25 * target as f64 + 100.0);
        }
    }

    #[test]
    fn schedule_preserves_request_set(
        reqs in prop::collection::vec((0u64..2000, 0u64..6, 0u64..10_000u64), 1..60),
    ) {
        let requests: Vec<FetchRequest> = reqs
            .iter()
            .map(|&(st, medium, offset)| FetchRequest {
                st,
                addr: BlockAddress { medium, offset, len: 10 },
            })
            .collect();
        let out = schedule(&requests, &[2]);
        // every distinct st appears exactly once
        let mut in_sts: Vec<u64> = requests.iter().map(|r| r.st).collect();
        in_sts.sort_unstable();
        in_sts.dedup();
        let mut out_sts: Vec<u64> = out.iter().map(|r| r.st).collect();
        out_sts.sort_unstable();
        out_sts.dedup();
        prop_assert_eq!(&out_sts, &in_sts);
        prop_assert_eq!(out.len(), in_sts.len());
        // within each medium, offsets ascend
        let mut last: std::collections::HashMap<u64, u64> = Default::default();
        for r in &out {
            if let Some(&prev) = last.get(&r.addr.medium) {
                prop_assert!(r.addr.offset >= prev);
            }
            last.insert(r.addr.medium, r.addr.offset);
        }
    }

    #[test]
    fn scheduled_order_never_increases_exchanges(
        reqs in prop::collection::vec((0u64..500, 0u64..5, 0u64..10_000u64), 1..40),
        drives in 1usize..3,
    ) {
        let requests: Vec<FetchRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(_, medium, offset))| FetchRequest {
                st: i as u64, // unique: keep all requests
                addr: BlockAddress { medium, offset, len: 10 },
            })
            .collect();
        let scheduled = schedule(&requests, &[]);
        let ex_naive = count_exchanges(&requests, drives, &[]);
        let ex_sched = count_exchanges(&scheduled, drives, &[]);
        prop_assert!(ex_sched <= ex_naive);
        // scheduled exchanges = number of distinct media (single visit each)
        let mut media: Vec<u64> = requests.iter().map(|r| r.addr.medium).collect();
        media.sort_unstable();
        media.dedup();
        prop_assert_eq!(ex_sched, media.len() as u64);
    }

    #[test]
    fn cache_usage_never_exceeds_capacity(
        capacity in 100u64..2000,
        ops in prop::collection::vec((0u64..30, 50u64..400, 0.0f64..100.0), 1..80),
        policy_idx in 0usize..4,
    ) {
        let policy = EvictionPolicy::all()[policy_idx];
        let cache = SuperTileCache::new(capacity, policy, None);
        for &(st, size, cost) in &ops {
            if cache.get(st).is_none() {
                cache.put_phantom(st, size, cost);
            }
            prop_assert!(cache.used() <= capacity);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, ops.len() as u64);
    }

    #[test]
    fn st_cache_evicts_like_the_linear_scan(
        capacity in 400u64..3000,
        ops in prop::collection::vec((0u8..4, 0u64..12, 50u64..400, 0usize..5), 1..120),
        policy_idx in 0usize..4,
        four_shards in any::<bool>(),
    ) {
        let policy = EvictionPolicy::all()[policy_idx];
        let shards = if four_shards { 4 } else { 1 };
        let cache = SuperTileCache::with_shards(capacity, policy, None, shards);
        let mut model = RefCache::new(capacity, policy, shards);
        for &(kind, st, size, cost) in &ops {
            let cost = REF_COSTS[cost];
            match kind {
                0 => prop_assert_eq!(cache.get(st).is_some(), model.get(st)),
                1 => {
                    cache.put(st, vec![st as u8; size as usize], cost);
                    model.put(st, size, cost);
                }
                2 => {
                    cache.put_phantom(st, size, cost);
                    model.put(st, size, cost);
                }
                _ => {
                    cache.invalidate(st);
                    model.invalidate(st);
                }
            }
            for id in 0..12 {
                prop_assert_eq!(cache.contains(id), model.contains(id), "st {}", id);
            }
            prop_assert_eq!(cache.used(), model.used());
        }
    }

    #[test]
    fn tile_cache_evicts_like_the_linear_scan(
        capacity in 200u64..1500,
        ops in prop::collection::vec((0u8..3, 0u64..12, 2i64..40), 1..120),
        four_shards in any::<bool>(),
    ) {
        let shards = if four_shards { 4 } else { 1 };
        let cache = TileCache::with_shards(capacity, shards);
        let mut model = RefCache::new(capacity, EvictionPolicy::Lru, shards);
        for &(kind, id, cells) in &ops {
            // `TileCache` has no side-effect-free probe, so residency is
            // compared through every lookup's outcome and the byte total.
            match kind {
                0 => prop_assert_eq!(cache.get(id).map(|t| t.id), model.get(id).then_some(id)),
                1 => {
                    let dom = Minterval::new(&[(0, cells - 1)]).unwrap();
                    cache.put(Tile::new(id, 1, MDArray::zeros(dom, CellType::F64)));
                    model.put(id, cells as u64 * 8, 0.0);
                }
                _ => {
                    cache.invalidate(id);
                    model.invalidate(id);
                }
            }
            prop_assert_eq!(cache.used(), model.used());
        }
        for id in 0..12 {
            prop_assert_eq!(cache.get(id).is_some(), model.get(id), "tile {}", id);
        }
    }

    #[test]
    fn supertile_codec_roundtrips_any_tile_run(
        n in 1usize..10,
        seed in 0i64..1000,
    ) {
        let tiles: Vec<Tile> = (0..n)
            .map(|i| {
                let lo = i as i64 * 10;
                let dom = Minterval::new(&[(lo, lo + 9), (0, 4)]).unwrap();
                Tile::new(
                    i as u64 + 1,
                    7,
                    MDArray::generate(dom, CellType::I16, |p| {
                        ((seed + p.coord(0) * 5 + p.coord(1)) % 32_000) as f64
                    }),
                )
            })
            .collect();
        let (payload, meta) = encode_supertile(99, 7, &tiles);
        prop_assert_eq!(meta.total_len as usize, payload.len());
        let decoded = decode_all(&meta, &payload).unwrap();
        prop_assert_eq!(decoded, tiles);
    }

    /// Zero-copy decode of a sliced member equals the owned decode path,
    /// byte for byte.
    #[test]
    fn shared_decode_matches_owned_decode(
        n in 1usize..8,
        seed in 0i64..1000,
    ) {
        let tiles = seeded_tiles(n, seed);
        let (payload, meta) = encode_supertile(42, 9, &tiles);
        for m in &meta.members {
            let start = m.offset as usize;
            let end = start + m.len as usize;
            // old path: owned decode from a plain byte slice
            let (owned, used_o) = Tile::decode(&payload[start..end]).unwrap();
            // new path: zero-copy decode of a Bytes slice
            let slice = payload.slice(start..end);
            let (shared, used_s) = Tile::decode_shared(&slice, 0).unwrap();
            prop_assert_eq!(used_o, used_s);
            prop_assert_eq!(&owned, &shared);
            prop_assert_eq!(owned.data.bytes(), shared.data.bytes());
            prop_assert!(shared.data.is_shared(), "slice decode must borrow");
        }
    }

    /// Mutating one decoded member detaches it (copy-on-write) without
    /// disturbing its siblings or the shared payload.
    #[test]
    fn cow_mutation_leaves_siblings_untouched(
        n in 2usize..8,
        seed in 0i64..1000,
        victim_idx in 0usize..8,
    ) {
        let tiles = seeded_tiles(n, seed);
        let (payload, meta) = encode_supertile(42, 9, &tiles);
        let mut decoded = decode_all(&meta, &payload).unwrap();
        let victim = victim_idx % decoded.len();
        let p = Point::new(vec![victim as i64 * 10, 0]);
        decoded[victim].data.set(&p, 77.0).unwrap();
        prop_assert!(!decoded[victim].data.is_shared(), "write must detach");
        prop_assert_eq!(decoded[victim].data.get_f64(&p).unwrap(), 77.0);
        // a fresh decode of the same payload still matches the originals
        let fresh = decode_all(&meta, &payload).unwrap();
        prop_assert_eq!(&fresh, &tiles);
        for (i, (d, f)) in decoded.iter().zip(&fresh).enumerate() {
            if i != victim {
                prop_assert_eq!(d, f, "sibling {} changed", i);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every maintenance step, under dual copy and compression on
    /// or off: every catalogued copy is on its medium, dead space equals
    /// used bytes minus the catalogued copies (and a catalog rebuild
    /// leaves it unchanged), and every live object reads back equal to
    /// its mirror.
    #[test]
    fn maintenance_keeps_catalog_media_and_dead_space_in_step(
        dual_copy in any::<bool>(),
        compress in any::<bool>(),
        ops in prop::collection::vec(maint_op(), 1..12),
    ) {
        let (mut heaven, mut mirror) = maint_system(dual_copy, compress);
        for op in ops {
            if mirror.is_empty() {
                break;
            }
            let media = heaven.store().library().media_ids();
            match op {
                MaintOp::Export { obj, naive } => {
                    let oid = mirror[obj % mirror.len()].0;
                    let mode = if naive { ExportMode::Naive } else { ExportMode::Tct };
                    match heaven.export_object(oid, mode) {
                        Ok(_) | Err(HeavenError::AlreadyExported(_)) => {}
                        Err(e) => panic!("export {oid}: {e}"),
                    }
                }
                MaintOp::Update { obj, lo, ext, value } => {
                    let n = mirror.len();
                    let (oid, arr) = &mut mirror[obj % n];
                    let region = Minterval::new(&[
                        (lo.0, (lo.0 + ext.0).min(19)),
                        (lo.1, (lo.1 + ext.1).min(19)),
                    ])
                    .unwrap();
                    let patch = MDArray::generate(region, CellType::I32, |_| value as f64);
                    heaven.update_region(*oid, &patch).unwrap();
                    arr.patch(&patch).unwrap();
                }
                MaintOp::Delete { obj } => {
                    let (oid, _) = mirror.remove(obj % mirror.len());
                    heaven.delete_object(oid).unwrap();
                }
                MaintOp::Reimport { obj } => {
                    let oid = mirror[obj % mirror.len()].0;
                    match heaven.reimport_object(oid) {
                        Ok(()) | Err(HeavenError::NotExported(_)) => {}
                        Err(e) => panic!("reimport {oid}: {e}"),
                    }
                }
                MaintOp::Reclaim { medium, threshold } => {
                    if !media.is_empty() {
                        heaven
                            .reclaim_medium(media[medium % media.len()], threshold)
                            .unwrap();
                    }
                }
                MaintOp::Rebuild => {
                    let before = dead_on_media(&heaven);
                    heaven.rebuild_archive_catalog().unwrap();
                    prop_assert_eq!(dead_on_media(&heaven), before, "rebuild moved dead space");
                }
            }
            prop_assert_eq!(dead_on_media(&heaven), maint_dead(&heaven, &mirror));
            heaven.clear_caches();
            for (oid, arr) in &mirror {
                let back = heaven.fetch_region_hierarchical(*oid, arr.domain()).unwrap();
                prop_assert_eq!(&back, arr, "object {} diverged from its mirror", oid);
            }
        }
    }
}

/// One archive-maintenance step; object and medium indices wrap around
/// the live objects and the existing media.
#[derive(Debug, Clone)]
enum MaintOp {
    Export {
        obj: usize,
        naive: bool,
    },
    Update {
        obj: usize,
        lo: (i64, i64),
        ext: (i64, i64),
        value: i32,
    },
    Delete {
        obj: usize,
    },
    Reimport {
        obj: usize,
    },
    Reclaim {
        medium: usize,
        threshold: f64,
    },
    Rebuild,
}

/// Reclaim thresholds: always, a little, half, almost all dead.
const RECLAIM_THRESHOLDS: [f64; 4] = [0.0, 0.1, 0.5, 0.9];

/// Exports and updates three times as likely as deletes, re-imports and
/// rebuilds, reclaims twice as likely.
fn maint_op() -> impl Strategy<Value = MaintOp> {
    (
        0u8..11,
        0usize..8,
        (0i64..20, 0i64..20),
        (1i64..12, 1i64..12),
        -99i32..99,
    )
        .prop_map(|(kind, n, lo, ext, value)| match kind {
            0..=2 => MaintOp::Export {
                obj: n,
                naive: value % 2 == 0,
            },
            3..=5 => MaintOp::Update {
                obj: n,
                lo,
                ext,
                value,
            },
            6 => MaintOp::Delete { obj: n },
            7 => MaintOp::Reimport { obj: n },
            8..=9 => MaintOp::Reclaim {
                medium: n,
                threshold: RECLAIM_THRESHOLDS[lo.0 as usize % RECLAIM_THRESHOLDS.len()],
            },
            _ => MaintOp::Rebuild,
        })
}

/// `MAINT_OBJECTS` 20x20 i32 objects in 10x10 tiles, two tiles per
/// super-tile, on a two-drive library; returns the system and each
/// object's in-memory mirror.
const MAINT_OBJECTS: i64 = 3;

fn maint_system(dual_copy: bool, compress: bool) -> (Heaven, Vec<(u64, MDArray)>) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("m", CellType::I32, 2).unwrap();
    let mut mirror = Vec::new();
    for k in 0..MAINT_OBJECTS {
        let arr = MDArray::generate(
            Minterval::new(&[(0, 19), (0, 19)]).unwrap(),
            CellType::I32,
            |p| (k * 1000 + p.coord(0) * 20 + p.coord(1)) as f64,
        );
        let tiling = Tiling::Regular {
            tile_shape: vec![10, 10],
        };
        mirror.push((adb.insert_object("m", &arr, tiling).unwrap(), arr));
    }
    let tile_bytes = (Tile::header_len(2) + 100 * 4) as u64;
    let config = HeavenConfig {
        supertile_bytes: Some(2 * tile_bytes),
        dual_copy,
        compress,
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock);
    (Heaven::new(adb, lib, config), mirror)
}

/// Dead bytes per medium as the catalog implies them: used bytes minus
/// every catalogued copy, enumerated object by object. Also checks that
/// each catalogued copy is actually on its medium.
fn maint_dead(heaven: &Heaven, mirror: &[(u64, MDArray)]) -> Vec<u64> {
    let lib_media = heaven.store().library().media_ids();
    let mut live: HashMap<u64, u64> = HashMap::new();
    for (oid, _) in mirror {
        for st in heaven.catalog().object_supertiles(*oid) {
            for a in heaven.catalog().entry(st).unwrap().copies() {
                assert!(
                    heaven
                        .store()
                        .library()
                        .covers(a.medium, a.offset, a.len)
                        .unwrap(),
                    "copy {a:?} of super-tile {st} is not on its medium"
                );
                *live.entry(a.medium).or_insert(0) += a.len;
            }
        }
    }
    lib_media
        .into_iter()
        .map(|m| {
            let used = heaven.store().library().medium_used(m).unwrap();
            used - live.get(&m).copied().unwrap_or(0)
        })
        .collect()
}

fn dead_on_media(heaven: &Heaven) -> Vec<u64> {
    let media = heaven.store().library().media_ids();
    media.into_iter().map(|m| heaven.dead_bytes_on(m)).collect()
}

/// Deterministic run of `n` tiles along the first axis (10x5 i16 each).
fn seeded_tiles(n: usize, seed: i64) -> Vec<Tile> {
    (0..n)
        .map(|i| {
            let lo = i as i64 * 10;
            let dom = Minterval::new(&[(lo, lo + 9), (0, 4)]).unwrap();
            Tile::new(
                i as u64 + 1,
                9,
                MDArray::generate(dom, CellType::I16, |p| {
                    ((seed + p.coord(0) * 5 + p.coord(1)) % 32_000) as f64
                }),
            )
        })
        .collect()
}
