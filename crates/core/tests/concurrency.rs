//! Multi-session concurrency: sharded-cache integrity under parallel
//! load, single-session determinism against the single-owner system,
//! cross-session request coalescing, batched staging beating per-session
//! FIFO on media exchanges, a query's whole super-tile miss set staging
//! as one batch, seeded-chaos determinism (same seed → byte-identical
//! answers and identical fault/recovery counters, single-session and
//! 8-thread concurrent), the batching window closing once every open
//! session has queued (or when it runs out, for a session that never does),
//! the drainer seat handed over at once step after step and under churn,
//! and a drain whose miss set spans two media running them side by side on
//! two drives.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use heaven_array::{CellType, MDArray, Minterval, Point, Tile, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{
    ConcurrentHeaven, EvictionPolicy, ExportMode, Heaven, HeavenConfig, HeavenError, Session,
    SuperTileCache, TileCache,
};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, FaultConfig, SimClock, TapeLibrary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edge of one square tile in cells.
const TILE_EDGE: i64 = 32;
/// Tiles per object axis (GRID x GRID tiles per object).
const GRID: i64 = 4;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// The region of tile index `t` (0..GRID*GRID) of any object.
fn tile_region(t: i64) -> Minterval {
    let (gx, gy) = (t % GRID, t / GRID);
    mi(&[
        (gx * TILE_EDGE, (gx + 1) * TILE_EDGE - 1),
        (gy * TILE_EDGE, (gy + 1) * TILE_EDGE - 1),
    ])
}

/// The bounding box of tiles `first..=last` (indices as in [`tile_region`]).
fn tiles_region(first: i64, last: i64) -> Minterval {
    let (fx, fy, lx, ly) = (first % GRID, first / GRID, last % GRID, last / GRID);
    mi(&[
        (fx * TILE_EDGE, (lx + 1) * TILE_EDGE - 1),
        (fy * TILE_EDGE, (ly + 1) * TILE_EDGE - 1),
    ])
}

/// Build a Heaven holding `objects` exported objects, each GRID x GRID
/// tiles with one super-tile per tile, each object on its own medium.
fn build_multi(objects: usize, drives: usize, batching: bool) -> (Heaven, Vec<u64>) {
    build_dual(objects, drives, batching, false)
}

/// [`build_multi`] with dual-copy archival selectable (chaos tests).
fn build_dual(
    objects: usize,
    drives: usize,
    batching: bool,
    dual_copy: bool,
) -> (Heaven, Vec<u64>) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("conc", CellType::F32, 2).unwrap();
    let dom = mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]);
    let mut oids = Vec::new();
    for o in 0..objects {
        let arr = MDArray::generate(dom.clone(), CellType::F32, |p: &Point| {
            (o as i64 * 1_000_000 + p.coord(0) * 1000 + p.coord(1)) as f64
        });
        oids.push(
            adb.insert_object(
                "conc",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![TILE_EDGE as u64, TILE_EDGE as u64],
                },
            )
            .unwrap(),
        );
    }
    let tile_encoded = (Tile::header_len(2) + (TILE_EDGE * TILE_EDGE) as usize * 4) as u64;
    let config = HeavenConfig {
        supertile_bytes: Some(tile_encoded), // one super-tile per tile
        mem_cache_bytes: 0,                  // force the st-cache path
        medium_per_object: true,
        cache_shards: 8,
        cross_session_batching: batching,
        dual_copy,
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), drives, clock);
    let mut heaven = Heaven::new(adb, lib, config);
    for &oid in &oids {
        let report = heaven.export_object(oid, ExportMode::Tct).unwrap();
        assert_eq!(report.supertiles as i64, GRID * GRID);
    }
    (heaven, oids)
}

#[test]
fn concurrent_facade_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentHeaven>();
    assert_send_sync::<Session<'static>>();
    assert_send_sync::<SuperTileCache>();
    assert_send_sync::<TileCache>();
}

#[test]
fn sharded_st_cache_stress_loses_no_updates() {
    let cache = Arc::new(SuperTileCache::with_shards(
        8_000,
        EvictionPolicy::Lru,
        None,
        8,
    ));
    let threads = 8usize;
    let ops = 400usize;
    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..ops {
                    let st = ((t * ops + i) % 97) as u64;
                    cache.put(st, vec![t as u8; 100], 1.0);
                    cache.get(st);
                    cache.get((st + 31) % 97);
                    // Capacity invariant must hold at every instant,
                    // observed concurrently with other writers.
                    assert!(cache.used() <= cache.capacity());
                }
            });
        }
    });
    let stats = cache.stats();
    // Rolled-up hit/miss totals equal the per-thread op sums: 2 lookups
    // per iteration, none lost to racing stripes.
    assert_eq!(stats.hits + stats.misses, (threads * ops * 2) as u64);
    assert!(cache.used() <= cache.capacity());
    assert!(stats.evictions > 0, "800 KB written into 8 KB must evict");
}

#[test]
fn sharded_tile_cache_stress_loses_no_updates() {
    let dom = mi(&[(0, 9)]);
    let cache = Arc::new(TileCache::with_shards(16_000, 8));
    let threads = 8usize;
    let ops = 300usize;
    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let dom = dom.clone();
            s.spawn(move || {
                for i in 0..ops {
                    let id = ((t * ops + i) % 61) as u64;
                    cache.put(Tile::new(id, 1, MDArray::zeros(dom.clone(), CellType::F64)));
                    cache.get(id);
                    assert!(cache.used() <= cache.capacity());
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, (threads * ops) as u64);
    assert!(cache.used() <= cache.capacity());
}

#[test]
fn single_session_matches_single_owner_byte_for_byte() {
    let (mut owner, oids_a) = build_multi(2, 2, true);
    let (concurrent, oids_b) = build_multi(2, 2, true);
    assert_eq!(oids_a, oids_b, "identical builds");
    let concurrent = concurrent.into_concurrent();
    let session = concurrent.session();
    let queries: Vec<(u64, Minterval)> = (0..8)
        .map(|q| (oids_a[q % 2], tile_region((q as i64 * 5) % (GRID * GRID))))
        .chain(oids_a.iter().map(|&o| {
            (
                o,
                mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]),
            )
        }))
        .collect();
    for (oid, region) in &queries {
        let a = owner.fetch_region_hierarchical(*oid, region).unwrap();
        let b = session.fetch_region(*oid, region).unwrap();
        assert_eq!(a, b, "oid {oid} region {region}");
    }
    // Same tertiary work, not just the same answers.
    assert_eq!(
        owner.tape_stats().bytes_read,
        concurrent.tape_stats().bytes_read
    );
}

#[test]
fn duplicate_cross_session_requests_coalesce_into_one_fetch() {
    let (heaven, oids) = build_multi(1, 2, true);
    let mounts_before = heaven.tape_stats().mounts;
    let mut heaven = heaven.into_concurrent();
    heaven.set_batch_window(Duration::from_millis(50));
    let heaven = heaven; // freeze: sessions only need &self
    let oid = oids[0];
    let workers = 4usize;
    let barrier = Barrier::new(workers);
    let region = tile_region(6);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let barrier = &barrier;
                let heaven = &heaven;
                let region = region.clone();
                s.spawn(move || {
                    let session = heaven.session();
                    barrier.wait();
                    session.fetch_region(oid, &region).unwrap()
                })
            })
            .collect();
        let results: Vec<MDArray> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(results[0], *r, "coalesced waiters see the same payload");
        }
    });
    let metrics = heaven.metrics();
    assert_eq!(
        metrics.counter("heaven.st_tape_fetches").get(),
        1,
        "one tape fetch serves all four sessions"
    );
    assert!(
        metrics.counter("sched.coalesced_fetches").get() >= 1,
        "concurrent duplicates must coalesce"
    );
    assert!(
        heaven.tape_stats().mounts - mounts_before <= 1,
        "a single coalesced batch needs at most one media exchange, got {}",
        heaven.tape_stats().mounts - mounts_before
    );
}

/// Cold mixed workload: `workers` sessions, each stepping through the
/// objects in lockstep phase (all sessions want medium j at step j) but
/// each touching its own super-tile. Returns media exchanges measured.
fn run_cold_workload(batching: bool, window_ms: u64) -> u64 {
    let objects = 4usize;
    let (heaven, oids) = build_multi(objects, 1, batching);
    let mounts_before = heaven.tape_stats().mounts;
    let mut heaven = heaven.into_concurrent();
    heaven.set_batch_window(Duration::from_millis(window_ms));
    let heaven = heaven;
    let workers = 4usize;
    let steps = 8usize;
    let barrier = Barrier::new(workers);
    std::thread::scope(|s| {
        for w in 0..workers {
            let heaven = &heaven;
            let oids = &oids;
            let barrier = &barrier;
            s.spawn(move || {
                let session = heaven.session();
                barrier.wait();
                for j in 0..steps {
                    let region = tile_region((w as i64 * GRID + (j as i64 % GRID)) % (GRID * GRID));
                    session.fetch_region(oids[j % oids.len()], &region).unwrap();
                }
            });
        }
    });
    heaven.tape_stats().mounts - mounts_before
}

#[test]
fn cross_session_batching_beats_per_session_fifo_on_exchanges() {
    let fifo = run_cold_workload(false, 0);
    // The window only bounds the wait for an open session that has not
    // queued. Every session here keeps querying until it closes, so each
    // step's four requests stage as one batch whatever the thread timing.
    let batched = run_cold_workload(true, 1000);
    assert_eq!(
        batched, 4,
        "one batch per cold step mounts each object's medium once"
    );
    assert!(
        batched < fifo,
        "batched staging ({batched} mounts) must beat per-session FIFO ({fifo} mounts)"
    );
}

#[test]
fn session_lanes_overlap_warm_queries_in_simulated_time() {
    // Two identical warm systems; the only difference is 1 session doing
    // all the work vs 4 sessions doing a quarter each.
    let elapsed = |sessions: usize| -> f64 {
        let (heaven, oids) = build_multi(1, 2, true);
        let heaven = heaven.into_concurrent();
        let oid = oids[0];
        // Stage everything (cold, shared clock), then measure warm.
        heaven
            .session()
            .fetch_region(
                oid,
                &mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]),
            )
            .unwrap();
        let t0 = heaven.clock().now_s();
        let per_session = (GRID * GRID) as usize / sessions;
        // Fork every lane at t0, *before* any session runs: a session
        // created later would fork from a shared clock already advanced
        // by an earlier session's drop, serializing the epochs.
        let lanes: Vec<Session> = (0..sessions).map(|_| heaven.session()).collect();
        std::thread::scope(|s| {
            for (w, session) in lanes.into_iter().enumerate() {
                s.spawn(move || {
                    for t in 0..per_session {
                        let tile = (w * per_session + t) as i64;
                        session.fetch_region(oid, &tile_region(tile)).unwrap();
                    }
                });
            }
        });
        heaven.clock().now_s() - t0
    };
    let serial_s = elapsed(1);
    let overlapped_s = elapsed(4);
    assert!(serial_s > 0.0);
    assert!(
        overlapped_s < serial_s * 0.5,
        "4 lanes ({overlapped_s:.3}s) must overlap well under half of serial ({serial_s:.3}s)"
    );
}

// ---------------------------------------------------------------- chaos

/// Fault/recovery counters that are keyed per (kind, medium, offset,
/// attempt) and therefore identical across thread interleavings.
/// `tape.robot_stalls` is deliberately absent: contention is rolled per
/// *mount*, and mount counts legitimately vary with scheduling order.
const CHAOS_COUNTERS: [&str; 8] = [
    "tape.drive_failures",
    "tape.media_read_errors",
    "tape.corrupted_reads",
    "hsm.checksum_failures",
    "hsm.retries",
    "hsm.failovers",
    "hsm.media_lost",
    "sched.requeued_fetches",
];

fn chaos_counters(m: &heaven_obs::MetricsRegistry) -> Vec<u64> {
    CHAOS_COUNTERS.iter().map(|n| m.counter(n).get()).collect()
}

#[test]
fn chaos_same_seed_is_deterministic_single_session() {
    let run = |plan: Option<FaultConfig>| -> (Vec<MDArray>, Vec<u64>) {
        let (mut h, oids) = build_dual(2, 2, false, true);
        h.set_fault_plan(plan);
        let mut results = Vec::new();
        for &oid in &oids {
            for t in 0..GRID * GRID {
                results.push(h.fetch_region_hierarchical(oid, &tile_region(t)).unwrap());
            }
        }
        (results, chaos_counters(h.metrics()))
    };
    // Seed chosen so the chaos schedule never corrupts both copies of a
    // super-tile; outcomes are seed-deterministic, so it stays valid.
    let seed = 11u64;
    let (clean, clean_ctr) = run(None);
    let (a, a_ctr) = run(Some(FaultConfig::chaos(seed)));
    let (b, b_ctr) = run(Some(FaultConfig::chaos(seed)));
    assert_eq!(a, b, "same seed must give byte-identical answers");
    assert_eq!(a_ctr, b_ctr, "same seed must give identical fault counters");
    assert_eq!(a, clean, "recovery must reproduce the fault-free bytes");
    assert_eq!(clean_ctr.iter().sum::<u64>(), 0, "no faults without a plan");
    let by_name: std::collections::HashMap<&str, u64> = CHAOS_COUNTERS
        .iter()
        .copied()
        .zip(a_ctr.iter().copied())
        .collect();
    assert!(
        by_name["tape.drive_failures"]
            + by_name["tape.media_read_errors"]
            + by_name["tape.corrupted_reads"]
            > 0,
        "chaos rates must actually inject faults: {by_name:?}"
    );
    assert_eq!(
        by_name["hsm.checksum_failures"], by_name["tape.corrupted_reads"],
        "every corrupted read must be caught by its checksum"
    );
    assert_eq!(
        by_name["hsm.media_lost"], 0,
        "dual copies must survive this seed"
    );
    assert!(
        by_name["hsm.retries"] > 0,
        "transient errors must be retried"
    );
}

#[test]
fn chaos_same_seed_is_deterministic_concurrent() {
    // 8 sessions x 4 disjoint tile regions over 2 objects, batching on.
    let workers = 8usize;
    let per_worker = ((GRID * GRID) / 4) as usize; // 4 tiles each
    let run = |plan: Option<FaultConfig>| -> (Vec<Vec<MDArray>>, Vec<u64>) {
        let (h, oids) = build_dual(2, 2, true, true);
        let mut h = h.into_concurrent();
        h.set_batch_window(Duration::from_millis(25));
        h.set_fault_plan(plan);
        let h = h;
        let barrier = Barrier::new(workers);
        let results: Vec<Vec<MDArray>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let h = &h;
                    let oids = &oids;
                    let barrier = &barrier;
                    s.spawn(move || {
                        let session = h.session();
                        barrier.wait();
                        (0..per_worker)
                            .map(|t| {
                                let tile = ((w / 2) * per_worker + t) as i64;
                                session
                                    .fetch_region(oids[w % 2], &tile_region(tile))
                                    .unwrap()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        (results, chaos_counters(h.metrics()))
    };
    let seed = 3u64;
    let (clean, _) = run(None);
    let (a, a_ctr) = run(Some(FaultConfig::chaos(seed)));
    let (b, b_ctr) = run(Some(FaultConfig::chaos(seed)));
    assert_eq!(
        a, b,
        "same seed must give byte-identical answers across threads"
    );
    assert_eq!(
        a_ctr, b_ctr,
        "access-keyed fault counters must not depend on interleaving"
    );
    assert_eq!(a, clean, "recovery must reproduce the fault-free bytes");
    let by_name: std::collections::HashMap<&str, u64> = CHAOS_COUNTERS
        .iter()
        .copied()
        .zip(a_ctr.iter().copied())
        .collect();
    assert!(
        by_name["tape.drive_failures"]
            + by_name["tape.media_read_errors"]
            + by_name["tape.corrupted_reads"]
            > 0,
        "chaos rates must actually inject faults: {by_name:?}"
    );
    assert_eq!(
        by_name["hsm.checksum_failures"], by_name["tape.corrupted_reads"],
        "every corrupted read must be caught by its checksum"
    );
    assert_eq!(
        by_name["hsm.media_lost"], 0,
        "dual copies must survive this seed"
    );
}

#[test]
fn batcher_requeues_survive_drive_failures() {
    // Drive-failure-only chaos: every failed batched fetch must requeue
    // (retry or replica failover) without losing a coalesced waiter, and
    // the requeue count must reconcile exactly with the injected failures.
    let workers = 8usize;
    let per_worker = ((GRID * GRID) / 4) as usize;
    let run = |plan: Option<FaultConfig>| -> (Vec<Vec<MDArray>>, Vec<u64>) {
        let (h, oids) = build_dual(2, 2, true, true);
        let mut h = h.into_concurrent();
        h.set_batch_window(Duration::from_millis(25));
        h.set_fault_plan(plan);
        let h = h;
        let barrier = Barrier::new(workers);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let h = &h;
                    let oids = &oids;
                    let barrier = &barrier;
                    s.spawn(move || {
                        let session = h.session();
                        barrier.wait();
                        (0..per_worker)
                            .map(|t| {
                                let tile = ((w / 2) * per_worker + t) as i64;
                                session
                                    .fetch_region(oids[w % 2], &tile_region(tile))
                                    .unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        (results, chaos_counters(h.metrics()))
    };
    let mut fc = FaultConfig::quiet(17);
    fc.drive_failure_per_read = 0.3;
    let (clean, _) = run(None);
    let (faulty, ctr) = run(Some(fc));
    assert_eq!(faulty, clean, "no waiter may be lost or fed wrong bytes");
    let by_name: std::collections::HashMap<&str, u64> = CHAOS_COUNTERS
        .iter()
        .copied()
        .zip(ctr.iter().copied())
        .collect();
    assert!(
        by_name["sched.requeued_fetches"] > 0,
        "a 30% drive-failure rate must force requeues"
    );
    assert_eq!(
        by_name["sched.requeued_fetches"], by_name["tape.drive_failures"],
        "every drive failure requeues its fetch exactly once: {by_name:?}"
    );
    assert_eq!(
        by_name["hsm.media_lost"], 0,
        "retries + replica must recover all"
    );
}

// ------------------------------------------------- whole-query batching

/// Run one query per region, each on its own session, released together
/// by a barrier; returns the per-region results in region order.
fn race_sessions(
    h: &ConcurrentHeaven,
    oid: u64,
    regions: &[Minterval],
) -> Vec<heaven_core::Result<MDArray>> {
    let barrier = Barrier::new(regions.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = regions
            .iter()
            .map(|region| {
                let barrier = &barrier;
                s.spawn(move || {
                    let session = h.session();
                    barrier.wait();
                    session.fetch_region(oid, region)
                })
            })
            .collect();
        handles.into_iter().map(|j| j.join().unwrap()).collect()
    })
}

#[test]
fn cold_multi_supertile_query_stages_as_one_batch() {
    let (mut owner, oids) = build_multi(1, 2, true);
    let (concurrent, _) = build_multi(1, 2, true);
    let concurrent = concurrent.into_concurrent();
    let region = tiles_region(0, GRID - 1); // one row: GRID super-tiles
    let batches_before = concurrent.metrics().counter("sched.batches").get();
    let got = concurrent.session().fetch_region(oids[0], &region).unwrap();
    let m = concurrent.metrics();
    assert_eq!(
        m.counter("sched.batches").get() - batches_before,
        1,
        "a query's whole miss set stages in one batch"
    );
    assert_eq!(m.counter("heaven.st_tape_fetches").get(), GRID as u64);
    let expected = owner.fetch_region_hierarchical(oids[0], &region).unwrap();
    assert_eq!(got, expected);
    assert_eq!(
        owner.tape_stats().bytes_read,
        concurrent.tape_stats().bytes_read
    );
}

#[test]
fn overlapping_miss_sets_coalesce_on_the_shared_supertile() {
    let (mut truth, oids) = build_multi(1, 2, true);
    // Both queries need tile 1's super-tile.
    let regions = [tiles_region(0, 1), tiles_region(1, 2)];
    let expected: Vec<MDArray> = regions
        .iter()
        .map(|r| truth.fetch_region_hierarchical(oids[0], r).unwrap())
        .collect();
    // Coalescing needs the second session to register while the first
    // one's fetch is in flight, a host-time race: give it a few fresh
    // systems. Every attempt must be correct.
    let mut coalesced = 0;
    for _ in 0..5 {
        let (h, _) = build_multi(1, 2, true);
        let mut h = h.into_concurrent();
        h.set_batch_window(Duration::from_millis(50));
        let h = h;
        let got: Vec<MDArray> = race_sessions(&h, oids[0], &regions)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, expected);
        assert_eq!(
            h.metrics().counter("heaven.st_tape_fetches").get(),
            3,
            "the shared super-tile is fetched once"
        );
        coalesced = h.metrics().counter("sched.coalesced_fetches").get();
        if coalesced >= 1 {
            break;
        }
    }
    assert!(coalesced >= 1, "overlapping miss sets must coalesce");
}

#[test]
fn chaos_multi_supertile_queries_recover_clean_bytes() {
    // 4 sessions, each reading two whole rows (2 x GRID super-tiles per
    // query) of one object: together every super-tile exactly once.
    let workers = 4usize;
    let run = |plan: Option<FaultConfig>| -> (Vec<MDArray>, Vec<u64>) {
        let (h, oids) = build_dual(2, 2, true, true);
        let mut h = h.into_concurrent();
        h.set_batch_window(Duration::from_millis(25));
        h.set_fault_plan(plan);
        let h = h;
        let barrier = Barrier::new(workers);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (h, oids, barrier) = (&h, &oids, &barrier);
                    s.spawn(move || {
                        let session = h.session();
                        barrier.wait();
                        let first = (w as i64 / 2) * 2 * GRID;
                        session
                            .fetch_region(oids[w % 2], &tiles_region(first, first + 2 * GRID - 1))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        (results, chaos_counters(h.metrics()))
    };
    // The same accesses as `chaos_same_seed_is_deterministic_concurrent`,
    // so the same seed never corrupts both copies of a super-tile.
    let seed = 3u64;
    let (clean, _) = run(None);
    let (a, a_ctr) = run(Some(FaultConfig::chaos(seed)));
    let (b, b_ctr) = run(Some(FaultConfig::chaos(seed)));
    assert_eq!(a, clean, "recovery must reproduce the fault-free bytes");
    assert_eq!(a, b, "same seed must give byte-identical answers");
    assert_eq!(a_ctr, b_ctr, "same seed must give identical fault counters");
    let by_name: std::collections::HashMap<&str, u64> =
        CHAOS_COUNTERS.iter().copied().zip(a_ctr).collect();
    assert!(
        by_name["tape.media_read_errors"] + by_name["tape.corrupted_reads"] > 0,
        "chaos rates must actually inject faults: {by_name:?}"
    );
    assert_eq!(by_name["hsm.media_lost"], 0, "{by_name:?}");
}

#[test]
fn lost_supertile_fails_its_query_but_not_a_coalesced_peer() {
    // Single copy and frequent bad segments: a super-tile whose every
    // retry fails has no surviving copy.
    let mut fc = FaultConfig::quiet(5);
    fc.media_read_error_per_read = 0.7;
    // Fault decisions are keyed per access, so probing each super-tile on
    // its own names the ones every run of this plan loses.
    let (mut probe, oids) = build_dual(1, 2, true, false);
    probe.set_fault_plan(Some(fc));
    let lost: Vec<Option<u64>> = (0..GRID * GRID)
        .map(
            |t| match probe.fetch_region_hierarchical(oids[0], &tile_region(t)) {
                Ok(_) => None,
                Err(HeavenError::MediaLost { st }) => Some(st),
                Err(e) => panic!("untyped failure: {e}"),
            },
        )
        .collect();
    assert!(
        lost.iter().any(Option::is_some),
        "the seed must lose a super-tile"
    );
    let kept = lost
        .iter()
        .position(Option::is_none)
        .expect("the seed must keep one") as i64;
    let (mut truth, _) = build_dual(1, 2, true, false);
    let expected = truth
        .fetch_region_hierarchical(oids[0], &tile_region(kept))
        .unwrap();
    let regions = [tiles_region(0, GRID * GRID - 1), tile_region(kept)];
    let mut coalesced = 0;
    for _ in 0..5 {
        let (h, _) = build_dual(1, 2, true, false);
        let mut h = h.into_concurrent();
        h.set_batch_window(Duration::from_millis(50));
        h.set_fault_plan(Some(fc));
        let h = h;
        let mut got = race_sessions(&h, oids[0], &regions).into_iter();
        match got.next().unwrap() {
            Err(HeavenError::MediaLost { st }) => {
                assert!(lost.contains(&Some(st)), "super-tile {st} was not lost")
            }
            other => panic!("expected MediaLost, got {other:?}"),
        }
        assert_eq!(got.next().unwrap().unwrap(), expected);
        coalesced = h.metrics().counter("sched.coalesced_fetches").get();
        if coalesced >= 1 {
            break;
        }
    }
    assert!(
        coalesced >= 1,
        "the peer must coalesce onto the failed query's fetch"
    );
}

// ------------------------------------------------------ batching window

#[test]
fn every_open_session_queues_before_the_batch_drains() {
    // Four sessions, each missing its own super-tile: however the threads
    // are scheduled, the drainer waits for all four, so they stage as one
    // batch — and well before a window that long runs out.
    let (h, oids) = build_multi(1, 2, true);
    let mut h = h.into_concurrent();
    h.set_batch_window(Duration::from_secs(20));
    let h = h;
    let regions: Vec<Minterval> = (0..4).map(|t| tile_region(t * 3)).collect();
    let start = std::time::Instant::now();
    for r in race_sessions(&h, oids[0], &regions) {
        r.unwrap();
    }
    assert!(start.elapsed() < Duration::from_secs(10));
    let m = h.metrics();
    assert_eq!(m.counter("sched.batches").get(), 1);
    assert_eq!(m.counter("heaven.st_tape_fetches").get(), 4);
}

#[test]
fn lone_session_stages_without_waiting_out_the_window() {
    let (h, oids) = build_multi(1, 2, true);
    let mut h = h.into_concurrent();
    h.set_batch_window(Duration::from_secs(20));
    let h = h;
    let session = h.session();
    let start = std::time::Instant::now();
    for t in 0..GRID {
        session.fetch_region(oids[0], &tile_region(t)).unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the only open session is never waited for"
    );
    assert_eq!(h.metrics().counter("sched.batches").get(), GRID as u64);
}

#[test]
fn idle_open_session_is_waited_for_until_the_window_runs_out() {
    let (h, oids) = build_multi(1, 2, true);
    let mut h = h.into_concurrent();
    let window = Duration::from_millis(150);
    h.set_batch_window(window);
    let h = h;
    let _idle = h.session();
    let start = std::time::Instant::now();
    h.session().fetch_region(oids[0], &tile_region(0)).unwrap();
    assert!(start.elapsed() >= window, "{:?}", start.elapsed());
}

#[test]
fn closing_the_idle_session_releases_a_waiting_drainer() {
    let (h, oids) = build_multi(1, 2, true);
    let mut h = h.into_concurrent();
    h.set_batch_window(Duration::from_secs(20));
    let h = h;
    let idle = h.session();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        let query = s.spawn(|| h.session().fetch_region(oids[0], &tile_region(0)));
        // Give the query time to queue and wait, then close the peer.
        std::thread::sleep(Duration::from_millis(50));
        drop(idle);
        query.join().unwrap().unwrap();
    });
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn lockstep_steps_hand_the_drainer_seat_over_at_once() {
    // Four sessions step through four objects (one medium each) in
    // lockstep, every step cold: each session reads a super-tile nobody
    // read before. A step's batch can close only because all four
    // sessions queued, not because a window that long ran out, so each
    // step stages as one batch, and each drainer that steps down hands
    // the seat over to a session queued for the next step at once.
    let (h, oids) = build_multi(4, 1, true);
    let mut h = h.into_concurrent();
    h.set_batch_window(Duration::from_secs(20));
    let h = h;
    let (workers, steps) = (4usize, 8usize);
    let barrier = Barrier::new(workers);
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (h, oids, barrier) = (&h, &oids, &barrier);
            s.spawn(move || {
                let session = h.session();
                barrier.wait();
                for j in 0..steps {
                    let tile = (w * oids.len() + j / oids.len()) as i64;
                    session
                        .fetch_region(oids[j % oids.len()], &tile_region(tile))
                        .unwrap();
                }
            });
        }
    });
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "{:?}",
        start.elapsed()
    );
    let m = h.metrics();
    assert_eq!(m.counter("sched.batches").get(), steps as u64);
    assert_eq!(
        m.counter("heaven.st_tape_fetches").get(),
        (workers * steps) as u64
    );
}

#[test]
fn stepping_down_wakes_the_session_queued_behind_the_drain() {
    // Session A drains while the test holds the store, so its staging
    // stalls, and session B queues behind that drain. A then stays open
    // and idle: no arrival and no closing session is left to wake B, so
    // B must be woken by A's drain itself. The sleeps only order the two
    // arrivals; should they fail to, the sessions swap roles and the
    // assertions still hold.
    let (h, oids) = build_multi(1, 2, true);
    let mut h = h.into_concurrent();
    h.set_batch_window(Duration::from_millis(50));
    let (h, oids) = (&h, &oids);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let store = h.store();
    std::thread::scope(|s| {
        s.spawn(move || {
            let a = h.session();
            a.fetch_region(oids[0], &tile_region(0)).unwrap();
            let _ = done_rx.recv_timeout(Duration::from_secs(20));
        });
        std::thread::sleep(Duration::from_millis(300));
        let b = s.spawn(move || {
            let b = h.session();
            let start = Instant::now();
            b.fetch_region(oids[0], &tile_region(1)).unwrap();
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(300));
        drop(store);
        let waited = b.join().unwrap();
        done_tx.send(()).unwrap();
        assert!(waited < Duration::from_secs(10), "{waited:?}");
    });
    assert_eq!(h.metrics().counter("sched.batches").get(), 2);
}

#[test]
fn drainer_churn_serves_every_session_the_owners_bytes() {
    // Eight sessions and no batching window: each drainer stages what is
    // queued at once, so the seat changes hands all the time while peers
    // coalesce onto fetches in flight and queue behind drains. Seeded,
    // overlapping multi-super-tile regions, several rounds from cold
    // caches: every answer must equal the single owner's bytes.
    let (mut truth, oids) = build_multi(2, 2, true);
    let (workers, rounds, queries) = (8usize, 4usize, 4usize);
    let mut rng = StdRng::seed_from_u64(11);
    let mut span = || {
        let (a, b) = (rng.gen_range(0..GRID), rng.gen_range(0..GRID));
        (a.min(b), a.max(b))
    };
    let plan: Vec<Vec<Vec<(u64, Minterval)>>> = (0..rounds)
        .map(|_| {
            (0..workers)
                .map(|_| {
                    (0..queries)
                        .map(|q| {
                            let ((x0, x1), (y0, y1)) = (span(), span());
                            let region = tiles_region(y0 * GRID + x0, y1 * GRID + x1);
                            (oids[q % oids.len()], region)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let (h, _) = build_multi(2, 2, true);
    let mut h = h.into_concurrent();
    h.set_batch_window(Duration::ZERO);
    let h = h;
    for round in &plan {
        h.clear_caches();
        let barrier = Barrier::new(workers);
        let got: Vec<Vec<MDArray>> = std::thread::scope(|s| {
            let handles: Vec<_> = round
                .iter()
                .map(|queries| {
                    let (h, barrier) = (&h, &barrier);
                    s.spawn(move || {
                        let session = h.session();
                        barrier.wait();
                        queries
                            .iter()
                            .map(|(oid, region)| session.fetch_region(*oid, region).unwrap())
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for (answers, queries) in got.iter().zip(round) {
            for (answer, (oid, region)) in answers.iter().zip(queries) {
                let expected = truth.fetch_region_hierarchical(*oid, region).unwrap();
                assert_eq!(*answer, expected, "object {oid}, region {region}");
            }
        }
    }
}

/// One object of GRID x GRID single-tile super-tiles whose archive spans
/// two media (half the super-tiles on each), on `drives` drives, batched.
fn build_two_media(drives: usize) -> (Heaven, u64) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("conc", CellType::F32, 2).unwrap();
    let dom = mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]);
    let arr = MDArray::generate(dom, CellType::F32, |p: &Point| {
        (p.coord(0) * 1000 + p.coord(1)) as f64
    });
    let oid = adb
        .insert_object(
            "conc",
            &arr,
            Tiling::Regular {
                tile_shape: vec![TILE_EDGE as u64, TILE_EDGE as u64],
            },
        )
        .unwrap();
    let tile_encoded = (Tile::header_len(2) + (TILE_EDGE * TILE_EDGE) as usize * 4) as u64;
    let half = (GRID * GRID / 2) as u64;
    let profile = DeviceProfile {
        media_capacity: half * tile_encoded + tile_encoded / 2,
        ..DeviceProfile::ibm3590()
    };
    let config = HeavenConfig {
        supertile_bytes: Some(tile_encoded),
        cross_session_batching: true,
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(profile, drives, clock);
    let mut heaven = Heaven::new(adb, lib, config);
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    (heaven, oid)
}

/// Each medium's share of the [`build_two_media`] object, read straight
/// through the store of a fresh 2-drive twin in archive order: the
/// simulated seconds of its drive's window.
fn medium_windows() -> Vec<f64> {
    let (twin, oid) = build_two_media(2);
    let addrs: Vec<_> = twin
        .catalog()
        .object_supertiles(oid)
        .iter()
        .map(|&st| twin.catalog().address(st).unwrap())
        .collect();
    let media: std::collections::BTreeSet<_> = addrs.iter().map(|a| a.medium).collect();
    let mut store = twin.store();
    let clock = store.clock();
    media
        .into_iter()
        .map(|m| {
            let t0 = clock.now_s();
            for a in addrs.iter().filter(|a| a.medium == m) {
                store.read(*a).unwrap();
            }
            clock.now_s() - t0
        })
        .collect()
}

#[test]
fn batched_drain_overlaps_the_drives_of_two_media() {
    let windows = medium_windows();
    assert_eq!(windows.len(), 2, "the object spans two media");
    let (slower, sum) = (windows[0].max(windows[1]), windows[0] + windows[1]);
    // One cold batched session reads the whole object: its miss set spans
    // both media. Returns the shared clock's advance and the drives'
    // summed busy time.
    let cold_query = |drives| {
        let (heaven, oid) = build_two_media(drives);
        let (t0, before) = (heaven.clock().now_s(), heaven.tape_stats());
        let whole = tiles_region(0, GRID * GRID - 1);
        heaven.session().fetch_region(oid, &whole).unwrap();
        let busy = heaven.tape_stats().since(&before);
        (
            heaven.clock().now_s() - t0,
            busy.exchange_s + busy.locate_s + busy.transfer_s,
        )
    };
    let (two_s, two_busy) = cold_query(2);
    let (one_s, _) = cold_query(1);
    // Two drives each work through one medium's whole window ...
    assert!(
        (two_busy - sum).abs() < 1e-6 * sum,
        "drives busy {two_busy:.3} s, windows {windows:?}"
    );
    // ... side by side: the shared clock advances by the slower window
    // (plus the disk-cache admissions), not by the sum.
    assert!(
        two_s >= slower && two_s < slower + 0.1 * (sum - slower),
        "2 drives took {two_s:.3} s, windows {windows:?}"
    );
    // One drive serves the two media in turn.
    assert!(
        one_s >= sum,
        "1 drive took {one_s:.3} s, windows {windows:?}"
    );
}
