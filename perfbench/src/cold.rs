//! `cold_sessions`: two sessions on a `ConcurrentHeaven` read seeded
//! boxes of many archived objects whose data far exceeds both caches.
//!
//! Sixteen 2-D f32 climate fields of 512×512 cells (1 MiB, 1024 tiles of
//! 1 KiB each; 16 MiB in all), each exported to its own IBM 3590 medium in
//! 32 KiB super-tiles, served by two drives with cross-session batching
//! on and compression off. The memory tile cache holds 2 MiB (about 2000
//! tiles, one eighth of the data) and the disk super-tile cache 4 MiB (one
//! quarter), both striped four ways, so reads keep evicting at both
//! levels and most of them go to tape. Each session is one closed-loop
//! client: it issues its next `fetch_region` only after the previous one
//! returned. Every result is compared with the seeded generator.

use crate::harness::{guard, secs, set_up_thrice, timed, Args, Ledger, Span, Tracer};
use crate::layers::{Counters, E2e, Layers, Outcome};
use crate::replay::{CatalogCopy, Replayer};
use heaven_array::{CellType, MDArray, Minterval, ObjectId, Tiling};
use heaven_arraydb::{ArrayDb, ObjectMeta};
use heaven_core::{ConcurrentHeaven, ExportMode, Heaven, HeavenConfig};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};
use heaven_workload::{climate_field, climate_field_tile, random_box};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const OBJECTS: usize = 16;
const EDGE: i64 = 512;
const TILE_EDGE: u64 = 16;
const SUPERTILE_BYTES: u64 = 32 << 10;
const MEM_CACHE_BYTES: u64 = 2 << 20;
const DISK_CACHE_BYTES: u64 = 4 << 20;
const CACHE_SHARDS: usize = 4;
const DRIVES: usize = 2;
const SELECTIVITY: f64 = 0.01;
/// Queries per client between two verification pauses.
const BURST: usize = 16;
/// Engine fetches replayed through the inner layers (traced run).
const REPLAY_FETCHES: usize = 20_000;

fn domain() -> Minterval {
    Minterval::new(&[(0, EDGE - 1), (0, EDGE - 1)]).expect("valid domain")
}

fn object_seed(seed: u64, o: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(o as u64)
}

struct System {
    heaven: ConcurrentHeaven,
    oids: Vec<ObjectId>,
    metas: HashMap<ObjectId, ObjectMeta>,
    catalog: CatalogCopy,
}

fn set_up(seed: u64) -> System {
    let clock = SimClock::new();
    let mut adb = ArrayDb::create(Database::new(DiskProfile::scsi2003(), clock.clone(), 8192))
        .expect("fresh db");
    adb.create_collection("climate", CellType::F32, 2)
        .expect("new collection");
    let tiling = Tiling::Regular {
        tile_shape: vec![TILE_EDGE, TILE_EDGE],
    };
    let oids: Vec<ObjectId> = (0..OBJECTS)
        .map(|o| {
            let arr = climate_field(domain(), object_seed(seed, o));
            adb.insert_object("climate", &arr, tiling.clone())
                .expect("insert")
        })
        .collect();
    adb.database_mut().checkpoint().expect("checkpoint");
    let config = HeavenConfig {
        supertile_bytes: Some(SUPERTILE_BYTES),
        mem_cache_bytes: MEM_CACHE_BYTES,
        disk_cache_bytes: DISK_CACHE_BYTES,
        cache_shards: CACHE_SHARDS,
        medium_per_object: true,
        cross_session_batching: true,
        compress: false,
        ..HeavenConfig::default()
    };
    let mut heaven = Heaven::new(
        adb,
        TapeLibrary::new(DeviceProfile::ibm3590(), DRIVES, clock),
        config,
    );
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).expect("export");
    }
    let metas = oids
        .iter()
        .map(|&o| (o, heaven.arraydb().object(o).expect("object").clone()))
        .collect();
    let catalog = CatalogCopy::capture(heaven.catalog(), &oids);
    System {
        heaven: heaven.into_concurrent(),
        oids,
        metas,
        catalog,
    }
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    ledger: Ledger,
    /// Host µs per query, untraced bursts.
    query_us: Vec<f64>,
    /// Host µs per query, traced bursts.
    traced_us: Vec<f64>,
    /// Simulated seconds per query (session lane).
    sim_s: Vec<f64>,
    /// Start and end of each untraced burst, host ns since the run's
    /// base instant.
    bursts: Vec<(u64, u64)>,
    result_bytes: u64,
    /// Engine fetches `(start ns, object index, region)` for the replay.
    fetches: Vec<(u64, usize, Minterval)>,
    spans: Vec<Span>,
}

fn client(
    id: usize,
    sys: &System,
    args: &Args,
    base: Instant,
    barrier: &Barrier,
    stop: &AtomicBool,
) -> Client {
    let session = sys.heaven.session();
    let mut rng = StdRng::seed_from_u64(args.seed ^ (0xC01D_0000 + id as u64));
    let mut tracer = Tracer::new(base);
    let mut out = Client::default();
    let ns = |t: Instant| t.duration_since(base).as_nanos() as u64;
    let dom = domain();
    for burst in 0u32.. {
        if id == 0 {
            stop.store(secs(base) >= args.seconds, Ordering::SeqCst);
        }
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Inputs are generated before the burst's clock starts.
        let queries: Vec<(usize, Minterval)> = (0..BURST)
            .map(|_| {
                let o = rng.gen_range(0..sys.oids.len());
                (o, random_box(&dom, SELECTIVITY, &mut rng))
            })
            .collect();
        // Traced runs alternate untraced and traced bursts.
        let traced = args.trace && burst % 2 == 1;
        let mut results = Vec::with_capacity(BURST);
        let start = Instant::now();
        for (q, (o, region)) in queries.iter().enumerate() {
            tracer.set_op(burst * BURST as u32 + q as u32);
            let sim0 = session.now_s();
            let t0 = Instant::now();
            let span = if traced { Some(&mut tracer) } else { None };
            let (got, us) = timed(span, "engine.fetch", || {
                session.fetch_region(sys.oids[*o], region)
            });
            out.sim_s.push(session.now_s() - sim0);
            if traced {
                out.traced_us.push(us);
            } else {
                out.query_us.push(us);
            }
            if args.trace {
                out.fetches.push((ns(t0), *o, region.clone()));
            }
            results.push(got);
        }
        if !traced {
            out.bursts.push((ns(start), ns(Instant::now())));
        }
        barrier.wait();
        for ((o, region), got) in queries.iter().zip(results) {
            let want = climate_field_tile(&dom, region, object_seed(args.seed, *o));
            out.result_bytes += want.size_bytes();
            out.ledger.check(matches!(&got, Ok(g) if *g == want), || {
                format!("object {o} region {region}: {:?}", got.err())
            });
        }
    }
    out.spans = tracer.spans;
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (sys, setup_s) = set_up_thrice(|| set_up(args.seed));
    let mut e2e = E2e {
        setup_s,
        ..E2e::default()
    };
    let c0 = Counters::read(sys.heaven.metrics());
    let base = Instant::now();
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    // Two sessions: one on this thread, one on a spawned peer.
    let clients: Vec<Client> = std::thread::scope(|s| {
        let peer = s.spawn(|| client(1, &sys, args, base, &barrier, &stop));
        let first = client(0, &sys, args, base, &barrier, &stop);
        vec![first, peer.join().expect("client thread panicked")]
    });
    let mut layers = Layers {
        counters: Counters::read(sys.heaven.metrics()).since(&c0),
        queue_wait_p99_s: sys
            .heaven
            .metrics()
            .histogram("sched.queue_wait_s")
            .quantile(0.99),
        ..Layers::default()
    };
    // Latencies in time order, burst by burst. A burst lasts from the
    // first client's start to the last client's end; each of its queries
    // is charged an equal share of that wall time.
    for b in 0..clients[0].bursts.len() {
        let start = clients.iter().map(|c| c.bursts[b].0).min().unwrap_or(0);
        let end = clients.iter().map(|c| c.bursts[b].1).max().unwrap_or(0);
        let share = (end - start) as f64 / 1e3 / (BURST * clients.len()) as f64;
        for c in &clients {
            e2e.query_us.extend(&c.query_us[b * BURST..(b + 1) * BURST]);
            e2e.busy_us.extend(std::iter::repeat_n(share, BURST));
        }
    }
    let mut ledger = Ledger::default();
    let mut spans = Tracer::new(base);
    let mut fetches = Vec::new();
    for c in clients {
        layers.untraced_query_us += c.query_us.iter().sum::<f64>();
        layers.untraced_queries += c.query_us.len() as u64;
        layers.traced_query_us += c.traced_us.iter().sum::<f64>();
        layers.traced_queries += c.traced_us.len() as u64;
        layers.query_sim_s.extend(&c.sim_s);
        layers.result_bytes += c.result_bytes;
        layers.queries += (c.query_us.len() + c.traced_us.len()) as u64;
        fetches.extend(c.fetches);
        spans.absorb(c.spans);
        ledger.merge(c.ledger);
    }
    let c = &layers.counters;
    let (tile_ev, st_ev) = (c.get("cache.mem.evictions"), c.get("cache.st.evictions"));
    guard(
        tile_ev > 0.0 && st_ev > 0.0,
        &format!("cold_sessions evicted {tile_ev} tiles and {st_ev} super-tiles; both must be > 0"),
    )?;
    let tape_fetches = c.get("heaven.st_tape_fetches");
    guard(
        tape_fetches >= layers.queries as f64,
        &format!(
            "cold_sessions made {tape_fetches} tape fetches for {} queries; need >= 1 per query",
            layers.queries
        ),
    )?;
    if args.trace {
        layers.explained_us = spans.root_us();
        (layers.engine_fetch_us, layers.engine_fetches) = spans.total_us("engine.fetch");
        layers.covered_us = layers.traced_query_us;
        fetches.sort_by_key(|f| f.0);
        let truth = |oid: ObjectId, dom: &Minterval| -> MDArray {
            let o = sys
                .oids
                .iter()
                .position(|&x| x == oid)
                .expect("known object");
            climate_field_tile(&domain(), dom, object_seed(args.seed, o))
        };
        let mut r = Replayer::new(&sys.metas, &sys.catalog, &truth, sys.heaven.config());
        for (_, o, region) in fetches.iter().take(REPLAY_FETCHES) {
            r.fetch(sys.oids[*o], region, Some(&mut layers.inner));
        }
    }
    Ok(Outcome {
        e2e,
        layers,
        ledger,
        spans: spans.spans,
    })
}
