//! `ingest_mix`: one client on a single-owner `Heaven` with the adaptive
//! codec on runs a seeded write-beside-read stream.
//!
//! Objects are 2-D f32 climate fields of 256×256 cells (256 KiB, 256
//! tiles of 1 KiB) archived in 8 KiB super-tiles on IBM 3590 media
//! through two drives. The stream is `heaven_workload::adversarial_mix`:
//! every twelfth operation generates, inserts and exports
//! (`ExportMode::Tct`) a new object, then checkpoints the database; the
//! other operations read a 1 % box, half on the newest object and half
//! anywhere in the archive — except that a seeded quarter of them become
//! `update_region` patches of a 3 % box instead. The memory tile cache
//! (1 MiB) and the disk super-tile cache (2 MiB) are small, so archive
//! reads pay tape and codec decode.
//!
//! The run is a sequence of epochs of 480 operations, each on a fresh
//! archive of the same eight objects, so that what a run measures does
//! not depend on how far a growing archive got in the time available.
//! Reads are compared with an in-memory mirror of every object (the
//! seeded generator plus the applied patches); at the end of each epoch
//! every patched region is read back and compared.

use crate::harness::{guard, secs, timed, Args, Ledger, Tracer};
use crate::layers::{Counters, E2e, Layers, Outcome};
use crate::replay::{CatalogCopy, Replayer};
use heaven_array::{
    decode_wire, encode_wire, CellType, MDArray, Minterval, ObjectId, Tile, Tiling,
};
use heaven_arraydb::{ArrayDb, ObjectMeta};
use heaven_core::{
    encode_supertile, estar_partition, ClusteringStrategy, ExportMode, Heaven, HeavenConfig,
    TileInfo,
};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};
use heaven_workload::{adversarial_mix, climate_field, climate_field_tile, random_box, MixedOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

const EDGE: i64 = 256;
const TILE_EDGE: u64 = 16;
const INITIAL_OBJECTS: usize = 8;
const SUPERTILE_BYTES: u64 = 8 << 10;
const MEM_CACHE_BYTES: u64 = 1 << 20;
const DISK_CACHE_BYTES: u64 = 2 << 20;
const INGEST_EVERY: usize = 12;
const READ_SELECTIVITY: f64 = 0.01;
const PATCH_SELECTIVITY: f64 = 0.03;
const UPDATE_SHARE: f64 = 0.25;
/// Operations generated per `adversarial_mix` chunk.
const CHUNK: usize = 48;
/// Operations per epoch; every epoch starts from a fresh archive.
const EPOCH_OPS: u64 = 480;
/// Operations per burst; traced runs alternate untraced and traced bursts.
const BURST: u64 = 8;
/// Super-tile payloads re-encoded and decoded by the codec replay.
const CODEC_SAMPLE: usize = 512;

fn domain() -> Minterval {
    Minterval::new(&[(0, EDGE - 1), (0, EDGE - 1)]).expect("valid domain")
}

fn tiling() -> Tiling {
    Tiling::Regular {
        tile_shape: vec![TILE_EDGE, TILE_EDGE],
    }
}

fn object_seed(seed: u64, o: usize) -> u64 {
    seed.wrapping_mul(7_368_787).wrapping_add(o as u64)
}

struct System {
    heaven: Heaven,
    oids: Vec<ObjectId>,
    /// Ground truth: every object's cells with all patches applied.
    mirror: Vec<MDArray>,
}

impl System {
    /// Insert, export and checkpoint object number `oids.len()`; returns
    /// the host µs of the insert (with its checkpoint) and of the export.
    fn ingest(&mut self, arr: MDArray, mut t: Option<&mut Tracer>, l: &mut Layers) -> (f64, f64) {
        let clock = self.heaven.clock();
        let sim0 = clock.now_s();
        let h = &mut self.heaven;
        let (oid, insert_us) = timed(t.as_deref_mut(), "arraydb.insert", || {
            h.arraydb_mut()
                .insert_object("climate", &arr, tiling())
                .expect("insert")
        });
        let (report, export_us) = timed(t.as_deref_mut(), "export", || {
            h.export_object(oid, ExportMode::Tct).expect("export")
        });
        // Flush policy: a checkpoint (flush dirty pages, truncate the log)
        // ends every ingest, so the log does not grow with the run.
        let ((), checkpoint_us) = timed(t, "rdbms.checkpoint", || {
            h.arraydb_mut()
                .database_mut()
                .checkpoint()
                .expect("checkpoint")
        });
        l.ingest_sim_s += clock.now_s() - sim0;
        l.export_raw_bytes += report.raw_bytes;
        l.export_wire_bytes += report.bytes;
        l.exports += 1;
        self.oids.push(oid);
        self.mirror.push(arr);
        (insert_us + checkpoint_us, export_us)
    }
}

fn set_up(seed: u64) -> System {
    let clock = SimClock::new();
    let mut adb = ArrayDb::create(Database::new(DiskProfile::scsi2003(), clock.clone(), 8192))
        .expect("fresh db");
    adb.create_collection("climate", CellType::F32, 2)
        .expect("new collection");
    let config = HeavenConfig {
        supertile_bytes: Some(SUPERTILE_BYTES),
        mem_cache_bytes: MEM_CACHE_BYTES,
        disk_cache_bytes: DISK_CACHE_BYTES,
        compress: true,
        ..HeavenConfig::default()
    };
    let mut sys = System {
        heaven: Heaven::new(
            adb,
            TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock),
            config,
        ),
        oids: Vec::new(),
        mirror: Vec::new(),
    };
    let mut scratch = Layers::default();
    for o in 0..INITIAL_OBJECTS {
        sys.ingest(
            climate_field(domain(), object_seed(seed, o)),
            None,
            &mut scratch,
        );
    }
    sys
}

/// One operation of the stream, with its inputs generated.
enum Op {
    Ingest(MDArray),
    Read(usize, Minterval),
    Update(usize, MDArray),
}

/// The seeded operation stream: `adversarial_mix` chunks, a quarter of
/// whose reads become patches.
struct Stream {
    seed: u64,
    rng: StdRng,
    chunk: u64,
    pending: std::collections::VecDeque<MixedOp>,
    objects: usize,
}

impl Stream {
    fn next(&mut self) -> Op {
        if self.pending.is_empty() {
            let chunk_seed = self.seed ^ (self.chunk + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.pending = adversarial_mix(
                &domain(),
                self.objects,
                CHUNK,
                INGEST_EVERY,
                READ_SELECTIVITY,
                chunk_seed,
            )
            .into();
            self.chunk += 1;
        }
        match self.pending.pop_front().expect("chunk is not empty") {
            MixedOp::Ingest => {
                let o = self.objects;
                self.objects += 1;
                Op::Ingest(climate_field(domain(), object_seed(self.seed, o)))
            }
            MixedOp::Query { object, region } => {
                if self.rng.gen_bool(UPDATE_SHARE) {
                    let b = random_box(&domain(), PATCH_SELECTIVITY, &mut self.rng);
                    let patch_seed = self.rng.gen::<u64>();
                    Op::Update(object, climate_field_tile(&domain(), &b, patch_seed))
                } else {
                    Op::Read(object, region)
                }
            }
        }
    }
}

/// What one epoch of the stream carries over from the last.
struct Run<'a> {
    args: &'a Args,
    e2e: E2e,
    layers: Layers,
    ledger: Ledger,
    tracer: Tracer,
    /// Operations issued so far, over all epochs.
    ops: u64,
}

impl Run<'_> {
    /// One epoch: a fresh system runs `EPOCH_OPS` operations of its own
    /// stream, then every patched region is read back.
    fn epoch(&mut self, epoch: u64) {
        let args = self.args;
        let t0 = Instant::now();
        let mut sys = set_up(args.seed);
        self.e2e.setup_s.push(secs(t0));
        let mut stream = Stream {
            seed: args.seed,
            rng: StdRng::seed_from_u64(args.seed ^ (epoch + 1).wrapping_mul(0x001A_6E57)),
            chunk: epoch << 32,
            pending: Default::default(),
            objects: sys.oids.len(),
        };
        let first_new = sys.oids.len();
        let c0 = Counters::read(sys.heaven.metrics());
        let clock = sys.heaven.clock();
        let (l, ledger) = (&mut self.layers, &mut self.ledger);
        let mut reads: Vec<(ObjectId, Minterval)> = Vec::new();
        let mut patched: Vec<(usize, Minterval)> = Vec::new();
        for _ in 0..EPOCH_OPS {
            let op = stream.next();
            let traced = args.trace && (self.ops / BURST) % 2 == 1;
            self.tracer.set_op(self.ops as u32);
            let t = if traced { Some(&mut self.tracer) } else { None };
            let us = match op {
                Op::Ingest(arr) => {
                    let bytes = arr.size_bytes();
                    let (insert_us, export_us) = sys.ingest(arr, t, l);
                    let oid = *sys.oids.last().expect("just ingested");
                    ledger.check(sys.heaven.catalog().is_exported(oid), || {
                        format!("object {oid} is not archived after its export")
                    });
                    l.insert_us += insert_us;
                    l.export_us += export_us;
                    l.ingest_user_bytes += bytes;
                    insert_us + export_us
                }
                Op::Update(o, patch) => {
                    let written0 = sys.heaven.tape_stats().bytes_written;
                    let (res, us) = timed(t, "maintenance.update", || {
                        sys.heaven.update_region(sys.oids[o], &patch)
                    });
                    l.update_us.push(us);
                    l.update_tape_bytes += sys.heaven.tape_stats().bytes_written - written0;
                    l.update_user_bytes += patch.size_bytes();
                    match res {
                        Ok(()) => {
                            sys.mirror[o].patch(&patch).expect("patch inside object");
                            patched.push((o, patch.domain().clone()));
                        }
                        Err(e) => ledger.check(false, || format!("update of object {o}: {e}")),
                    }
                    us
                }
                Op::Read(o, region) => {
                    let oid = sys.oids[o];
                    let sim0 = clock.now_s();
                    let (got, us) = timed(t, "engine.fetch", || {
                        sys.heaven.fetch_region_hierarchical(oid, &region)
                    });
                    l.query_sim_s.push(clock.now_s() - sim0);
                    if traced {
                        l.traced_query_us += us;
                        l.traced_queries += 1;
                    } else {
                        self.e2e.query_us.push(us);
                        self.e2e.busy_us.push(us);
                        l.untraced_query_us += us;
                        l.untraced_queries += 1;
                    }
                    l.queries += 1;
                    let want = sys.mirror[o].extract(&region).expect("box inside object");
                    l.result_bytes += want.size_bytes();
                    ledger.check(matches!(&got, Ok(g) if *g == want), || {
                        format!("read of object {o} region {region}: {:?}", got.err())
                    });
                    if args.trace {
                        reads.push((oid, region));
                    }
                    us
                }
            };
            if traced {
                l.covered_us += us;
            }
            self.ops += 1;
        }
        l.counters
            .add(&Counters::read(sys.heaven.metrics()).since(&c0));
        // Every patched region must read back as the mirror says.
        for (o, region) in &patched {
            let got = sys.heaven.fetch_region_hierarchical(sys.oids[*o], region);
            let want = sys.mirror[*o].extract(region).expect("box inside object");
            ledger.check(matches!(&got, Ok(g) if *g == want), || {
                format!("patched region {region} of object {o} reads back wrong")
            });
        }
        // The first measured epoch's inputs are replayed through the inner
        // layers.
        if args.trace && epoch == 1 {
            replay(&sys, &reads, first_new, l);
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut run = Run {
        args,
        e2e: E2e::default(),
        layers: Layers::default(),
        ledger: Ledger::default(),
        tracer: Tracer::new(Instant::now()),
        ops: 0,
    };
    // A warm-up epoch first: its results are checked, but its figures are
    // dropped, so the process's first-touch costs (allocator growth, cold
    // code and data caches) stay out of what the run reports.
    run.epoch(0);
    run.e2e = E2e::default();
    run.layers = Layers::default();
    run.tracer = Tracer::new(Instant::now());
    run.ops = 0;
    // Then whole epochs until the measuring time is used up: each starts
    // from the same archive, so a run's figures do not depend on how far
    // a growing archive got in the time available.
    let base = Instant::now();
    let mut epoch = 1;
    while epoch == 1 || secs(base) < args.seconds {
        run.epoch(epoch);
        epoch += 1;
    }
    let Run {
        e2e,
        mut layers,
        ledger,
        tracer,
        ..
    } = run;
    guard(
        layers.non_raw_share() > 0.0,
        "ingest_mix shipped every super-tile raw: the codec did not engage",
    )?;
    guard(
        layers.archive_bytes_per_user_byte() < 1.0,
        &format!(
            "ingest_mix wrote {:.3} archive bytes per user byte; must stay below 1",
            layers.archive_bytes_per_user_byte()
        ),
    )?;
    if args.trace {
        layers.explained_us = tracer.root_us();
        let (us, n) = tracer.total_us("engine.fetch");
        layers.engine_fetch_us = us;
        layers.engine_fetches = n;
    }
    Ok(Outcome {
        e2e,
        layers,
        ledger,
        spans: tracer.spans,
    })
}

/// Replays of the layers reached only inside the engine: the read path,
/// the export partitioner and the wire codec.
fn replay(sys: &System, reads: &[(ObjectId, Minterval)], first_new: usize, l: &mut Layers) {
    let h = &sys.heaven;
    let index: HashMap<ObjectId, usize> =
        sys.oids.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let truth =
        |oid: ObjectId, dom: &Minterval| sys.mirror[index[&oid]].extract(dom).expect("in domain");
    let metas: HashMap<ObjectId, ObjectMeta> = sys
        .oids
        .iter()
        .map(|&o| (o, h.arraydb().object(o).expect("object").clone()))
        .collect();
    let catalog = CatalogCopy::capture(h.catalog(), &sys.oids);
    let cfg = h.config();
    let mut r = Replayer::new(&metas, &catalog, &truth, cfg);
    for (oid, region) in reads {
        r.fetch(*oid, region, Some(&mut l.inner));
    }
    // Export partitioning of the objects ingested in the timed phase.
    let ClusteringStrategy::EStar(pattern) = cfg.clustering else {
        unreachable!("ingest_mix exports with eSTAR");
    };
    let target = h.supertile_target();
    for &oid in &sys.oids[first_new..] {
        let meta = &metas[&oid];
        let (grid, grid_shape) = meta
            .tiling
            .tile_grid(&meta.domain, meta.cell_type)
            .expect("regular grid");
        let infos: Vec<TileInfo> = meta
            .tiles
            .iter()
            .zip(grid)
            .map(|((domain, tid), gc)| TileInfo {
                id: *tid,
                domain: domain.clone(),
                bytes: (Tile::header_len(meta.domain.dim())
                    + (domain.cell_count() * meta.cell_type.size_bytes() as u64) as usize)
                    as u64,
                grid: gc,
            })
            .collect();
        let t0 = Instant::now();
        std::hint::black_box(estar_partition(&infos, &grid_shape, target, pattern));
        l.partition_us += t0.elapsed().as_secs_f64() * 1e6;
    }
    // The wire codec on the archive's super-tile payloads.
    let mut sts: Vec<_> = catalog.st.keys().copied().collect();
    sts.sort_unstable();
    for st in sts.into_iter().rev().take(CODEC_SAMPLE) {
        let (meta, _) = &catalog.st[&st];
        let tiles: Vec<Tile> = meta
            .members
            .iter()
            .map(|m| Tile::new(m.tile, meta.object, truth(meta.object, &m.domain)))
            .collect();
        let (payload, _) = encode_supertile(st, meta.object, &tiles);
        let t0 = Instant::now();
        let (wire, _) = encode_wire(&payload, 4, &cfg.codec);
        l.encode_ns += t0.elapsed().as_nanos() as u64;
        l.encode_bytes += payload.len() as u64;
        let t0 = Instant::now();
        let (back, _) = decode_wire(&wire, payload.len() as u64).expect("round trip");
        l.decode_ns += t0.elapsed().as_nanos() as u64;
        l.decode_bytes += back.len() as u64;
        debug_assert_eq!(back, payload);
    }
}
