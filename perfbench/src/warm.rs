//! `warm_rasql`: one client runs RasQL text through `ql::run` on a
//! single-owner `Heaven` whose working set sits in the memory tile cache.
//!
//! Two archived collections: `climate` (3-D f32 temperature fields) and
//! `sat` (2-D u8 vegetation rasters), two objects each, 1024 tiles of
//! 1 KiB per object — 4 MiB in all against a 64 MiB tile cache, warmed by
//! a whole-object read of every object during set-up. The query mix:
//! condensers over fresh seeded boxes at 0.1 %, 1 % and 5 % selectivity,
//! a thresholded count (induced op inside a condenser), trims returning
//! arrays, an induced unit conversion, and a two-box union frame. Every
//! result is compared with the same query text run on an un-exported
//! `ArrayDb` twin holding the same data.

use crate::harness::{guard, secs, set_up_thrice, timed, Args, Ledger, Tracer};
use crate::layers::{Counters, E2e, Layers, Outcome};
use crate::replay::{CatalogCopy, Replayer};
use heaven_array::{CellType, Condenser, MDArray, Minterval, ObjectId, Tiling};
use heaven_arraydb::ql::{self, QueryResult};
use heaven_arraydb::{ArrayDb, ObjectMeta, TileProvider};
use heaven_core::{ExportMode, Heaven, HeavenConfig};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};
use heaven_workload::{climate_field, random_box, satellite_image};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

const OBJECTS_PER_COLLECTION: usize = 2;
const MEM_CACHE_BYTES: u64 = 64 << 20;
const SUPERTILE_BYTES: u64 = 64 << 10;
/// Exact precomputed-result hits must stay below this share of condenser
/// queries: the boxes are fresh, so the memo table must not answer them.
const MAX_EXACT_HIT_SHARE: f64 = 0.05;
/// Queries run between two verification passes against the twin.
const VERIFY_BURST: usize = 32;
/// Engine fetches replayed through the inner layers (traced run).
const REPLAY_FETCHES: usize = 20_000;

fn climate_domain() -> Minterval {
    Minterval::new(&[(0, 15), (0, 127), (0, 127)]).expect("valid domain")
}

fn sat_domain() -> Minterval {
    Minterval::new(&[(0, 1023), (0, 1023)]).expect("valid domain")
}

struct System {
    heaven: Heaven,
    twin: ArrayDb,
    truth: HashMap<ObjectId, MDArray>,
    metas: HashMap<ObjectId, ObjectMeta>,
    catalog: CatalogCopy,
    climate: Vec<ObjectId>,
    sat: Vec<ObjectId>,
}

fn set_up(seed: u64) -> System {
    let new_db = |clock: SimClock| {
        ArrayDb::create(Database::new(DiskProfile::scsi2003(), clock, 8192)).expect("fresh db")
    };
    let clock = SimClock::new();
    let mut adb = new_db(clock.clone());
    let mut twin = new_db(SimClock::new());
    for db in [&mut adb, &mut twin] {
        db.create_collection("climate", CellType::F32, 3)
            .expect("new collection");
        db.create_collection("sat", CellType::U8, 2)
            .expect("new collection");
    }
    let mut truth = HashMap::new();
    let (mut climate, mut sat) = (Vec::new(), Vec::new());
    for i in 0..OBJECTS_PER_COLLECTION as u64 {
        let objects = [
            (
                "climate",
                climate_field(climate_domain(), seed.wrapping_mul(31).wrapping_add(i)),
                vec![4, 8, 8],
            ),
            (
                "sat",
                satellite_image(sat_domain(), seed.wrapping_mul(37).wrapping_add(i)),
                vec![32, 32],
            ),
        ];
        for (coll, arr, tile_shape) in objects {
            let tiling = Tiling::Regular { tile_shape };
            let oid = adb
                .insert_object(coll, &arr, tiling.clone())
                .expect("insert");
            let twin_oid = twin.insert_object(coll, &arr, tiling).expect("insert");
            assert_eq!(oid, twin_oid, "twin assigns the same object ids");
            if coll == "climate" {
                climate.push(oid);
            } else {
                sat.push(oid);
            }
            truth.insert(oid, arr);
        }
    }
    for db in [&mut adb, &mut twin] {
        db.database_mut().checkpoint().expect("checkpoint");
    }
    let config = HeavenConfig {
        supertile_bytes: Some(SUPERTILE_BYTES),
        mem_cache_bytes: MEM_CACHE_BYTES,
        ..HeavenConfig::default()
    };
    let mut heaven = Heaven::new(
        adb,
        TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock),
        config,
    );
    let oids: Vec<ObjectId> = climate.iter().chain(&sat).copied().collect();
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).expect("export");
    }
    let metas: HashMap<ObjectId, ObjectMeta> = oids
        .iter()
        .map(|&o| (o, heaven.arraydb().object(o).expect("object").clone()))
        .collect();
    let catalog = CatalogCopy::capture(heaven.catalog(), &oids);
    // Warm the tile cache: one whole-object read per object.
    for &oid in &oids {
        let dom = metas[&oid].domain.clone();
        heaven
            .fetch_region_hierarchical(oid, &dom)
            .expect("warm-up");
    }
    System {
        heaven,
        twin,
        truth,
        metas,
        catalog,
        climate,
        sat,
    }
}

/// One generated query: its text, plus what the condense replay needs.
struct Query {
    text: String,
    condense: Option<(Condenser, &'static str, Minterval)>,
}

fn box_text(b: &Minterval) -> String {
    (0..b.dim())
        .map(|i| format!("{}:{}", b.axis(i).lo, b.axis(i).hi))
        .collect::<Vec<_>>()
        .join(", ")
}

fn next_query(rng: &mut StdRng) -> Query {
    const OPS: [Condenser; 4] = [
        Condenser::Avg,
        Condenser::Max,
        Condenser::Sum,
        Condenser::Min,
    ];
    const SELECTIVITY: [f64; 3] = [0.001, 0.01, 0.05];
    let (cdom, sdom) = (climate_domain(), sat_domain());
    let roll = rng.gen_range(0..100);
    if roll < 50 {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let sel = SELECTIVITY[rng.gen_range(0..SELECTIVITY.len())];
        let (coll, dom) = if roll < 30 {
            ("climate", &cdom)
        } else {
            ("sat", &sdom)
        };
        let b = random_box(dom, sel, rng);
        Query {
            text: format!("select {}(a[{}]) from {coll} as a", op.name(), box_text(&b)),
            condense: Some((op, coll, b)),
        }
    } else if roll < 60 {
        let b = random_box(&sdom, 0.01, rng);
        Query {
            text: format!(
                "select count_cells(s[{}] > 127) from sat as s",
                box_text(&b)
            ),
            condense: None,
        }
    } else if roll < 75 {
        let (coll, dom) = if roll < 68 {
            ("climate", &cdom)
        } else {
            ("sat", &sdom)
        };
        let b = random_box(dom, 0.005, rng);
        Query {
            text: format!("select a[{}] from {coll} as a", box_text(&b)),
            condense: None,
        }
    } else if roll < 90 {
        let b = random_box(&cdom, 0.005, rng);
        Query {
            text: format!(
                "select (c[{}] - 273.15) * 1.8 + 32 from climate as c",
                box_text(&b)
            ),
            condense: None,
        }
    } else {
        let b1 = random_box(&sdom, 0.003, rng);
        let b2 = random_box(&sdom, 0.003, rng);
        Query {
            text: format!(
                "select s[{} | {}] from sat as s",
                box_text(&b1),
                box_text(&b2)
            ),
            condense: None,
        }
    }
}

/// `TileProvider` wrapper that opens a span around every provider call
/// the executor makes and records engine fetches for the replay.
struct TracedProvider<'a> {
    heaven: &'a mut Heaven,
    tracer: RefCell<Tracer>,
    calls: Cell<u64>,
    fetches: Vec<(ObjectId, Minterval)>,
}

/// Count a provider call and time it inside a span.
fn traced<T>(
    tracer: &RefCell<Tracer>,
    calls: &Cell<u64>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    calls.set(calls.get() + 1);
    timed(Some(&mut tracer.borrow_mut()), name, f).0
}

impl TileProvider for TracedProvider<'_> {
    fn object_meta(&self, oid: ObjectId) -> heaven_arraydb::Result<ObjectMeta> {
        traced(&self.tracer, &self.calls, "provider.object_meta", || {
            self.heaven.object_meta(oid)
        })
    }

    fn collection_objects(&self, name: &str) -> heaven_arraydb::Result<Vec<ObjectId>> {
        traced(
            &self.tracer,
            &self.calls,
            "provider.collection_objects",
            || self.heaven.collection_objects(name),
        )
    }

    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven_arraydb::Result<MDArray> {
        self.fetches.push((oid, region.clone()));
        traced(&self.tracer, &self.calls, "engine.fetch", || {
            self.heaven.fetch_region(oid, region)
        })
    }

    fn precomputed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval) -> Option<f64> {
        traced(&self.tracer, &self.calls, "provider.precomputed", || {
            self.heaven.precomputed(oid, op, region)
        })
    }

    fn note_computed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval, value: f64) {
        traced(&self.tracer, &self.calls, "provider.note_computed", || {
            self.heaven.note_computed(oid, op, region, value)
        })
    }

    fn query_begin(&mut self, label: &str) {
        traced(&self.tracer, &self.calls, "provider.query_begin", || {
            self.heaven.query_begin(label)
        })
    }

    fn query_end(&mut self) {
        traced(&self.tracer, &self.calls, "provider.query_end", || {
            self.heaven.query_end()
        })
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut sys, setup_s) = set_up_thrice(|| set_up(args.seed));
    let mut e2e = E2e {
        setup_s,
        ..E2e::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5741_524d);
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let base = Instant::now();
    let mut tracer = Tracer::new(base);
    let mut fetches: Vec<(ObjectId, Minterval)> = Vec::new();
    let mut condense_log: Vec<(Condenser, &'static str, Minterval)> = Vec::new();
    let precomp0 = sys.heaven.precomp_stats();
    let c0 = Counters::read(sys.heaven.metrics());
    let fetches0 = sys.heaven.stats().st_tape_fetches;
    let mut condense_queries = 0u64;
    let mut pending = Vec::with_capacity(VERIFY_BURST);
    let mut i = 0u64;
    while secs(base) < args.seconds {
        let q = next_query(&mut rng);
        // In the traced run, bursts of eight queries alternate between
        // untraced and traced execution so the overhead ratio compares
        // like with like.
        let traced = args.trace && (i / 8) % 2 == 1;
        let t0 = Instant::now();
        let got = if traced {
            tracer.set_op(i as u32);
            let root = tracer.open("ql.parse");
            let parsed = ql::parse_query(&q.text);
            tracer.close(root);
            let mut p = TracedProvider {
                heaven: &mut sys.heaven,
                tracer: RefCell::new(std::mem::replace(&mut tracer, Tracer::new(base))),
                calls: Cell::new(0),
                fetches: Vec::new(),
            };
            let out = parsed.and_then(|query| {
                let s = p.tracer.borrow_mut().open("ql.execute");
                let out = ql::execute(&mut p, &query);
                p.tracer.borrow_mut().close(s);
                out
            });
            let lat = t0.elapsed().as_secs_f64() * 1e6;
            tracer = p.tracer.into_inner();
            layers.ql_provider_calls += p.calls.get();
            fetches.extend(p.fetches);
            layers.traced_query_us += lat;
            layers.traced_queries += 1;
            if let Some(c) = &q.condense {
                condense_log.push(c.clone());
            }
            out
        } else {
            let out = ql::run(&mut sys.heaven, &q.text);
            let lat = t0.elapsed().as_secs_f64() * 1e6;
            e2e.query_us.push(lat);
            e2e.busy_us.push(lat);
            layers.untraced_query_us += lat;
            layers.untraced_queries += 1;
            out
        };
        if q.condense.is_some() {
            condense_queries += 1;
        }
        pending.push((q.text, got));
        i += 1;
        // Verify in bursts, so the twin's reads do not run between two
        // timed queries and evict their working set from the CPU caches.
        if pending.len() == VERIFY_BURST {
            verify(&mut sys.twin, &mut pending, &mut ledger);
        }
    }
    verify(&mut sys.twin, &mut pending, &mut ledger);
    let c1 = Counters::read(sys.heaven.metrics());
    layers.counters = c1.since(&c0);
    layers.queries = i;

    let tape_fetches = sys.heaven.stats().st_tape_fetches - fetches0;
    let tape_bytes = layers.counters.get("tape.bytes_read");
    guard(
        tape_fetches == 0 && tape_bytes == 0.0,
        &format!("warm_rasql read {tape_fetches} super-tiles ({tape_bytes} B) from tape in the timed phase"),
    )?;
    let precomp = sys.heaven.precomp_stats();
    let exact = precomp.exact_hits - precomp0.exact_hits;
    guard(
        (exact as f64) < MAX_EXACT_HIT_SHARE * condense_queries.max(1) as f64,
        &format!("{exact} exact precomp hits over {condense_queries} condenser queries"),
    )?;

    if args.trace {
        layers.ql_parse_us = tracer.total_us("ql.parse").0;
        layers.ql_exec_self_us = tracer.self_us("ql.execute");
        layers.precomp_lookup_us = tracer.total_us("provider.precomputed").0;
        let (fetch_us, n) = tracer.total_us("engine.fetch");
        layers.engine_fetch_us = fetch_us;
        layers.engine_fetches = n;
        layers.explained_us = tracer.root_us();
        layers.covered_us = layers.traced_query_us;
        layers.result_bytes = fetches
            .iter()
            .map(|(oid, r)| {
                let m = &sys.metas[oid];
                m.domain.intersection(r).map_or(0, |t| t.cell_count())
                    * m.cell_type.size_bytes() as u64
            })
            .sum();
        replay(&sys, &fetches, &mut layers);
        // Condenser kernels on the same boxes, per condenser query.
        for (op, coll, b) in &condense_log {
            let oids = if *coll == "climate" {
                &sys.climate
            } else {
                &sys.sat
            };
            for oid in oids {
                let arr = sys.truth[oid].extract(b).expect("box inside object");
                let t0 = Instant::now();
                std::hint::black_box(op.eval(&arr).expect("condense"));
                layers.condense_us += t0.elapsed().as_secs_f64() * 1e6;
            }
            layers.condense_queries += 1;
        }
    }
    Ok(Outcome {
        e2e,
        layers,
        ledger,
        spans: tracer.spans,
    })
}

/// Compare each pending result with the same query on the twin.
fn verify(
    twin: &mut ArrayDb,
    pending: &mut Vec<(String, heaven_arraydb::Result<Vec<QueryResult>>)>,
    ledger: &mut Ledger,
) {
    for (text, got) in pending.drain(..) {
        let want = ql::run(twin, &text);
        ledger.check(matches!((&got, &want), (Ok(g), Ok(w)) if g == w), || {
            format!(
                "query `{text}` differs from the twin (errors: {:?} / {:?})",
                got.as_ref().err(),
                want.as_ref().err()
            )
        });
    }
}

fn replay(sys: &System, fetches: &[(ObjectId, Minterval)], layers: &mut Layers) {
    let truth = |oid: ObjectId, dom: &Minterval| sys.truth[&oid].extract(dom).expect("in domain");
    let mut r = Replayer::new(&sys.metas, &sys.catalog, &truth, sys.heaven.config());
    for &oid in sys.climate.iter().chain(&sys.sat) {
        r.fetch(oid, &sys.metas[&oid].domain, None);
    }
    for (oid, region) in fetches.iter().take(REPLAY_FETCHES) {
        r.fetch(*oid, region, Some(&mut layers.inner));
    }
}
