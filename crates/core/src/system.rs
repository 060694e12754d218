//! The HEAVEN system: a hierarchy-aware array database.
//!
//! [`Heaven`] fuses the array DBMS with the tertiary-storage system
//! (paper §3.1): it implements the DBMS's [`TileProvider`] seam, so every
//! query runs transparently across main memory (tile cache), secondary
//! storage (DBMS tiles + super-tile cache) and tertiary storage
//! (super-tiles on media) — no user interaction, regardless of where the
//! data currently lives.
//!
//! `Heaven` is the retrieval engine ([`ConcurrentHeaven`], reached
//! through `Deref`) plus the state only a single owner has: the
//! precomputed-result catalog, the persistent super-tile catalog and the
//! query bracket. Its `&mut self` operations
//! (export, maintenance, catalog rebuilds) reach the engine's state
//! without locking; sessions can be opened on it between them.

use crate::cache::CacheStats;
use crate::catalog::{CatalogEntry, SuperTileCatalog};
use crate::concurrent::ConcurrentHeaven;
use crate::config::HeavenConfig;
use crate::error::Result;
use crate::persist::CatalogStore;
use crate::precomp::PrecompCatalog;
use crate::supertile::SuperTileId;
use bytes::Bytes;
use heaven_array::{Codec, Condenser, MDArray, Minterval, ObjectId};
use heaven_arraydb::{ArrayDb, ObjectMeta, TileProvider, Visitor};
use heaven_hsm::{BlockAddress, DirectStore};
use heaven_obs::{Field, QueryBreakdown, SpanId};
use heaven_tape::{SimClock, TapeLibrary, TapeStats};
use std::fmt;
use std::ops::Deref;

/// Counters of HEAVEN-level activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeavenStats {
    /// Super-tiles fetched from tertiary storage (cache misses).
    pub st_tape_fetches: u64,
    /// Bytes fetched from tertiary storage.
    pub st_tape_bytes: u64,
    /// Super-tiles prefetched.
    pub prefetches: u64,
    /// Simulated seconds spent prefetching (overlappable background work).
    pub prefetch_s: f64,
    /// Bytes fetched by the prefetcher (subset of `st_tape_bytes`).
    pub prefetch_bytes: u64,
    /// Regions served by `fetch_region`.
    pub region_fetches: u64,
    /// Payload bytes memcpy'd by the engine: the one copy of each tile
    /// clip into a `fetch_region` result, plus encoded codec output.
    /// Every other hierarchy hop is a refcounted slice, and a region
    /// visit (the condenser path) copies nothing.
    pub bytes_copied: u64,
}

impl fmt::Display for HeavenStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region_fetches={} st_tape_fetches={} tape_read={}MB prefetches={} prefetch={:.1}s prefetch_read={}MB copied={}KB",
            self.region_fetches,
            self.st_tape_fetches,
            self.st_tape_bytes >> 20,
            self.prefetches,
            self.prefetch_s,
            self.prefetch_bytes >> 20,
            self.bytes_copied >> 10,
        )
    }
}

/// Cross-level counter snapshot taken at query start; [`Heaven::end_query`]
/// diffs a fresh snapshot against it to attribute the elapsed simulated
/// time to hierarchy levels.
#[derive(Debug, Clone, Copy)]
struct LevelSnapshot {
    tape: TapeStats,
    shelf_s: f64,
    io_s: f64,
    st: CacheStats,
    mem: CacheStats,
    heaven: HeavenStats,
}

/// An open query bracket (root span + starting snapshot).
#[derive(Debug)]
struct ActiveQuery {
    label: String,
    span: SpanId,
    start_s: f64,
    snap: LevelSnapshot,
}

/// The assembled HEAVEN system: the retrieval engine plus single-owner
/// state.
#[derive(Debug)]
pub struct Heaven {
    pub(crate) engine: ConcurrentHeaven,
    pub(crate) precomp: PrecompCatalog,
    pub(crate) catalog_store: CatalogStore,
    active_query: Option<ActiveQuery>,
    last_breakdown: Option<QueryBreakdown>,
}

impl Deref for Heaven {
    type Target = ConcurrentHeaven;

    fn deref(&self) -> &ConcurrentHeaven {
        &self.engine
    }
}

impl Heaven {
    /// Assemble HEAVEN from an array DBMS and a tape library.
    ///
    /// All subsystem counters are bound into one shared
    /// [`heaven_obs::MetricsRegistry`], and the trace bus selected by
    /// [`HeavenConfig::trace`] is attached across the hierarchy.
    pub fn new(adb: ArrayDb, library: TapeLibrary, config: HeavenConfig) -> Heaven {
        let mut engine = ConcurrentHeaven::new(adb, library, config);
        let catalog_store =
            CatalogStore::create(engine.adb.get_mut().database_mut()).expect("fresh catalog store");
        Heaven {
            engine,
            precomp: PrecompCatalog::new(),
            catalog_store,
            active_query: None,
            last_breakdown: None,
        }
    }

    /// Mutable access to the array DBMS (inserts, collection management).
    pub fn arraydb_mut(&mut self) -> &mut ArrayDb {
        self.engine.adb.get_mut()
    }

    /// Mutable access to the tertiary store (writes, media management).
    pub(crate) fn store_mut(&mut self) -> &mut DirectStore {
        self.engine.store.get_mut()
    }

    /// The per-level breakdown of the most recently completed query.
    pub fn last_query_breakdown(&self) -> Option<&QueryBreakdown> {
        self.last_breakdown.as_ref()
    }

    fn snapshot(&mut self) -> LevelSnapshot {
        let store = self.engine.store.get_mut();
        let (tape, shelf_s) = (store.stats(), store.library().shelf_wait_s());
        LevelSnapshot {
            tape,
            shelf_s,
            io_s: self.engine.adb.get_mut().database().io_stats().io_s,
            st: self.engine.st_cache_stats(),
            mem: self.engine.tile_cache_stats(),
            heaven: self.engine.stats(),
        }
    }

    /// Open a query bracket: a root `query` trace span plus a counter
    /// snapshot from which [`Self::end_query`] attributes the elapsed
    /// simulated time to hierarchy levels. Nested calls are ignored — the
    /// outermost bracket wins.
    pub fn begin_query(&mut self, label: &str) {
        if self.active_query.is_some() {
            return;
        }
        let now = self.clock().now_s();
        let span = self
            .bus
            .query_span_start("query", now, &[("label", Field::dyn_str(label))]);
        self.active_query = Some(ActiveQuery {
            label: label.to_string(),
            span,
            start_s: now,
            snap: self.snapshot(),
        });
    }

    /// Close the query bracket opened by [`Self::begin_query`] and compute
    /// the per-level [`QueryBreakdown`] (also kept for
    /// [`Self::last_query_breakdown`]). Returns `None` if no query was
    /// active.
    pub fn end_query(&mut self) -> Option<QueryBreakdown> {
        let q = self.active_query.take()?;
        let now = self.clock().now_s();
        self.bus.query_span_end(q.span, now);
        let cur = self.snapshot();
        let tape = cur.tape.since(&q.snap.tape);
        let st = cur.st.since(&q.snap.st);
        let mem = cur.mem.since(&q.snap.mem);
        let total_s = (now - q.start_s).max(0.0);
        let mut b = QueryBreakdown {
            label: q.label,
            total_s,
            mem_hits: mem.hits,
            mem_bytes: mem.bytes_served,
            disk_cache_s: st.io_s,
            disk_cache_hits: st.hits,
            disk_cache_bytes: st.bytes_served,
            dbms_io_s: (cur.io_s - q.snap.io_s).max(0.0),
            tape_exchange_s: tape.exchange_s,
            tape_locate_s: tape.locate_s,
            tape_transfer_s: tape.transfer_s,
            tape_rewind_s: tape.rewind_s,
            shelf_s: (cur.shelf_s - q.snap.shelf_s).max(0.0),
            tape_bytes: tape.bytes_read,
            media_exchanges: tape.mounts,
            tape_fetches: cur
                .heaven
                .st_tape_fetches
                .saturating_sub(q.snap.heaven.st_tape_fetches),
            bytes_copied: cur
                .heaven
                .bytes_copied
                .saturating_sub(q.snap.heaven.bytes_copied),
            other_s: 0.0,
        };
        // Attributed span time can exceed the observed clock delta when
        // spans overlap (e.g. prefetch I/O charged inside the bracket);
        // clamp to zero and count the occurrence rather than reporting a
        // negative residual.
        let residual = total_s - b.levels_sum_s();
        if residual < -1e-9 {
            self.metrics.breakdown_overattributed.inc();
        }
        b.other_s = residual.max(0.0);
        // Stamp the query's own span as the exemplar so a p99 bucket in
        // the Prometheus exposition points straight at a trace span
        // (`q.span == 0` — sampled-out or tracing off — degrades to a
        // plain observe).
        self.metrics
            .query_latency
            .observe_with_exemplar(total_s, q.span, q.span);
        // No per-query flush: the JSONL sink drains in batches off the
        // hot path and flushes on drop (see `heaven-obs`).
        self.last_breakdown = Some(b.clone());
        Some(b)
    }

    /// The precomputed-result catalog statistics.
    pub fn precomp_stats(&self) -> crate::precomp::PrecompStats {
        self.precomp.stats()
    }

    /// Hand out the retrieval engine for multi-session serving (see
    /// [`ConcurrentHeaven`]), dropping the single-owner state. Sessions
    /// can also be opened on the `Heaven` itself, between `&mut`
    /// operations such as exports.
    pub fn into_concurrent(self) -> ConcurrentHeaven {
        self.engine
    }

    /// Enable the finite-slot + shelf model on the underlying library
    /// (see [`heaven_tape::SlotConfig`]).
    pub fn set_slot_config(&mut self, config: heaven_tape::SlotConfig) {
        self.store_mut().library_mut().set_slot_config(config);
    }

    /// Occupy every drive with scratch media, modelling other users of the
    /// shared library: the next archive access pays a full media exchange.
    /// Used by experiments to measure truly cold retrievals.
    pub fn occupy_drives(&mut self) -> Result<()> {
        let lib = self.store_mut().library_mut();
        for _ in 0..lib.drive_count() {
            let scratch = lib.add_medium();
            lib.ensure_mounted(scratch)?;
        }
        Ok(())
    }

    // -- catalog mutation (write-through to the base RDBMS) -------------------

    /// Register an exported super-tile in the in-memory catalog *and* the
    /// persistent catalog tables.
    pub(crate) fn register_supertile(&mut self, entry: CatalogEntry) -> Result<()> {
        let engine = &mut self.engine;
        self.catalog_store
            .insert(engine.adb.get_mut().database_mut(), &entry)?;
        engine.catalog.register(entry);
        Ok(())
    }

    /// Remove one super-tile everywhere.
    pub(crate) fn unregister_supertile(&mut self, st: SuperTileId) -> Result<()> {
        self.engine.catalog.remove_supertile(st)?;
        self.catalog_store
            .remove(self.engine.adb.get_mut().database_mut(), st)
    }

    /// Remove an object's super-tiles everywhere.
    pub(crate) fn unregister_object(&mut self, oid: ObjectId) -> Result<()> {
        let engine = &mut self.engine;
        for st in engine.catalog.remove_object(oid) {
            self.catalog_store
                .remove(engine.adb.get_mut().database_mut(), st)?;
        }
        Ok(())
    }

    /// Move the copy of `st` at `from` to `to` everywhere (compaction).
    pub(crate) fn relocate_copy(
        &mut self,
        st: SuperTileId,
        from: BlockAddress,
        to: BlockAddress,
    ) -> Result<()> {
        let engine = &mut self.engine;
        engine.catalog.relocate(st, from, to)?;
        self.catalog_store.update(
            engine.adb.get_mut().database_mut(),
            engine.catalog.entry(st)?,
        )
    }

    /// Rebuild the archive catalog from the persistent tables — used after
    /// a server restart or RDBMS crash recovery. Dead space needs no
    /// rebuild: it is derived from the catalog (see
    /// [`Heaven::dead_bytes_on`]).
    pub fn rebuild_archive_catalog(&mut self) -> Result<()> {
        let loaded = self
            .catalog_store
            .load_all(self.engine.adb.get_mut().database_mut())?;
        let mut catalog = SuperTileCatalog::new();
        for entry in loaded {
            catalog.register(entry);
        }
        debug_assert_eq!(self.catalog_store.len(), catalog.len());
        self.engine.catalog = catalog;
        self.clear_caches();
        Ok(())
    }

    // -- the retrieval path (paper §3.5.2) -----------------------------------

    /// Encode an outgoing super-tile payload if configured: the adaptive
    /// codec probes a sample and picks raw / RLE / shuffle-RLE per
    /// payload. Incompressible payloads stay zero-copy (refcount clone);
    /// with compression off this is a pass-through.
    pub(crate) fn maybe_compress(&self, payload: Bytes, cell_size: usize) -> Bytes {
        if !self.config.compress {
            return payload;
        }
        let in_len = payload.len() as u64;
        let (wire, codec) = heaven_array::encode_wire(&payload, cell_size, &self.config.codec);
        match codec {
            Codec::Raw => self.metrics.codec_raw.inc(),
            Codec::Rle => self.metrics.codec_rle.inc(),
            Codec::ShuffleRle => self.metrics.codec_shuffle.inc(),
        }
        let out_len = wire.len() as u64;
        if out_len < in_len {
            self.metrics.codec_bytes_saved.add(in_len - out_len);
        }
        if codec != Codec::Raw {
            // Encoded forms are fresh allocations; raw is a refcount bump.
            self.metrics.bytes_copied.add(out_len);
        }
        self.bus.event(
            "heaven.codec_encode",
            self.clock().now_s(),
            &[
                ("codec", codec.name().into()),
                ("in_bytes", in_len.into()),
                ("out_bytes", out_len.into()),
            ],
        );
        wire
    }

    /// The core retrieval routine: materialize `region` of `oid` across
    /// the whole hierarchy, with query scheduling over the tertiary
    /// fetches.
    pub fn fetch_region_hierarchical(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> Result<MDArray> {
        self.bracketed(oid, region, |engine, clock| {
            engine.fetch_region_on(clock, oid, region, false)
        })
    }

    /// Visit `region` of `oid` across the whole hierarchy tile piece by
    /// tile piece, in grid order, without assembling it (the
    /// [`TileProvider::visit_region`] contract): the condenser path.
    pub fn visit_region_hierarchical(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
        f: &mut Visitor,
    ) -> Result<()> {
        self.bracketed(oid, region, |engine, clock| {
            engine.visit_region_on(clock, oid, region, false, f)
        })
    }

    /// Run one region access on the shared clock inside a
    /// `heaven.fetch_region` span. Direct API calls (no surrounding
    /// query) still get a breakdown: the access is bracketed as its own
    /// query.
    fn bracketed<T>(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
        run: impl FnOnce(&ConcurrentHeaven, &SimClock) -> Result<T>,
    ) -> Result<T> {
        let auto_bracket = self.active_query.is_none();
        if auto_bracket {
            self.begin_query(&format!("fetch_region oid={oid} {region}"));
        }
        let clock = self.clock();
        // Render the region only when something records the span.
        let region_field = if self.bus.is_enabled() {
            Field::bounds(region.axes().iter().map(|a| (a.lo, a.hi)))
        } else {
            Field::StaticStr("")
        };
        let span = self.bus.span(
            "heaven.fetch_region",
            clock.now_s(),
            &[("oid", oid.into()), ("region", region_field)],
        );
        let result = run(&self.engine, &clock);
        span.end(clock.now_s());
        if auto_bracket {
            self.end_query();
        }
        result
    }

    /// Execute a *batch* of region queries with inter-query scheduling
    /// (paper §3.5.3) as one staging pass: the tertiary fetches of all
    /// queries are merged, deduplicated and ordered (one visit per
    /// medium, ascending offsets), each super-tile is staged once, and
    /// every query that needs it decodes its tiles from that payload.
    /// Results are returned in request order.
    pub fn fetch_batch(&mut self, requests: &[(ObjectId, Minterval)]) -> Result<Vec<MDArray>> {
        let auto_bracket = self.active_query.is_none();
        if auto_bracket {
            self.begin_query(&format!("batch of {} regions", requests.len()));
        }
        let result = self.engine.fetch_regions_on(&self.clock(), requests);
        if auto_bracket {
            self.end_query();
        }
        result
    }
}

impl TileProvider for Heaven {
    fn object_meta(&self, oid: ObjectId) -> heaven_arraydb::Result<ObjectMeta> {
        Ok(self.arraydb().object(oid)?.clone())
    }

    fn collection_objects(&self, name: &str) -> heaven_arraydb::Result<Vec<ObjectId>> {
        Ok(self.arraydb().collection(name)?.objects.clone())
    }

    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven_arraydb::Result<MDArray> {
        self.fetch_region_hierarchical(oid, region)
            .map_err(Into::into)
    }

    fn visit_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
        f: &mut Visitor,
    ) -> heaven_arraydb::Result<()> {
        self.visit_region_hierarchical(oid, region, f)
            .map_err(Into::into)
    }

    fn precomputed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval) -> Option<f64> {
        let meta = self.engine.adb.get_mut().object(oid).ok()?;
        self.precomp.lookup(meta, op, region)
    }

    fn note_computed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval, value: f64) {
        self.precomp.record_exact(oid, op, region.clone(), value);
    }

    fn query_begin(&mut self, label: &str) {
        self.begin_query(label);
    }

    fn query_end(&mut self) {
        self.end_query();
    }
}
