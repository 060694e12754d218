//! The HEAVEN system: a hierarchy-aware array database.
//!
//! [`Heaven`] fuses the array DBMS with the tertiary-storage system
//! (paper §3.1): it implements the DBMS's [`TileProvider`] seam, so every
//! query runs transparently across main memory (tile cache), secondary
//! storage (DBMS tiles + super-tile cache) and tertiary storage
//! (super-tiles on media) — no user interaction, regardless of where the
//! data currently lives.

use crate::cache::{CacheStats, SuperTileCache, TileCache};
use crate::catalog::SuperTileCatalog;
use crate::config::{HeavenConfig, PrefetchPolicy};
use crate::error::{HeavenError, Result};
use crate::persist::CatalogStore;
use crate::precomp::PrecompCatalog;
use crate::recovery::{read_with_recovery, RecoveryMetrics};
use crate::scheduler::{count_exchanges, schedule, FetchRequest};
use crate::sizing::optimal_supertile_size;
use crate::supertile::{decode_member, SuperTileId};
use bytes::Bytes;
use heaven_array::{Codec, Condenser, MDArray, Minterval, ObjectId, TileId};
use heaven_arraydb::{ArrayDb, ObjectMeta, TileLocation, TileProvider};
use heaven_hsm::DirectStore;
use heaven_obs::{
    Counter, Field, FloatCounter, Histogram, MetricsRegistry, QueryBreakdown, SpanId, TraceBus,
};
use heaven_tape::{DiskProfile, MediumId, SimClock, TapeLibrary, TapeStats};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

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
    /// Payload bytes memcpy'd while materializing query results. With the
    /// zero-copy read path this is ~one payload-sized copy per query (the
    /// patch into the result array); every other hierarchy hop is a
    /// refcounted slice.
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

/// Metric handles backing [`HeavenStats`]; the registry is the source of
/// truth and the struct is reconstructed on demand.
#[derive(Debug, Clone)]
struct HeavenMetrics {
    st_tape_fetches: Counter,
    st_tape_bytes: Counter,
    prefetches: Counter,
    prefetch_s: FloatCounter,
    prefetch_bytes: Counter,
    region_fetches: Counter,
    bytes_copied: Counter,
    /// Wire bytes saved by super-tile compression (payload − wire, when
    /// the encoded form is smaller).
    codec_bytes_saved: Counter,
    /// Super-tile payloads shipped as raw pass-through.
    codec_raw: Counter,
    /// Super-tile payloads encoded with plain RLE.
    codec_rle: Counter,
    /// Super-tile payloads encoded with byte-shuffle + RLE.
    codec_shuffle: Counter,
    /// Queries whose per-level attribution exceeded the observed clock
    /// delta (overlapping spans); their `other_s` was clamped to zero.
    breakdown_overattributed: Counter,
    /// End-to-end query latency distribution (simulated seconds).
    query_latency: Histogram,
    /// Tertiary super-tile fetch duration distribution (simulated s).
    st_fetch_hist: Histogram,
    /// Tertiary super-tile fetch size distribution (bytes).
    st_fetch_bytes_hist: Histogram,
}

impl HeavenMetrics {
    fn new(registry: &MetricsRegistry) -> HeavenMetrics {
        let query_latency = registry.histogram("heaven.query_latency_s");
        // Pre-size the exemplar table so the per-query exemplar write in
        // `end_query` stays allocation-free.
        query_latency.reserve_exemplars();
        HeavenMetrics {
            st_tape_fetches: registry.counter("heaven.st_tape_fetches"),
            st_tape_bytes: registry.counter("heaven.st_tape_bytes"),
            prefetches: registry.counter("heaven.prefetches"),
            prefetch_s: registry.fcounter("heaven.prefetch_s"),
            prefetch_bytes: registry.counter("heaven.prefetch_bytes"),
            region_fetches: registry.counter("heaven.region_fetches"),
            bytes_copied: registry.counter("heaven.bytes_copied"),
            codec_bytes_saved: registry.counter("heaven.codec_bytes_saved"),
            codec_raw: registry.counter("heaven.codec_raw"),
            codec_rle: registry.counter("heaven.codec_rle"),
            codec_shuffle: registry.counter("heaven.codec_shuffle"),
            breakdown_overattributed: registry.counter("heaven.breakdown_overattributed"),
            query_latency,
            st_fetch_hist: registry.histogram("heaven.st_fetch_hist_s"),
            st_fetch_bytes_hist: registry.histogram("heaven.st_fetch_bytes"),
        }
    }

    fn stats(&self) -> HeavenStats {
        HeavenStats {
            st_tape_fetches: self.st_tape_fetches.get(),
            st_tape_bytes: self.st_tape_bytes.get(),
            prefetches: self.prefetches.get(),
            prefetch_s: self.prefetch_s.get(),
            prefetch_bytes: self.prefetch_bytes.get(),
            region_fetches: self.region_fetches.get(),
            bytes_copied: self.bytes_copied.get(),
        }
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

/// The assembled HEAVEN system.
#[derive(Debug)]
pub struct Heaven {
    pub(crate) adb: ArrayDb,
    pub(crate) store: DirectStore,
    pub(crate) catalog: SuperTileCatalog,
    pub(crate) tile_cache: TileCache,
    pub(crate) st_cache: SuperTileCache,
    pub(crate) precomp: PrecompCatalog,
    pub(crate) catalog_store: CatalogStore,
    pub(crate) config: HeavenConfig,
    metrics: HeavenMetrics,
    pub(crate) recovery: RecoveryMetrics,
    pub(crate) registry: MetricsRegistry,
    pub(crate) bus: TraceBus,
    active_query: Option<ActiveQuery>,
    last_breakdown: Option<QueryBreakdown>,
    /// Dead (unreferenced) bytes per medium, from deletes/updates.
    pub(crate) dead_bytes: HashMap<MediumId, u64>,
}

impl Heaven {
    /// Assemble HEAVEN from an array DBMS and a tape library.
    ///
    /// All subsystem counters are bound into one shared
    /// [`MetricsRegistry`], and the trace bus selected by
    /// [`HeavenConfig::trace`] is attached across the hierarchy.
    pub fn new(mut adb: ArrayDb, library: TapeLibrary, config: HeavenConfig) -> Heaven {
        let registry = MetricsRegistry::new();
        let bus = TraceBus::from_config(&config.trace);
        let clock = library.clock().clone();
        let mut st_cache = SuperTileCache::with_shards(
            config.disk_cache_bytes,
            config.eviction,
            Some((DiskProfile::scsi2003(), clock)),
            config.cache_shards,
        );
        st_cache.attach_obs(&registry, bus.clone());
        let mut tile_cache = TileCache::with_shards(config.mem_cache_bytes, config.cache_shards);
        tile_cache.attach_obs(&registry);
        adb.attach_obs(&registry);
        adb.attach_trace(bus.clone());
        let mut store = DirectStore::new(library);
        store.library_mut().attach_obs(&registry, bus.clone());
        let catalog_store = CatalogStore::create(adb.database_mut()).expect("fresh catalog store");
        Heaven {
            tile_cache,
            st_cache,
            adb,
            store,
            catalog: SuperTileCatalog::new(),
            precomp: PrecompCatalog::new(),
            catalog_store,
            config,
            metrics: HeavenMetrics::new(&registry),
            recovery: RecoveryMetrics::new(&registry),
            registry,
            bus,
            active_query: None,
            last_breakdown: None,
            dead_bytes: HashMap::new(),
        }
    }

    /// The array DBMS.
    pub fn arraydb(&self) -> &ArrayDb {
        &self.adb
    }

    /// The direct tertiary store (read-only view for reporting).
    pub fn store(&self) -> &DirectStore {
        &self.store
    }

    /// Mutable access to the array DBMS (inserts, collection management).
    pub fn arraydb_mut(&mut self) -> &mut ArrayDb {
        &mut self.adb
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> SimClock {
        self.store.clock()
    }

    /// Tertiary-storage statistics.
    pub fn tape_stats(&self) -> TapeStats {
        self.store.stats()
    }

    /// HEAVEN-level statistics (a view over the metrics registry).
    pub fn stats(&self) -> HeavenStats {
        self.metrics.stats()
    }

    /// The shared metrics registry holding every subsystem's counters
    /// (tape, HSM, buffer pool, caches, HEAVEN itself).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace bus (span/event stream keyed to simulated time).
    pub fn trace(&self) -> &TraceBus {
        &self.bus
    }

    /// The per-level breakdown of the most recently completed query.
    pub fn last_query_breakdown(&self) -> Option<&QueryBreakdown> {
        self.last_breakdown.as_ref()
    }

    fn snapshot(&self) -> LevelSnapshot {
        LevelSnapshot {
            tape: self.store.stats(),
            shelf_s: self.store.library().shelf_wait_s(),
            io_s: self.adb.database().io_stats().io_s,
            st: self.st_cache.stats(),
            mem: self.tile_cache.stats(),
            heaven: self.stats(),
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

    /// Disk super-tile cache statistics.
    pub fn st_cache_stats(&self) -> CacheStats {
        self.st_cache.stats()
    }

    /// Memory tile cache statistics.
    pub fn tile_cache_stats(&self) -> CacheStats {
        self.tile_cache.stats()
    }

    /// The super-tile catalog (read-only).
    pub fn catalog(&self) -> &SuperTileCatalog {
        &self.catalog
    }

    /// The precomputed-result catalog statistics.
    pub fn precomp_stats(&self) -> crate::precomp::PrecompStats {
        self.precomp.stats()
    }

    /// The active configuration.
    pub fn config(&self) -> &HeavenConfig {
        &self.config
    }

    /// The effective super-tile target size for export.
    pub fn supertile_target(&self) -> u64 {
        self.config.supertile_bytes.unwrap_or_else(|| {
            optimal_supertile_size(
                self.store.library().profile(),
                self.config.expected_query_bytes,
            )
        })
    }

    /// Convert this single-owner system into the multi-session concurrent
    /// façade (see [`crate::concurrent::ConcurrentHeaven`]). Typical use:
    /// build and export with `Heaven` (single-threaded), then convert and
    /// serve queries from many session threads.
    pub fn into_concurrent(self) -> crate::concurrent::ConcurrentHeaven {
        crate::concurrent::ConcurrentHeaven::from_heaven(self)
    }

    /// Decompose into the pieces the concurrent façade wraps (the private
    /// breakdown/bracket state is dropped — sessions track their own
    /// timing on clock lanes).
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_concurrent_parts(
        self,
    ) -> (
        ArrayDb,
        DirectStore,
        SuperTileCatalog,
        TileCache,
        SuperTileCache,
        HeavenConfig,
        MetricsRegistry,
        TraceBus,
    ) {
        (
            self.adb,
            self.store,
            self.catalog,
            self.tile_cache,
            self.st_cache,
            self.config,
            self.registry,
            self.bus,
        )
    }

    /// Clear both cache levels (between experiment runs).
    pub fn clear_caches(&mut self) {
        self.tile_cache.clear();
        self.st_cache.clear();
    }

    /// Enable the finite-slot + shelf model on the underlying library
    /// (see [`heaven_tape::SlotConfig`]).
    pub fn set_slot_config(&mut self, config: heaven_tape::SlotConfig) {
        self.store.library_mut().set_slot_config(config);
    }

    /// Arm (or disarm, with `None`) deterministic fault injection on the
    /// underlying library (see [`heaven_tape::FaultConfig`]). Typically
    /// combined with [`HeavenConfig::dual_copy`] so injected failures are
    /// recoverable.
    pub fn set_fault_plan(&mut self, config: Option<heaven_tape::FaultConfig>) {
        self.store.library_mut().set_fault_plan(config);
    }

    /// Occupy every drive with scratch media, modelling other users of the
    /// shared library: the next archive access pays a full media exchange.
    /// Used by experiments to measure truly cold retrievals.
    pub fn occupy_drives(&mut self) -> Result<()> {
        let lib = self.store.library_mut();
        for _ in 0..lib.drive_count() {
            let scratch = lib.add_medium();
            lib.ensure_mounted(scratch)?;
        }
        Ok(())
    }

    // -- catalog mutation (write-through to the base RDBMS) -------------------

    /// Register an exported super-tile in the in-memory catalog *and* the
    /// persistent catalog tables, together with its optional second
    /// archive copy and wire-payload checksum.
    pub(crate) fn register_supertile(
        &mut self,
        meta: crate::supertile::SuperTileMeta,
        addr: heaven_hsm::BlockAddress,
        replica: Option<heaven_hsm::BlockAddress>,
        checksum: u64,
    ) -> Result<()> {
        self.catalog_store
            .insert(self.adb.database_mut(), &meta, addr, replica, checksum)?;
        let st = meta.id;
        self.catalog.register(meta, addr);
        self.catalog.set_checksum(st, checksum);
        if let Some(r) = replica {
            self.catalog.register_replica(st, r);
        }
        Ok(())
    }

    /// Remove one super-tile everywhere; returns its old address.
    pub(crate) fn unregister_supertile(
        &mut self,
        st: SuperTileId,
    ) -> Result<heaven_hsm::BlockAddress> {
        let addr = self.catalog.remove_supertile(st)?;
        self.catalog_store.remove(self.adb.database_mut(), st)?;
        Ok(addr)
    }

    /// Remove an object's super-tiles everywhere; returns the freed
    /// addresses.
    pub(crate) fn unregister_object(
        &mut self,
        oid: ObjectId,
    ) -> Result<Vec<heaven_hsm::BlockAddress>> {
        let sts = self.catalog.object_supertiles(oid);
        for st in &sts {
            self.catalog_store.remove(self.adb.database_mut(), *st)?;
        }
        Ok(self.catalog.remove_object(oid))
    }

    /// Change a super-tile's address everywhere (compaction).
    pub(crate) fn relocate_supertile(
        &mut self,
        st: SuperTileId,
        addr: heaven_hsm::BlockAddress,
    ) -> Result<()> {
        self.catalog.relocate(st, addr)?;
        let meta = self.catalog.meta(st)?.clone();
        // Compaction rewrites the identical payload, so the replica and
        // checksum carry over unchanged.
        let replica = self.catalog.replica(st);
        let checksum = self.catalog.checksum(st).unwrap_or(0);
        self.catalog_store.update_addr(
            self.adb.database_mut(),
            st,
            &meta,
            addr,
            replica,
            checksum,
        )?;
        Ok(())
    }

    /// Rebuild the archive catalog from the persistent tables — used after
    /// a server restart or RDBMS crash recovery. Dead space per medium is
    /// recomputed as (bytes used on medium) − (bytes of live super-tiles).
    pub fn rebuild_archive_catalog(&mut self) -> Result<()> {
        let loaded = self.catalog_store.load_all(self.adb.database_mut())?;
        let mut catalog = SuperTileCatalog::new();
        let mut max_id = 0;
        let mut live: HashMap<MediumId, u64> = HashMap::new();
        for (meta, addr, replica, checksum) in loaded {
            max_id = max_id.max(meta.id);
            *live.entry(addr.medium).or_insert(0) += addr.len;
            let st = meta.id;
            catalog.register(meta, addr);
            catalog.set_checksum(st, checksum);
            if let Some(r) = replica {
                *live.entry(r.medium).or_insert(0) += r.len;
                catalog.register_replica(st, r);
            }
        }
        catalog.bump_next_id(max_id);
        debug_assert_eq!(self.catalog_store.len(), catalog.len());
        self.catalog = catalog;
        self.dead_bytes.clear();
        for m in self.store.library().media_ids() {
            let used = self.store.library().medium_used(m).unwrap_or(0);
            let l = live.get(&m).copied().unwrap_or(0);
            if used > l {
                self.dead_bytes.insert(m, used - l);
            }
        }
        self.clear_caches();
        Ok(())
    }

    // -- the retrieval path (paper §3.5.2) -----------------------------------

    /// Record the memcpy performed by patching `src` into `out` (the
    /// overlap region); feeds the `heaven.bytes_copied` metric.
    fn note_patch_copy(&self, out: &MDArray, src: &MDArray) {
        if let Some(ov) = out.domain().intersection(src.domain()) {
            self.metrics
                .bytes_copied
                .add(ov.cell_count() * out.cell_type().size_bytes() as u64);
        }
    }

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

    /// Undo [`Self::maybe_compress`] on wire bytes read from tape.
    /// `expected_len` is the catalogued uncompressed payload length; it
    /// disambiguates untagged raw pass-through (wire length equals it)
    /// from legacy pre-frame RLE streams, keeping the raw path O(1).
    /// Zero-copy when compression is off or the payload shipped raw.
    pub(crate) fn maybe_decompress(&self, bytes: Bytes, expected_len: u64) -> Result<Bytes> {
        if !self.config.compress {
            return Ok(bytes);
        }
        let (out, codec) = heaven_array::decode_wire(&bytes, expected_len)
            .map_err(|e| HeavenError::Codec(format!("corrupt compressed super-tile: {e}")))?;
        if codec != Codec::Raw {
            self.metrics.bytes_copied.add(out.len() as u64);
        }
        Ok(out)
    }

    /// Ensure a super-tile's payload is available *uncompressed*; returns
    /// it. Charges either a disk-cache hit or a tape fetch. The returned
    /// handle aliases the cache entry (and, on a cold fetch without
    /// compression, the tape segment itself) — no payload copies.
    pub(crate) fn supertile_payload(&mut self, st: SuperTileId) -> Result<Bytes> {
        if let Some(p) = self.st_cache.get(st) {
            return Ok(p);
        }
        let addr = self.catalog.address(st)?;
        let total_len = self.catalog.meta(st)?.total_len;
        let clock = self.clock();
        let span = self.bus.span(
            "heaven.st_fetch",
            clock.now_s(),
            &[
                ("st", st.into()),
                ("bytes", addr.len.into()),
                ("medium", addr.medium.into()),
            ],
        );
        let t0 = clock.now_s();
        let replica = self.catalog.replica(st);
        let checksum = self.catalog.checksum(st);
        let result: Result<Bytes> = (|| {
            let raw = read_with_recovery(
                &mut self.store,
                st,
                addr,
                replica,
                checksum,
                &self.config.retry,
                &self.recovery,
                &self.bus,
            )?;
            self.metrics.st_tape_fetches.inc();
            self.metrics.st_tape_bytes.add(addr.len);
            self.metrics.st_fetch_bytes_hist.observe(addr.len as f64);
            let payload = self.maybe_decompress(raw, total_len)?;
            let refetch = self.store.estimate_read_s(addr);
            self.st_cache.put(st, payload.clone(), refetch);
            Ok(payload)
        })();
        let t1 = clock.now_s();
        self.metrics.st_fetch_hist.observe(t1 - t0);
        span.end(t1);
        result
    }

    /// Fetch one tile through the hierarchy (memory → disk → tape).
    pub fn fetch_tile(&mut self, tile: TileId) -> Result<heaven_array::Tile> {
        if let Some(t) = self.tile_cache.get(tile) {
            return Ok(t);
        }
        let t = match self.adb.tile_location(tile)? {
            TileLocation::Disk => self.adb.read_tile(tile)?,
            TileLocation::Exported => {
                let st = self.catalog.supertile_of(tile)?;
                let payload = self.supertile_payload(st)?;
                let meta = self.catalog.meta(st)?;
                decode_member(meta, &payload, tile)?
            }
        };
        self.tile_cache.put(t.clone());
        Ok(t)
    }

    /// The core retrieval routine: materialize `region` of `oid` across
    /// the whole hierarchy, with query scheduling over the tertiary
    /// fetches.
    pub fn fetch_region_hierarchical(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> Result<MDArray> {
        // Direct API calls (no surrounding query) still get a breakdown:
        // bracket this fetch as its own query.
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
        let result = self.fetch_region_impl(oid, region);
        span.end(clock.now_s());
        if auto_bracket {
            self.end_query();
        }
        result
    }

    /// Emit the scheduler-decision event: how many super-tiles go to tape,
    /// how many are already staged, and the media-exchange estimate for
    /// the chosen order.
    fn note_schedule(
        &self,
        order: &[FetchRequest],
        mounted: &[MediumId],
        cached: usize,
        policy: &'static str,
    ) {
        if !self.bus.is_enabled() || (order.is_empty() && cached == 0) {
            return;
        }
        let drives = self.store.library().drive_count();
        let est = count_exchanges(order, drives, mounted);
        self.bus.event(
            "heaven.schedule",
            self.store.clock().now_s(),
            &[
                ("tape_fetches", order.len().into()),
                ("cached", cached.into()),
                ("policy", policy.into()),
                ("exchanges_est", est.into()),
            ],
        );
    }

    fn fetch_region_impl(&mut self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        self.metrics.region_fetches.inc();
        let meta = self.adb.object(oid)?.clone();
        let target = meta.domain.intersection(region).ok_or_else(|| {
            HeavenError::Config(format!(
                "region {region} outside object domain {}",
                meta.domain
            ))
        })?;
        let mut out = MDArray::zeros(target.clone(), meta.cell_type);
        // Classify needed tiles.
        let mut pending: BTreeMap<SuperTileId, Vec<TileId>> = BTreeMap::new();
        for tid in meta.tiles_intersecting(&target) {
            if let Some(t) = self.tile_cache.get(tid) {
                self.note_patch_copy(&out, &t.data);
                out.patch(&t.data)?;
                continue;
            }
            match self.adb.tile_location(tid)? {
                TileLocation::Disk => {
                    let t = self.adb.read_tile(tid)?;
                    self.note_patch_copy(&out, &t.data);
                    out.patch(&t.data)?;
                    self.tile_cache.put(t);
                }
                TileLocation::Exported => {
                    let st = self.catalog.supertile_of(tid)?;
                    pending.entry(st).or_default().push(tid);
                }
            }
        }
        // Split cached super-tiles from ones needing tape.
        let mut to_fetch = Vec::new();
        let mut ordered: Vec<SuperTileId> = Vec::new();
        for &st in pending.keys() {
            if self.st_cache.contains(st) {
                ordered.push(st);
            } else {
                to_fetch.push(FetchRequest {
                    st,
                    addr: self.catalog.address(st)?,
                });
            }
        }
        // Schedule the tape fetches.
        let cached_sts = ordered.len();
        if self.config.scheduling {
            let mounted = self.store.library().mounted_media();
            let scheduled = schedule(&to_fetch, &mounted);
            self.note_schedule(&scheduled, &mounted, cached_sts, "scheduled");
            ordered.extend(scheduled.iter().map(|r| r.st));
        } else {
            let mounted = self.store.library().mounted_media();
            self.note_schedule(&to_fetch, &mounted, cached_sts, "request-order");
            ordered.extend(to_fetch.iter().map(|r| r.st));
        }
        // Partial reads need the uncompressed on-media layout; they also
        // bypass the whole-payload checksum, so under fault injection we
        // fall back to full (verifiable) super-tile fetches.
        let random_access = !self.store.library().profile().linear_seek
            && !self.config.compress
            && !self.store.faults_enabled();
        for st in ordered {
            let meta_st = self.catalog.meta(st)?.clone();
            let needed = pending.get(&st).cloned().unwrap_or_default();
            // On random-access media (MO jukeboxes) a sparse request reads
            // only the member tiles, not the whole super-tile — the medium
            // has no locate penalty to amortize (paper §2.2).
            let needed_bytes: u64 = needed
                .iter()
                .filter_map(|t| meta_st.member(*t))
                .map(|m| m.len)
                .sum();
            if random_access && !self.st_cache.contains(st) && needed_bytes * 2 < meta_st.total_len
            {
                let addr = self.catalog.address(st)?;
                let clock = self.store.clock();
                let sparse_t0 = clock.now_s();
                let span = self.bus.span(
                    "heaven.st_fetch",
                    sparse_t0,
                    &[
                        ("st", st.into()),
                        ("bytes", needed_bytes.into()),
                        ("medium", addr.medium.into()),
                        ("sparse", 1u64.into()),
                    ],
                );
                for tid in needed {
                    let m = meta_st
                        .member(tid)
                        .ok_or(HeavenError::TileUnlocated(tid))?
                        .clone();
                    let bytes = self.store.read_range(addr, m.offset, m.len)?;
                    self.metrics.st_tape_bytes.add(m.len);
                    let (t, _) =
                        heaven_array::Tile::decode_shared(&bytes, 0).map_err(HeavenError::Array)?;
                    self.note_patch_copy(&out, &t.data);
                    out.patch(&t.data)?;
                    self.tile_cache.put(t);
                }
                self.metrics.st_tape_fetches.inc();
                self.metrics
                    .st_fetch_bytes_hist
                    .observe(needed_bytes as f64);
                let sparse_t1 = clock.now_s();
                self.metrics.st_fetch_hist.observe(sparse_t1 - sparse_t0);
                span.end(sparse_t1);
                continue;
            }
            let payload = self.supertile_payload(st)?;
            for tid in needed {
                let t = decode_member(&meta_st, &payload, tid)?;
                self.note_patch_copy(&out, &t.data);
                out.patch(&t.data)?;
                self.tile_cache.put(t);
            }
        }
        self.run_prefetch(oid, &pending)?;
        Ok(out)
    }

    /// Execute a *batch* of region queries with inter-query scheduling
    /// (paper §3.5.3): the tertiary fetches of all queries are merged,
    /// deduplicated and ordered (one visit per medium, ascending offsets),
    /// staged through the cache hierarchy, and only then is each query's
    /// result assembled. Results are returned in request order.
    pub fn fetch_batch(&mut self, requests: &[(ObjectId, Minterval)]) -> Result<Vec<MDArray>> {
        let auto_bracket = self.active_query.is_none();
        if auto_bracket {
            self.begin_query(&format!("batch of {} regions", requests.len()));
        }
        let result = self.fetch_batch_impl(requests);
        if auto_bracket {
            self.end_query();
        }
        result
    }

    fn fetch_batch_impl(&mut self, requests: &[(ObjectId, Minterval)]) -> Result<Vec<MDArray>> {
        // Collect every exported super-tile any query needs.
        let mut needed: Vec<FetchRequest> = Vec::new();
        for (oid, region) in requests {
            let meta = self.adb.object(*oid)?.clone();
            let Some(target) = meta.domain.intersection(region) else {
                continue;
            };
            for tid in meta.tiles_intersecting(&target) {
                if self.adb.tile_location(tid)? == TileLocation::Exported {
                    let st = self.catalog.supertile_of(tid)?;
                    if !self.st_cache.contains(st) {
                        needed.push(FetchRequest {
                            st,
                            addr: self.catalog.address(st)?,
                        });
                    }
                }
            }
        }
        // One scheduled sweep stages everything.
        let order = if self.config.scheduling {
            schedule(&needed, &self.store.library().mounted_media())
        } else {
            let mut seen = std::collections::HashSet::new();
            needed.into_iter().filter(|r| seen.insert(r.st)).collect()
        };
        let mounted = self.store.library().mounted_media();
        self.note_schedule(&order, &mounted, 0, "batch");
        for r in order {
            if self.st_cache.contains(r.st) {
                continue;
            }
            let t0 = self.store.clock().now_s();
            let replica = self.catalog.replica(r.st);
            let checksum = self.catalog.checksum(r.st);
            let raw = read_with_recovery(
                &mut self.store,
                r.st,
                r.addr,
                replica,
                checksum,
                &self.config.retry,
                &self.recovery,
                &self.bus,
            )?;
            self.metrics.st_tape_fetches.inc();
            self.metrics.st_tape_bytes.add(r.addr.len);
            self.metrics.st_fetch_bytes_hist.observe(r.addr.len as f64);
            self.metrics
                .st_fetch_hist
                .observe(self.store.clock().now_s() - t0);
            let payload = self.maybe_decompress(raw, self.catalog.meta(r.st)?.total_len)?;
            let refetch = self.store.estimate_read_s(r.addr);
            self.st_cache.put(r.st, payload, refetch);
        }
        // Assemble each query (cache hits all the way).
        requests
            .iter()
            .map(|(oid, region)| self.fetch_region_hierarchical(*oid, region))
            .collect()
    }

    /// Prefetch successor super-tiles in cluster order (paper §3.6).
    fn run_prefetch(
        &mut self,
        oid: ObjectId,
        touched: &BTreeMap<SuperTileId, Vec<TileId>>,
    ) -> Result<()> {
        let PrefetchPolicy::NextInOrder(n) = self.config.prefetch else {
            return Ok(());
        };
        let Some(&max_touched) = touched.keys().max() else {
            return Ok(());
        };
        let order = self.catalog.object_supertiles(oid);
        let Some(pos) = order.iter().position(|&s| s == max_touched) else {
            return Ok(());
        };
        let clock = self.clock();
        for &st in order.iter().skip(pos + 1).take(n) {
            if self.st_cache.contains(st) {
                continue;
            }
            let t0 = clock.now_s();
            let addr = self.catalog.address(st)?;
            self.bus.event(
                "heaven.prefetch.issue",
                t0,
                &[("st", st.into()), ("bytes", addr.len.into())],
            );
            // Prefetch is best-effort: a super-tile that can't be staged
            // now simply stays on tape for the demand path to recover.
            let Ok(payload) = read_with_recovery(
                &mut self.store,
                st,
                addr,
                self.catalog.replica(st),
                self.catalog.checksum(st),
                &self.config.retry,
                &self.recovery,
                &self.bus,
            )
            .and_then(|raw| self.maybe_decompress(raw, self.catalog.meta(st)?.total_len)) else {
                continue;
            };
            self.metrics.st_tape_fetches.inc();
            self.metrics.st_tape_bytes.add(addr.len);
            let refetch = self.store.estimate_read_s(addr);
            self.st_cache.put(st, payload, refetch);
            let dt = clock.now_s() - t0;
            self.metrics.prefetches.inc();
            self.metrics.prefetch_s.add(dt);
            self.metrics.prefetch_bytes.add(addr.len);
            self.metrics.st_fetch_bytes_hist.observe(addr.len as f64);
            self.metrics.st_fetch_hist.observe(dt);
            self.bus.event(
                "heaven.prefetch.complete",
                clock.now_s(),
                &[
                    ("st", st.into()),
                    ("bytes", addr.len.into()),
                    ("dur_s", dt.into()),
                ],
            );
        }
        Ok(())
    }
}

impl TileProvider for Heaven {
    fn object_meta(&self, oid: ObjectId) -> heaven_arraydb::Result<ObjectMeta> {
        Ok(self.adb.object(oid)?.clone())
    }

    fn collection_objects(&self, name: &str) -> heaven_arraydb::Result<Vec<ObjectId>> {
        Ok(self.adb.collection(name)?.objects.clone())
    }

    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven_arraydb::Result<MDArray> {
        self.fetch_region_hierarchical(oid, region)
            .map_err(Into::into)
    }

    fn precomputed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval) -> Option<f64> {
        let meta = self.adb.object(oid).ok()?;
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
