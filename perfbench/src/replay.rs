//! Replay of the engine's inner layers.
//!
//! Some layers are reached only inside `Heaven::fetch_region_hierarchical`
//! and `Session::fetch_region`: tile lookup, both cache levels, the fetch
//! scheduler, the wire codec, super-tile member decode and the patch into
//! the result array. The benchmark does not instrument the program; it
//! records each engine fetch `(object, region)` during the run and then
//! replays the same sequence through those layers' public functions, with
//! caches of the same capacity, stripe count and policy, timing each call.
//! The replay follows the engine's order: look up the tiles, serve hits
//! from the tile cache, group misses by super-tile, schedule the
//! super-tiles the disk cache lacks, decode the wire payload, cut out the
//! member tiles, patch them into the result and admit them to the tile
//! cache. Tape device time is not replayed (it is simulated, not host
//! work), so the replay explains only the host-side share of a fetch.

use bytes::Bytes;
use heaven_array::{encode_wire, CodecPolicy, MDArray, Minterval, ObjectId, Tile, TileId};
use heaven_arraydb::ObjectMeta;
use heaven_core::{
    decode_member, encode_supertile, schedule, FetchRequest, HeavenConfig, SuperTileCache,
    SuperTileId, SuperTileMeta, TileCache,
};
use heaven_hsm::BlockAddress;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Where exported tiles live: tile → super-tile, and each super-tile's
/// directory and archive address (a copy of the engine's catalog).
#[derive(Debug, Default, Clone)]
pub struct CatalogCopy {
    pub tile_st: HashMap<TileId, SuperTileId>,
    pub st: HashMap<SuperTileId, (SuperTileMeta, BlockAddress)>,
}

impl CatalogCopy {
    pub fn capture(catalog: &heaven_core::SuperTileCatalog, oids: &[ObjectId]) -> CatalogCopy {
        let mut c = CatalogCopy::default();
        for st in oids.iter().flat_map(|&oid| catalog.object_supertiles(oid)) {
            let meta = catalog.meta(st).expect("catalogued super-tile").clone();
            let addr = catalog.address(st).expect("catalogued address");
            for m in &meta.members {
                c.tile_st.insert(m.tile, st);
            }
            c.st.insert(st, (meta, addr));
        }
        c
    }
}

/// Host time spent per inner layer over the replayed fetches.
#[derive(Debug, Default, Clone, Copy)]
pub struct InnerTimes {
    pub fetches: u64,
    pub tile_lookup_ns: u64,
    pub tiles_scanned: u64,
    pub tiles_hit: u64,
    pub meta_clone_ns: u64,
    pub tile_get_ns: u64,
    pub tile_put_ns: u64,
    pub evicting_puts: u64,
    pub evicting_put_ns: u64,
    pub st_cache_ns: u64,
    pub schedule_ns: u64,
    pub decode_wire_ns: u64,
    pub decode_member_ns: u64,
    pub patch_ns: u64,
}

impl InnerTimes {
    /// Host µs per fetch explained by the replayed layers.
    pub fn total_us_per_fetch(&self) -> f64 {
        let ns = self.tile_lookup_ns
            + self.meta_clone_ns
            + self.tile_get_ns
            + self.tile_put_ns
            + self.st_cache_ns
            + self.schedule_ns
            + self.decode_wire_ns
            + self.decode_member_ns
            + self.patch_ns;
        per_fetch_us(ns, self.fetches)
    }
}

pub fn per_fetch_us(ns: u64, fetches: u64) -> f64 {
    if fetches == 0 {
        0.0
    } else {
        ns as f64 / 1e3 / fetches as f64
    }
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Replays engine fetches through the inner layers.
pub struct Replayer<'a> {
    metas: &'a HashMap<ObjectId, ObjectMeta>,
    catalog: &'a CatalogCopy,
    truth: &'a dyn Fn(ObjectId, &Minterval) -> MDArray,
    /// The engine's codec settings (compression on, codec policy).
    compress: bool,
    codec: CodecPolicy,
    tile_cache: TileCache,
    st_cache: SuperTileCache,
    /// Super-tile payload and its wire form, rebuilt from ground truth.
    payloads: HashMap<SuperTileId, (Bytes, Bytes)>,
}

impl<'a> Replayer<'a> {
    /// A replayer whose caches and codec match the engine's `cfg`.
    pub fn new(
        metas: &'a HashMap<ObjectId, ObjectMeta>,
        catalog: &'a CatalogCopy,
        truth: &'a dyn Fn(ObjectId, &Minterval) -> MDArray,
        cfg: &HeavenConfig,
    ) -> Replayer<'a> {
        Replayer {
            metas,
            catalog,
            truth,
            compress: cfg.compress,
            codec: cfg.codec,
            tile_cache: TileCache::with_shards(cfg.mem_cache_bytes, cfg.cache_shards),
            st_cache: SuperTileCache::with_shards(
                cfg.disk_cache_bytes,
                cfg.eviction,
                None,
                cfg.cache_shards,
            ),
            payloads: HashMap::new(),
        }
    }

    fn payload(&mut self, st: SuperTileId) -> (Bytes, Bytes) {
        if let Some(p) = self.payloads.get(&st) {
            return p.clone();
        }
        let (meta, _) = &self.catalog.st[&st];
        let tiles: Vec<Tile> = meta
            .members
            .iter()
            .map(|m| Tile::new(m.tile, meta.object, (self.truth)(meta.object, &m.domain)))
            .collect();
        let (payload, rebuilt) = encode_supertile(st, meta.object, &tiles);
        debug_assert_eq!(rebuilt.total_len, meta.total_len);
        let wire = if self.compress {
            let cell = self.metas[&meta.object].cell_type.size_bytes();
            encode_wire(&payload, cell, &self.codec).0
        } else {
            payload.clone()
        };
        self.payloads.insert(st, (payload.clone(), wire.clone()));
        (payload, wire)
    }

    /// Replay one engine fetch; timings accumulate into `t` when given.
    pub fn fetch(&mut self, oid: ObjectId, region: &Minterval, t: Option<&mut InnerTimes>) {
        let t0 = Instant::now();
        let meta = self.metas[&oid].clone();
        let clone_ns = ns(t0);
        let Some(target) = meta.domain.intersection(region) else {
            return;
        };
        let t0 = Instant::now();
        let tids = meta.tiles_intersecting(&target);
        let lookup_ns = ns(t0);
        let mut out = MDArray::zeros(target, meta.cell_type);
        let mut acc = InnerTimes {
            fetches: 1,
            meta_clone_ns: clone_ns,
            tile_lookup_ns: lookup_ns,
            tiles_scanned: meta.tiles.len() as u64,
            tiles_hit: tids.len() as u64,
            ..InnerTimes::default()
        };
        let mut pending: BTreeMap<SuperTileId, Vec<TileId>> = BTreeMap::new();
        for tid in tids {
            let t0 = Instant::now();
            let hit = self.tile_cache.get(tid);
            acc.tile_get_ns += ns(t0);
            match hit {
                Some(tile) => {
                    let t0 = Instant::now();
                    out.patch(&tile.data).expect("tile inside target");
                    acc.patch_ns += ns(t0);
                }
                None => pending
                    .entry(self.catalog.tile_st[&tid])
                    .or_default()
                    .push(tid),
            }
        }
        let mut ordered = Vec::new();
        let mut to_fetch = Vec::new();
        let t0 = Instant::now();
        for &st in pending.keys() {
            if self.st_cache.contains(st) {
                ordered.push(st);
            } else {
                to_fetch.push(FetchRequest {
                    st,
                    addr: self.catalog.st[&st].1,
                });
            }
        }
        acc.st_cache_ns += ns(t0);
        let t0 = Instant::now();
        let scheduled = schedule(&to_fetch, &[]);
        acc.schedule_ns += ns(t0);
        ordered.extend(scheduled.iter().map(|r| r.st));
        for st in ordered {
            let t0 = Instant::now();
            let cached = self.st_cache.get(st);
            acc.st_cache_ns += ns(t0);
            let payload = match cached {
                Some(p) => p,
                None => {
                    let (payload, wire) = self.payload(st);
                    if self.compress {
                        let total = self.catalog.st[&st].0.total_len;
                        let t0 = Instant::now();
                        let decoded = heaven_array::decode_wire(&wire, total)
                            .expect("wire payload decodes")
                            .0;
                        acc.decode_wire_ns += ns(t0);
                        debug_assert_eq!(decoded, payload);
                    }
                    let t0 = Instant::now();
                    self.st_cache.put(st, payload.clone(), 0.0);
                    acc.st_cache_ns += ns(t0);
                    payload
                }
            };
            let st_meta = &self.catalog.st[&st].0;
            for &tid in &pending[&st] {
                let t0 = Instant::now();
                let tile = decode_member(st_meta, &payload, tid).expect("member decodes");
                acc.decode_member_ns += ns(t0);
                let t0 = Instant::now();
                out.patch(&tile.data).expect("tile inside target");
                acc.patch_ns += ns(t0);
                let before = self.tile_cache.stats().evictions;
                let t0 = Instant::now();
                self.tile_cache.put(tile);
                let put_ns = ns(t0);
                acc.tile_put_ns += put_ns;
                if self.tile_cache.stats().evictions > before {
                    acc.evicting_puts += 1;
                    acc.evicting_put_ns += put_ns;
                }
            }
        }
        std::hint::black_box(&out);
        if let Some(t) = t {
            t.add(&acc);
        }
    }
}

impl InnerTimes {
    fn add(&mut self, o: &InnerTimes) {
        self.fetches += o.fetches;
        self.tile_lookup_ns += o.tile_lookup_ns;
        self.tiles_scanned += o.tiles_scanned;
        self.tiles_hit += o.tiles_hit;
        self.meta_clone_ns += o.meta_clone_ns;
        self.tile_get_ns += o.tile_get_ns;
        self.tile_put_ns += o.tile_put_ns;
        self.evicting_puts += o.evicting_puts;
        self.evicting_put_ns += o.evicting_put_ns;
        self.st_cache_ns += o.st_cache_ns;
        self.schedule_ns += o.schedule_ns;
        self.decode_wire_ns += o.decode_wire_ns;
        self.decode_member_ns += o.decode_member_ns;
        self.patch_ns += o.patch_ns;
    }
}
