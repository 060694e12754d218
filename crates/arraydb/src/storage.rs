//! Physical storage: tiles as BLOBs in the base RDBMS (paper §2.6.3).
//!
//! Each inserted MDD object is partitioned by its tiling into tiles; every
//! tile is serialized and stored as one BLOB. Catalog rows (collections and
//! objects) are written through to heap tables so the whole database state
//! can be rebuilt from the page file. A tile may be *exported*: its BLOB is
//! dropped and its location marked tertiary — resolving such tiles is the
//! job of the HEAVEN layer above.

use crate::error::{ArrayDbError, Result};
use crate::provider::{visit_clip, Visitor};
use crate::schema::{Collection, CollectionId, ObjectMeta};
use heaven_array::mdd::copy_region;
use heaven_array::{CellType, MDArray, Minterval, ObjectId, Tile, TileId, Tiling};
use heaven_obs::{Field, Histogram, MetricsRegistry, TraceBus};
use heaven_rdbms::{BTree, BlobStore, Database, Table};
use std::collections::HashMap;

/// Where a tile's payload currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileLocation {
    /// On secondary storage as a BLOB.
    Disk,
    /// Exported to tertiary storage (BLOB dropped).
    Exported,
}

/// The array DBMS: collections, objects, tiles-as-BLOBs.
#[derive(Debug)]
pub struct ArrayDb {
    db: Database,
    blobs: BlobStore,
    /// tile id → blob id (only for tiles on disk).
    tile_dir: BTree,
    coll_table: Table,
    obj_table: Table,
    collections: HashMap<String, Collection>,
    objects: HashMap<ObjectId, ObjectMeta>,
    tile_loc: HashMap<TileId, TileLocation>,
    next_collection: CollectionId,
    next_oid: ObjectId,
    next_tile: TileId,
    /// Per-tile disk-read duration distribution (simulated seconds).
    tile_read_hist: Histogram,
}

impl ArrayDb {
    /// Create a fresh array database on `db`.
    pub fn create(mut db: Database) -> Result<ArrayDb> {
        let blobs = BlobStore::create(&mut db)?;
        let tile_dir = BTree::create(&mut db)?;
        let coll_table = Table::create(&mut db)?;
        let obj_table = Table::create(&mut db)?;
        Ok(ArrayDb {
            db,
            blobs,
            tile_dir,
            coll_table,
            obj_table,
            collections: HashMap::new(),
            objects: HashMap::new(),
            tile_loc: HashMap::new(),
            next_collection: 1,
            next_oid: 1,
            next_tile: 1,
            tile_read_hist: MetricsRegistry::new().histogram("arraydb.tile_read_hist_s"),
        })
    }

    /// Attach the array DBMS (and its base RDBMS) to a shared metrics
    /// registry; observations accumulated so far carry over.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry) {
        self.db.attach_obs(registry);
        let next = registry.histogram("arraydb.tile_read_hist_s");
        next.merge_from(&self.tile_read_hist);
        self.tile_read_hist = next;
    }

    /// Attach the shared trace bus (tile-read events here, transaction
    /// events in the base RDBMS).
    pub fn attach_trace(&mut self, bus: TraceBus) {
        self.db.attach_trace(bus);
    }

    /// Create on a default in-memory test database.
    pub fn for_tests() -> ArrayDb {
        ArrayDb::create(Database::for_tests()).expect("fresh db")
    }

    /// The underlying storage manager.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying storage manager.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    // -- collections ----------------------------------------------------------

    /// Create a collection.
    pub fn create_collection(
        &mut self,
        name: &str,
        cell_type: CellType,
        dim: usize,
    ) -> Result<CollectionId> {
        if self.collections.contains_key(name) {
            return Err(ArrayDbError::CollectionExists(name.to_string()));
        }
        let id = self.next_collection;
        self.next_collection += 1;
        let coll = Collection {
            id,
            name: name.to_string(),
            cell_type,
            dim,
            objects: Vec::new(),
        };
        let row = encode_collection_row(&coll);
        self.coll_table.insert(&mut self.db, &row)?;
        self.collections.insert(name.to_string(), coll);
        Ok(id)
    }

    /// Look up a collection by name.
    pub fn collection(&self, name: &str) -> Result<&Collection> {
        self.collections
            .get(name)
            .ok_or_else(|| ArrayDbError::NoSuchCollection(name.to_string()))
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.collections.keys().cloned().collect();
        v.sort();
        v
    }

    // -- objects --------------------------------------------------------------

    /// Insert an MDD object into a collection, tiling it with `tiling`.
    /// Runs in a transaction; returns the new object id.
    pub fn insert_object(
        &mut self,
        collection: &str,
        array: &MDArray,
        tiling: Tiling,
    ) -> Result<ObjectId> {
        let (coll_id, coll_ty) = {
            let c = self.collection(collection)?;
            (c.id, c.cell_type)
        };
        if coll_ty != array.cell_type() {
            return Err(ArrayDbError::WrongCellType {
                collection: collection.to_string(),
                expected: coll_ty.name().to_string(),
                got: array.cell_type().name().to_string(),
            });
        }
        let oid = self.next_oid;
        self.next_oid += 1;
        let first_tile = self.next_tile;
        let meta = ObjectMeta::new(
            oid,
            coll_id,
            array.domain().clone(),
            array.cell_type(),
            tiling,
            first_tile,
        )?;
        self.next_tile += meta.tiles.len() as u64;

        self.db.begin()?;
        for &(ref dom, tile_id) in meta.tiles.iter() {
            let payload = array.extract(dom)?;
            let tile = Tile::new(tile_id, oid, payload);
            let blob = self.blobs.put(&mut self.db, &tile.encode())?;
            self.tile_dir.insert(&mut self.db, tile_id, blob)?;
            self.tile_loc.insert(tile_id, TileLocation::Disk);
        }
        let row = encode_object_row(&meta, first_tile);
        self.obj_table.insert(&mut self.db, &row)?;
        self.db.commit()?;

        self.collections
            .get_mut(collection)
            .expect("checked above")
            .objects
            .push(oid);
        self.objects.insert(oid, meta);
        Ok(oid)
    }

    /// Insert an MDD object *streamed*: instead of a materialized array,
    /// `produce` is called once per tile domain (in grid order) and returns
    /// that tile's payload. This is how HPC producers feed results into the
    /// DBMS without ever holding the whole object in memory (paper
    /// Fig. 1.3, "HPC Datenerzeuger → Datenimport").
    pub fn insert_object_streamed<F>(
        &mut self,
        collection: &str,
        domain: &Minterval,
        tiling: Tiling,
        mut produce: F,
    ) -> Result<ObjectId>
    where
        F: FnMut(&Minterval) -> MDArray,
    {
        let (coll_id, cell_type) = {
            let c = self.collection(collection)?;
            (c.id, c.cell_type)
        };
        let oid = self.next_oid;
        self.next_oid += 1;
        let first_tile = self.next_tile;
        let meta = ObjectMeta::new(oid, coll_id, domain.clone(), cell_type, tiling, first_tile)?;
        self.next_tile += meta.tiles.len() as u64;

        self.db.begin()?;
        // Roll back the in-memory tile-location entries alongside the
        // transaction if a produced tile is invalid.
        let rollback = |adb: &mut ArrayDb, upto: u64| -> Result<()> {
            adb.db.abort()?;
            for t in first_tile..upto {
                adb.tile_loc.remove(&t);
            }
            Ok(())
        };
        for &(ref dom, tile_id) in meta.tiles.iter() {
            let payload = produce(dom);
            if payload.domain() != dom {
                rollback(self, tile_id)?;
                return Err(ArrayDbError::Semantic(format!(
                    "streamed tile covers {}, expected {dom}",
                    payload.domain()
                )));
            }
            if payload.cell_type() != cell_type {
                rollback(self, tile_id)?;
                return Err(ArrayDbError::WrongCellType {
                    collection: collection.to_string(),
                    expected: cell_type.name().to_string(),
                    got: payload.cell_type().name().to_string(),
                });
            }
            let tile = Tile::new(tile_id, oid, payload);
            let blob = self.blobs.put(&mut self.db, &tile.encode())?;
            self.tile_dir.insert(&mut self.db, tile_id, blob)?;
            self.tile_loc.insert(tile_id, TileLocation::Disk);
        }
        let row = encode_object_row(&meta, first_tile);
        self.obj_table.insert(&mut self.db, &row)?;
        self.db.commit()?;

        self.collections
            .get_mut(collection)
            .expect("checked above")
            .objects
            .push(oid);
        self.objects.insert(oid, meta);
        Ok(oid)
    }

    /// Metadata of an object.
    pub fn object(&self, oid: ObjectId) -> Result<&ObjectMeta> {
        self.objects
            .get(&oid)
            .ok_or(ArrayDbError::NoSuchObject(oid))
    }

    /// All object ids, ascending.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.objects.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Where a tile currently lives.
    pub fn tile_location(&self, tile: TileId) -> Result<TileLocation> {
        self.tile_loc
            .get(&tile)
            .copied()
            .ok_or(ArrayDbError::NoSuchTile(tile))
    }

    // -- tile I/O ---------------------------------------------------------------

    /// Read a tile from disk. Fails with [`ArrayDbError::TileExported`] when
    /// the tile has been moved to tertiary storage.
    pub fn read_tile(&mut self, tile: TileId) -> Result<Tile> {
        match self.tile_location(tile)? {
            TileLocation::Disk => {}
            TileLocation::Exported => return Err(ArrayDbError::TileExported(tile)),
        }
        let t0 = self.db.clock().now_s();
        let blob = self
            .tile_dir
            .get(&mut self.db, tile)?
            .ok_or(ArrayDbError::NoSuchTile(tile))?;
        let bytes = bytes::Bytes::from(self.blobs.get(&mut self.db, blob)?);
        let (t, _) = Tile::decode_shared(&bytes, 0)?;
        let dt = self.db.clock().now_s() - t0;
        self.tile_read_hist.observe(dt);
        self.db.trace().event(
            "arraydb.tile_read",
            self.db.clock().now_s(),
            &[
                ("tile", Field::U64(tile)),
                ("bytes", Field::U64(bytes.len() as u64)),
                ("cost_s", Field::F64(dt)),
            ],
        );
        Ok(t)
    }

    /// Mark a tile as exported: drop its BLOB, record tertiary location.
    pub fn mark_exported(&mut self, tile: TileId) -> Result<()> {
        match self.tile_location(tile)? {
            TileLocation::Exported => return Ok(()),
            TileLocation::Disk => {}
        }
        if let Some(blob) = self.tile_dir.get(&mut self.db, tile)? {
            self.blobs.delete(&mut self.db, blob)?;
            self.tile_dir.remove(&mut self.db, tile)?;
        }
        self.tile_loc.insert(tile, TileLocation::Exported);
        Ok(())
    }

    /// (Re-)store a tile's payload on disk: used for re-import after
    /// archival and for updates of archived data (paper §3.6). Any previous
    /// BLOB of the tile is freed first.
    pub fn restore_tile(&mut self, tile: &Tile) -> Result<()> {
        if let Some(old) = self.tile_dir.get(&mut self.db, tile.id)? {
            self.blobs.delete(&mut self.db, old)?;
            self.tile_dir.remove(&mut self.db, tile.id)?;
        }
        let blob = self.blobs.put(&mut self.db, &tile.encode())?;
        self.tile_dir.insert(&mut self.db, tile.id, blob)?;
        self.tile_loc.insert(tile.id, TileLocation::Disk);
        Ok(())
    }

    /// Assemble the sub-array of `oid` covering `region` from on-disk tiles.
    pub fn read_subarray(&mut self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        let (target, cell_type) = {
            let meta = self.object(oid)?;
            (clip_to_object(meta, region)?, meta.cell_type)
        };
        let mut out = MDArray::zeros(target, cell_type);
        self.visit_subarray(oid, region, &mut |clip, src| {
            copy_region(src, &mut out, clip)
        })?;
        Ok(out)
    }

    /// Visit the on-disk tiles of `oid` that meet `region` (clipped to
    /// the object domain) in grid order: `f(clip, tile)` with `clip` the
    /// tile's domain ∩ region (see [`crate::TileProvider::visit_region`]).
    pub fn visit_subarray(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
        f: &mut Visitor,
    ) -> Result<()> {
        let (target, tile_ids) = {
            let meta = self.object(oid)?;
            let target = clip_to_object(meta, region)?;
            let tile_ids = meta.tiles_intersecting(&target);
            (target, tile_ids)
        };
        let mut clip = target.clone();
        for tid in tile_ids {
            visit_clip(&target, &self.read_tile(tid)?.data, &mut clip, f)?;
        }
        Ok(())
    }

    /// Delete an object: all its on-disk tiles, its catalog entries, and its
    /// membership. Exported tiles are forgotten (the HEAVEN layer reclaims
    /// tertiary space).
    pub fn delete_object(&mut self, oid: ObjectId) -> Result<()> {
        let meta = self
            .objects
            .remove(&oid)
            .ok_or(ArrayDbError::NoSuchObject(oid))?;
        self.db.begin()?;
        for (_, tid) in meta.tiles.iter() {
            if self.tile_loc.remove(tid) == Some(TileLocation::Disk) {
                if let Some(blob) = self.tile_dir.get(&mut self.db, *tid)? {
                    self.blobs.delete(&mut self.db, blob)?;
                    self.tile_dir.remove(&mut self.db, *tid)?;
                }
            }
        }
        // Remove the catalog row.
        let rows = self.obj_table.scan(&mut self.db)?;
        for (rid, row) in rows {
            if decode_object_oid(&row) == oid {
                self.obj_table.delete(&mut self.db, rid)?;
            }
        }
        self.db.commit()?;
        for c in self.collections.values_mut() {
            c.objects.retain(|&o| o != oid);
        }
        Ok(())
    }

    /// Rebuild the in-memory catalogs from the persisted heap tables.
    /// Verifies that catalog persistence is complete (used after recovery).
    pub fn rebuild_catalogs(&mut self) -> Result<()> {
        let mut collections = HashMap::new();
        let mut by_id: HashMap<CollectionId, String> = HashMap::new();
        for (_, row) in self.coll_table.scan(&mut self.db)? {
            let c = decode_collection_row(&row)?;
            by_id.insert(c.id, c.name.clone());
            collections.insert(c.name.clone(), c);
        }
        let mut objects = HashMap::new();
        let mut tile_loc = HashMap::new();
        let mut max_tile = 0u64;
        let mut max_oid = 0u64;
        for (_, row) in self.obj_table.scan(&mut self.db)? {
            let (meta, first_tile) = decode_object_row(&row)?;
            for (i, (_, tid)) in meta.tiles.iter().enumerate() {
                debug_assert_eq!(*tid, first_tile + i as u64);
                // Location: on disk iff the tile directory still maps it.
                let loc = if self.tile_dir.get(&mut self.db, *tid)?.is_some() {
                    TileLocation::Disk
                } else {
                    TileLocation::Exported
                };
                tile_loc.insert(*tid, loc);
                max_tile = max_tile.max(*tid);
            }
            max_oid = max_oid.max(meta.oid);
            if let Some(name) = by_id.get(&meta.collection) {
                collections
                    .get_mut(name)
                    .expect("by_id built from collections")
                    .objects
                    .push(meta.oid);
            }
            objects.insert(meta.oid, meta);
        }
        for c in collections.values_mut() {
            c.objects.sort_unstable();
        }
        self.next_collection = collections.values().map(|c| c.id).max().unwrap_or(0) + 1;
        self.next_oid = max_oid + 1;
        self.next_tile = max_tile + 1;
        self.collections = collections;
        self.objects = objects;
        self.tile_loc = tile_loc;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// catalog row codecs
// ---------------------------------------------------------------------------

/// `region` ∩ the object's domain; an error when they do not meet.
fn clip_to_object(meta: &ObjectMeta, region: &Minterval) -> Result<Minterval> {
    meta.domain.intersection(region).ok_or_else(|| {
        ArrayDbError::Semantic(format!(
            "region {region} outside object domain {}",
            meta.domain
        ))
    })
}

fn encode_collection_row(c: &Collection) -> Vec<u8> {
    let mut row = Vec::with_capacity(16 + c.name.len());
    row.extend_from_slice(&c.id.to_le_bytes());
    row.push(c.cell_type.tag());
    row.push(c.dim as u8);
    row.extend_from_slice(&(c.name.len() as u16).to_le_bytes());
    row.extend_from_slice(c.name.as_bytes());
    row
}

fn decode_collection_row(row: &[u8]) -> Result<Collection> {
    let bad = || ArrayDbError::Semantic("corrupt collection row".into());
    if row.len() < 12 {
        return Err(bad());
    }
    let id = u64::from_le_bytes(row[0..8].try_into().unwrap());
    let cell_type = CellType::from_tag(row[8]).ok_or_else(bad)?;
    let dim = row[9] as usize;
    let nlen = u16::from_le_bytes(row[10..12].try_into().unwrap()) as usize;
    if row.len() < 12 + nlen {
        return Err(bad());
    }
    let name = String::from_utf8(row[12..12 + nlen].to_vec()).map_err(|_| bad())?;
    Ok(Collection {
        id,
        name,
        cell_type,
        dim,
        objects: Vec::new(),
    })
}

fn encode_object_row(meta: &ObjectMeta, first_tile: TileId) -> Vec<u8> {
    let d = meta.domain.dim();
    let mut row = Vec::with_capacity(40 + 16 * d);
    row.extend_from_slice(&meta.oid.to_le_bytes());
    row.extend_from_slice(&meta.collection.to_le_bytes());
    row.push(meta.cell_type.tag());
    row.push(d as u8);
    row.extend_from_slice(&first_tile.to_le_bytes());
    // tiling
    match &meta.tiling {
        Tiling::Regular { tile_shape } => {
            row.push(0);
            for e in tile_shape {
                row.extend_from_slice(&e.to_le_bytes());
            }
        }
        Tiling::Directional {
            axis,
            base_edge,
            factor,
        } => {
            row.push(1);
            row.extend_from_slice(&(*axis as u64).to_le_bytes());
            row.extend_from_slice(&base_edge.to_le_bytes());
            row.extend_from_slice(&factor.to_le_bytes());
        }
        Tiling::SizeBounded { max_bytes } => {
            row.push(2);
            row.extend_from_slice(&max_bytes.to_le_bytes());
        }
    }
    for ax in meta.domain.axes() {
        row.extend_from_slice(&ax.lo.to_le_bytes());
        row.extend_from_slice(&ax.hi.to_le_bytes());
    }
    row
}

fn decode_object_oid(row: &[u8]) -> ObjectId {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn decode_object_row(row: &[u8]) -> Result<(ObjectMeta, TileId)> {
    let bad = || ArrayDbError::Semantic("corrupt object row".into());
    let mut off = 0usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        if row.len() < off + n {
            return Err(bad());
        }
        let s = &row[off..off + n];
        off += n;
        Ok(s)
    };
    let oid = u64::from_le_bytes(take(8)?.try_into().unwrap());
    let collection = u64::from_le_bytes(take(8)?.try_into().unwrap());
    let cell_type = CellType::from_tag(take(1)?[0]).ok_or_else(bad)?;
    let d = take(1)?[0] as usize;
    let first_tile = u64::from_le_bytes(take(8)?.try_into().unwrap());
    let tiling = match take(1)?[0] {
        0 => {
            let mut shape = Vec::with_capacity(d);
            for _ in 0..d {
                shape.push(u64::from_le_bytes(take(8)?.try_into().unwrap()));
            }
            Tiling::Regular { tile_shape: shape }
        }
        1 => {
            let axis = u64::from_le_bytes(take(8)?.try_into().unwrap()) as usize;
            let base_edge = u64::from_le_bytes(take(8)?.try_into().unwrap());
            let factor = u64::from_le_bytes(take(8)?.try_into().unwrap());
            Tiling::Directional {
                axis,
                base_edge,
                factor,
            }
        }
        2 => {
            let max_bytes = u64::from_le_bytes(take(8)?.try_into().unwrap());
            Tiling::SizeBounded { max_bytes }
        }
        _ => return Err(bad()),
    };
    let mut bounds = Vec::with_capacity(d);
    for _ in 0..d {
        let lo = i64::from_le_bytes(take(8)?.try_into().unwrap());
        let hi = i64::from_le_bytes(take(8)?.try_into().unwrap());
        bounds.push((lo, hi));
    }
    let domain = Minterval::new(&bounds)?;
    let meta = ObjectMeta::new(oid, collection, domain, cell_type, tiling, first_tile)?;
    Ok((meta, first_tile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::Point;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn ramp(dom: Minterval) -> MDArray {
        MDArray::generate(dom, CellType::I32, |p| {
            p.0.iter().fold(0i64, |a, &c| a * 100 + c) as f64
        })
    }

    fn db_with_object() -> (ArrayDb, ObjectId) {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("temps", CellType::I32, 2).unwrap();
        let arr = ramp(mi(&[(0, 29), (0, 29)]));
        let oid = adb
            .insert_object(
                "temps",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![10, 10],
                },
            )
            .unwrap();
        (adb, oid)
    }

    #[test]
    fn insert_creates_tiles_as_blobs() {
        let (adb, oid) = db_with_object();
        let meta = adb.object(oid).unwrap();
        assert_eq!(meta.tiles.len(), 9);
        for (_, tid) in meta.tiles.iter() {
            assert_eq!(adb.tile_location(*tid).unwrap(), TileLocation::Disk);
        }
    }

    #[test]
    fn read_tile_roundtrip() {
        let (mut adb, oid) = db_with_object();
        let tid = adb.object(oid).unwrap().tiles[4].1;
        let tile = adb.read_tile(tid).unwrap();
        assert_eq!(tile.object, oid);
        assert_eq!(tile.domain(), &mi(&[(10, 19), (10, 19)]));
        assert_eq!(
            tile.data.get_f64(&Point::new(vec![12, 15])).unwrap(),
            1215.0
        );
    }

    #[test]
    fn subarray_assembles_across_tiles() {
        let (mut adb, oid) = db_with_object();
        let region = mi(&[(5, 24), (5, 24)]);
        let sub = adb.read_subarray(oid, &region).unwrap();
        assert_eq!(sub.domain(), &region);
        for p in [
            Point::new(vec![5, 5]),
            Point::new(vec![15, 20]),
            Point::new(vec![24, 24]),
        ] {
            assert_eq!(
                sub.get_f64(&p).unwrap(),
                (p.coord(0) * 100 + p.coord(1)) as f64
            );
        }
    }

    #[test]
    fn wrong_cell_type_rejected() {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("c", CellType::F32, 2).unwrap();
        let arr = ramp(mi(&[(0, 9), (0, 9)])); // I32
        assert!(matches!(
            adb.insert_object(
                "c",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![5, 5]
                }
            ),
            Err(ArrayDbError::WrongCellType { .. })
        ));
    }

    #[test]
    fn exported_tiles_are_not_readable_from_disk() {
        let (mut adb, oid) = db_with_object();
        let tid = adb.object(oid).unwrap().tiles[0].1;
        adb.mark_exported(tid).unwrap();
        assert!(matches!(
            adb.read_tile(tid),
            Err(ArrayDbError::TileExported(_))
        ));
        assert_eq!(adb.tile_location(tid).unwrap(), TileLocation::Exported);
        // subarray touching it fails too
        assert!(adb.read_subarray(oid, &mi(&[(0, 5), (0, 5)])).is_err());
        // but other regions still work
        assert!(adb.read_subarray(oid, &mi(&[(20, 29), (20, 29)])).is_ok());
    }

    #[test]
    fn restore_returns_tile_to_disk() {
        let (mut adb, oid) = db_with_object();
        let tid = adb.object(oid).unwrap().tiles[0].1;
        let original = adb.read_tile(tid).unwrap();
        adb.mark_exported(tid).unwrap();
        adb.restore_tile(&original).unwrap();
        let back = adb.read_tile(tid).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn delete_object_frees_everything() {
        let (mut adb, oid) = db_with_object();
        adb.delete_object(oid).unwrap();
        assert!(matches!(
            adb.object(oid),
            Err(ArrayDbError::NoSuchObject(_))
        ));
        assert!(adb.collection("temps").unwrap().objects.is_empty());
        assert!(adb.delete_object(oid).is_err());
    }

    #[test]
    fn catalogs_rebuild_from_tables() {
        let (mut adb, oid) = db_with_object();
        let before_obj = adb.object(oid).unwrap().clone();
        let before_colls = adb.collection_names();
        // wipe in-memory state
        adb.collections.clear();
        adb.objects.clear();
        adb.tile_loc.clear();
        adb.rebuild_catalogs().unwrap();
        assert_eq!(adb.collection_names(), before_colls);
        assert_eq!(adb.object(oid).unwrap(), &before_obj);
        assert_eq!(adb.collection("temps").unwrap().objects, vec![oid]);
        // tiles readable again
        let tid = before_obj.tiles[0].1;
        assert!(adb.read_tile(tid).is_ok());
    }

    #[test]
    fn rebuild_preserves_exported_locations() {
        let (mut adb, oid) = db_with_object();
        let tid = adb.object(oid).unwrap().tiles[2].1;
        adb.mark_exported(tid).unwrap();
        adb.rebuild_catalogs().unwrap();
        assert_eq!(adb.tile_location(tid).unwrap(), TileLocation::Exported);
        assert_eq!(adb.tile_location(tid + 1).unwrap(), TileLocation::Disk);
    }

    #[test]
    fn streamed_insert_equals_materialized_insert() {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("c", CellType::I32, 2).unwrap();
        let dom = mi(&[(0, 29), (0, 29)]);
        let arr = ramp(dom.clone());
        let tiling = Tiling::Regular {
            tile_shape: vec![10, 10],
        };
        let oid_m = adb.insert_object("c", &arr, tiling.clone()).unwrap();
        let mut produced = 0;
        let oid_s = adb
            .insert_object_streamed("c", &dom, tiling, |td| {
                produced += 1;
                arr.extract(td).unwrap()
            })
            .unwrap();
        assert_eq!(produced, 9, "one producer call per tile");
        let a = adb.read_subarray(oid_m, &dom).unwrap();
        let b = adb.read_subarray(oid_s, &dom).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_insert_validates_tiles() {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("c", CellType::I32, 2).unwrap();
        let dom = mi(&[(0, 19), (0, 19)]);
        let tiling = Tiling::Regular {
            tile_shape: vec![10, 10],
        };
        // wrong domain
        let r = adb.insert_object_streamed("c", &dom, tiling.clone(), |_| {
            MDArray::zeros(mi(&[(0, 4), (0, 4)]), CellType::I32)
        });
        assert!(matches!(r, Err(ArrayDbError::Semantic(_))));
        // wrong cell type
        let r = adb.insert_object_streamed("c", &dom, tiling, |td| {
            MDArray::zeros(td.clone(), CellType::F32)
        });
        assert!(matches!(r, Err(ArrayDbError::WrongCellType { .. })));
        // failed inserts leave no objects behind
        assert!(adb.collection("c").unwrap().objects.is_empty());
    }

    #[test]
    fn duplicate_collection_rejected() {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("x", CellType::U8, 1).unwrap();
        assert!(matches!(
            adb.create_collection("x", CellType::U8, 1),
            Err(ArrayDbError::CollectionExists(_))
        ));
    }
}
