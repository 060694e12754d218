//! HEAVEN's tertiary-storage catalog: where every super-tile lives.
//!
//! One [`CatalogEntry`] per super-tile holds its member directory, the
//! addresses of its archive copies and the checksum every read of them
//! verifies; member tiles map to their super-tiles. This is the metadata
//! HEAVEN adds on top of the DBMS catalogs so that queries can be routed
//! across the storage hierarchy, and the live-space ledger media
//! compaction reads.

use crate::error::{HeavenError, Result};
use crate::supertile::{SuperTileId, SuperTileMeta};
use heaven_array::{ObjectId, TileId};
use heaven_hsm::BlockAddress;
use heaven_tape::MediumId;
use std::collections::HashMap;

/// One catalogued super-tile: its member directory, where its archive
/// copies live, and the wire-payload checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Member directory.
    pub meta: SuperTileMeta,
    /// Primary archive copy.
    pub addr: BlockAddress,
    /// Second archive copy (dual-copy archival), never on the primary's
    /// medium.
    pub replica: Option<BlockAddress>,
    /// [`checksum64`](crate::supertile::checksum64) of the wire payload,
    /// verified on every read.
    pub checksum: u64,
}

impl CatalogEntry {
    /// Every archive copy: the primary, then the replica.
    pub fn copies(&self) -> impl Iterator<Item = BlockAddress> {
        std::iter::once(self.addr).chain(self.replica)
    }
}

/// Catalog of exported super-tiles.
#[derive(Debug, Default)]
pub struct SuperTileCatalog {
    supertiles: HashMap<SuperTileId, CatalogEntry>,
    tile_to_st: HashMap<TileId, SuperTileId>,
    by_object: HashMap<ObjectId, Vec<SuperTileId>>,
    next_id: SuperTileId,
}

impl SuperTileCatalog {
    /// Empty catalog.
    pub fn new() -> SuperTileCatalog {
        SuperTileCatalog {
            next_id: 1,
            ..Default::default()
        }
    }

    /// Reserve a fresh super-tile id.
    pub fn next_id(&mut self) -> SuperTileId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Register an exported super-tile. Its member tiles now resolve to
    /// it (superseding an older version's mapping), and future ids stay
    /// above its id.
    pub fn register(&mut self, entry: CatalogEntry) {
        let id = entry.meta.id;
        for m in &entry.meta.members {
            self.tile_to_st.insert(m.tile, id);
        }
        self.by_object
            .entry(entry.meta.object)
            .or_default()
            .push(id);
        self.next_id = self.next_id.max(id + 1);
        self.supertiles.insert(id, entry);
    }

    /// The super-tile containing a tile.
    pub fn supertile_of(&self, tile: TileId) -> Result<SuperTileId> {
        self.tile_to_st
            .get(&tile)
            .copied()
            .ok_or(HeavenError::TileUnlocated(tile))
    }

    /// The catalog entry of a super-tile.
    pub fn entry(&self, st: SuperTileId) -> Result<&CatalogEntry> {
        self.supertiles
            .get(&st)
            .ok_or(HeavenError::NoSuchSuperTile(st))
    }

    /// Metadata of a super-tile.
    pub fn meta(&self, st: SuperTileId) -> Result<&SuperTileMeta> {
        Ok(&self.entry(st)?.meta)
    }

    /// Primary block address of a super-tile.
    pub fn address(&self, st: SuperTileId) -> Result<BlockAddress> {
        Ok(self.entry(st)?.addr)
    }

    /// Move the copy of `st` at `from` (primary or replica) to `to`, after
    /// compaction rewrote it.
    pub fn relocate(
        &mut self,
        st: SuperTileId,
        from: BlockAddress,
        to: BlockAddress,
    ) -> Result<()> {
        let e = self
            .supertiles
            .get_mut(&st)
            .ok_or(HeavenError::NoSuchSuperTile(st))?;
        if e.addr == from {
            e.addr = to;
        } else if e.replica == Some(from) {
            e.replica = Some(to);
        } else {
            return Err(HeavenError::NoSuchSuperTile(st));
        }
        Ok(())
    }

    /// Super-tiles of an object, in export (cluster) order.
    pub fn object_supertiles(&self, oid: ObjectId) -> Vec<SuperTileId> {
        self.by_object.get(&oid).cloned().unwrap_or_default()
    }

    /// Whether an object has any exported super-tiles.
    pub fn is_exported(&self, oid: ObjectId) -> bool {
        self.by_object
            .get(&oid)
            .map(|v| !v.is_empty())
            .unwrap_or(false)
    }

    /// Drop all catalog entries of an object; returns their ids. Their
    /// copies become dead space on media until reclaimed.
    pub fn remove_object(&mut self, oid: ObjectId) -> Vec<SuperTileId> {
        let sts = self.by_object.remove(&oid).unwrap_or_default();
        for st in &sts {
            if let Some(e) = self.supertiles.remove(st) {
                self.unmap_members(&e);
            }
        }
        sts
    }

    /// Remove a single super-tile (e.g. replaced by an updated version).
    pub fn remove_supertile(&mut self, st: SuperTileId) -> Result<()> {
        let e = self
            .supertiles
            .remove(&st)
            .ok_or(HeavenError::NoSuchSuperTile(st))?;
        self.unmap_members(&e);
        if let Some(v) = self.by_object.get_mut(&e.meta.object) {
            v.retain(|&s| s != st);
        }
        Ok(())
    }

    /// Drop the tile mappings that still point at `e` (a newer version
    /// of a member keeps its own).
    fn unmap_members(&mut self, e: &CatalogEntry) {
        for m in &e.meta.members {
            if self.tile_to_st.get(&m.tile) == Some(&e.meta.id) {
                self.tile_to_st.remove(&m.tile);
            }
        }
    }

    /// Number of registered super-tiles.
    pub fn len(&self) -> usize {
        self.supertiles.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.supertiles.is_empty()
    }

    /// Every live copy on a medium, primary or replica, with its
    /// super-tile, in offset order (for compaction).
    pub fn on_medium(&self, medium: MediumId) -> Vec<(SuperTileId, BlockAddress)> {
        let mut v: Vec<(SuperTileId, BlockAddress)> = self
            .supertiles
            .iter()
            .flat_map(|(&id, e)| e.copies().map(move |a| (id, a)))
            .filter(|(_, a)| a.medium == medium)
            .collect();
        v.sort_by_key(|&(_, a)| a.offset);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supertile::MemberEntry;
    use heaven_array::Minterval;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn addr(medium: u64, offset: u64) -> BlockAddress {
        BlockAddress {
            medium,
            offset,
            len: 200,
        }
    }

    fn entry(id: SuperTileId, oid: ObjectId, tiles: &[TileId], at: BlockAddress) -> CatalogEntry {
        let members = tiles
            .iter()
            .zip(0u64..)
            .map(|(&tile, k)| MemberEntry {
                tile,
                domain: mi(&[(10 * k as i64, 10 * k as i64 + 9)]),
                offset: 100 * k,
                len: 100,
            })
            .collect::<Vec<_>>();
        CatalogEntry {
            meta: SuperTileMeta {
                id,
                object: oid,
                total_len: 100 * members.len() as u64,
                members,
            },
            addr: at,
            replica: None,
            checksum: 0,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut c = SuperTileCatalog::new();
        let id = c.next_id();
        c.register(entry(id, 7, &[1, 2], addr(0, 0)));
        assert_eq!(c.supertile_of(1).unwrap(), id);
        assert_eq!(c.supertile_of(2).unwrap(), id);
        assert!(c.supertile_of(3).is_err());
        assert_eq!(c.address(id).unwrap(), addr(0, 0));
        assert_eq!(c.object_supertiles(7), vec![id]);
        assert!(c.is_exported(7));
        assert!(!c.is_exported(8));
    }

    #[test]
    fn register_keeps_fresh_ids_above_reloaded_ones() {
        let mut c = SuperTileCatalog::new();
        c.register(entry(41, 7, &[1], addr(0, 0)));
        assert_eq!(c.next_id(), 42);
    }

    #[test]
    fn remove_object_frees_addresses() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(entry(a, 7, &[1], addr(3, 500)));
        assert_eq!(c.remove_object(7), vec![a]);
        assert!(c.is_empty());
        assert!(c.supertile_of(1).is_err());
        assert!(c.on_medium(3).is_empty());
    }

    #[test]
    fn remove_single_supertile() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        let b = c.next_id();
        c.register(entry(a, 7, &[1], addr(0, 0)));
        c.register(entry(b, 7, &[2], addr(0, 200)));
        c.remove_supertile(a).unwrap();
        assert_eq!(c.object_supertiles(7), vec![b]);
        assert_eq!(c.on_medium(0), vec![(b, addr(0, 200))]);
        assert!(c.remove_supertile(a).is_err());
    }

    #[test]
    fn removing_an_old_version_keeps_the_new_mapping() {
        let mut c = SuperTileCatalog::new();
        let old = c.next_id();
        let new = c.next_id();
        c.register(entry(old, 7, &[1, 2], addr(0, 0)));
        c.register(entry(new, 7, &[1, 2], addr(0, 200)));
        c.remove_supertile(old).unwrap();
        assert_eq!(c.supertile_of(1).unwrap(), new);
        assert_eq!(c.supertile_of(2).unwrap(), new);
    }

    #[test]
    fn replica_and_checksum_follow_supertile_lifecycle() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(CatalogEntry {
            replica: Some(addr(9, 777)),
            checksum: 0xDEAD,
            ..entry(a, 1, &[1], addr(0, 0))
        });
        let e = c.entry(a).unwrap();
        assert_eq!((e.replica, e.checksum), (Some(addr(9, 777)), 0xDEAD));
        c.remove_supertile(a).unwrap();
        assert!(c.entry(a).is_err());
        assert!(c.on_medium(9).is_empty());
    }

    #[test]
    fn remove_object_frees_replicas_too() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(CatalogEntry {
            replica: Some(addr(4, 0)),
            ..entry(a, 7, &[1], addr(3, 500))
        });
        assert_eq!(c.on_medium(4), vec![(a, addr(4, 0))]);
        c.remove_object(7);
        assert!(c.on_medium(3).is_empty() && c.on_medium(4).is_empty());
    }

    #[test]
    fn on_medium_sorted_by_offset() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        let b = c.next_id();
        let x = c.next_id();
        c.register(entry(a, 1, &[1], addr(0, 900)));
        c.register(entry(b, 2, &[2], addr(0, 100)));
        c.register(CatalogEntry {
            replica: Some(addr(0, 500)),
            ..entry(x, 3, &[3], addr(1, 0))
        });
        let on0 = c.on_medium(0);
        assert_eq!(
            on0.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![b, x, a]
        );
        assert_eq!(c.on_medium(1), vec![(x, addr(1, 0))]);
    }

    #[test]
    fn relocate_updates_address() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(CatalogEntry {
            replica: Some(addr(9, 777)),
            ..entry(a, 1, &[1], addr(0, 0))
        });
        c.relocate(a, addr(0, 0), addr(5, 123)).unwrap();
        c.relocate(a, addr(9, 777), addr(9, 0)).unwrap();
        let e = c.entry(a).unwrap();
        assert_eq!((e.addr, e.replica), (addr(5, 123), Some(addr(9, 0))));
        assert!(c.relocate(a, addr(0, 0), addr(1, 1)).is_err());
    }
}
