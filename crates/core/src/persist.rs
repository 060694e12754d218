//! Persistence of HEAVEN's super-tile catalog in the base RDBMS.
//!
//! The paper's HEAVEN keeps its tertiary-storage metadata (which super-tile
//! lives where, which tiles it contains) in the base RDBMS alongside
//! RasDaMan's catalogs, so a restarted server still knows its archive. We
//! mirror that: every catalog mutation writes through to a heap table
//! (fixed-size head row) plus a BLOB (the member directory), and
//! [`CatalogStore::load_all`] rebuilds the full catalog from disk.

use crate::catalog::CatalogEntry;
use crate::error::{HeavenError, Result};
use crate::supertile::{MemberEntry, SuperTileId, SuperTileMeta};
use heaven_array::Minterval;
use heaven_hsm::BlockAddress;
use heaven_rdbms::{BlobStore, Database, RowId, Table};
use std::collections::HashMap;

/// Write-through persistence for the super-tile catalog.
#[derive(Debug)]
pub(crate) struct CatalogStore {
    table: Table,
    blobs: BlobStore,
    rows: HashMap<SuperTileId, (RowId, u64 /* members blob */)>,
}

/// Fixed head row: [id, object, medium, offset, len, blob, checksum,
/// replica_medium, replica_offset, replica_len] as LE u64s. A replica
/// length of `u64::MAX` means "no second copy".
const ROW_LEN: usize = 8 * 10;

/// Sentinel replica length encoding "no second copy".
const NO_REPLICA: u64 = u64::MAX;

impl CatalogStore {
    /// Create the persistent structures.
    pub fn create(db: &mut Database) -> Result<CatalogStore> {
        Ok(CatalogStore {
            table: Table::create(db).map_err(wrap)?,
            blobs: BlobStore::create(db).map_err(wrap)?,
            rows: HashMap::new(),
        })
    }

    /// Persist a newly registered super-tile.
    pub fn insert(&mut self, db: &mut Database, e: &CatalogEntry) -> Result<()> {
        let members = encode_members(&e.meta.members);
        let blob = self.blobs.put(db, &members).map_err(wrap)?;
        let (rm, ro, rl) = match e.replica {
            Some(r) => (r.medium, r.offset, r.len),
            None => (0, 0, NO_REPLICA),
        };
        let row: Vec<u8> = [
            e.meta.id,
            e.meta.object,
            e.addr.medium,
            e.addr.offset,
            e.addr.len,
            blob,
            e.checksum,
            rm,
            ro,
            rl,
        ]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
        let rid = self.table.insert(db, &row).map_err(wrap)?;
        self.rows.insert(e.meta.id, (rid, blob));
        Ok(())
    }

    /// Remove a super-tile's persisted entry.
    pub fn remove(&mut self, db: &mut Database, st: SuperTileId) -> Result<()> {
        if let Some((rid, blob)) = self.rows.remove(&st) {
            self.table.delete(db, rid).map_err(wrap)?;
            self.blobs.delete(db, blob).map_err(wrap)?;
        }
        Ok(())
    }

    /// Rewrite a super-tile's persisted entry (after compaction moved
    /// one of its copies).
    pub fn update(&mut self, db: &mut Database, e: &CatalogEntry) -> Result<()> {
        self.remove(db, e.meta.id)?;
        self.insert(db, e)
    }

    /// Load every persisted super-tile (used after a restart/recovery).
    /// Also repopulates the row map so subsequent mutations keep working.
    pub fn load_all(&mut self, db: &mut Database) -> Result<Vec<CatalogEntry>> {
        self.rows.clear();
        let mut out = Vec::new();
        for (rid, row) in self.table.scan(db).map_err(wrap)? {
            if row.len() != ROW_LEN {
                return Err(HeavenError::Codec("bad catalog row length".into()));
            }
            let rd = |i: usize| u64::from_le_bytes(row[i * 8..(i + 1) * 8].try_into().unwrap());
            let (id, object, medium, offset, len, blob) =
                (rd(0), rd(1), rd(2), rd(3), rd(4), rd(5));
            let checksum = rd(6);
            let replica = if rd(9) == NO_REPLICA {
                None
            } else {
                Some(BlockAddress {
                    medium: rd(7),
                    offset: rd(8),
                    len: rd(9),
                })
            };
            let members = decode_members(&self.blobs.get(db, blob).map_err(wrap)?)?;
            let total_len = members.iter().map(|m| m.len).sum();
            self.rows.insert(id, (rid, blob));
            out.push(CatalogEntry {
                meta: SuperTileMeta {
                    id,
                    object,
                    members,
                    total_len,
                },
                addr: BlockAddress {
                    medium,
                    offset,
                    len,
                },
                replica,
                checksum,
            });
        }
        Ok(out)
    }

    /// Number of persisted entries tracked in this session.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Remove every persisted entry (before a scavenging rebuild).
    pub fn clear(&mut self, db: &mut Database) -> Result<()> {
        self.load_all(db)?;
        let ids: Vec<SuperTileId> = self.rows.keys().copied().collect();
        for id in ids {
            self.remove(db, id)?;
        }
        Ok(())
    }
}

fn wrap(e: heaven_rdbms::DbError) -> HeavenError {
    HeavenError::ArrayDb(heaven_arraydb::ArrayDbError::Db(e))
}

fn encode_members(members: &[MemberEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for m in members {
        out.extend_from_slice(&m.tile.to_le_bytes());
        out.extend_from_slice(&m.offset.to_le_bytes());
        out.extend_from_slice(&m.len.to_le_bytes());
        out.push(m.domain.dim() as u8);
        for ax in m.domain.axes() {
            out.extend_from_slice(&ax.lo.to_le_bytes());
            out.extend_from_slice(&ax.hi.to_le_bytes());
        }
    }
    out
}

fn decode_members(bytes: &[u8]) -> Result<Vec<MemberEntry>> {
    let bad = || HeavenError::Codec("bad member directory".into());
    if bytes.len() < 4 {
        return Err(bad());
    }
    let n = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut off = 4usize;
    let mut take = |k: usize| -> Result<&[u8]> {
        if bytes.len() < off + k {
            return Err(bad());
        }
        let s = &bytes[off..off + k];
        off += k;
        Ok(s)
    };
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tile = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let offset = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let len = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let d = take(1)?[0] as usize;
        let mut bounds = Vec::with_capacity(d);
        for _ in 0..d {
            let lo = i64::from_le_bytes(take(8)?.try_into().unwrap());
            let hi = i64::from_le_bytes(take(8)?.try_into().unwrap());
            bounds.push((lo, hi));
        }
        let domain = Minterval::new(&bounds).map_err(|_| bad())?;
        out.push(MemberEntry {
            tile,
            domain,
            offset,
            len,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn meta(id: SuperTileId) -> SuperTileMeta {
        SuperTileMeta {
            id,
            object: 5,
            members: vec![
                MemberEntry {
                    tile: 10,
                    domain: mi(&[(0, 9), (0, 9)]),
                    offset: 0,
                    len: 100,
                },
                MemberEntry {
                    tile: 11,
                    domain: mi(&[(0, 9), (10, 19)]),
                    offset: 100,
                    len: 150,
                },
            ],
            total_len: 250,
        }
    }

    fn addr(m: u64) -> BlockAddress {
        BlockAddress {
            medium: m,
            offset: 777,
            len: 250,
        }
    }

    fn entry(id: SuperTileId, at: u64, replica: Option<u64>, checksum: u64) -> CatalogEntry {
        CatalogEntry {
            meta: meta(id),
            addr: addr(at),
            replica: replica.map(addr),
            checksum,
        }
    }

    #[test]
    fn insert_load_roundtrip() {
        let mut db = Database::for_tests();
        let mut cs = CatalogStore::create(&mut db).unwrap();
        let (a, b) = (entry(1, 0, None, 0xFEED), entry(2, 3, Some(7), 42));
        cs.insert(&mut db, &a).unwrap();
        cs.insert(&mut db, &b).unwrap();
        let mut loaded = cs.load_all(&mut db).unwrap();
        loaded.sort_by_key(|e| e.meta.id);
        assert_eq!(loaded, vec![a, b]);
    }

    #[test]
    fn remove_drops_entry() {
        let mut db = Database::for_tests();
        let mut cs = CatalogStore::create(&mut db).unwrap();
        cs.insert(&mut db, &entry(1, 0, None, 0)).unwrap();
        cs.remove(&mut db, 1).unwrap();
        assert!(cs.load_all(&mut db).unwrap().is_empty());
        // idempotent
        cs.remove(&mut db, 1).unwrap();
    }

    #[test]
    fn update_addr_relocates() {
        let mut db = Database::for_tests();
        let mut cs = CatalogStore::create(&mut db).unwrap();
        cs.insert(&mut db, &entry(1, 0, Some(4), 11)).unwrap();
        let moved = entry(1, 9, Some(5), 11);
        cs.update(&mut db, &moved).unwrap();
        assert_eq!(cs.load_all(&mut db).unwrap(), vec![moved]);
    }

    #[test]
    fn mutations_work_after_reload() {
        let mut db = Database::for_tests();
        let mut cs = CatalogStore::create(&mut db).unwrap();
        cs.insert(&mut db, &entry(1, 0, None, 0)).unwrap();
        cs.load_all(&mut db).unwrap(); // rebuilds row map
        cs.remove(&mut db, 1).unwrap();
        assert!(cs.load_all(&mut db).unwrap().is_empty());
    }

    #[test]
    fn member_codec_roundtrip() {
        let members = meta(1).members;
        let enc = encode_members(&members);
        assert_eq!(decode_members(&enc).unwrap(), members);
        assert!(decode_members(&enc[..enc.len() - 1]).is_err());
        assert!(decode_members(&[1]).is_err());
    }
}
