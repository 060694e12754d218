//! Maintenance of archived objects: delete, update, re-import, and media
//! reclamation (paper §3.6).
//!
//! Tapes are append-only: deleting or updating archived data leaves *dead
//! space* behind. Dead space is never booked by hand: a medium's dead
//! bytes are its used bytes minus the live copies (primary or replica)
//! the catalog lists on it. Updates rewrite super-tiles through the
//! export's archive write path. Compaction reads every live copy on a
//! medium back through the verified recovery ladder, and only when all of
//! them came back with a matching checksum erases the medium and rewrites
//! them back-to-back.

use crate::catalog::CatalogEntry;
use crate::error::{HeavenError, Result};
use crate::supertile::{decode_all, MemberEntry, SuperTileMeta};
use crate::system::Heaven;
use bytes::Bytes;
use heaven_array::{MDArray, ObjectId};
use heaven_tape::{MediumId, WritePayload};
use std::collections::HashMap;

impl Heaven {
    /// Dead bytes on a medium: bytes written minus the live copies the
    /// catalog lists there.
    pub fn dead_bytes_on(&self, medium: MediumId) -> u64 {
        let used = self.store().library().medium_used(medium).unwrap_or(0);
        let live: u64 = self
            .catalog
            .on_medium(medium)
            .iter()
            .map(|(_, a)| a.len)
            .sum();
        used.saturating_sub(live)
    }

    /// Dead fraction of a medium (`0.0` for an unused medium).
    pub fn dead_fraction(&self, medium: MediumId) -> f64 {
        let used = self.store().library().medium_used(medium).unwrap_or(0);
        if used == 0 {
            0.0
        } else {
            self.dead_bytes_on(medium) as f64 / used as f64
        }
    }

    /// Delete an object everywhere: DBMS tiles, super-tile catalog, caches
    /// and the precomputed-result catalog. Tertiary blocks become dead
    /// space.
    pub fn delete_object(&mut self, oid: ObjectId) -> Result<()> {
        let tiles: Vec<u64> = self
            .arraydb_mut()
            .object(oid)?
            .tiles
            .iter()
            .map(|&(_, t)| t)
            .collect();
        for t in &tiles {
            self.tile_cache.invalidate(*t);
        }
        for st in self.catalog.object_supertiles(oid) {
            self.st_cache.invalidate(st);
        }
        self.unregister_object(oid)?;
        self.precomp.invalidate_object(oid);
        self.arraydb_mut().delete_object(oid)?;
        Ok(())
    }

    /// Re-import an archived object: all its tiles return to secondary
    /// storage and its tertiary blocks become dead space.
    pub fn reimport_object(&mut self, oid: ObjectId) -> Result<()> {
        let sts = self.catalog.object_supertiles(oid);
        if sts.is_empty() {
            return Err(HeavenError::NotExported(oid));
        }
        let clock = self.clock();
        for st in sts {
            let payload = self.supertile_payload(&clock, st)?;
            for tile in decode_all(self.catalog.meta(st)?, &payload)? {
                self.arraydb_mut().restore_tile(&tile)?;
            }
            self.st_cache.invalidate(st);
        }
        self.unregister_object(oid)
    }

    /// Update archived data in place: cells of `patch` overwrite the
    /// overlapping region of `oid`. Affected super-tiles are re-written as
    /// new versions through the archive write path (old copies become
    /// dead space); affected disk tiles are patched directly. Precomputed
    /// results of the object are invalidated.
    pub fn update_region(&mut self, oid: ObjectId, patch: &MDArray) -> Result<()> {
        let meta = self.arraydb_mut().object(oid)?.clone();
        if meta.cell_type != patch.cell_type() {
            return Err(HeavenError::Config(format!(
                "update cell type {} does not match object {}",
                patch.cell_type().name(),
                meta.cell_type.name()
            )));
        }
        let affected = meta.tiles_intersecting(patch.domain());
        // Group affected exported tiles by super-tile.
        let mut by_st: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for tid in affected {
            self.tile_cache.invalidate(tid);
            match self.arraydb_mut().tile_location(tid)? {
                heaven_arraydb::TileLocation::Disk => {
                    let mut tile = self.arraydb_mut().read_tile(tid)?;
                    tile.data.patch(patch)?;
                    self.arraydb_mut().restore_tile(&tile)?;
                }
                heaven_arraydb::TileLocation::Exported => {
                    let st = self.catalog.supertile_of(tid)?;
                    by_st.entry(st).or_default().push(tid);
                }
            }
        }
        let clock = self.clock();
        for (st, _) in by_st {
            let payload = self.supertile_payload(&clock, st)?;
            let mut tiles = decode_all(self.catalog.meta(st)?, &payload)?;
            for t in tiles.iter_mut() {
                if t.domain().intersects(patch.domain()) {
                    t.data.patch(patch)?;
                }
            }
            // The new version is registered before the old one goes, so
            // a failed write leaves the old version readable.
            self.archive_supertile(oid, &tiles, meta.cell_type.size_bytes())?;
            self.unregister_supertile(st)?;
            self.st_cache.invalidate(st);
        }
        self.precomp.invalidate_object(oid);
        Ok(())
    }

    /// Disaster recovery: rebuild the super-tile catalog by *scanning the
    /// media themselves*. Super-tile blocks are self-describing (a run of
    /// tile records); segments that do not parse (foreign files) are
    /// skipped. A segment whose object, member directory and checksum
    /// equal an earlier-scanned copy on another medium is that copy's
    /// replica (dual-copy archival writes the same wire bytes twice). The
    /// recovered super-tiles are then registered in scan order of their
    /// first copies, a later version of a tile superseding an earlier one
    /// (updates append new blocks after the originals), with write-through
    /// persistence; their tiles are marked exported. Returns the number of
    /// super-tiles recovered.
    ///
    /// This is the last resort when both the in-memory catalog and its
    /// persisted tables are gone; a full archive scan costs real tape time
    /// (charged to the clock), exactly as it would in an installation.
    pub fn scavenge_catalog_from_media(&mut self) -> Result<usize> {
        self.engine.catalog = crate::catalog::SuperTileCatalog::new();
        self.catalog_store
            .clear(self.engine.adb.get_mut().database_mut())?;
        self.clear_caches();
        let media = self.store_mut().library().media_ids();
        let mut found: Vec<CatalogEntry> = Vec::new();
        let mut by_checksum: HashMap<u64, Vec<usize>> = HashMap::new();
        for medium in media {
            let segments = self.store_mut().library().medium_segments(medium)?;
            for (offset, len) in segments {
                let raw = self.store_mut().library_mut().read(medium, offset, len)?;
                let checksum = crate::supertile::checksum64(&raw);
                let Some((payload, members, object)) = decode_scavenged(self.config.compress, raw)
                else {
                    continue;
                };
                let addr = heaven_hsm::BlockAddress {
                    medium,
                    offset,
                    len,
                };
                let twins = by_checksum.entry(checksum).or_default();
                let primary = twins.iter().copied().find(|&i| {
                    let e = &found[i];
                    e.replica.is_none()
                        && e.addr.medium != medium
                        && e.meta.object == object
                        && e.meta.members == members
                });
                if let Some(i) = primary {
                    found[i].replica = Some(addr);
                    continue;
                }
                twins.push(found.len());
                found.push(CatalogEntry {
                    meta: SuperTileMeta {
                        id: self.engine.catalog.next_id(),
                        object,
                        total_len: payload.len() as u64,
                        members,
                    },
                    addr,
                    replica: None,
                    checksum,
                });
            }
        }
        let mut recovered = 0usize;
        let mut live_tiles: HashMap<u64, crate::supertile::SuperTileId> = HashMap::new();
        for entry in found {
            let st = entry.meta.id;
            for m in &entry.meta.members {
                if let Some(old_st) = live_tiles.insert(m.tile, st) {
                    // the older block is (partially) dead; drop it
                    // entirely if every member was superseded
                    let all_dead = self
                        .catalog
                        .meta(old_st)
                        .map(|om| {
                            om.members
                                .iter()
                                .all(|om| live_tiles.get(&om.tile) != Some(&old_st))
                        })
                        .unwrap_or(false);
                    if all_dead {
                        self.unregister_supertile(old_st)?;
                        recovered -= 1;
                    }
                }
            }
            self.register_supertile(entry)?;
            recovered += 1;
        }
        // Tiles found on media are exported (drop any stale disk copies).
        for (&tile, _) in live_tiles.iter() {
            if self.arraydb_mut().tile_location(tile).is_ok() {
                self.arraydb_mut().mark_exported(tile)?;
            }
        }
        Ok(recovered)
    }

    /// Compact a medium whose dead fraction exceeds `threshold`: read
    /// every live copy on it (primary or replica) through the verified
    /// recovery ladder, erase the medium, rewrite the copies back-to-back
    /// and relocate each in the catalog. A copy that cannot be read back
    /// with a matching checksum from either archive copy fails the call
    /// with its typed error before anything is erased. Returns the number
    /// of copies rewritten (0 when below the threshold).
    pub fn reclaim_medium(&mut self, medium: MediumId, threshold: f64) -> Result<usize> {
        if self.dead_fraction(medium) < threshold {
            return Ok(0);
        }
        let clock = self.clock();
        let live = self
            .catalog
            .on_medium(medium)
            .into_iter()
            .map(|(st, addr)| Ok((st, addr, self.read_verified(&clock, st, addr)?.0)))
            .collect::<Result<Vec<_>>>()?;
        let rewritten = live.len();
        self.store_mut().library_mut().erase_medium(medium)?;
        for (st, old, wire) in live {
            let new = self
                .store_mut()
                .write_to(medium, WritePayload::Real(wire))?;
            self.relocate_copy(st, old, new)?;
        }
        Ok(rewritten)
    }
}

/// Decode a scavenged wire segment without catalog metadata. Framed
/// payloads are self-describing (the header names the codec); unframed
/// bytes are tried as raw first — the adaptive encoder ships
/// incompressible payloads untagged — then as a legacy pre-frame RLE
/// stream. Every candidate must parse as a run of tile records to be
/// accepted, which is what rejects foreign segments and wrong guesses.
fn decode_scavenged(
    compress: bool,
    raw: Bytes,
) -> Option<(Bytes, Vec<MemberEntry>, heaven_array::ObjectId)> {
    if !compress {
        let (members, object) = parse_supertile_payload(&raw)?;
        return Some((raw, members, object));
    }
    if let Some(h) = heaven_array::codec::sniff_frame(&raw) {
        let (payload, _) = heaven_array::decode_wire(&raw, h.orig_len).ok()?;
        let (members, object) = parse_supertile_payload(&payload)?;
        return Some((payload, members, object));
    }
    if let Some((members, object)) = parse_supertile_payload(&raw) {
        return Some((raw, members, object));
    }
    let payload = Bytes::from(heaven_array::rle_decompress(&raw)?);
    let (members, object) = parse_supertile_payload(&payload)?;
    Some((payload, members, object))
}

/// Parse a buffer as a run of tile records; returns the member directory
/// and owning object, or `None` when the buffer is not a super-tile.
pub(crate) fn parse_supertile_payload(
    payload: &[u8],
) -> Option<(Vec<MemberEntry>, heaven_array::ObjectId)> {
    let mut members = Vec::new();
    let mut object = None;
    let mut off = 0usize;
    while off < payload.len() {
        let (tile, used) = heaven_array::Tile::decode(&payload[off..]).ok()?;
        match object {
            None => object = Some(tile.object),
            Some(o) if o != tile.object => return None,
            _ => {}
        }
        members.push(MemberEntry {
            tile: tile.id,
            domain: tile.domain().clone(),
            offset: off as u64,
            len: used as u64,
        });
        off += used;
    }
    if members.is_empty() {
        return None;
    }
    Some((members, object?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeavenConfig;
    use crate::export::ExportMode;
    use crate::supertile::{checksum64, encode_supertile};
    use heaven_array::{CellType, MDArray, Minterval, Point, Tiling};
    use heaven_arraydb::ArrayDb;
    use heaven_rdbms::Database;
    use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary, WritePayload};

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn build(compress: bool, gen: impl Fn(&Point) -> f64) -> (Heaven, ObjectId) {
        let clock = SimClock::new();
        let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
        let mut adb = ArrayDb::create(db).unwrap();
        adb.create_collection("m", CellType::U8, 2).unwrap();
        let arr = MDArray::generate(mi(&[(0, 31), (0, 31)]), CellType::U8, gen);
        let oid = adb
            .insert_object(
                "m",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![16, 16],
                },
            )
            .unwrap();
        let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
        let heaven = Heaven::new(
            adb,
            lib,
            HeavenConfig {
                supertile_bytes: Some(2048),
                compress,
                ..HeavenConfig::default()
            },
        );
        (heaven, oid)
    }

    /// Archives written by the pre-frame code are bare RLE streams with
    /// no header. Stage one by hand (the old writer's byte layout) and
    /// check both the hierarchy read path and the media scan decode it.
    #[test]
    fn legacy_untagged_rle_archive_still_decodes() {
        let (mut heaven, oid) = build(true, |_| 7.0);
        let tiles = heaven.arraydb_mut().object(oid).unwrap().tiles.clone();
        let tile_objs: Vec<_> = tiles
            .iter()
            .map(|&(_, t)| heaven.arraydb_mut().read_tile(t).unwrap())
            .collect();
        let st_id = heaven.engine.catalog.next_id();
        let (payload, meta) = encode_supertile(st_id, oid, &tile_objs);
        let wire = Bytes::from(heaven_array::codec::baseline::rle_compress(&payload));
        assert!(
            heaven_array::codec::sniff_frame(&wire).is_none(),
            "a legacy stream must not sniff as a frame"
        );
        assert_ne!(
            wire.len() as u64,
            meta.total_len,
            "legacy RLE of constant data must actually shrink"
        );
        let checksum = checksum64(&wire);
        let addr = heaven.store_mut().append(WritePayload::Real(wire)).unwrap();
        heaven
            .register_supertile(CatalogEntry {
                meta,
                addr,
                replica: None,
                checksum,
            })
            .unwrap();
        for &(_, t) in tiles.iter() {
            heaven.arraydb_mut().mark_exported(t).unwrap();
        }
        heaven.clear_caches();
        let back = heaven
            .fetch_region_hierarchical(oid, &mi(&[(0, 31), (0, 31)]))
            .unwrap();
        assert_eq!(back.sum(), 7.0 * 1024.0);

        // The media scan must also recognize the legacy stream.
        let recovered = heaven.scavenge_catalog_from_media().unwrap();
        assert_eq!(recovered, 1);
        heaven.clear_caches();
        let back = heaven
            .fetch_region_hierarchical(oid, &mi(&[(0, 31), (0, 31)]))
            .unwrap();
        assert_eq!(back.sum(), 7.0 * 1024.0);
    }

    /// The adaptive encoder ships incompressible payloads as untagged raw
    /// bytes; the media scan must recover those too (they parse directly,
    /// without a frame to announce the codec).
    #[test]
    fn scavenge_recovers_adaptive_archive() {
        let noise = |p: &Point| ((p.coord(0) * 37 + p.coord(1) * 101) % 251) as f64;
        let (mut heaven, oid) = build(true, noise);
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        let recovered = heaven.scavenge_catalog_from_media().unwrap();
        assert!(recovered > 0);
        heaven.clear_caches();
        let back = heaven
            .fetch_region_hierarchical(oid, &mi(&[(0, 31), (0, 31)]))
            .unwrap();
        for p in back.domain().iter_points() {
            assert_eq!(back.get_f64(&p).unwrap(), noise(&p));
        }
    }
}
