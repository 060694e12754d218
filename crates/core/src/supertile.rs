//! Super-tiles: HEAVEN's unit of tertiary-storage transfer (paper §3.3).
//!
//! Tiles — the DBMS access unit, megabytes — are far too small to read from
//! tape individually: every access would pay a locate of tens of seconds.
//! A *super-tile* groups many spatially adjacent tiles into one block of
//! typically hundreds of megabytes, so a single locate amortizes over all
//! member tiles. The serialized form carries a directory so an individual
//! member tile can be cut out of the raw bytes without decoding the rest.

use crate::error::{HeavenError, Result};
use bytes::{Bytes, BytesMut};
use heaven_array::{Minterval, ObjectId, Tile, TileId};

/// Identifier of a super-tile.
pub type SuperTileId = u64;

/// Directory entry for one member tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberEntry {
    /// The member tile.
    pub tile: TileId,
    /// The tile's spatial domain.
    pub domain: Minterval,
    /// Byte offset of the tile's encoding within the super-tile payload.
    pub offset: u64,
    /// Length of the tile's encoding.
    pub len: u64,
}

/// Metadata of a super-tile (kept in HEAVEN's catalog; the payload lives on
/// tertiary storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperTileMeta {
    /// Super-tile id.
    pub id: SuperTileId,
    /// Owning object.
    pub object: ObjectId,
    /// Member directory, in intra-super-tile cluster order.
    pub members: Vec<MemberEntry>,
    /// Total payload size in bytes.
    pub total_len: u64,
}

impl SuperTileMeta {
    /// Bounding box of all member tiles.
    pub fn bounding_box(&self) -> Option<Minterval> {
        let mut it = self.members.iter();
        let first = it.next()?.domain.clone();
        Some(it.fold(first, |acc, m| acc.hull(&m.domain).expect("same dim")))
    }

    /// The member entry of a tile.
    pub fn member(&self, tile: TileId) -> Option<&MemberEntry> {
        self.members.iter().find(|m| m.tile == tile)
    }
}

/// Serialize a run of tiles into a super-tile payload; returns the bytes
/// and the member directory (offsets into those bytes). All member tiles
/// are packed into one allocation via [`Tile::encode_into`].
pub fn encode_supertile(
    id: SuperTileId,
    object: ObjectId,
    tiles: &[Tile],
) -> (Bytes, SuperTileMeta) {
    let total: usize = tiles.iter().map(|t| t.encoded_len()).sum();
    let mut payload = BytesMut::with_capacity(total);
    let mut members = Vec::with_capacity(tiles.len());
    for t in tiles {
        let offset = payload.len() as u64;
        t.encode_into(&mut payload);
        members.push(MemberEntry {
            tile: t.id,
            domain: t.domain().clone(),
            offset,
            len: payload.len() as u64 - offset,
        });
    }
    let meta = SuperTileMeta {
        id,
        object,
        total_len: payload.len() as u64,
        members,
    };
    (payload.freeze(), meta)
}

/// Cut one member tile out of a full super-tile payload — zero-copy: the
/// returned tile's `MDArray` borrows a refcounted sub-range of `payload`
/// (copy-on-write on mutation).
pub fn decode_member(meta: &SuperTileMeta, payload: &Bytes, tile: TileId) -> Result<Tile> {
    let entry = meta.member(tile).ok_or(HeavenError::TileUnlocated(tile))?;
    let start = entry.offset as usize;
    let end = start + entry.len as usize;
    if end > payload.len() {
        return Err(HeavenError::Codec(format!(
            "member {tile} extends past payload ({} > {})",
            end,
            payload.len()
        )));
    }
    let (t, used) = Tile::decode_shared(payload, start)?;
    if used != entry.len as usize || t.id != tile {
        return Err(HeavenError::Codec(format!(
            "member {tile} decoded inconsistently"
        )));
    }
    Ok(t)
}

/// Decode all member tiles of a payload (each shares the payload buffer).
pub fn decode_all(meta: &SuperTileMeta, payload: &Bytes) -> Result<Vec<Tile>> {
    meta.members
        .iter()
        .map(|m| decode_member(meta, payload, m.tile))
        .collect()
}

/// 64-bit FNV-1a checksum of a super-tile **wire** payload (the exact
/// bytes written to the medium, after optional compression). Computed
/// once at export, stored in the catalog, and verified on every full
/// super-tile fetch; a mismatch means the medium (or the read path)
/// silently corrupted the data, and the fetch falls back to the replica.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::{CellType, MDArray, Point};

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn make_tiles() -> Vec<Tile> {
        (0..4)
            .map(|i| {
                let dom = mi(&[(i * 10, i * 10 + 9), (0, 9)]);
                let data = MDArray::generate(dom, CellType::I32, |p| {
                    (p.coord(0) * 1000 + p.coord(1)) as f64
                });
                Tile::new(100 + i as u64, 7, data)
            })
            .collect()
    }

    #[test]
    fn encode_then_decode_members() {
        let tiles = make_tiles();
        let (payload, meta) = encode_supertile(1, 7, &tiles);
        assert_eq!(meta.total_len as usize, payload.len());
        assert_eq!(meta.members.len(), 4);
        for t in &tiles {
            let back = decode_member(&meta, &payload, t.id).unwrap();
            assert_eq!(&back, t);
        }
        let all = decode_all(&meta, &payload).unwrap();
        assert_eq!(all, tiles);
    }

    #[test]
    fn member_offsets_are_contiguous() {
        let tiles = make_tiles();
        let (_, meta) = encode_supertile(1, 7, &tiles);
        let mut expect = 0u64;
        for m in &meta.members {
            assert_eq!(m.offset, expect);
            expect += m.len;
        }
        assert_eq!(expect, meta.total_len);
    }

    #[test]
    fn bounding_box_spans_members() {
        let tiles = make_tiles();
        let (_, meta) = encode_supertile(1, 7, &tiles);
        assert_eq!(meta.bounding_box(), Some(mi(&[(0, 39), (0, 9)])));
    }

    #[test]
    fn decode_missing_member_fails() {
        let tiles = make_tiles();
        let (payload, meta) = encode_supertile(1, 7, &tiles);
        assert!(matches!(
            decode_member(&meta, &payload, 999),
            Err(HeavenError::TileUnlocated(999))
        ));
    }

    #[test]
    fn decode_with_truncated_payload_fails() {
        let tiles = make_tiles();
        let (payload, meta) = encode_supertile(1, 7, &tiles);
        let last = meta.members.last().unwrap().tile;
        let truncated = payload.slice(0..payload.len() - 1);
        assert!(decode_member(&meta, &truncated, last).is_err());
    }

    #[test]
    fn decoded_members_share_the_payload_buffer() {
        let tiles = make_tiles();
        let (payload, meta) = encode_supertile(1, 7, &tiles);
        let all = decode_all(&meta, &payload).unwrap();
        for t in &all {
            assert!(t.data.is_shared(), "member payload must alias the buffer");
        }
        // one Bytes handle per member + the payload itself
        assert_eq!(payload.ref_count(), 1 + all.len());
    }

    #[test]
    fn member_cells_survive_roundtrip() {
        let tiles = make_tiles();
        let (payload, meta) = encode_supertile(1, 7, &tiles);
        let t = decode_member(&meta, &payload, 102).unwrap();
        assert_eq!(t.data.get_f64(&Point::new(vec![25, 3])).unwrap(), 25003.0);
    }

    #[test]
    fn checksum_catches_any_single_bit_flip() {
        let (payload, _) = encode_supertile(1, 7, &make_tiles());
        let base = checksum64(&payload);
        assert_eq!(base, checksum64(&payload), "deterministic");
        let mut buf = payload.to_vec();
        for bit in [0usize, 7, 63, buf.len() * 8 - 1] {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&buf), base, "bit {bit} flip undetected");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
