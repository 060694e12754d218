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

/// 64-bit checksum of a super-tile **wire** payload (the exact bytes
/// written to the medium, after optional compression). Computed once at
/// export, stored in the catalog, and verified on every full super-tile
/// fetch; a mismatch means the medium (or the read path) silently
/// corrupted the data, and the fetch falls back to the replica.
///
/// A word-parallel hash in the style of xxHash64 (not bit-compatible
/// with it): four independent lanes each absorb one little-endian `u64`
/// of every 32-byte stripe, so the multiplies pipeline instead of
/// forming one dependent chain per byte. The lanes are folded into a
/// state seeded with the payload length, the tail (< 32 bytes) is folded
/// one byte at a time, and an xor-shift/multiply avalanche finishes.
///
/// **Detection guarantee.** Every step is a bijection of the state for
/// a fixed input and injective in its input (odd multipliers, rotations,
/// xor and addition are all invertible mod 2^64). A corruption confined
/// to one 8-byte stripe word or one tail byte therefore changes that
/// lane or state, and no later step can map two states to one, so the
/// checksum always changes. The tape fault model flips exactly one bit,
/// so every injected corruption is caught with certainty.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    fn round(acc: u64, w: u64) -> u64 {
        acc.wrapping_add(w.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (i, acc) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(stripe[8 * i..8 * i + 8].try_into().unwrap());
            *acc = round(*acc, w);
        }
    }
    let mut h = (bytes.len() as u64).wrapping_add(P5);
    for acc in lanes {
        h = (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
    }
    for &b in stripes.remainder() {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
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
        assert_eq!(checksum64(&payload), checksum64(&payload), "deterministic");
        assert_bit_flips_detected(&payload, 1);
    }

    /// Seeded noise, so no byte pattern hides a weak step.
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    fn assert_bit_flips_detected(payload: &[u8], stride: usize) {
        let base = checksum64(payload);
        let mut buf = payload.to_vec();
        for bit in (0..buf.len() * 8).step_by(stride) {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                checksum64(&buf),
                base,
                "bit {bit} flip undetected at len {}",
                buf.len()
            );
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_catches_every_bit_flip_at_every_short_length() {
        // 0..=80 covers empty input, tail-only inputs, whole stripes and
        // stripes followed by every tail length.
        for len in 0..=80 {
            assert_bit_flips_detected(&noise(len), 1);
        }
    }

    #[test]
    fn checksum_catches_every_bit_flip_in_a_32k_payload() {
        // Every one of the 262144 flips in release (about a second;
        // `scripts/ci.sh` runs it). Unoptimised builds hash some 50x
        // slower, so they flip every 97th bit: 97 is coprime to the
        // 256-bit stripe, so that still reaches every lane and every bit
        // position within a word, in stripes all along the payload.
        let stride = if cfg!(debug_assertions) { 97 } else { 1 };
        assert_bit_flips_detected(&noise(32 << 10), stride);
    }

    #[test]
    fn checksum_catches_paired_top_bit_flips_in_one_lane() {
        // Bit 63 of lane 1's words in stripes 0 and 1. A bare
        // `(h ^ w) * K` word hash carries a top-bit flip through the
        // multiply unchanged, so the second flip would cancel the first.
        let payload = noise(96);
        let mut buf = payload.clone();
        buf[8 + 7] ^= 0x80;
        buf[32 + 8 + 7] ^= 0x80;
        assert_ne!(checksum64(&buf), checksum64(&payload));
    }

    #[test]
    fn checksum_covers_the_length() {
        for len in [0, 5, 32, 37] {
            let payload = noise(len);
            let mut longer = payload.clone();
            longer.push(0);
            assert_ne!(checksum64(&longer), checksum64(&payload), "len {len}");
        }
    }

    #[test]
    fn checksum_golden_value() {
        // Pins the function: catalogued checksums are compared across
        // export and every later read, so any change to it must be
        // deliberate.
        let ramp: Vec<u8> = (0..100u8).collect();
        assert_eq!(checksum64(&ramp), 0xa82d_c655_3687_00f1);
    }
}
