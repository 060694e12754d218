//! STAR — the Super-Tile Algorithm (paper §3.3.2).
//!
//! Input: an object's tiles (domains, sizes, grid coordinates) and a target
//! super-tile size. STAR linearizes the tile grid along a space-filling
//! curve (Hilbert by default — best locality) and greedily packs
//! consecutive runs of tiles into super-tiles up to the target size. The
//! result: spatially adjacent tiles share a super-tile, so a range query
//! touches few super-tiles, and those it touches are mostly useful data.

use heaven_array::{CellType, LinearOrder, Minterval, Tile, TileId};

/// Per-tile input to the partitioning algorithms.
#[derive(Debug, Clone)]
pub struct TileInfo {
    /// The tile's id.
    pub id: TileId,
    /// The tile's spatial domain.
    pub domain: Minterval,
    /// The tile's *encoded* size in bytes.
    pub bytes: u64,
    /// The tile's coordinate in the tile grid.
    pub grid: Vec<u64>,
}

impl TileInfo {
    /// A tile of `cell` cells over `domain`, sized as it is archived: the
    /// tile header plus its cells — the one super-tile layout size rule.
    pub fn encoded(id: TileId, domain: Minterval, cell: CellType, grid: Vec<u64>) -> TileInfo {
        let bytes =
            Tile::header_len(domain.dim()) as u64 + domain.cell_count() * cell.size_bytes() as u64;
        TileInfo {
            id,
            domain,
            bytes,
            grid,
        }
    }
}

/// A partition of tiles into super-tile groups: indices into the input
/// slice, groups in inter-cluster order, members in intra-cluster order.
pub type Partition = Vec<Vec<usize>>;

/// Partition tiles into super-tiles of at most `target_bytes` along the
/// given linearization order.
///
/// Guarantees:
/// * every input tile appears in exactly one group;
/// * groups never exceed `target_bytes` unless a single tile already does;
/// * group members are consecutive along the order (intra-super-tile
///   clustering), and groups follow each other along the order
///   (inter-super-tile clustering).
pub fn star_partition(
    tiles: &[TileInfo],
    grid_shape: &[u64],
    target_bytes: u64,
    order: LinearOrder,
) -> Partition {
    if tiles.is_empty() {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..tiles.len()).collect();
    idx.sort_by_key(|&i| order.key(&tiles[i].grid, grid_shape));
    pack_runs(tiles, &idx, target_bytes)
}

/// Greedily pack an ordered tile sequence into groups of at most
/// `target_bytes`.
pub fn pack_runs(tiles: &[TileInfo], ordered: &[usize], target_bytes: u64) -> Partition {
    let target = target_bytes.max(1);
    let mut groups: Partition = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_bytes: u64 = 0;
    for &i in ordered {
        let sz = tiles[i].bytes;
        if !current.is_empty() && current_bytes + sz > target {
            groups.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
        current.push(i);
        current_bytes += sz;
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// Number of groups of a partition that intersect `query` — the count of
/// super-tiles a query would have to fetch. The quality metric of both
/// STAR and eSTAR.
pub fn groups_touched(tiles: &[TileInfo], partition: &Partition, query: &Minterval) -> usize {
    partition
        .iter()
        .filter(|g| g.iter().any(|&i| tiles[i].domain.intersects(query)))
        .count()
}

/// Total bytes of the groups a query touches (fetched volume).
pub fn bytes_touched(tiles: &[TileInfo], partition: &Partition, query: &Minterval) -> u64 {
    partition
        .iter()
        .filter(|g| g.iter().any(|&i| tiles[i].domain.intersects(query)))
        .map(|g| g.iter().map(|&i| tiles[i].bytes).sum::<u64>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::{CellType, Tiling};

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    /// Build a regular 2-D tile set: grid `gx x gy`, each tile `tile_bytes`.
    fn tile_set(gx: u64, gy: u64, edge: i64, tile_bytes: u64) -> (Vec<TileInfo>, Vec<u64>) {
        let dom = mi(&[(0, gx as i64 * edge - 1), (0, gy as i64 * edge - 1)]);
        let tiling = Tiling::Regular {
            tile_shape: vec![edge as u64, edge as u64],
        };
        let domains = tiling.tile_domains(&dom, CellType::U8).unwrap();
        let (grid, shape) = tiling.tile_grid(&dom, CellType::U8).unwrap();
        let tiles = domains
            .into_iter()
            .zip(grid)
            .enumerate()
            .map(|(i, (domain, grid))| TileInfo {
                id: i as TileId,
                domain,
                bytes: tile_bytes,
                grid,
            })
            .collect();
        (tiles, shape)
    }

    #[test]
    fn every_tile_in_exactly_one_group() {
        let (tiles, shape) = tile_set(8, 8, 10, 100);
        let p = star_partition(&tiles, &shape, 350, LinearOrder::Hilbert);
        let mut seen = vec![0u32; tiles.len()];
        for g in &p {
            for &i in g {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn groups_respect_size_target() {
        let (tiles, shape) = tile_set(8, 8, 10, 100);
        let p = star_partition(&tiles, &shape, 350, LinearOrder::Hilbert);
        for g in &p {
            let sz: u64 = g.iter().map(|&i| tiles[i].bytes).sum();
            assert!(sz <= 350);
        }
        // 64 tiles * 100 B at 350 B target → 3 tiles per group → 22 groups
        assert_eq!(p.len(), 64_usize.div_ceil(3));
    }

    #[test]
    fn oversized_single_tile_gets_own_group() {
        let tiles = vec![
            TileInfo {
                id: 0,
                domain: mi(&[(0, 9)]),
                bytes: 1000,
                grid: vec![0],
            },
            TileInfo {
                id: 1,
                domain: mi(&[(10, 19)]),
                bytes: 10,
                grid: vec![1],
            },
        ];
        let p = star_partition(&tiles, &[2], 100, LinearOrder::RowMajor);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], vec![0]);
    }

    #[test]
    fn hilbert_beats_row_major_on_square_queries() {
        // 16x16 grid, 4 tiles per super-tile. Square queries touch fewer
        // Hilbert groups than row-major groups on average.
        let (tiles, shape) = tile_set(16, 16, 10, 100);
        let hilbert = star_partition(&tiles, &shape, 400, LinearOrder::Hilbert);
        let rowmajor = star_partition(&tiles, &shape, 400, LinearOrder::RowMajor);
        let mut h_total = 0usize;
        let mut r_total = 0usize;
        for qx in 0..6 {
            for qy in 0..6 {
                // 3x3-tile square query
                let q = mi(&[(qx * 25, qx * 25 + 29), (qy * 25, qy * 25 + 29)]);
                h_total += groups_touched(&tiles, &hilbert, &q);
                r_total += groups_touched(&tiles, &rowmajor, &q);
            }
        }
        assert!(
            h_total < r_total,
            "hilbert {h_total} should beat row-major {r_total}"
        );
    }

    #[test]
    fn empty_input_yields_empty_partition() {
        let p = star_partition(&[], &[0], 100, LinearOrder::Hilbert);
        assert!(p.is_empty());
    }

    #[test]
    fn bytes_touched_counts_whole_groups() {
        let (tiles, shape) = tile_set(4, 4, 10, 100);
        let p = star_partition(&tiles, &shape, 400, LinearOrder::Hilbert);
        let q = mi(&[(0, 9), (0, 9)]); // single tile
        let bt = bytes_touched(&tiles, &p, &q);
        assert_eq!(bt, 400, "fetches the whole 4-tile super-tile");
    }
}
