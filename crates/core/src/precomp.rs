//! System catalog for precomputed operation results (paper §3.9).
//!
//! Condenser results over archived objects are expensive: they may stage
//! gigabytes from tape to add up numbers. HEAVEN memoizes them at two
//! granularities:
//!
//! * **exact**: every `(object, op, region) → value` a query computed is
//!   remembered and reused verbatim;
//! * **per-tile partials**: at export time HEAVEN can precompute each
//!   tile's partial aggregate; a later condenser whose region is exactly a
//!   union of whole tiles combines the partials *without touching tape at
//!   all* (condensers are distributive — see
//!   [`Condenser::combine`](heaven_array::Condenser::combine)).

use heaven_array::{Condenser, Minterval, ObjectId, TileId};
use heaven_arraydb::ObjectMeta;
use std::collections::HashMap;

/// Statistics of catalog usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecompStats {
    /// Exact-match reuses.
    pub exact_hits: u64,
    /// Tile-combination reuses.
    pub combine_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

/// The precomputed-result catalog.
#[derive(Debug, Default)]
pub struct PrecompCatalog {
    /// Exact results of past queries: `(oid, op) → region → value`,
    /// keyed per object so a lookup probes by `&Minterval` and an
    /// invalidation drops whole maps.
    exact: HashMap<(ObjectId, Condenser), HashMap<Minterval, f64>>,
    /// Per-tile partials: `(oid, op) → tile → (value, cell_count)`.
    tile_partials: HashMap<(ObjectId, Condenser), HashMap<TileId, (f64, u64)>>,
    stats: PrecompStats,
}

impl PrecompCatalog {
    /// Empty catalog.
    pub fn new() -> PrecompCatalog {
        PrecompCatalog::default()
    }

    /// Usage statistics.
    pub fn stats(&self) -> PrecompStats {
        self.stats
    }

    /// Number of exact entries.
    pub fn exact_len(&self) -> usize {
        self.exact.values().map(HashMap::len).sum()
    }

    /// Remember an exact result.
    pub fn record_exact(&mut self, oid: ObjectId, op: Condenser, region: Minterval, value: f64) {
        self.exact
            .entry((oid, op))
            .or_default()
            .insert(region, value);
    }

    /// Remember a tile's partial aggregate.
    pub fn record_tile_partial(
        &mut self,
        oid: ObjectId,
        op: Condenser,
        tile: TileId,
        value: f64,
        cells: u64,
    ) {
        self.tile_partials
            .entry((oid, op))
            .or_default()
            .insert(tile, (value, cells));
    }

    /// Try to answer `(meta.oid, op, region)` from the catalog.
    ///
    /// The combination path applies when `region` is exactly the union of
    /// whole tiles of `meta` with recorded partials.
    pub fn lookup(&mut self, meta: &ObjectMeta, op: Condenser, region: &Minterval) -> Option<f64> {
        let oid = meta.oid;
        if let Some(&v) = self.exact.get(&(oid, op)).and_then(|m| m.get(region)) {
            self.stats.exact_hits += 1;
            return Some(v);
        }
        if let Some(v) = self.try_combine(meta, op, region) {
            self.stats.combine_hits += 1;
            // promote to an exact entry for next time
            self.record_exact(oid, op, region.clone(), v);
            return Some(v);
        }
        self.stats.misses += 1;
        None
    }

    fn try_combine(&self, meta: &ObjectMeta, op: Condenser, region: &Minterval) -> Option<f64> {
        let partials = self.tile_partials.get(&(meta.oid, op))?;
        // All tiles intersecting the region must be fully contained in it
        // (region = union of whole tiles) and have recorded partials.
        let mut parts: Vec<(f64, u64)> = Vec::new();
        let mut covered: u64 = 0;
        for (dom, tid) in meta.tiles_in(region) {
            if !region.contains(dom) {
                return None; // partial tile: cannot combine
            }
            let &(v, n) = partials.get(tid)?;
            parts.push((v, n));
            covered += dom.cell_count();
        }
        if covered != region.cell_count() || parts.is_empty() {
            return None;
        }
        op.combine(&parts).ok()
    }

    /// Drop everything recorded for an object (delete/update invalidation,
    /// §3.6).
    pub fn invalidate_object(&mut self, oid: ObjectId) {
        for op in Condenser::ALL {
            self.exact.remove(&(oid, op));
            self.tile_partials.remove(&(oid, op));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::{CellType, Tiling};

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    /// 2x2 tile layout of object 7, tiles 10x10 with ids 1..=4 in
    /// row-major order; values: tile i has cells all equal i+1.
    fn layout() -> ObjectMeta {
        let tiling = Tiling::Regular {
            tile_shape: vec![10, 10],
        };
        ObjectMeta::new(7, 1, mi(&[(0, 19), (0, 19)]), CellType::F32, tiling, 1).unwrap()
    }

    fn other_object() -> ObjectMeta {
        ObjectMeta { oid: 8, ..layout() }
    }

    fn catalog_with_partials(op: Condenser) -> PrecompCatalog {
        let mut c = PrecompCatalog::new();
        for (i, (_, tid)) in layout().tiles.iter().enumerate() {
            let v = (i + 1) as f64;
            let partial = match op {
                Condenser::Sum => v * 100.0,
                Condenser::Avg => v,
                Condenser::Min | Condenser::Max => v,
                Condenser::CountNonZero => 100.0,
            };
            c.record_tile_partial(7, op, *tid, partial, 100);
        }
        c
    }

    #[test]
    fn exact_match_hit() {
        let mut c = PrecompCatalog::new();
        let r = mi(&[(0, 4), (0, 4)]);
        c.record_exact(7, Condenser::Avg, r.clone(), 3.5);
        assert_eq!(c.lookup(&layout(), Condenser::Avg, &r), Some(3.5));
        assert_eq!(c.stats().exact_hits, 1);
        // different op or object misses
        assert_eq!(c.lookup(&layout(), Condenser::Sum, &r), None);
        assert_eq!(c.lookup(&other_object(), Condenser::Avg, &r), None);
    }

    #[test]
    fn combines_whole_tile_unions() {
        let mut c = catalog_with_partials(Condenser::Avg);
        // left column = tiles 1 and 3 → avg of (1, 3) weighted equally = 2
        let region = mi(&[(0, 19), (0, 9)]);
        assert_eq!(c.lookup(&layout(), Condenser::Avg, &region), Some(2.0));
        assert_eq!(c.stats().combine_hits, 1);
        // promoted to exact
        assert_eq!(c.lookup(&layout(), Condenser::Avg, &region), Some(2.0));
        assert_eq!(c.stats().exact_hits, 1);
    }

    #[test]
    fn sum_combination() {
        let mut c = catalog_with_partials(Condenser::Sum);
        let whole = mi(&[(0, 19), (0, 19)]);
        assert_eq!(
            c.lookup(&layout(), Condenser::Sum, &whole),
            Some(100.0 + 200.0 + 300.0 + 400.0)
        );
    }

    #[test]
    fn partial_tile_regions_do_not_combine() {
        let mut c = catalog_with_partials(Condenser::Sum);
        let region = mi(&[(0, 14), (0, 9)]); // cuts tile 3 in half
        assert_eq!(c.lookup(&layout(), Condenser::Sum, &region), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn missing_partials_block_combination() {
        let mut c = PrecompCatalog::new();
        c.record_tile_partial(7, Condenser::Sum, 1, 100.0, 100);
        // tile 3 has no partial
        let region = mi(&[(0, 19), (0, 9)]);
        assert_eq!(c.lookup(&layout(), Condenser::Sum, &region), None);
    }

    #[test]
    fn invalidation_clears_object() {
        let mut c = catalog_with_partials(Condenser::Max);
        let whole = mi(&[(0, 19), (0, 19)]);
        assert_eq!(c.lookup(&layout(), Condenser::Max, &whole), Some(4.0));
        c.invalidate_object(7);
        assert_eq!(c.lookup(&layout(), Condenser::Max, &whole), None);
        assert_eq!(c.exact_len(), 0);
    }
}
