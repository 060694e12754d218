//! Logical schema: collections of MDD objects (paper §2.6.2).
//!
//! A *collection* is a named set of multidimensional objects sharing a cell
//! type and dimensionality; each *object* (MDD) has a spatial domain and a
//! set of tiles.

use heaven_array::{CellType, Minterval, ObjectId, TileId, Tiling};
use std::sync::Arc;

/// Identifier of a collection.
pub type CollectionId = u64;

/// Metadata of a collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    /// Id of the collection.
    pub id: CollectionId,
    /// Collection name (unique).
    pub name: String,
    /// Cell type of all member objects.
    pub cell_type: CellType,
    /// Dimensionality of all member objects.
    pub dim: usize,
    /// Member objects in insertion order.
    pub objects: Vec<ObjectId>,
}

/// Metadata of one MDD object.
///
/// `tiles` holds the output of `tiling.tile_domains(domain, cell_type)` in
/// its row-major grid order, paired with contiguous tile ids; this is what
/// [`tiles_in`](Self::tiles_in) and [`tile_domain`](Self::tile_domain)
/// index arithmetically. [`ObjectMeta::new`] is the one place that builds
/// it. The list sits behind an `Arc`, so cloning the metadata shares it.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// Object id.
    pub oid: ObjectId,
    /// Owning collection.
    pub collection: CollectionId,
    /// Spatial domain.
    pub domain: Minterval,
    /// Cell type.
    pub cell_type: CellType,
    /// The tiling used at insertion.
    pub tiling: Tiling,
    /// Tiles: `(domain, tile id)` pairs in grid row-major order.
    pub tiles: Arc<[(Minterval, TileId)]>,
}

impl ObjectMeta {
    /// Metadata of an object tiled by `tiling`, its tile ids counting up
    /// from `first_tile` in grid row-major order.
    pub fn new(
        oid: ObjectId,
        collection: CollectionId,
        domain: Minterval,
        cell_type: CellType,
        tiling: Tiling,
        first_tile: TileId,
    ) -> heaven_array::Result<ObjectMeta> {
        let tiles = tiling
            .tile_domains(&domain, cell_type)?
            .into_iter()
            .zip(first_tile..)
            .collect();
        Ok(ObjectMeta {
            oid,
            collection,
            domain,
            cell_type,
            tiling,
            tiles,
        })
    }

    /// Total cell-payload size of the object in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.domain.cell_count() * self.cell_type.size_bytes() as u64
    }

    /// Tiles whose domains intersect `region`, in grid row-major order.
    ///
    /// The grid range covering `region` is computed per axis from the tile
    /// shape, so the cost is proportional to the result, not to the
    /// object's tile count.
    pub fn tiles_in(&self, region: &Minterval) -> impl Iterator<Item = &(Minterval, TileId)> {
        let d = self.domain.dim();
        let shape = self
            .tiling
            .tile_shape(&self.domain, self.cell_type)
            .unwrap_or_default();
        // Per axis: the first and last grid index the region touches, and
        // the axis' row-major stride. Empty when the region misses.
        let mut axes: Vec<(u64, u64, u64)> = Vec::with_capacity(d);
        if region.dim() == d && shape.len() == d {
            let mut stride = 1;
            for i in (0..d).rev() {
                let dom = self.domain.axis(i);
                let Some(cut) = dom.intersect(&region.axis(i)) else {
                    axes.clear();
                    break;
                };
                let first = (cut.lo - dom.lo) as u64 / shape[i];
                let last = (cut.hi - dom.lo) as u64 / shape[i];
                axes.push((first, last, stride));
                stride *= dom.extent().div_ceil(shape[i]);
            }
            axes.reverse();
        }
        let mut cur = (!axes.is_empty()).then(|| axes.iter().map(|a| a.0).collect::<Vec<_>>());
        std::iter::from_fn(move || {
            let at = cur.as_mut()?;
            let idx: u64 = at.iter().zip(&axes).map(|(c, a)| c * a.2).sum();
            // Odometer step, last axis fastest: trailing axes at their last
            // index wrap to their first, the axis before them steps on.
            let stepped = at
                .iter_mut()
                .zip(&axes)
                .rev()
                .any(|(c, &(first, last, _))| {
                    if *c < last {
                        *c += 1;
                        true
                    } else {
                        *c = first;
                        false
                    }
                });
            if !stepped {
                cur = None;
            }
            Some(&self.tiles[idx as usize])
        })
    }

    /// Tile ids whose domains intersect `region`, in grid row-major order.
    pub fn tiles_intersecting(&self, region: &Minterval) -> Vec<TileId> {
        self.tiles_in(region).map(|&(_, id)| id).collect()
    }

    /// Domain of a tile of this object.
    pub fn tile_domain(&self, tile: TileId) -> Option<&Minterval> {
        let offset = tile.checked_sub(self.tiles.first()?.1)?;
        let (domain, _) = self.tiles.get(usize::try_from(offset).ok()?)?;
        Some(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_meta_queries() {
        let domain = Minterval::new(&[(0, 19), (0, 19)]).unwrap();
        let tiling = Tiling::Regular {
            tile_shape: vec![10, 10],
        };
        let tiles: Vec<(Minterval, TileId)> = tiling
            .tile_domains(&domain, CellType::F32)
            .unwrap()
            .into_iter()
            .zip(100..)
            .collect();
        let meta = ObjectMeta {
            oid: 7,
            collection: 1,
            domain,
            cell_type: CellType::F32,
            tiling,
            tiles: tiles.into(),
        };
        assert_eq!(meta.size_bytes(), 400 * 4);
        let q = Minterval::new(&[(5, 14), (0, 4)]).unwrap();
        assert_eq!(meta.tiles_intersecting(&q), vec![100, 102]);
        assert_eq!(
            meta.tile_domain(102),
            Some(&Minterval::new(&[(10, 19), (0, 9)]).unwrap())
        );
        assert_eq!(meta.tile_domain(999), None);
    }
}
