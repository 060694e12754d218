//! `TileProvider` — the storage-hierarchy abstraction under the executor.
//!
//! The query executor does not care *where* tiles live. [`crate::ArrayDb`]
//! serves them from secondary storage only; HEAVEN implements the same
//! trait but resolves exported tiles through its cache hierarchy and the
//! tertiary-storage system. This is the seam that makes queries
//! transparent across the whole hierarchy (paper goal 1, §1.3).

use crate::error::Result;
use crate::schema::ObjectMeta;
use crate::storage::ArrayDb;
use heaven_array::mdd::copy_region;
use heaven_array::{Condenser, Frame, MDArray, Minterval, ObjectId};

/// The callback of [`TileProvider::visit_region`]: `f(clip, src)` for one
/// tile piece, where `src`'s domain contains `clip`.
pub type Visitor<'a> = dyn FnMut(&Minterval, &MDArray) -> heaven_array::Result<()> + 'a;

/// Call `f(clip, src)` with `clip` = `src`'s domain ∩ `region`, if they
/// meet. A tile inside the region is its own clip; an edge tile's clip
/// is built in `scratch`, so a caller visiting many tiles reuses one
/// buffer.
pub fn visit_clip(
    region: &Minterval,
    src: &MDArray,
    scratch: &mut Minterval,
    f: &mut Visitor,
) -> heaven_array::Result<()> {
    if region.contains(src.domain()) {
        f(src.domain(), src)
    } else if src.domain().intersect_into(region, scratch) {
        f(scratch, src)
    } else {
        Ok(())
    }
}

/// Source of object metadata and cell data for the query executor.
///
/// Cell data comes out two ways. [`Self::fetch_region`] materializes a
/// region into one array. [`Self::visit_region`] hands out the region
/// tile piece by tile piece, in grid (row-major tile) order, so a
/// consumer that folds (a condenser) needs no assembly buffer and no
/// copy. The two are defined in terms of each other only one way: the
/// default visitor assembles through `fetch_region`, which every provider
/// implements.
pub trait TileProvider {
    /// Metadata of an object.
    fn object_meta(&self, oid: ObjectId) -> Result<ObjectMeta>;

    /// Object ids of a collection, in insertion order.
    fn collection_objects(&self, name: &str) -> Result<Vec<ObjectId>>;

    /// Materialize the sub-array of `oid` covering `region` (clipped to the
    /// object domain).
    fn fetch_region(&mut self, oid: ObjectId, region: &Minterval) -> Result<MDArray>;

    /// Visit `region` of `oid` (clipped to the object domain): call
    /// `f(clip, src)` once per object tile that meets the region, in grid
    /// order, where `clip` is the tile's domain ∩ region and `src` is any
    /// array whose domain contains `clip`. A fold over the visits sees the
    /// region's cells in one canonical sequence whatever the provider.
    ///
    /// Default: assemble through [`Self::fetch_region`], then visit that
    /// array's clips in the same order.
    fn visit_region(&mut self, oid: ObjectId, region: &Minterval, f: &mut Visitor) -> Result<()> {
        let meta = self.object_meta(oid)?;
        let whole = self.fetch_region(oid, region)?;
        for (dom, _) in meta.tiles_in(whole.domain()) {
            if let Some(clip) = dom.intersection(whole.domain()) {
                f(&clip, &whole)?;
            }
        }
        Ok(())
    }

    /// Materialize the cells of a frame into its bounding box (cells outside
    /// the frame are zero). Default: visit box by box, copying each clip
    /// straight into the bounding box.
    fn fetch_frame(&mut self, oid: ObjectId, frame: &Frame) -> Result<MDArray> {
        let meta = self.object_meta(oid)?;
        let clipped = frame.clip(&meta.domain);
        let bbox = clipped.bounding_box().ok_or_else(|| {
            crate::error::ArrayDbError::Semantic("frame outside object domain".into())
        })?;
        let mut out = MDArray::zeros(bbox, meta.cell_type);
        for b in clipped.boxes() {
            self.visit_region(oid, b, &mut |clip, src| copy_region(src, &mut out, clip))?;
        }
        Ok(out)
    }

    /// Hook for the precomputed-operation catalog (paper §3.9): return a
    /// memoized condenser result for `(oid, op, region)` if one exists.
    fn precomputed(&mut self, _oid: ObjectId, _op: Condenser, _region: &Minterval) -> Option<f64> {
        None
    }

    /// Notify the provider of a freshly computed condenser result, so it
    /// may be memoized. Default: discard.
    fn note_computed(&mut self, _oid: ObjectId, _op: Condenser, _region: &Minterval, _value: f64) {}

    /// Hook called by the executor when a query starts, with a short
    /// human-readable label. Providers with an observability layer open
    /// their per-query bracket here (root trace span, counter snapshot).
    /// Default: ignore.
    fn query_begin(&mut self, _label: &str) {}

    /// Hook called by the executor when the query finishes (on success
    /// *and* on error), closing whatever [`Self::query_begin`] opened.
    /// Default: ignore.
    fn query_end(&mut self) {}
}

impl TileProvider for ArrayDb {
    fn object_meta(&self, oid: ObjectId) -> Result<ObjectMeta> {
        self.object(oid).cloned()
    }

    fn collection_objects(&self, name: &str) -> Result<Vec<ObjectId>> {
        Ok(self.collection(name)?.objects.clone())
    }

    fn fetch_region(&mut self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        self.read_subarray(oid, region)
    }

    fn visit_region(&mut self, oid: ObjectId, region: &Minterval, f: &mut Visitor) -> Result<()> {
        self.visit_subarray(oid, region, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::{CellType, Point, Tiling};

    #[test]
    fn arraydb_provider_fetches_regions_and_frames() {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("c", CellType::I32, 2).unwrap();
        let dom = Minterval::new(&[(0, 19), (0, 19)]).unwrap();
        let arr = MDArray::generate(dom, CellType::I32, |p| {
            (p.coord(0) * 100 + p.coord(1)) as f64
        });
        let oid = adb
            .insert_object(
                "c",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![10, 10],
                },
            )
            .unwrap();
        assert_eq!(adb.collection_objects("c").unwrap(), vec![oid]);
        let region = Minterval::new(&[(5, 6), (5, 6)]).unwrap();
        let sub = adb.fetch_region(oid, &region).unwrap();
        assert_eq!(sub.get_f64(&Point::new(vec![5, 6])).unwrap(), 506.0);

        // L-frame fetch
        let f = Frame::from_box(Minterval::new(&[(0, 19), (0, 4)]).unwrap())
            .union(&Frame::from_box(
                Minterval::new(&[(15, 19), (0, 19)]).unwrap(),
            ))
            .unwrap();
        let got = adb.fetch_frame(oid, &f).unwrap();
        // inside the frame: real data
        assert_eq!(got.get_f64(&Point::new(vec![17, 10])).unwrap(), 1710.0);
        assert_eq!(got.get_f64(&Point::new(vec![3, 2])).unwrap(), 302.0);
        // outside the frame but inside bbox: zero
        assert_eq!(got.get_f64(&Point::new(vec![3, 10])).unwrap(), 0.0);
    }
}
