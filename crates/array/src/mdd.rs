//! `MDArray` — a dense multidimensional array (RasDaMan's "MDD object").
//!
//! An `MDArray` pairs a [`Minterval`] domain with a typed dense buffer in
//! row-major cell order. Tiles are themselves small `MDArray`s; full objects
//! in the DBMS are materialized into `MDArray`s only when needed (query
//! results, generated test data).
//!
//! The cell buffer is copy-on-write: an array can *own* its bytes
//! (`Vec<u8>`) or *share* a refcounted slice of a larger buffer
//! ([`Bytes`]), e.g. a staged super-tile payload. Reads work identically on
//! both; the first mutation of a shared buffer detaches a private copy, so
//! sibling tiles cut from the same super-tile never observe each other's
//! writes.

use crate::domain::{Minterval, Point};
use crate::error::{ArrayError, Result};
use crate::value::{CellType, CellValue};
use bytes::Bytes;

/// The copy-on-write cell buffer.
#[derive(Debug, Clone)]
enum Buf {
    /// Privately owned bytes (mutable in place).
    Owned(Vec<u8>),
    /// Refcounted view into a shared buffer (e.g. a super-tile payload).
    Shared(Bytes),
}

impl Buf {
    fn as_slice(&self) -> &[u8] {
        match self {
            Buf::Owned(v) => v,
            Buf::Shared(b) => b,
        }
    }

    /// Mutable access; detaches a private copy first when shared.
    /// Returns the bytes that had to be copied to unshare (0 when the
    /// buffer was already owned).
    fn make_mut(&mut self) -> (&mut [u8], u64) {
        let copied = match self {
            Buf::Owned(_) => 0,
            Buf::Shared(b) => {
                let v = b.to_vec();
                let n = v.len() as u64;
                *self = Buf::Owned(v);
                n
            }
        };
        match self {
            Buf::Owned(v) => (v, copied),
            Buf::Shared(_) => unreachable!("unshared above"),
        }
    }
}

/// A dense multidimensional array with inclusive-bounds domain.
#[derive(Debug, Clone)]
pub struct MDArray {
    domain: Minterval,
    cell_type: CellType,
    /// Row-major (last axis fastest) little-endian cell buffer.
    data: Buf,
}

/// Equality is by domain, type and cell contents — ownership of the
/// buffer (owned vs. shared) is invisible.
impl PartialEq for MDArray {
    fn eq(&self, other: &MDArray) -> bool {
        self.domain == other.domain
            && self.cell_type == other.cell_type
            && self.bytes() == other.bytes()
    }
}

impl MDArray {
    /// Create a zero-filled array.
    pub fn zeros(domain: Minterval, cell_type: CellType) -> MDArray {
        let len = domain.cell_count() as usize * cell_type.size_bytes();
        MDArray {
            domain,
            cell_type,
            data: Buf::Owned(vec![0u8; len]),
        }
    }

    /// Create from an existing raw buffer (must be exactly the right size).
    pub fn from_bytes(domain: Minterval, cell_type: CellType, data: Vec<u8>) -> Result<MDArray> {
        Self::check_len(&domain, cell_type, data.len())?;
        Ok(MDArray {
            domain,
            cell_type,
            data: Buf::Owned(data),
        })
    }

    /// Create over a shared, refcounted buffer slice **without copying**.
    /// The array is read-only until the first mutation, which detaches a
    /// private copy (copy-on-write).
    pub fn from_shared(domain: Minterval, cell_type: CellType, data: Bytes) -> Result<MDArray> {
        Self::check_len(&domain, cell_type, data.len())?;
        Ok(MDArray {
            domain,
            cell_type,
            data: Buf::Shared(data),
        })
    }

    fn check_len(domain: &Minterval, cell_type: CellType, got: usize) -> Result<()> {
        let expected = domain.cell_count() as usize * cell_type.size_bytes();
        if got != expected {
            return Err(ArrayError::BufferSize { expected, got });
        }
        Ok(())
    }

    /// Create by evaluating `f` at every point of the domain.
    pub fn generate<F>(domain: Minterval, cell_type: CellType, mut f: F) -> MDArray
    where
        F: FnMut(&Point) -> f64,
    {
        let mut arr = MDArray::zeros(domain.clone(), cell_type);
        let (buf, _) = arr.data.make_mut();
        let mut p = domain.lo();
        for i in 0..domain.cell_count() as usize {
            CellValue::from_f64(cell_type, f(&p))
                .write(buf, i)
                .expect("buffer sized for domain");
            domain.advance(&mut p);
        }
        arr
    }

    /// The array's spatial domain.
    pub fn domain(&self) -> &Minterval {
        &self.domain
    }

    /// The array's cell type.
    pub fn cell_type(&self) -> CellType {
        self.cell_type
    }

    /// Raw cell buffer.
    pub fn bytes(&self) -> &[u8] {
        self.data.as_slice()
    }

    /// Consume into the raw cell buffer (copies only if shared).
    pub fn into_bytes(self) -> Vec<u8> {
        match self.data {
            Buf::Owned(v) => v,
            Buf::Shared(b) => b.to_vec(),
        }
    }

    /// Whether the buffer is a shared (copy-on-write) view.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Buf::Shared(_))
    }

    /// Convert an owned buffer into a shared one in O(1) (no copy), so
    /// subsequent `clone`s are refcount bumps instead of deep copies.
    /// No-op when already shared.
    pub fn freeze_payload(&mut self) {
        if let Buf::Owned(v) = &mut self.data {
            let v = std::mem::take(v);
            self.data = Buf::Shared(Bytes::from(v));
        }
    }

    /// The shared handle when the buffer is shared (refcount bump, no copy).
    pub fn shared_bytes(&self) -> Option<Bytes> {
        match &self.data {
            Buf::Shared(b) => Some(b.clone()),
            Buf::Owned(_) => None,
        }
    }

    /// Size of the cell buffer in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.data.as_slice().len() as u64
    }

    /// Read the cell at `p`.
    pub fn get(&self, p: &Point) -> Result<CellValue> {
        let off = self.domain.offset_of(p)?;
        CellValue::read(self.cell_type, self.bytes(), off)
    }

    /// Read the cell at `p` as f64.
    pub fn get_f64(&self, p: &Point) -> Result<f64> {
        Ok(self.get(p)?.as_f64())
    }

    /// Write the cell at `p` (value is converted to the array's type).
    /// Detaches a private copy first when the buffer is shared.
    pub fn set(&mut self, p: &Point, v: f64) -> Result<()> {
        let off = self.domain.offset_of(p)?;
        let (buf, _) = self.data.make_mut();
        CellValue::from_f64(self.cell_type, v).write(buf, off)
    }

    /// Extract the sub-array covering `sub` (must be contained in the domain).
    pub fn extract(&self, sub: &Minterval) -> Result<MDArray> {
        if !self.domain.contains(sub) {
            return Err(ArrayError::NotContained {
                inner: sub.to_string(),
                outer: self.domain.to_string(),
            });
        }
        let mut out = MDArray::zeros(sub.clone(), self.cell_type);
        copy_region(self, &mut out, sub)?;
        Ok(out)
    }

    /// Copy the overlap of `src` into `self` (both interpreted in the same
    /// global coordinate space). Non-overlapping parts are untouched.
    pub fn patch(&mut self, src: &MDArray) -> Result<()> {
        if src.cell_type != self.cell_type {
            return Err(ArrayError::TypeMismatch {
                left: self.cell_type.name(),
                right: src.cell_type.name(),
            });
        }
        let overlap = match self.domain.intersection(src.domain()) {
            Some(o) => o,
            None => return Ok(()),
        };
        copy_region(src, self, &overlap)
    }

    /// Sum of all cells as f64 (a convenience for tests and experiments):
    /// the `add_cells` condenser's fold, 0 for no cells.
    pub fn sum(&self) -> f64 {
        crate::ops::Condenser::Sum.eval(self).unwrap_or(0.0)
    }
}

/// Copy the cells of region `region` from `src` into `dst`; `region` must be
/// contained in both domains. One `memcpy` per last-axis run, with both
/// offsets stepped by the row-run walker (`Minterval::row_runs`).
pub fn copy_region(src: &MDArray, dst: &mut MDArray, region: &Minterval) -> Result<()> {
    let src_runs = src.domain().row_runs(region)?;
    let dst_runs = dst.domain().row_runs(region)?;
    if src.cell_type() != dst.cell_type() {
        return Err(ArrayError::TypeMismatch {
            left: src.cell_type().name(),
            right: dst.cell_type().name(),
        });
    }
    let cell_sz = src.cell_type().size_bytes();
    let run_bytes = src_runs.run_len() * cell_sz;
    let src_bytes = src.bytes();
    let (dst_bytes, _) = dst.data.make_mut();
    for (so, doff) in src_runs.zip(dst_runs) {
        let (so, doff) = (so * cell_sz, doff * cell_sz);
        dst_bytes[doff..doff + run_bytes].copy_from_slice(&src_bytes[so..so + run_bytes]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    #[test]
    fn zeros_has_right_size() {
        let a = MDArray::zeros(mi(&[(0, 9), (0, 9)]), CellType::F32);
        assert_eq!(a.size_bytes(), 100 * 4);
        assert_eq!(a.get_f64(&Point::new(vec![5, 5])).unwrap(), 0.0);
    }

    #[test]
    fn generate_and_get() {
        let a = MDArray::generate(mi(&[(0, 3), (0, 3)]), CellType::I32, |p| {
            (p.coord(0) * 10 + p.coord(1)) as f64
        });
        assert_eq!(a.get_f64(&Point::new(vec![2, 3])).unwrap(), 23.0);
        assert_eq!(a.get_f64(&Point::new(vec![0, 0])).unwrap(), 0.0);
    }

    #[test]
    fn extract_subarray() {
        let a = MDArray::generate(mi(&[(0, 9), (0, 9)]), CellType::F64, |p| {
            (p.coord(0) * 100 + p.coord(1)) as f64
        });
        let sub = a.extract(&mi(&[(2, 4), (5, 7)])).unwrap();
        assert_eq!(sub.domain(), &mi(&[(2, 4), (5, 7)]));
        for p in sub.domain().iter_points() {
            assert_eq!(
                sub.get_f64(&p).unwrap(),
                (p.coord(0) * 100 + p.coord(1)) as f64
            );
        }
    }

    #[test]
    fn extract_rejects_uncontained() {
        let a = MDArray::zeros(mi(&[(0, 4), (0, 4)]), CellType::U8);
        assert!(a.extract(&mi(&[(3, 6), (0, 4)])).is_err());
    }

    #[test]
    fn patch_merges_overlap() {
        let mut dst = MDArray::zeros(mi(&[(0, 9), (0, 9)]), CellType::I32);
        let src = MDArray::generate(mi(&[(5, 12), (5, 12)]), CellType::I32, |_| 7.0);
        dst.patch(&src).unwrap();
        assert_eq!(dst.get_f64(&Point::new(vec![6, 6])).unwrap(), 7.0);
        assert_eq!(dst.get_f64(&Point::new(vec![4, 4])).unwrap(), 0.0);
        // disjoint patch is a no-op
        let far = MDArray::generate(mi(&[(50, 52), (50, 52)]), CellType::I32, |_| 9.0);
        dst.patch(&far).unwrap();
        assert_eq!(dst.sum(), 7.0 * 25.0);
    }

    #[test]
    fn patch_rejects_type_mismatch() {
        let mut dst = MDArray::zeros(mi(&[(0, 4)]), CellType::I32);
        let src = MDArray::zeros(mi(&[(0, 4)]), CellType::F32);
        assert!(dst.patch(&src).is_err());
    }

    #[test]
    fn one_dimensional_copy() {
        let src = MDArray::generate(mi(&[(0, 9)]), CellType::U8, |p| p.coord(0) as f64);
        let sub = src.extract(&mi(&[(3, 6)])).unwrap();
        assert_eq!(sub.sum(), (3 + 4 + 5 + 6) as f64);
    }

    #[test]
    fn reassemble_from_extracted_pieces() {
        // Extract two halves and patch them back into an empty array.
        let orig = MDArray::generate(mi(&[(0, 7), (0, 7)]), CellType::F32, |p| {
            (p.coord(0) * 8 + p.coord(1)) as f64
        });
        let left = orig.extract(&mi(&[(0, 7), (0, 3)])).unwrap();
        let right = orig.extract(&mi(&[(0, 7), (4, 7)])).unwrap();
        let mut rebuilt = MDArray::zeros(mi(&[(0, 7), (0, 7)]), CellType::F32);
        rebuilt.patch(&left).unwrap();
        rebuilt.patch(&right).unwrap();
        assert_eq!(rebuilt, orig);
    }

    #[test]
    fn zero_dimensional_array_keeps_its_cell() {
        let line = MDArray::from_bytes(
            mi(&[(0, 3)]),
            CellType::I32,
            [10i32, 11, 12, 13]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
        )
        .unwrap();
        let scalar = crate::ops::slice(&line, 0, 2).unwrap();
        let dom = scalar.domain().clone();
        assert_eq!(dom.dim(), 0);
        assert_eq!(scalar.sum(), 12.0);
        assert_eq!(scalar.extract(&dom).unwrap().sum(), 12.0);
        assert_eq!(crate::ops::trim(&scalar, &dom).unwrap().sum(), 12.0);
        let mut patched = MDArray::zeros(dom, CellType::I32);
        patched.patch(&scalar).unwrap();
        assert_eq!(patched, scalar);
    }

    #[test]
    fn shared_buffer_reads_like_owned() {
        let owned = MDArray::generate(mi(&[(0, 3), (0, 3)]), CellType::I32, |p| {
            (p.coord(0) * 10 + p.coord(1)) as f64
        });
        let shared = MDArray::from_shared(
            owned.domain().clone(),
            owned.cell_type(),
            Bytes::from(owned.bytes().to_vec()),
        )
        .unwrap();
        assert!(shared.is_shared());
        assert_eq!(shared, owned);
        assert_eq!(shared.sum(), owned.sum());
    }

    #[test]
    fn cow_mutation_detaches_from_siblings() {
        let backing = Bytes::from(vec![7u8; 32]);
        let dom = mi(&[(0, 15)]);
        let mut a = MDArray::from_shared(dom.clone(), CellType::U8, backing.slice(0..16)).unwrap();
        let b = MDArray::from_shared(dom, CellType::U8, backing.slice(0..16)).unwrap();
        a.set(&Point::new(vec![3]), 99.0).unwrap();
        assert!(!a.is_shared(), "mutation must detach a private copy");
        assert_eq!(a.get_f64(&Point::new(vec![3])).unwrap(), 99.0);
        assert_eq!(b.get_f64(&Point::new(vec![3])).unwrap(), 7.0);
        assert_eq!(backing[3], 7, "backing buffer untouched");
    }

    #[test]
    fn freeze_payload_makes_clone_cheap() {
        let mut a = MDArray::generate(mi(&[(0, 63)]), CellType::F64, |p| p.coord(0) as f64);
        assert!(!a.is_shared());
        a.freeze_payload();
        assert!(a.is_shared());
        let b = a.clone();
        let ha = a.shared_bytes().unwrap();
        let hb = b.shared_bytes().unwrap();
        assert_eq!(ha.as_slice().as_ptr(), hb.as_slice().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn from_shared_rejects_wrong_size() {
        let res = MDArray::from_shared(mi(&[(0, 9)]), CellType::F64, Bytes::from(vec![0u8; 3]));
        assert!(res.is_err());
    }
}
