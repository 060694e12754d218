//! Spatial domains: points and multidimensional intervals.
//!
//! RasDaMan (and hence HEAVEN) describes every array and every tile by a
//! *minterval* — an axis-aligned hyper-box `[lo_0:hi_0, ..., lo_{d-1}:hi_{d-1}]`
//! with inclusive integer bounds. All spatial reasoning (tiling, indexing,
//! super-tile formation, object framing) is performed on mintervals.

use crate::error::{ArrayError, Result};
use std::fmt;

/// A point in d-dimensional integer space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point(pub Vec<i64>);

impl Point {
    /// Create a point from coordinates.
    pub fn new(coords: Vec<i64>) -> Self {
        Point(coords)
    }

    /// Dimensionality of the point.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinate along `axis`.
    pub fn coord(&self, axis: usize) -> i64 {
        self.0[axis]
    }

    /// Component-wise addition.
    pub fn add(&self, other: &Point) -> Result<Point> {
        if self.dim() != other.dim() {
            return Err(ArrayError::DimensionMismatch {
                expected: self.dim(),
                got: other.dim(),
            });
        }
        Ok(Point(
            self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect(),
        ))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<i64>> for Point {
    fn from(v: Vec<i64>) -> Self {
        Point(v)
    }
}

/// One inclusive 1-D interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// Create an interval, validating `lo <= hi`.
    pub fn new(lo: i64, hi: i64) -> Result<Interval> {
        if lo > hi {
            return Err(ArrayError::InvalidInterval { lo, hi });
        }
        Ok(Interval { lo, hi })
    }

    /// Number of integer positions covered.
    pub fn extent(&self) -> u64 {
        (self.hi - self.lo + 1) as u64
    }

    /// Whether `p` lies inside.
    pub fn contains(&self, p: i64) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Whether `other` is fully inside `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Smallest interval covering both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.lo, self.hi)
    }
}

/// A multidimensional interval (hyper-box with inclusive integer bounds).
///
/// This is RasDaMan's `minterval`; written `[lo0:hi0, lo1:hi1, ...]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Minterval {
    axes: Vec<Interval>,
}

impl Minterval {
    /// Build from per-axis `(lo, hi)` pairs.
    pub fn new(bounds: &[(i64, i64)]) -> Result<Minterval> {
        let mut axes = Vec::with_capacity(bounds.len());
        for &(lo, hi) in bounds {
            axes.push(Interval::new(lo, hi)?);
        }
        Ok(Minterval { axes })
    }

    /// Build from intervals.
    pub fn from_intervals(axes: Vec<Interval>) -> Minterval {
        Minterval { axes }
    }

    /// The d-dimensional box `[0:shape0-1, 0:shape1-1, ...]`.
    pub fn with_shape(shape: &[u64]) -> Result<Minterval> {
        let bounds: Vec<(i64, i64)> = shape.iter().map(|&s| (0, s as i64 - 1)).collect();
        Minterval::new(&bounds)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.axes.len()
    }

    /// Per-axis interval.
    pub fn axis(&self, i: usize) -> Interval {
        self.axes[i]
    }

    /// All axes.
    pub fn axes(&self) -> &[Interval] {
        &self.axes
    }

    /// Lower corner.
    pub fn lo(&self) -> Point {
        Point(self.axes.iter().map(|a| a.lo).collect())
    }

    /// Upper corner.
    pub fn hi(&self) -> Point {
        Point(self.axes.iter().map(|a| a.hi).collect())
    }

    /// Extent (number of positions) along each axis.
    pub fn shape(&self) -> Vec<u64> {
        self.axes.iter().map(|a| a.extent()).collect()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        self.axes.iter().map(|a| a.extent()).product()
    }

    /// Whether the point lies inside.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.dim() == self.dim() && self.axes.iter().zip(&p.0).all(|(a, &c)| a.contains(c))
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains(&self, other: &Minterval) -> bool {
        self.dim() == other.dim()
            && self
                .axes
                .iter()
                .zip(&other.axes)
                .all(|(a, b)| a.contains_interval(b))
    }

    /// Whether the two boxes share at least one cell.
    pub fn intersects(&self, other: &Minterval) -> bool {
        self.dim() == other.dim()
            && self
                .axes
                .iter()
                .zip(&other.axes)
                .all(|(a, b)| a.intersect(b).is_some())
    }

    /// Intersection box, if non-empty.
    pub fn intersection(&self, other: &Minterval) -> Option<Minterval> {
        let mut out = Minterval {
            axes: Vec::with_capacity(self.dim()),
        };
        self.intersect_into(other, &mut out).then_some(out)
    }

    /// [`Self::intersection`] into `out`, reusing its allocation: `true`
    /// and `out` = the intersection box when the two meet, else `false`
    /// (and `out` holds no meaningful box).
    pub fn intersect_into(&self, other: &Minterval, out: &mut Minterval) -> bool {
        out.axes.clear();
        if self.dim() != other.dim() {
            return false;
        }
        for (a, b) in self.axes.iter().zip(&other.axes) {
            match a.intersect(b) {
                Some(i) => out.axes.push(i),
                None => return false,
            }
        }
        true
    }

    /// Smallest box covering both operands.
    pub fn hull(&self, other: &Minterval) -> Result<Minterval> {
        if self.dim() != other.dim() {
            return Err(ArrayError::DimensionMismatch {
                expected: self.dim(),
                got: other.dim(),
            });
        }
        Ok(Minterval {
            axes: self
                .axes
                .iter()
                .zip(&other.axes)
                .map(|(a, b)| a.hull(b))
                .collect(),
        })
    }

    /// Translate by an offset vector.
    pub fn translate(&self, offset: &Point) -> Result<Minterval> {
        if offset.dim() != self.dim() {
            return Err(ArrayError::DimensionMismatch {
                expected: self.dim(),
                got: offset.dim(),
            });
        }
        Ok(Minterval {
            axes: self
                .axes
                .iter()
                .zip(&offset.0)
                .map(|(a, &o)| Interval {
                    lo: a.lo + o,
                    hi: a.hi + o,
                })
                .collect(),
        })
    }

    /// Drop dimension `dim` (used by slicing). Result has dimensionality d-1.
    pub fn project_out(&self, dim: usize) -> Result<Minterval> {
        if dim >= self.dim() {
            return Err(ArrayError::BadSlice { dim, pos: 0 });
        }
        let mut axes = self.axes.clone();
        axes.remove(dim);
        Ok(Minterval { axes })
    }

    /// Linear offset of `p` within this box under row-major order.
    ///
    /// Row-major (a.k.a. C order, the RasDaMan default) means the **last**
    /// axis varies fastest.
    pub fn offset_of(&self, p: &Point) -> Result<usize> {
        if !self.contains_point(p) {
            return Err(ArrayError::OutOfDomain {
                point: p.0.clone(),
                domain: self.to_string(),
            });
        }
        let mut off: u64 = 0;
        for (a, &c) in self.axes.iter().zip(&p.0) {
            off = off * a.extent() + (c - a.lo) as u64;
        }
        Ok(off as usize)
    }

    /// Inverse of [`offset_of`](Self::offset_of): the point at row-major
    /// offset `off`.
    pub fn point_at(&self, mut off: u64) -> Point {
        let mut coords = vec![0i64; self.dim()];
        for i in (0..self.dim()).rev() {
            let e = self.axes[i].extent();
            coords[i] = self.axes[i].lo + (off % e) as i64;
            off /= e;
        }
        Point(coords)
    }

    /// Step `p` to the next point of this box in row-major order, in
    /// place (no allocation, no division). Returns `false` after the last
    /// point, leaving `p` wrapped to the lower corner.
    pub(crate) fn advance(&self, p: &mut Point) -> bool {
        for (a, c) in self.axes.iter().zip(p.0.iter_mut()).rev() {
            if *c < a.hi {
                *c += 1;
                return true;
            }
            *c = a.lo;
        }
        false
    }

    /// The row-run walker over `region` inside this box: the start offset
    /// of every last-axis run of `region`, in row-major order. Errors
    /// when `region` is not contained in `self`.
    pub(crate) fn row_runs(&self, region: &Minterval) -> Result<RowRuns> {
        self.runs(region, false)
    }

    /// The row-run walker with contiguous rows merged: where `region`
    /// spans whole trailing axes of this box, its consecutive rows are
    /// adjacent in memory, so each run covers them all (a region that
    /// spans every axis but the first is one run). For kernels that read
    /// one buffer in row-major order, e.g. the condenser fold.
    pub(crate) fn block_runs(&self, region: &Minterval) -> Result<RowRuns> {
        self.runs(region, true)
    }

    fn runs(&self, region: &Minterval, merge: bool) -> Result<RowRuns> {
        if !self.contains(region) {
            return Err(ArrayError::NotContained {
                inner: region.to_string(),
                outer: self.to_string(),
            });
        }
        // Innermost axis first; the last axis is the run itself, and with
        // `merge` so is every axis inside which the region spans whole
        // axes.
        let mut axes = Vec::new();
        let (mut stride, mut offset, mut runs) = (1usize, 0usize, 1u64);
        let mut run_len = 1usize;
        let mut contiguous = true;
        for (i, (o, r)) in self.axes.iter().zip(&region.axes).enumerate().rev() {
            offset += (r.lo - o.lo) as usize * stride;
            if i + 1 == self.dim() || (merge && contiguous) {
                run_len *= r.extent() as usize;
            } else {
                axes.push(RunAxis {
                    pos: 0,
                    extent: r.extent(),
                    stride,
                });
                runs *= r.extent();
            }
            contiguous &= r == o;
            stride *= o.extent() as usize;
        }
        Ok(RowRuns {
            run_len,
            axes,
            offset,
            remaining: runs,
        })
    }

    /// Iterate over all points in row-major order.
    pub fn iter_points(&self) -> PointIter<'_> {
        PointIter {
            domain: self,
            cur: self.lo(),
            remaining: self.cell_count(),
        }
    }

    /// Volume of the intersection with `other`, in cells (0 if disjoint).
    pub fn overlap_cells(&self, other: &Minterval) -> u64 {
        self.intersection(other)
            .map(|m| m.cell_count())
            .unwrap_or(0)
    }

    /// Chebyshev (max-axis) distance between box centers; a cheap adjacency
    /// measure used by clustering heuristics.
    pub fn center_distance(&self, other: &Minterval) -> f64 {
        self.axes
            .iter()
            .zip(other.axes.iter())
            .map(|(a, b)| {
                let ca = (a.lo + a.hi) as f64 / 2.0;
                let cb = (b.lo + b.hi) as f64 / 2.0;
                (ca - cb).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Whether two boxes touch or overlap (are adjacent within `gap` cells
    /// along every axis). `gap = 1` means face/edge/corner adjacency.
    pub fn adjacent_within(&self, other: &Minterval, gap: i64) -> bool {
        self.dim() == other.dim()
            && self
                .axes
                .iter()
                .zip(&other.axes)
                .all(|(a, b)| a.lo - gap <= b.hi && b.lo - gap <= a.hi)
    }
}

impl fmt::Display for Minterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.axes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}", a.lo, a.hi)?;
        }
        write!(f, "]")
    }
}

/// The row-run walker under every region kernel (copy, slice, block
/// folds): yields the start offset, in cells, of each contiguous
/// last-axis run of a region inside an enclosing box, in row-major order.
/// Every run is [`run_len`](Self::run_len) cells long.
///
/// An odometer over the region's outer axes steps the offset by
/// precomputed strides, so a run costs a few additions: no division, no
/// allocation, no bounds check. Set-up is O(dim) (see
/// [`Minterval::row_runs`]). A 0-D region is one run of one cell.
#[derive(Debug)]
pub(crate) struct RowRuns {
    /// Outer axes of the region, innermost first.
    axes: Vec<RunAxis>,
    /// Offset of the next run in the enclosing box.
    offset: usize,
    /// Runs not yet yielded.
    remaining: u64,
    run_len: usize,
}

#[derive(Debug)]
struct RunAxis {
    /// Position within the region along this axis.
    pos: u64,
    /// The region's extent along this axis.
    extent: u64,
    /// The enclosing box's stride along this axis, in cells.
    stride: usize,
}

impl RowRuns {
    /// Cells per run: the region's last-axis extent (1 for a 0-D region).
    pub(crate) fn run_len(&self) -> usize {
        self.run_len
    }
}

impl Iterator for RowRuns {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let start = self.offset;
        for ax in &mut self.axes {
            ax.pos += 1;
            self.offset += ax.stride;
            if ax.pos < ax.extent {
                break;
            }
            ax.pos = 0;
            self.offset -= ax.extent as usize * ax.stride;
        }
        Some(start)
    }
}

/// Iterator over the points of a [`Minterval`] in row-major order.
pub struct PointIter<'a> {
    domain: &'a Minterval,
    /// The point `next` yields, stepped in place by [`Minterval::advance`].
    cur: Point,
    remaining: u64,
}

impl Iterator for PointIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.remaining == 0 {
            return None;
        }
        let p = self.cur.clone();
        self.remaining -= 1;
        self.domain.advance(&mut self.cur);
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PointIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    #[test]
    fn interval_rejects_inverted_bounds() {
        assert!(Interval::new(3, 2).is_err());
        assert!(Interval::new(2, 2).is_ok());
    }

    #[test]
    fn extent_and_cell_count() {
        let m = mi(&[(0, 9), (5, 14), (-2, 2)]);
        assert_eq!(m.shape(), vec![10, 10, 5]);
        assert_eq!(m.cell_count(), 500);
    }

    #[test]
    fn containment_and_intersection() {
        let a = mi(&[(0, 9), (0, 9)]);
        let b = mi(&[(2, 4), (3, 7)]);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(b.clone()));
        let c = mi(&[(20, 30), (0, 9)]);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.overlap_cells(&b), 3 * 5);
    }

    #[test]
    fn intersect_into_reuses_one_buffer() {
        let region = mi(&[(5, 14), (5, 14)]);
        let mut clip = mi(&[(0, 0)]);
        for (tile, want) in [
            (mi(&[(0, 9), (0, 9)]), Some(mi(&[(5, 9), (5, 9)]))),
            (mi(&[(10, 19), (0, 9)]), Some(mi(&[(10, 14), (5, 9)]))),
            (mi(&[(20, 29), (0, 9)]), None),
            (mi(&[(0, 9)]), None),
        ] {
            let met = tile.intersect_into(&region, &mut clip);
            assert_eq!(met.then(|| clip.clone()), want, "{tile}");
            assert_eq!(tile.intersection(&region), want);
        }
    }

    #[test]
    fn hull_covers_both() {
        let a = mi(&[(0, 4), (10, 20)]);
        let b = mi(&[(3, 9), (0, 5)]);
        let h = a.hull(&b).unwrap();
        assert_eq!(h, mi(&[(0, 9), (0, 20)]));
        assert!(h.contains(&a) && h.contains(&b));
    }

    #[test]
    fn offsets_roundtrip_row_major() {
        let m = mi(&[(1, 3), (10, 12)]);
        // row-major: last axis fastest
        assert_eq!(m.offset_of(&Point::new(vec![1, 10])).unwrap(), 0);
        assert_eq!(m.offset_of(&Point::new(vec![1, 11])).unwrap(), 1);
        assert_eq!(m.offset_of(&Point::new(vec![2, 10])).unwrap(), 3);
        for off in 0..m.cell_count() {
            let p = m.point_at(off);
            assert_eq!(m.offset_of(&p).unwrap() as u64, off);
        }
    }

    #[test]
    fn point_iteration_matches_cell_count() {
        let m = mi(&[(0, 2), (0, 1), (5, 6)]);
        let pts: Vec<Point> = m.iter_points().collect();
        assert_eq!(pts.len(), m.cell_count() as usize);
        assert_eq!(pts[0], Point::new(vec![0, 0, 5]));
        assert_eq!(pts[1], Point::new(vec![0, 0, 6]));
        assert_eq!(*pts.last().unwrap(), Point::new(vec![2, 1, 6]));
    }

    #[test]
    fn translation_moves_bounds() {
        let m = mi(&[(0, 4), (0, 4)]);
        let t = m.translate(&Point::new(vec![10, -2])).unwrap();
        assert_eq!(t, mi(&[(10, 14), (-2, 2)]));
    }

    #[test]
    fn slicing_projects_out_axis() {
        let m = mi(&[(0, 4), (5, 9), (10, 19)]);
        let s = m.project_out(1).unwrap();
        assert_eq!(s, mi(&[(0, 4), (10, 19)]));
        assert!(m.project_out(3).is_err());
    }

    #[test]
    fn adjacency() {
        let a = mi(&[(0, 4), (0, 4)]);
        let b = mi(&[(5, 9), (0, 4)]); // face-adjacent
        let c = mi(&[(6, 9), (0, 4)]); // one-cell gap
        assert!(a.adjacent_within(&b, 1));
        assert!(!a.adjacent_within(&c, 1));
        assert!(a.adjacent_within(&c, 2));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = mi(&[(0, 4)]);
        let b = mi(&[(0, 4), (0, 4)]);
        assert!(!a.intersects(&b));
        assert!(a.hull(&b).is_err());
    }

    #[test]
    fn row_runs_step_offsets_in_the_enclosing_box() {
        let outer = mi(&[(0, 3), (10, 14), (-2, 5)]);
        let region = mi(&[(1, 2), (11, 12), (0, 3)]);
        let runs = outer.row_runs(&region).unwrap();
        assert_eq!(runs.run_len(), 4);
        let want: Vec<usize> = [[1, 11], [1, 12], [2, 11], [2, 12]]
            .iter()
            .map(|&[a, b]| outer.offset_of(&Point::new(vec![a, b, 0])).unwrap())
            .collect();
        assert_eq!(runs.collect::<Vec<_>>(), want);
    }

    #[test]
    fn block_runs_merge_rows_across_whole_trailing_axes() {
        let outer = mi(&[(0, 3), (10, 14), (-2, 5)]);
        // Whole last axis: the two rows of each axis-0 step are adjacent.
        let runs = outer.block_runs(&mi(&[(1, 2), (11, 12), (-2, 5)])).unwrap();
        assert_eq!(runs.run_len(), 16);
        let at = |a, b| outer.offset_of(&Point::new(vec![a, b, -2])).unwrap();
        assert_eq!(runs.collect::<Vec<_>>(), vec![at(1, 11), at(2, 11)]);
        // Whole trailing axes: one run.
        let runs = outer.block_runs(&mi(&[(1, 2), (10, 14), (-2, 5)])).unwrap();
        assert_eq!(
            (runs.run_len(), runs.collect::<Vec<_>>()),
            (80, vec![at(1, 10)])
        );
        // A partial last axis merges nothing.
        let region = mi(&[(1, 2), (11, 12), (0, 3)]);
        let merged: Vec<usize> = outer.block_runs(&region).unwrap().collect();
        assert_eq!(merged, outer.row_runs(&region).unwrap().collect::<Vec<_>>());
    }

    #[test]
    fn row_runs_edge_cases() {
        // A 1-D region is one run; a 0-D region is one run of one cell.
        let line = mi(&[(1, 8)]);
        let runs = line.row_runs(&mi(&[(3, 5)])).unwrap();
        assert_eq!((runs.run_len(), runs.collect::<Vec<_>>()), (3, vec![2]));
        let scalar = Minterval::from_intervals(vec![]);
        let runs = scalar.row_runs(&scalar).unwrap();
        assert_eq!((runs.run_len(), runs.collect::<Vec<_>>()), (1, vec![0]));
        assert_eq!(
            line.row_runs(&mi(&[(0, 9)])).unwrap_err(),
            ArrayError::NotContained {
                inner: "[0:9]".into(),
                outer: "[1:8]".into(),
            }
        );
    }

    #[test]
    fn advance_walks_row_major_and_wraps() {
        let m = mi(&[(0, 1), (5, 6)]);
        let mut p = m.lo();
        let mut seen = vec![p.clone()];
        while m.advance(&mut p) {
            seen.push(p.clone());
        }
        let by_offset: Vec<Point> = (0..m.cell_count()).map(|o| m.point_at(o)).collect();
        assert_eq!(seen, by_offset);
        assert_eq!(seen, m.iter_points().collect::<Vec<_>>());
        assert_eq!(p, m.lo());
        // A 0-D box has one point.
        let zero = Minterval::new(&[]).unwrap();
        assert_eq!(zero.iter_points().count(), 1);
    }
}
