//! Array operations: trimming, slicing, induced operations and condensers.
//!
//! These mirror the RasDaMan algebra subset the paper's workloads use
//! (§2.6.5): geometric operations that shrink domains, cell-wise *induced*
//! operations, and *condensers* (aggregations). HEAVEN's precomputed-result
//! catalog (§3.9) memoizes condenser results.

use crate::domain::{Interval, Minterval, RowRuns};
use crate::error::{ArrayError, Result};
use crate::mdd::MDArray;
use crate::value::{with_scalar, CellType, Promote, Scalar};

/// Trim: restrict the array to a sub-box (dimensionality preserved).
pub fn trim(a: &MDArray, region: &Minterval) -> Result<MDArray> {
    a.extract(region)
}

/// Slice: fix dimension `dim` to position `pos`; the result has
/// dimensionality d-1.
pub fn slice(a: &MDArray, dim: usize, pos: i64) -> Result<MDArray> {
    let dom = a.domain();
    if dim >= dom.dim() {
        return Err(ArrayError::BadSlice { dim, pos });
    }
    if !dom.axis(dim).contains(pos) {
        return Err(ArrayError::BadSlice { dim, pos });
    }
    // The slab at `pos` has the source's row-major cell order with an
    // extent-1 axis at `dim`; dropping that axis re-domains it in place.
    let mut slab = dom.axes().to_vec();
    slab[dim] = Interval::new(pos, pos)?;
    let out = a.extract(&Minterval::from_intervals(slab))?;
    MDArray::from_bytes(dom.project_out(dim)?, a.cell_type(), out.into_bytes())
}

/// A unary induced operation applied cell-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root (result is float).
    Sqrt,
    /// Cast to another cell type.
    Cast(CellType),
}

impl UnaryOp {
    /// Result cell type for an input of type `t`.
    pub fn result_type(self, t: CellType) -> CellType {
        match self {
            UnaryOp::Neg | UnaryOp::Abs => t,
            UnaryOp::Sqrt => {
                if t == CellType::F64 {
                    CellType::F64
                } else {
                    CellType::F32
                }
            }
            UnaryOp::Cast(to) => to,
        }
    }

    fn apply(self, v: f64) -> f64 {
        match self {
            UnaryOp::Neg => -v,
            UnaryOp::Abs => v.abs(),
            UnaryOp::Sqrt => v.sqrt(),
            UnaryOp::Cast(_) => v,
        }
    }
}

/// Map every cell of `src` through `f`, reading as `S` and writing as
/// `O` — one monomorphized pass over the contiguous buffers, no per-cell
/// bounds checks or enum boxing.
fn map_cells<S: Scalar, O: Scalar>(src: &[u8], dst: &mut [u8], f: impl Fn(f64) -> f64) {
    for (sb, db) in src.chunks_exact(S::SIZE).zip(dst.chunks_exact_mut(O::SIZE)) {
        O::from_f64(f(S::from_le(sb).to_f64())).write_le(db);
    }
}

/// Apply a unary induced operation.
pub fn induced_unary(a: &MDArray, op: UnaryOp) -> MDArray {
    let out_ty = op.result_type(a.cell_type());
    let n = a.domain().cell_count() as usize;
    let mut out = vec![0u8; n * out_ty.size_bytes()];
    with_scalar!(a.cell_type(), S, {
        with_scalar!(out_ty, O, {
            map_cells::<S, O>(a.bytes(), &mut out, |v| op.apply(v));
        })
    });
    MDArray::from_bytes(a.domain().clone(), out_ty, out).expect("buffer sized for domain")
}

/// A binary induced operation applied cell-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Cell-wise addition.
    Add,
    /// Cell-wise subtraction.
    Sub,
    /// Cell-wise multiplication.
    Mul,
    /// Cell-wise division (errors on a zero divisor).
    Div,
    /// Cell-wise minimum.
    Min,
    /// Cell-wise maximum.
    Max,
    /// Less-than comparison producing a 0/1 `octet` mask.
    Lt,
    /// Less-or-equal comparison mask.
    Le,
    /// Greater-than comparison mask.
    Gt,
    /// Greater-or-equal comparison mask.
    Ge,
    /// Equality comparison mask.
    Eq,
    /// Inequality comparison mask.
    Ne,
}

/// Bind `$f` to `op`'s cell kernel over f64 and `$O` to its output cell
/// type (`$arith` for arithmetic, `u8` for comparison masks), and
/// evaluate `$body` once per op: the cell loop inside is monomorphized
/// per op, with no match per cell. `Div` divides unchecked, so callers
/// reject zero divisors before the pass. `Min`/`Max` fix what
/// `f64::min`/`f64::max` leave open: a NaN operand yields the other,
/// and a tie such as `-0.0` vs `0.0` yields `a`.
macro_rules! with_op {
    ($op:expr, $f:ident, $O:ident = $arith:ty, $body:block) => {
        match $op {
            BinaryOp::Add => {
                type $O = $arith;
                let $f = |a: f64, b: f64| a + b;
                $body
            }
            BinaryOp::Sub => {
                type $O = $arith;
                let $f = |a: f64, b: f64| a - b;
                $body
            }
            BinaryOp::Mul => {
                type $O = $arith;
                let $f = |a: f64, b: f64| a * b;
                $body
            }
            BinaryOp::Div => {
                type $O = $arith;
                let $f = |a: f64, b: f64| a / b;
                $body
            }
            BinaryOp::Min => {
                type $O = $arith;
                let $f = |a: f64, b: f64| if b < a || a.is_nan() { b } else { a };
                $body
            }
            BinaryOp::Max => {
                type $O = $arith;
                let $f = |a: f64, b: f64| if b > a || a.is_nan() { b } else { a };
                $body
            }
            BinaryOp::Lt => {
                type $O = u8;
                let $f = |a: f64, b: f64| (a < b) as u8 as f64;
                $body
            }
            BinaryOp::Le => {
                type $O = u8;
                let $f = |a: f64, b: f64| (a <= b) as u8 as f64;
                $body
            }
            BinaryOp::Gt => {
                type $O = u8;
                let $f = |a: f64, b: f64| (a > b) as u8 as f64;
                $body
            }
            BinaryOp::Ge => {
                type $O = u8;
                let $f = |a: f64, b: f64| (a >= b) as u8 as f64;
                $body
            }
            BinaryOp::Eq => {
                type $O = u8;
                let $f = |a: f64, b: f64| (a == b) as u8 as f64;
                $body
            }
            BinaryOp::Ne => {
                type $O = u8;
                let $f = |a: f64, b: f64| (a != b) as u8 as f64;
                $body
            }
        }
    };
}

impl BinaryOp {
    /// Result type for operand types `l`, `r`: the cell type the
    /// induced kernels write (a `u8` mask for comparisons, the promoted
    /// type for arithmetic).
    pub fn result_type(self, l: CellType, r: CellType) -> CellType {
        with_scalar!(l, S, {
            with_scalar!(r, T, {
                with_op!(self, _f, O = <S as Promote<T>>::Out, { O::TYPE })
            })
        })
    }
}

/// Apply a binary induced operation between two arrays.
///
/// The operation is evaluated over the *intersection* of the operand domains
/// (RasDaMan requires equal domains; evaluating on the intersection is the
/// common generalization and errors when the intersection is empty).
pub fn induced_binary(a: &MDArray, b: &MDArray, op: BinaryOp) -> Result<MDArray> {
    let dom = a
        .domain()
        .intersection(b.domain())
        .ok_or(ArrayError::Empty("operand domain intersection"))?;
    let out_ty = op.result_type(a.cell_type(), b.cell_type());
    // Equal domains (the RasDaMan-conformant case) are aligned
    // cell-for-cell already; otherwise extract each operand to the
    // intersection first, so one typed pass covers every case.
    let (a_ext, b_ext);
    let a = if a.domain() == &dom {
        a
    } else {
        a_ext = a.extract(&dom)?;
        &a_ext
    };
    let b = if b.domain() == &dom {
        b
    } else {
        b_ext = b.extract(&dom)?;
        &b_ext
    };
    let n = dom.cell_count() as usize;
    let mut out = vec![0u8; n * out_ty.size_bytes()];
    with_scalar!(a.cell_type(), S, {
        with_scalar!(b.cell_type(), T, {
            if op == BinaryOp::Div && any_zero::<T>(b.bytes()) {
                return Err(ArrayError::DivisionByZero);
            }
            with_op!(op, f, O = <S as Promote<T>>::Out, {
                zip_cells::<S, T, O>(a.bytes(), b.bytes(), &mut out, f);
            })
        })
    });
    MDArray::from_bytes(dom, out_ty, out)
}

/// Aligned cell-for-cell binary pass.
fn zip_cells<S: Scalar, T: Scalar, O: Scalar>(
    a: &[u8],
    b: &[u8],
    dst: &mut [u8],
    f: impl Fn(f64, f64) -> f64,
) {
    for ((ab, bb), db) in a
        .chunks_exact(S::SIZE)
        .zip(b.chunks_exact(T::SIZE))
        .zip(dst.chunks_exact_mut(O::SIZE))
    {
        O::from_f64(f(S::from_le(ab).to_f64(), T::from_le(bb).to_f64())).write_le(db);
    }
}

/// Apply a binary induced operation between an array and a scalar.
pub fn induced_scalar(a: &MDArray, scalar: f64, op: BinaryOp) -> Result<MDArray> {
    let out_ty = op.result_type(a.cell_type(), a.cell_type());
    if op == BinaryOp::Div && scalar == 0.0 {
        // The divisor is the same for every cell; fail before the pass.
        return Err(ArrayError::DivisionByZero);
    }
    let n = a.domain().cell_count() as usize;
    let mut out = vec![0u8; n * out_ty.size_bytes()];
    with_scalar!(a.cell_type(), S, {
        with_op!(op, f, O = S, {
            map_cells::<S, O>(a.bytes(), &mut out, |v| f(v, scalar));
        })
    });
    MDArray::from_bytes(a.domain().clone(), out_ty, out)
}

/// Apply a binary induced operation with the scalar on the *left*
/// (`scalar OP cell`, e.g. `100 - a`), for the non-commutative ops. A
/// zero cell under `Div` is a typed error, found before the pass.
pub fn scalar_induced(scalar: f64, a: &MDArray, op: BinaryOp) -> Result<MDArray> {
    let out_ty = op.result_type(a.cell_type(), a.cell_type());
    let n = a.domain().cell_count() as usize;
    let mut out = vec![0u8; n * out_ty.size_bytes()];
    with_scalar!(a.cell_type(), S, {
        if op == BinaryOp::Div && any_zero::<S>(a.bytes()) {
            return Err(ArrayError::DivisionByZero);
        }
        with_op!(op, f, O = S, {
            map_cells::<S, O>(a.bytes(), &mut out, |v| f(scalar, v));
        })
    });
    MDArray::from_bytes(a.domain().clone(), out_ty, out)
}

/// Whether any cell of a raw typed buffer is zero.
fn any_zero<S: Scalar>(buf: &[u8]) -> bool {
    buf.chunks_exact(S::SIZE)
        .any(|b| S::from_le(b).to_f64() == 0.0)
}

/// A condenser (aggregation over all cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condenser {
    /// Sum of all cells (`add_cells`).
    Sum,
    /// Arithmetic mean (`avg_cells`).
    Avg,
    /// Minimum cell (`min_cells`).
    Min,
    /// Maximum cell (`max_cells`).
    Max,
    /// Count of non-zero cells (`count_cells`).
    CountNonZero,
}

impl Condenser {
    /// Every condenser, in declaration order.
    pub const ALL: [Condenser; 5] = [
        Condenser::Sum,
        Condenser::Avg,
        Condenser::Min,
        Condenser::Max,
        Condenser::CountNonZero,
    ];

    /// Parse the query-language name (`add_cells`, `avg_cells`, ...).
    pub fn parse(name: &str) -> Option<Condenser> {
        match name {
            "add_cells" | "sum" => Some(Condenser::Sum),
            "avg_cells" | "avg" => Some(Condenser::Avg),
            "min_cells" | "min" => Some(Condenser::Min),
            "max_cells" | "max" => Some(Condenser::Max),
            "count_cells" | "count" => Some(Condenser::CountNonZero),
            _ => None,
        }
    }

    /// Query-language name.
    pub fn name(self) -> &'static str {
        match self {
            Condenser::Sum => "add_cells",
            Condenser::Avg => "avg_cells",
            Condenser::Min => "min_cells",
            Condenser::Max => "max_cells",
            Condenser::CountNonZero => "count_cells",
        }
    }

    /// Evaluate over a whole array: a one-piece [`Fold`].
    pub fn eval(self, a: &MDArray) -> Result<f64> {
        let mut fold = Fold::new(self);
        fold.add(a, a.domain())?;
        fold.finish()
    }

    /// Combine per-partition partial results into the final result.
    ///
    /// `parts` are `(partial_value, cell_count)` pairs — this is what makes
    /// condensers computable tile-by-tile (and memoizable per region in the
    /// precomputed-result catalog): Sum/Min/Max/Count combine directly, Avg
    /// combines via the weighted mean.
    pub fn combine(self, parts: &[(f64, u64)]) -> Result<f64> {
        if parts.is_empty() {
            return Err(ArrayError::Empty("condenser partials"));
        }
        Ok(match self {
            Condenser::Sum | Condenser::CountNonZero => parts.iter().map(|&(v, _)| v).sum(),
            Condenser::Min => parts.iter().map(|&(v, _)| v).fold(f64::INFINITY, f64::min),
            Condenser::Max => parts
                .iter()
                .map(|&(v, _)| v)
                .fold(f64::NEG_INFINITY, f64::max),
            Condenser::Avg => {
                let total: u64 = parts.iter().map(|&(_, n)| n).sum();
                if total == 0 {
                    return Err(ArrayError::Empty("condenser partials"));
                }
                parts.iter().map(|&(v, n)| v * n as f64).sum::<f64>() / total as f64
            }
        })
    }
}

/// Lane accumulators of a [`Fold`].
const LANES: usize = 8;

/// A condenser folded over a sequence of pieces, e.g. the tiles of a
/// region as the query executor visits them: no assembly buffer is
/// needed, because condensers are distributive (paper §3.9).
///
/// Float cells feed `LANES` = 8 f64 accumulators, so consecutive cells
/// extend independent dependency chains (and SIMD lanes) instead of one
/// serial chain. A cell's lane is its ordinal within the whole fold, mod
/// 8, and the lanes combine in a fixed order: the result depends only on
/// the cell sequence (pieces in the order added, row-major within each),
/// not on how that sequence is cut into pieces. Integer cells and counts
/// fold exactly (i128 sums and counts, integer extremes), so for them no
/// order matters at all. Min/Max keep the `f64::min`/`f64::max`
/// semantics, NaN cells skipped included.
#[derive(Debug, Clone)]
pub struct Fold {
    op: Condenser,
    /// Float sums and extremes, and (in lane 0) integer extremes.
    lanes: [f64; LANES],
    /// Integer sums, and every count.
    exact: i128,
    cells: u64,
}

impl Fold {
    /// An empty fold of `op`.
    pub fn new(op: Condenser) -> Fold {
        let identity = match op {
            Condenser::Min => f64::INFINITY,
            Condenser::Max => f64::NEG_INFINITY,
            Condenser::Sum | Condenser::Avg | Condenser::CountNonZero => 0.0,
        };
        Fold {
            op,
            lanes: [identity; LANES],
            exact: 0,
            cells: 0,
        }
    }

    /// Fold the cells of `clip` of `src` (`clip` must lie in `src`'s
    /// domain), row-major, on the row-run walker with contiguous rows
    /// merged.
    pub fn add(&mut self, src: &MDArray, clip: &Minterval) -> Result<()> {
        let runs = src.domain().block_runs(clip)?;
        let bytes = src.bytes();
        // One monomorphized loop per cell type and condenser.
        match src.cell_type() {
            CellType::U8 => self.add_exact::<u8>(bytes, runs),
            CellType::I16 => self.add_exact::<i16>(bytes, runs),
            CellType::I32 => self.add_exact::<i32>(bytes, runs),
            CellType::F32 => self.add_float::<f32>(bytes, runs),
            CellType::F64 => self.add_float::<f64>(bytes, runs),
        }
        self.cells += clip.cell_count();
        Ok(())
    }

    /// Float cells onto the lanes. Min/Max replace a lane only by a
    /// smaller (greater) cell, so NaN cells are skipped as
    /// `f64::min`/`f64::max` skip them.
    fn add_float<S: Scalar>(&mut self, bytes: &[u8], runs: RowRuns) {
        let (lanes, done, runs) = (&mut self.lanes, self.cells, runs_of::<S>(bytes, runs));
        match self.op {
            Condenser::Sum | Condenser::Avg => fold_runs::<S>(lanes, done, runs, |a, x| a + x),
            Condenser::Min => fold_runs::<S>(lanes, done, runs, min),
            Condenser::Max => fold_runs::<S>(lanes, done, runs, max),
            Condenser::CountNonZero => self.exact += count_nonzero::<S>(runs),
        }
    }

    /// Integer cells, exactly: i64 run sums (2^31 cells at a time) into
    /// the i128 total, integer extremes into lane 0.
    fn add_exact<S: Scalar + Ord + Into<i64>>(&mut self, bytes: &[u8], runs: RowRuns) {
        let runs = runs_of::<S>(bytes, runs);
        match self.op {
            Condenser::Sum | Condenser::Avg => {
                for run in runs {
                    for part in run.chunks(S::SIZE << 31) {
                        self.exact += cells::<S>(part).map(Into::into).sum::<i64>() as i128;
                    }
                }
            }
            Condenser::Min => {
                if let Some(m) = runs.filter_map(|r| cells::<S>(r).min()).min() {
                    self.lanes[0] = min(self.lanes[0], m.into() as f64);
                }
            }
            Condenser::Max => {
                if let Some(m) = runs.filter_map(|r| cells::<S>(r).max()).max() {
                    self.lanes[0] = max(self.lanes[0], m.into() as f64);
                }
            }
            Condenser::CountNonZero => self.exact += count_nonzero::<S>(runs),
        }
    }

    /// The condenser's value over every cell added; an error when none
    /// was.
    pub fn finish(&self) -> Result<f64> {
        if self.cells == 0 {
            return Err(ArrayError::Empty("condenser input"));
        }
        let l = &self.lanes;
        let sum = || ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        let exact = self.exact as f64;
        Ok(match self.op {
            Condenser::Sum => sum() + exact,
            Condenser::Avg => (sum() + exact) / self.cells as f64,
            Condenser::CountNonZero => exact,
            Condenser::Min => l.iter().copied().fold(f64::INFINITY, min),
            Condenser::Max => l.iter().copied().fold(f64::NEG_INFINITY, max),
        })
    }
}

/// The lesser of a lane and a cell; a NaN cell leaves the lane.
#[inline(always)]
fn min(a: f64, x: f64) -> f64 {
    if x < a {
        x
    } else {
        a
    }
}

/// The greater of a lane and a cell; a NaN cell leaves the lane.
#[inline(always)]
fn max(a: f64, x: f64) -> f64 {
    if x > a {
        x
    } else {
        a
    }
}

/// The byte runs of `bytes` at the row-run walker's cell offsets.
fn runs_of<S: Scalar>(bytes: &[u8], runs: RowRuns) -> impl Iterator<Item = &[u8]> {
    let run_bytes = runs.run_len() * S::SIZE;
    runs.map(move |off| &bytes[off * S::SIZE..][..run_bytes])
}

/// The cells of a byte run.
fn cells<'a, S: Scalar + 'a>(run: &'a [u8]) -> impl Iterator<Item = S> + 'a {
    run.chunks_exact(S::SIZE).map(S::from_le)
}

/// Cells of `runs` that are not zero (NaN included, as `x != 0.0`),
/// counted in u32 2^31 cells at a time.
fn count_nonzero<'a, S: Scalar + 'a>(runs: impl Iterator<Item = &'a [u8]>) -> i128 {
    runs.flat_map(|run| run.chunks(S::SIZE << 31))
        .map(|part| {
            cells::<S>(part)
                .map(|x| (x.to_f64() != 0.0) as u32)
                .sum::<u32>() as i128
        })
        .sum()
}

/// Fold `runs` into `lanes`, the first cell on lane `done % LANES`.
#[inline(always)]
fn fold_runs<'a, S: Scalar>(
    lanes: &mut [f64; LANES],
    done: u64,
    runs: impl Iterator<Item = &'a [u8]>,
    f: impl Fn(f64, f64) -> f64 + Copy,
) {
    let mut acc = *lanes;
    let mut lane = (done % LANES as u64) as usize;
    // Fold `cells` onto the lanes of `acc`, one each (they must fit).
    let onto = |acc: &mut [f64], cells: &[u8]| {
        for (a, c) in acc.iter_mut().zip(cells.chunks_exact(S::SIZE)) {
            *a = f(*a, S::from_le(c).to_f64());
        }
    };
    for run in runs {
        // Head: the cells up to the next lane-0 boundary (all of a run
        // that ends before it).
        let head = ((LANES - lane) % LANES * S::SIZE).min(run.len());
        let (head, body) = run.split_at(head);
        onto(&mut acc[lane..], head);
        lane = (lane + head.len() / S::SIZE) % LANES;
        if body.is_empty() {
            continue;
        }
        // Body: whole lane groups, cell j of a group on lane j, with the
        // lanes in registers.
        let mut groups = body.chunks_exact(LANES * S::SIZE);
        let mut regs = acc;
        for g in &mut groups {
            for (j, a) in regs.iter_mut().enumerate() {
                *a = f(*a, S::from_le(&g[j * S::SIZE..][..S::SIZE]).to_f64());
            }
        }
        acc = regs;
        // Tail: the leftover cells start a group at lane 0.
        let tail = groups.remainder();
        onto(&mut acc, tail);
        lane = tail.len() / S::SIZE;
    }
    *lanes = acc;
}

/// Scale (downsample) an array by integer `factors` per axis: each result
/// cell is the average of the corresponding block of source cells (blocks
/// at the upper border may be partial). The result domain is normalized to
/// a zero origin with `ceil(extent / factor)` cells per axis — RasDaMan's
/// `scale()` used for overview products.
pub fn scale_down(a: &MDArray, factors: &[u64]) -> Result<MDArray> {
    let dom = a.domain();
    let d = dom.dim();
    if factors.len() != d {
        return Err(ArrayError::DimensionMismatch {
            expected: d,
            got: factors.len(),
        });
    }
    if factors.contains(&0) {
        return Err(ArrayError::Empty("scale factor"));
    }
    let out_shape: Vec<u64> = dom
        .shape()
        .iter()
        .zip(factors)
        .map(|(&e, &f)| e.div_ceil(f))
        .collect();
    let out_dom = Minterval::with_shape(&out_shape)?;
    let out = with_scalar!(a.cell_type(), S, {
        scale_blocks::<S>(a, factors, &out_dom)?
    });
    MDArray::from_bytes(out_dom, a.cell_type(), out)
}

/// The block means of [`scale_down`], one output cell at a time in
/// row-major order. Each block is summed run by run, which is row-major
/// cell order: the f64 additions happen in a fixed order, so results are
/// bit-exact across kernels.
fn scale_blocks<S: Scalar>(a: &MDArray, factors: &[u64], out_dom: &Minterval) -> Result<Vec<u8>> {
    let dom = a.domain();
    let src = a.bytes();
    let mut out = vec![0u8; out_dom.cell_count() as usize * S::SIZE];
    let mut op = out_dom.lo();
    for cell in out.chunks_exact_mut(S::SIZE) {
        let mut axes = Vec::with_capacity(factors.len());
        for (i, &f) in factors.iter().enumerate() {
            let lo = dom.axis(i).lo + op.coord(i) * f as i64;
            let hi = (lo + f as i64 - 1).min(dom.axis(i).hi);
            axes.push(Interval::new(lo, hi)?);
        }
        let block = Minterval::from_intervals(axes);
        let runs = dom.row_runs(&block)?;
        let run_bytes = runs.run_len() * S::SIZE;
        let mut acc = 0.0;
        for off in runs {
            let off = off * S::SIZE;
            acc = src[off..off + run_bytes]
                .chunks_exact(S::SIZE)
                .fold(acc, |acc, b| acc + S::from_le(b).to_f64());
        }
        S::from_f64(acc / block.cell_count() as f64).write_le(cell);
        out_dom.advance(&mut op);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Point;
    use crate::value::CellValue;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn ramp2d() -> MDArray {
        MDArray::generate(mi(&[(0, 3), (0, 3)]), CellType::I32, |p| {
            (p.coord(0) * 4 + p.coord(1)) as f64
        })
    }

    #[test]
    fn trim_restricts_domain() {
        let a = ramp2d();
        let t = trim(&a, &mi(&[(1, 2), (1, 2)])).unwrap();
        assert_eq!(t.domain(), &mi(&[(1, 2), (1, 2)]));
        assert_eq!(t.sum(), (5 + 6 + 9 + 10) as f64);
    }

    #[test]
    fn slice_reduces_dimensionality() {
        let a = ramp2d();
        let s = slice(&a, 0, 2).unwrap();
        assert_eq!(s.domain(), &mi(&[(0, 3)]));
        assert_eq!(s.sum(), (8 + 9 + 10 + 11) as f64);
        let s2 = slice(&a, 1, 0).unwrap();
        assert_eq!(s2.sum(), (4 + 8 + 12) as f64);
    }

    #[test]
    fn slice_copies_cell_bytes_verbatim() {
        // A signaling f32 NaN (quiet bit clear) survives slicing bit for
        // bit: slice is a byte copy, not a decode/encode round trip,
        // which would quiet it.
        const SNAN: u32 = 0x7fa0_0001;
        let words = [1.5f32.to_bits(), SNAN, (-0.0f32).to_bits(), SNAN];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let a = MDArray::from_bytes(mi(&[(0, 1), (0, 1)]), CellType::F32, bytes).unwrap();
        let s = slice(&a, 0, 1).unwrap();
        let got: Vec<u32> = s
            .bytes()
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, [(-0.0f32).to_bits(), SNAN]);
    }

    #[test]
    fn slice_rejects_bad_position() {
        let a = ramp2d();
        assert!(slice(&a, 0, 9).is_err());
        assert!(slice(&a, 5, 0).is_err());
    }

    #[test]
    fn induced_unary_ops() {
        let a = ramp2d();
        let n = induced_unary(&a, UnaryOp::Neg);
        assert_eq!(n.sum(), -a.sum());
        let abs = induced_unary(&n, UnaryOp::Abs);
        assert_eq!(abs.sum(), a.sum());
        let c = induced_unary(&a, UnaryOp::Cast(CellType::F64));
        assert_eq!(c.cell_type(), CellType::F64);
        assert_eq!(c.sum(), a.sum());
    }

    #[test]
    fn induced_binary_on_intersection() {
        let a = MDArray::generate(mi(&[(0, 3), (0, 3)]), CellType::I32, |_| 10.0);
        let b = MDArray::generate(mi(&[(2, 5), (2, 5)]), CellType::I32, |_| 4.0);
        let s = induced_binary(&a, &b, BinaryOp::Sub).unwrap();
        assert_eq!(s.domain(), &mi(&[(2, 3), (2, 3)]));
        assert_eq!(s.sum(), 6.0 * 4.0);
        let disjoint = MDArray::zeros(mi(&[(10, 11), (10, 11)]), CellType::I32);
        assert!(induced_binary(&a, &disjoint, BinaryOp::Add).is_err());
    }

    #[test]
    fn comparison_produces_mask() {
        let a = ramp2d();
        let m = induced_scalar(&a, 8.0, BinaryOp::Ge).unwrap();
        assert_eq!(m.cell_type(), CellType::U8);
        assert_eq!(m.sum(), 8.0); // cells 8..15
    }

    #[test]
    fn division_by_zero_is_error() {
        let a = ramp2d();
        assert!(induced_scalar(&a, 0.0, BinaryOp::Div).is_err());
        let z = MDArray::zeros(mi(&[(0, 3), (0, 3)]), CellType::I32);
        assert!(induced_binary(&a, &z, BinaryOp::Div).is_err());
    }

    const ALL_TYPES: [CellType; 5] = [
        CellType::U8,
        CellType::I16,
        CellType::I32,
        CellType::F32,
        CellType::F64,
    ];

    const ALL_OPS: [BinaryOp; 12] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::Eq,
        BinaryOp::Ne,
    ];

    /// The reference semantics of one cell: `op` over f64, a zero
    /// divisor an error.
    fn apply(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
        Ok(match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    return Err(ArrayError::DivisionByZero);
                }
                a / b
            }
            // NaN loses; a tie such as -0.0 vs 0.0 yields `a` (std's
            // `f64::min`/`max` leave the sign of a zero tie open)
            BinaryOp::Min => {
                if b < a || a.is_nan() {
                    b
                } else {
                    a
                }
            }
            BinaryOp::Max => {
                if b > a || a.is_nan() {
                    b
                } else {
                    a
                }
            }
            BinaryOp::Lt => (a < b) as u8 as f64,
            BinaryOp::Le => (a <= b) as u8 as f64,
            BinaryOp::Gt => (a > b) as u8 as f64,
            BinaryOp::Ge => (a >= b) as u8 as f64,
            BinaryOp::Eq => (a == b) as u8 as f64,
            BinaryOp::Ne => (a != b) as u8 as f64,
        })
    }

    /// Cell `i` of `a`, decoded without the typed kernels.
    fn cell(a: &MDArray, i: usize) -> f64 {
        let sz = a.cell_type().size_bytes();
        let b = &a.bytes()[i * sz..][..sz];
        match a.cell_type() {
            CellType::U8 => b[0] as f64,
            CellType::I16 => i16::from_le_bytes(b.try_into().unwrap()) as f64,
            CellType::I32 => i32::from_le_bytes(b.try_into().unwrap()) as f64,
            CellType::F32 => f32::from_le_bytes(b.try_into().unwrap()) as f64,
            CellType::F64 => f64::from_le_bytes(b.try_into().unwrap()),
        }
    }

    /// `op` cell by cell through `CellValue::from_f64`: the bytes every
    /// typed kernel must reproduce, or the error it must return.
    fn reference(
        dom: &Minterval,
        out_ty: CellType,
        op: BinaryOp,
        pair: impl Fn(usize) -> (f64, f64),
    ) -> Result<MDArray> {
        let n = dom.cell_count() as usize;
        let mut out = vec![0u8; n * out_ty.size_bytes()];
        for i in 0..n {
            let (a, b) = pair(i);
            CellValue::from_f64(out_ty, apply(op, a, b)?).write(&mut out, i)?;
        }
        MDArray::from_bytes(dom.clone(), out_ty, out)
    }

    /// A 1-D array of `values` (saturated into `ty` as cells are).
    fn array_of(ty: CellType, values: &[f64]) -> MDArray {
        let mut bytes = vec![0u8; values.len() * ty.size_bytes()];
        for (i, &v) in values.iter().enumerate() {
            CellValue::from_f64(ty, v).write(&mut bytes, i).unwrap();
        }
        MDArray::from_bytes(mi(&[(0, values.len() as i64 - 1)]), ty, bytes).unwrap()
    }

    fn assert_same(got: Result<MDArray>, want: Result<MDArray>, what: &str) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.cell_type(), w.cell_type(), "{what}");
                assert_eq!(g.domain(), w.domain(), "{what}");
                let sz = g.cell_type().size_bytes();
                let cells = |a: &MDArray| a.bytes().chunks(sz).map(<[u8]>::to_vec).collect();
                let (gc, wc): (Vec<_>, Vec<_>) = (cells(&g), cells(&w));
                if let Some(i) = (0..gc.len()).find(|&i| gc[i] != wc[i]) {
                    panic!("{what}: cell {i} is {:?}, want {:?}", gc[i], wc[i]);
                }
            }
            (Err(ArrayError::DivisionByZero), Err(ArrayError::DivisionByZero)) => {}
            (g, w) => panic!("{what}: got {g:?}, want {w:?}"),
        }
    }

    #[test]
    fn induced_kernels_match_the_per_cell_reference() {
        let edge = [
            -300.5,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            3.7,
            127.0,
            128.0,
            255.0,
            256.0,
            4e4,
            -4e4,
            3e9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let nonzero: Vec<f64> = edge.iter().map(|&v| v + 7.25).collect();
        // every u8 value, more than once
        let ramp: Vec<f64> = (0..600).map(|i| (i * 7 % 256) as f64).collect();
        let ramp_nonzero: Vec<f64> = ramp.iter().map(|&v| v.max(1.0)).collect();
        let scalars = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            127.0,
            127.5,
            300.0,
            1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let sets: [&[f64]; 4] = [&edge, &nonzero, &ramp, &ramp_nonzero];
        for ty in ALL_TYPES {
            for values in sets {
                let a = array_of(ty, values);
                let n = values.len();
                for op in ALL_OPS {
                    let out_ty = op.result_type(ty, ty);
                    for s in scalars {
                        let what = format!("{ty:?} {op:?} {s} ({n} cells)");
                        assert_same(
                            induced_scalar(&a, s, op),
                            reference(a.domain(), out_ty, op, |i| (cell(&a, i), s)),
                            &format!("array op scalar: {what}"),
                        );
                        assert_same(
                            scalar_induced(s, &a, op),
                            reference(a.domain(), out_ty, op, |i| (s, cell(&a, i))),
                            &format!("scalar op array: {what}"),
                        );
                    }
                    for other in ALL_TYPES {
                        for divisors in sets.into_iter().filter(|d| d.len() == n) {
                            let b = array_of(other, divisors);
                            assert_same(
                                induced_binary(&a, &b, op),
                                reference(a.domain(), op.result_type(ty, other), op, |i| {
                                    (cell(&a, i), cell(&b, i))
                                }),
                                &format!("array op array: {ty:?} {op:?} {other:?} ({n} cells)"),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn condensers_match_direct_computation() {
        let a = ramp2d(); // values 0..=15
        assert_eq!(Condenser::Sum.eval(&a).unwrap(), 120.0);
        assert_eq!(Condenser::Avg.eval(&a).unwrap(), 7.5);
        assert_eq!(Condenser::Min.eval(&a).unwrap(), 0.0);
        assert_eq!(Condenser::Max.eval(&a).unwrap(), 15.0);
        assert_eq!(Condenser::CountNonZero.eval(&a).unwrap(), 15.0);
    }

    #[test]
    fn fold_lane_follows_the_cell_ordinal() {
        // 1e16 at ordinal 0 and 1.0 at ordinals 8 and 16 share lane 0,
        // where each 1.0 rounds away. A fold that restarted its lanes per
        // piece would put both ones on one other lane and keep their 2.0.
        let mut cells = [0.0f64; 17];
        (cells[0], cells[8], cells[16]) = (1e16, 1.0, 1.0);
        let bytes = cells.iter().flat_map(|v| v.to_le_bytes()).collect();
        let a = MDArray::from_bytes(mi(&[(0, 16)]), CellType::F64, bytes).unwrap();
        assert_eq!(Condenser::Sum.eval(&a).unwrap(), 1e16);
        let mut fold = Fold::new(Condenser::Sum);
        fold.add(&a, &mi(&[(0, 4)])).unwrap();
        fold.add(&a, &mi(&[(5, 16)])).unwrap();
        assert_eq!(fold.finish().unwrap(), 1e16);
        assert!(Fold::new(Condenser::Max).finish().is_err());
    }

    #[test]
    fn condenser_combine_matches_whole() {
        let a = ramp2d();
        let left = trim(&a, &mi(&[(0, 3), (0, 1)])).unwrap();
        let right = trim(&a, &mi(&[(0, 3), (2, 3)])).unwrap();
        for c in [
            Condenser::Sum,
            Condenser::Avg,
            Condenser::Min,
            Condenser::Max,
            Condenser::CountNonZero,
        ] {
            let whole = c.eval(&a).unwrap();
            let parts = vec![
                (c.eval(&left).unwrap(), left.domain().cell_count()),
                (c.eval(&right).unwrap(), right.domain().cell_count()),
            ];
            let combined = c.combine(&parts).unwrap();
            assert!(
                (whole - combined).abs() < 1e-9,
                "{c:?}: whole {whole} vs combined {combined}"
            );
        }
    }

    #[test]
    fn scale_down_averages_blocks() {
        let a = MDArray::generate(mi(&[(0, 3), (0, 3)]), CellType::F64, |p| {
            (p.coord(0) * 4 + p.coord(1)) as f64
        });
        let s = scale_down(&a, &[2, 2]).unwrap();
        assert_eq!(s.domain(), &mi(&[(0, 1), (0, 1)]));
        // top-left block: cells 0,1,4,5 -> mean 2.5
        assert_eq!(s.get_f64(&Point::new(vec![0, 0])).unwrap(), 2.5);
        // bottom-right block: 10,11,14,15 -> 12.5
        assert_eq!(s.get_f64(&Point::new(vec![1, 1])).unwrap(), 12.5);
    }

    #[test]
    fn scale_down_handles_partial_border_blocks() {
        let a = MDArray::generate(mi(&[(0, 4)]), CellType::F64, |p| p.coord(0) as f64);
        let s = scale_down(&a, &[2]).unwrap();
        assert_eq!(s.domain().cell_count(), 3);
        assert_eq!(s.get_f64(&Point::new(vec![0])).unwrap(), 0.5);
        assert_eq!(s.get_f64(&Point::new(vec![2])).unwrap(), 4.0); // lone cell
    }

    #[test]
    fn scale_down_normalizes_origin_and_validates() {
        let a = MDArray::generate(mi(&[(10, 13), (20, 23)]), CellType::I32, |_| 8.0);
        let s = scale_down(&a, &[2, 2]).unwrap();
        assert_eq!(s.domain(), &mi(&[(0, 1), (0, 1)]));
        assert_eq!(s.sum(), 32.0);
        assert!(scale_down(&a, &[2]).is_err());
        assert!(scale_down(&a, &[0, 2]).is_err());
    }

    #[test]
    fn condenser_names_roundtrip() {
        for c in [
            Condenser::Sum,
            Condenser::Avg,
            Condenser::Min,
            Condenser::Max,
            Condenser::CountNonZero,
        ] {
            assert_eq!(Condenser::parse(c.name()), Some(c));
        }
        assert_eq!(Condenser::parse("median_cells"), None);
    }
}
