//! The region kernels (`copy_region`, `patch`, `extract`, `slice`,
//! `scale_down`, unaligned `induced_binary`, the condenser `Fold`) run on
//! the row-run walker, and `scalar_induced` is one typed pass. These
//! properties check them bit for bit, errors included, against the
//! per-point walks and sequential folds they replaced, kept here as
//! references.

use heaven_array::mdd::copy_region;
use heaven_array::{
    induced_binary, scalar_induced, scale_down, slice, ArrayError, BinaryOp, CellType, Condenser,
    Fold, Interval, MDArray, Minterval, Point, Result,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: [CellType; 5] = [
    CellType::U8,
    CellType::I16,
    CellType::I32,
    CellType::F32,
    CellType::F64,
];

/// The per-point `copy_region`: one `Point` and two checked `offset_of`
/// calls per last-axis row. Unchanged apart from writing through a byte
/// vector instead of the array's private buffer.
fn copy_region_per_point(src: &MDArray, dst: &mut MDArray, region: &Minterval) -> Result<()> {
    if !src.domain().contains(region) {
        return Err(ArrayError::NotContained {
            inner: region.to_string(),
            outer: src.domain().to_string(),
        });
    }
    if !dst.domain().contains(region) {
        return Err(ArrayError::NotContained {
            inner: region.to_string(),
            outer: dst.domain().to_string(),
        });
    }
    if src.cell_type() != dst.cell_type() {
        return Err(ArrayError::TypeMismatch {
            left: src.cell_type().name(),
            right: dst.cell_type().name(),
        });
    }
    let d = region.dim();
    let cell_sz = src.cell_type().size_bytes();
    if d == 0 {
        return Ok(());
    }
    let last = d - 1;
    let run_len = region.axis(last).extent() as usize * cell_sz;
    let outer = if d == 1 {
        None
    } else {
        Some(Minterval::from_intervals(region.axes()[..last].to_vec()))
    };
    let row_starts: Box<dyn Iterator<Item = Point>> = match &outer {
        None => Box::new(std::iter::once(Point::new(vec![region.axis(0).lo]))),
        Some(o) => Box::new(o.iter_points().map(move |mut p| {
            p.0.push(region.axis(last).lo);
            p
        })),
    };
    let src_dom = src.domain().clone();
    let dst_dom = dst.domain().clone();
    let src_bytes = src.bytes();
    let mut dst_bytes = dst.bytes().to_vec();
    for start in row_starts {
        let so = src_dom.offset_of(&start)? * cell_sz;
        let doff = dst_dom.offset_of(&start)? * cell_sz;
        dst_bytes[doff..doff + run_len].copy_from_slice(&src_bytes[so..so + run_len]);
    }
    *dst = MDArray::from_bytes(dst_dom, dst.cell_type(), dst_bytes)?;
    Ok(())
}

/// The per-point `slice`: one `offset_of` lookup per result cell. It
/// copies cell bytes where the old walk went through `get_f64`/`set`; the
/// two differ only on signaling f32 NaNs, which that f64 round trip
/// quieted and a copy keeps.
fn slice_per_point(a: &MDArray, dim: usize, pos: i64) -> Result<MDArray> {
    let out_dom = a.domain().project_out(dim)?;
    let sz = a.cell_type().size_bytes();
    let mut out = Vec::with_capacity(out_dom.cell_count() as usize * sz);
    for p in out_dom.iter_points() {
        let mut full = p.0.clone();
        full.insert(dim, pos);
        let off = a.domain().offset_of(&Point::new(full))? * sz;
        out.extend_from_slice(&a.bytes()[off..off + sz]);
    }
    MDArray::from_bytes(out_dom, a.cell_type(), out)
}

/// The per-point `scale_down`: one `get_f64` per source cell, summed in
/// row-major order within each block.
fn scale_down_per_point(a: &MDArray, factors: &[u64]) -> Result<MDArray> {
    let dom = a.domain();
    let out_shape: Vec<u64> = dom
        .shape()
        .iter()
        .zip(factors)
        .map(|(&e, &f)| e.div_ceil(f))
        .collect();
    let out_dom = Minterval::with_shape(&out_shape)?;
    let mut out = MDArray::zeros(out_dom.clone(), a.cell_type());
    for op in out_dom.iter_points() {
        let mut axes = Vec::with_capacity(dom.dim());
        for (i, &f) in factors.iter().enumerate() {
            let lo = dom.axis(i).lo + op.coord(i) * f as i64;
            let hi = (lo + f as i64 - 1).min(dom.axis(i).hi);
            axes.push(Interval::new(lo, hi)?);
        }
        let block = Minterval::from_intervals(axes);
        let mut acc = 0.0;
        for p in block.iter_points() {
            acc += a.get_f64(&p)?;
        }
        out.set(&op, acc / block.cell_count() as f64)?;
    }
    Ok(out)
}

/// The per-point `scalar OP array` of the query executor: `get_f64`,
/// the scalar on the left, `set`, one point at a time.
fn scalar_induced_per_point(s: f64, a: &MDArray, op: BinaryOp) -> Result<MDArray> {
    let out_ty = op.result_type(a.cell_type(), a.cell_type());
    let mut out = MDArray::zeros(a.domain().clone(), out_ty);
    for p in a.domain().iter_points() {
        let y = a.get_f64(&p)?;
        let v = match op {
            BinaryOp::Add => s + y,
            BinaryOp::Sub => s - y,
            BinaryOp::Mul => s * y,
            BinaryOp::Div => {
                if y == 0.0 {
                    return Err(ArrayError::DivisionByZero);
                }
                s / y
            }
            BinaryOp::Min => s.min(y),
            BinaryOp::Max => s.max(y),
            BinaryOp::Lt => (s < y) as u8 as f64,
            BinaryOp::Le => (s <= y) as u8 as f64,
            BinaryOp::Gt => (s > y) as u8 as f64,
            BinaryOp::Ge => (s >= y) as u8 as f64,
            BinaryOp::Eq => (s == y) as u8 as f64,
            BinaryOp::Ne => (s != y) as u8 as f64,
        };
        out.set(&p, v)?;
    }
    Ok(out)
}

const BINARY_OPS: [BinaryOp; 12] = [
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

/// The sequential condenser fold `Condenser::eval` ran before the lane
/// kernel: one f64 dependency chain over the cells in row-major order.
fn condense_sequential(op: Condenser, a: &MDArray) -> f64 {
    let vals = a.domain().iter_points().map(|p| a.get_f64(&p).unwrap());
    let n = a.domain().cell_count() as f64;
    match op {
        Condenser::Sum => vals.fold(0.0, |acc, x| acc + x),
        Condenser::Avg => vals.fold(0.0, |acc, x| acc + x) / n,
        Condenser::Min => vals.fold(f64::INFINITY, f64::min),
        Condenser::Max => vals.fold(f64::NEG_INFINITY, f64::max),
        Condenser::CountNonZero => vals.fold(0.0, |acc, x| if x != 0.0 { acc + 1.0 } else { acc }),
    }
}

/// Finite cells with fractional parts (for the float types), so sums
/// round differently in different addition orders.
fn finite_array(dom: &Minterval, ty: CellType, rng: &mut StdRng) -> MDArray {
    MDArray::generate(dom.clone(), ty, |_| match ty {
        CellType::F32 | CellType::F64 => rng.gen_range(-1.0e6..1.0e6),
        _ => rng.gen_range(-40_000..40_000i64) as f64,
    })
}

/// `region` cut into random boxes along its first axis, then (above
/// 1-D) each of those along its last axis: pieces in row-major order of
/// the cut.
fn random_pieces(region: &Minterval, rng: &mut StdRng) -> Vec<Minterval> {
    let cuts = |iv: Interval, rng: &mut StdRng| {
        let mut out = Vec::new();
        let mut lo = iv.lo;
        while lo <= iv.hi {
            let hi = (lo + rng.gen_range(0..3i64)).min(iv.hi);
            out.push(Interval::new(lo, hi).unwrap());
            lo = hi + 1;
        }
        out
    };
    let last = region.dim() - 1;
    let mut pieces = Vec::new();
    for first in cuts(region.axis(0), rng) {
        let mut axes = region.axes().to_vec();
        axes[0] = first;
        if last == 0 {
            pieces.push(Minterval::from_intervals(axes));
            continue;
        }
        for tail in cuts(region.axis(last), rng) {
            let mut axes = axes.clone();
            axes[last] = tail;
            pieces.push(Minterval::from_intervals(axes));
        }
    }
    pieces
}

/// Every byte random, so float cells include NaN and infinity patterns.
fn random_array(dom: &Minterval, ty: CellType, rng: &mut StdRng) -> MDArray {
    let n = dom.cell_count() as usize * ty.size_bytes();
    let bytes = (0..n).map(|_| rng.gen_range(0..=255u8)).collect();
    MDArray::from_bytes(dom.clone(), ty, bytes).unwrap()
}

/// A random 1–4-D region and two enclosing boxes, each padded by its own
/// random margins, so source and destination have different origins.
fn random_case(rng: &mut StdRng) -> (Minterval, Minterval, Minterval) {
    let d = rng.gen_range(1..=4usize);
    let mut region = Vec::with_capacity(d);
    let (mut src, mut dst) = (Vec::with_capacity(d), Vec::with_capacity(d));
    for _ in 0..d {
        let lo = rng.gen_range(-20..20i64);
        let hi = lo + rng.gen_range(0..5i64);
        region.push(Interval::new(lo, hi).unwrap());
        for boxes in [&mut src, &mut dst] {
            let (below, above) = (rng.gen_range(0..3i64), rng.gen_range(0..3i64));
            boxes.push(Interval::new(lo - below, hi + above).unwrap());
        }
    }
    (
        Minterval::from_intervals(region),
        Minterval::from_intervals(src),
        Minterval::from_intervals(dst),
    )
}

/// `dom` with axis `axis` grown by one cell past its upper bound.
fn poke_out(dom: &Minterval, axis: usize) -> Minterval {
    let mut axes = dom.axes().to_vec();
    axes[axis] = Interval::new(axes[axis].lo, axes[axis].hi + 1).unwrap();
    Minterval::from_intervals(axes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn copy_kernels_match_per_point_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (region, sdom, ddom) = random_case(&mut rng);
        for ty in TYPES {
            let src = random_array(&sdom, ty, &mut rng);
            let dst = random_array(&ddom, ty, &mut rng);

            let mut want = dst.clone();
            copy_region_per_point(&src, &mut want, &region).unwrap();
            let mut got = dst.clone();
            copy_region(&src, &mut got, &region).unwrap();
            prop_assert_eq!(&got, &want);

            let overlap = sdom.intersection(&ddom).expect("both contain region");
            let mut want = dst.clone();
            copy_region_per_point(&src, &mut want, &overlap).unwrap();
            let mut got = dst.clone();
            got.patch(&src).unwrap();
            prop_assert_eq!(&got, &want);

            let mut want = MDArray::zeros(region.clone(), ty);
            copy_region_per_point(&src, &mut want, &region).unwrap();
            prop_assert_eq!(src.extract(&region).unwrap(), want);
        }
    }

    #[test]
    fn copy_kernels_keep_error_variants(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (region, sdom, ddom) = random_case(&mut rng);
        let axis = rng.gen_range(0..region.dim());
        let ty = TYPES[rng.gen_range(0..TYPES.len())];
        let other = TYPES[(TYPES.iter().position(|&t| t == ty).unwrap() + 1) % TYPES.len()];
        let src = random_array(&sdom, ty, &mut rng);
        let dst = random_array(&ddom, ty, &mut rng);
        let dst_other = MDArray::zeros(ddom.clone(), other);
        let beyond_src = poke_out(&sdom, axis);
        let beyond_dst = poke_out(&ddom, axis);
        for (dst, region) in [
            (&dst, &beyond_src),
            (&dst, &beyond_dst),
            (&dst_other, &region),
        ] {
            let mut want = dst.clone();
            let want_err = copy_region_per_point(&src, &mut want, region).unwrap_err();
            let mut got = dst.clone();
            let got_err = copy_region(&src, &mut got, region).unwrap_err();
            prop_assert_eq!(got_err, want_err);
            prop_assert_eq!(&got, dst);
        }
        let err = src.extract(&beyond_src).unwrap_err();
        prop_assert_eq!(
            err,
            ArrayError::NotContained {
                inner: beyond_src.to_string(),
                outer: sdom.to_string(),
            }
        );
        let mut patched = dst_other;
        let err = patched.patch(&src).unwrap_err();
        prop_assert_eq!(
            err,
            ArrayError::TypeMismatch {
                left: other.name(),
                right: ty.name(),
            }
        );
    }

    #[test]
    fn slice_and_scale_match_per_point_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, sdom, _) = random_case(&mut rng);
        let dim = rng.gen_range(0..sdom.dim());
        let pos = rng.gen_range(sdom.axis(dim).lo..=sdom.axis(dim).hi);
        let factors: Vec<u64> = (0..sdom.dim()).map(|_| rng.gen_range(1..=4u64)).collect();
        for ty in TYPES {
            let a = random_array(&sdom, ty, &mut rng);
            prop_assert_eq!(slice(&a, dim, pos).unwrap(), slice_per_point(&a, dim, pos).unwrap());
            prop_assert_eq!(
                scale_down(&a, &factors).unwrap(),
                scale_down_per_point(&a, &factors).unwrap()
            );
        }
    }

    #[test]
    fn unaligned_binary_equals_aligned_on_extracted_operands(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (region, sdom, ddom) = random_case(&mut rng);
        let overlap = sdom.intersection(&ddom).expect("both contain region");
        let (lt, rt) = (TYPES[rng.gen_range(0..5usize)], TYPES[rng.gen_range(0..5usize)]);
        let a = random_array(&sdom, lt, &mut rng);
        let b = random_array(&ddom, rt, &mut rng);
        let (mut a_ref, mut b_ref) = (MDArray::zeros(overlap.clone(), lt), MDArray::zeros(overlap.clone(), rt));
        copy_region_per_point(&a, &mut a_ref, &overlap).unwrap();
        copy_region_per_point(&b, &mut b_ref, &overlap).unwrap();
        for op in [BinaryOp::Add, BinaryOp::Max, BinaryOp::Lt, BinaryOp::Div] {
            prop_assert_eq!(
                induced_binary(&a, &b, op),
                induced_binary(&a_ref, &b_ref, op)
            );
        }
        // A zero divisor anywhere in the overlap is still a typed error.
        let zeros = MDArray::zeros(region, rt);
        prop_assert_eq!(
            induced_binary(&a, &zeros, BinaryOp::Div).unwrap_err(),
            ArrayError::DivisionByZero
        );
    }

    #[test]
    fn scalar_on_the_left_matches_per_point_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, dom, _) = random_case(&mut rng);
        let s = [0.0, -3.5, 250.0, f64::NAN][rng.gen_range(0..4usize)];
        for ty in TYPES {
            // Random bytes: zeros (for `Div`), NaNs and infinities.
            let a = random_array(&dom, ty, &mut rng);
            for op in BINARY_OPS {
                prop_assert_eq!(scalar_induced(s, &a, op), scalar_induced_per_point(s, &a, op));
            }
        }
    }

    #[test]
    fn fold_matches_sequential_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, dom, _) = random_case(&mut rng);
        for ty in TYPES {
            // Min/Max/Count exactly, over random bytes (NaN cells skipped
            // by Min/Max as `f64::min`/`f64::max` do).
            let a = random_array(&dom, ty, &mut rng);
            for op in [Condenser::Min, Condenser::Max, Condenser::CountNonZero] {
                let (got, want) = (op.eval(&a).unwrap(), condense_sequential(op, &a));
                prop_assert!(got == want, "{:?} {:?}: {} vs {}", ty, op, got, want);
            }
            // Sum/Avg to within 1e-12 of the magnitude summed.
            let a = finite_array(&dom, ty, &mut rng);
            let scale: f64 = a.domain().iter_points().map(|p| a.get_f64(&p).unwrap().abs()).sum();
            for op in [Condenser::Sum, Condenser::Avg] {
                let (got, want) = (op.eval(&a).unwrap(), condense_sequential(op, &a));
                prop_assert!((got - want).abs() <= 1e-12 * scale.max(1.0), "{:?} {:?}: {} vs {}", ty, op, got, want);
            }
        }
    }

    #[test]
    fn fold_over_pieces_equals_fold_over_their_cell_sequence(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (region, dom, _) = random_case(&mut rng);
        for ty in TYPES {
            let a = finite_array(&dom, ty, &mut rng);
            let pieces = random_pieces(&region, &mut rng);
            // The same cells, in piece order, as one 1-D array.
            let bytes: Vec<u8> = pieces
                .iter()
                .flat_map(|p| a.extract(p).unwrap().into_bytes())
                .collect();
            let n = region.cell_count() as i64;
            let line = MDArray::from_bytes(Minterval::new(&[(0, n - 1)]).unwrap(), ty, bytes).unwrap();
            for op in Condenser::ALL {
                let mut fold = Fold::new(op);
                for p in &pieces {
                    fold.add(&a, p).unwrap();
                }
                let (got, want) = (fold.finish().unwrap(), op.eval(&line).unwrap());
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} {:?}", ty, op);
            }
        }
    }
}
