//! Query executor: evaluates the AST against a [`TileProvider`].
//!
//! Queries run once per object of the FROM collection (RasDaMan semantics:
//! the result is a set of MDD/scalar values). Trims applied directly to the
//! iteration variable are *pushed down* into the provider so only the tiles
//! intersecting the requested region (or frame) are fetched — on HEAVEN
//! providers this is what turns a query into a minimal set of super-tile
//! fetches.

use super::ast::{BoxSel, Expr, FrameSpec, Query, RangeSel};
use crate::error::{ArrayDbError, Result};
use crate::provider::TileProvider;
use heaven_array::{
    induced_binary, induced_scalar, induced_unary, scalar_induced, scale_down, slice, trim,
    BinaryOp, Condenser, Fold, Frame, Interval, MDArray, Minterval, ObjectId, UnaryOp,
};

/// A query result value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An array result.
    Array(MDArray),
    /// A scalar result (condensers, scalar arithmetic).
    Scalar(f64),
}

impl Value {
    /// The scalar, if this is one.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Value::Scalar(s) => Some(*s),
            Value::Array(_) => None,
        }
    }

    /// The array, if this is one.
    pub fn as_array(&self) -> Option<&MDArray> {
        match self {
            Value::Array(a) => Some(a),
            Value::Scalar(_) => None,
        }
    }
}

/// One per-object result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The object this result was computed from.
    pub oid: ObjectId,
    /// The value.
    pub value: Value,
}

/// Execute a parsed query against a provider. The provider's
/// [`TileProvider::query_begin`]/[`TileProvider::query_end`] hooks bracket
/// the execution, including error paths.
pub fn execute(provider: &mut dyn TileProvider, query: &Query) -> Result<Vec<QueryResult>> {
    provider.query_begin(&format!("select from {}", query.collection));
    let result = execute_inner(provider, query);
    provider.query_end();
    result
}

fn execute_inner(provider: &mut dyn TileProvider, query: &Query) -> Result<Vec<QueryResult>> {
    let mut oids = provider.collection_objects(&query.collection)?;
    if let Some(f) = &query.filter {
        oids.retain(|&oid| f.accepts(oid));
    }
    let mut results = Vec::with_capacity(oids.len());
    for oid in oids {
        let value = eval(provider, oid, &query.alias, &query.target)?;
        results.push(QueryResult { oid, value });
    }
    Ok(results)
}

/// Parse and execute query text.
pub fn run(provider: &mut dyn TileProvider, text: &str) -> Result<Vec<QueryResult>> {
    let q = super::parser::parse_query(text)?;
    execute(provider, &q)
}

fn eval(provider: &mut dyn TileProvider, oid: ObjectId, alias: &str, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Num(n) => Ok(Value::Scalar(*n)),
        Expr::Var(name) => {
            check_var(name, alias)?;
            let whole = provider.object_meta(oid)?.domain;
            Ok(Value::Array(provider.fetch_region(oid, &whole)?))
        }
        Expr::Select(inner, spec) => eval_select(provider, oid, alias, inner, spec),
        Expr::Unary(op, inner) => {
            let v = eval(provider, oid, alias, inner)?;
            Ok(match v {
                Value::Array(a) => Value::Array(induced_unary(&a, *op)),
                Value::Scalar(s) => Value::Scalar(apply_unary_scalar(*op, s)),
            })
        }
        Expr::Binary(op, l, r) => {
            let lv = eval(provider, oid, alias, l)?;
            let rv = eval(provider, oid, alias, r)?;
            eval_binary(*op, lv, rv)
        }
        Expr::Condense(c, inner) => eval_condense(provider, oid, alias, *c, inner),
        Expr::Scale(inner, factor) => {
            let v = eval(provider, oid, alias, inner)?;
            match v {
                Value::Array(a) => {
                    let factors = vec![*factor; a.domain().dim()];
                    Ok(Value::Array(scale_down(&a, &factors)?))
                }
                Value::Scalar(_) => {
                    Err(ArrayDbError::Semantic("scale() applied to a scalar".into()))
                }
            }
        }
    }
}

fn check_var(name: &str, alias: &str) -> Result<()> {
    if name == alias {
        Ok(())
    } else {
        Err(ArrayDbError::Semantic(format!(
            "unknown variable '{name}' (iteration variable is '{alias}')"
        )))
    }
}

fn apply_unary_scalar(op: UnaryOp, s: f64) -> f64 {
    match op {
        UnaryOp::Neg => -s,
        UnaryOp::Abs => s.abs(),
        UnaryOp::Sqrt => s.sqrt(),
        UnaryOp::Cast(_) => s,
    }
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    Ok(match (l, r) {
        (Value::Array(a), Value::Array(b)) => Value::Array(induced_binary(&a, &b, op)?),
        (Value::Array(a), Value::Scalar(s)) => Value::Array(induced_scalar(&a, s, op)?),
        (Value::Scalar(s), Value::Array(a)) => {
            // non-commutative ops need the scalar on the left
            Value::Array(scalar_induced(s, &a, op)?)
        }
        (Value::Scalar(x), Value::Scalar(y)) => Value::Scalar(scalar_op_scalar(x, y, op)?),
    })
}

fn scalar_op_scalar(x: f64, y: f64, op: BinaryOp) -> Result<f64> {
    Ok(match op {
        BinaryOp::Add => x + y,
        BinaryOp::Sub => x - y,
        BinaryOp::Mul => x * y,
        BinaryOp::Div => {
            if y == 0.0 {
                return Err(ArrayDbError::Array(
                    heaven_array::ArrayError::DivisionByZero,
                ));
            }
            x / y
        }
        BinaryOp::Min => x.min(y),
        BinaryOp::Max => x.max(y),
        BinaryOp::Lt => (x < y) as u8 as f64,
        BinaryOp::Le => (x <= y) as u8 as f64,
        BinaryOp::Gt => (x > y) as u8 as f64,
        BinaryOp::Ge => (x >= y) as u8 as f64,
        BinaryOp::Eq => (x == y) as u8 as f64,
        BinaryOp::Ne => (x != y) as u8 as f64,
    })
}

/// Resolve a box selector against a base domain: a trim box plus the list
/// of axes to slice away afterwards (descending order).
fn resolve_box(sel: &BoxSel, base: &Minterval) -> Result<(Minterval, Vec<usize>)> {
    if sel.0.len() != base.dim() {
        return Err(ArrayDbError::Semantic(format!(
            "selection has {} axes, object has {}",
            sel.0.len(),
            base.dim()
        )));
    }
    let mut axes = Vec::with_capacity(base.dim());
    let mut slices = Vec::new();
    for (i, s) in sel.0.iter().enumerate() {
        let b = base.axis(i);
        let iv = match s {
            RangeSel::Range(lo, hi) => {
                let lo = lo.unwrap_or(b.lo);
                let hi = hi.unwrap_or(b.hi);
                Interval::new(lo, hi)?
            }
            RangeSel::At(p) => {
                slices.push(i);
                Interval::new(*p, *p)?
            }
        };
        axes.push(iv);
    }
    slices.reverse(); // slice from the highest axis down
    Ok((Minterval::from_intervals(axes), slices))
}

fn resolve_frame(spec: &FrameSpec, base: &Minterval) -> Result<Frame> {
    match spec {
        FrameSpec::Single(b) => {
            let (bx, slices) = resolve_box(b, base)?;
            if !slices.is_empty() {
                return Err(ArrayDbError::Semantic(
                    "slicing is not allowed inside frame selections".into(),
                ));
            }
            Ok(Frame::from_box(bx))
        }
        FrameSpec::Union(boxes) => {
            let mut f = Frame::empty(base.dim());
            for b in boxes {
                let (bx, slices) = resolve_box(b, base)?;
                if !slices.is_empty() {
                    return Err(ArrayDbError::Semantic(
                        "slicing is not allowed inside frame selections".into(),
                    ));
                }
                f = f.union(&Frame::from_box(bx))?;
            }
            Ok(f)
        }
        FrameSpec::Diff(outer, inner) => {
            let (o, so) = resolve_box(outer, base)?;
            let (i, si) = resolve_box(inner, base)?;
            if !so.is_empty() || !si.is_empty() {
                return Err(ArrayDbError::Semantic(
                    "slicing is not allowed inside frame selections".into(),
                ));
            }
            Frame::from_box(o)
                .difference(&Frame::from_box(i))
                .map_err(Into::into)
        }
    }
}

fn eval_select(
    provider: &mut dyn TileProvider,
    oid: ObjectId,
    alias: &str,
    inner: &Expr,
    spec: &FrameSpec,
) -> Result<Value> {
    // Push-down: selection applied directly to the iteration variable is
    // resolved through the provider.
    if let Expr::Var(name) = inner {
        check_var(name, alias)?;
        let meta = provider.object_meta(oid)?;
        return match spec {
            FrameSpec::Single(b) => {
                let (bx, slices) = resolve_box(b, &meta.domain)?;
                if !meta.domain.contains(&bx) {
                    return Err(ArrayDbError::Semantic(format!(
                        "selection {bx} outside object domain {}",
                        meta.domain
                    )));
                }
                let mut arr = provider.fetch_region(oid, &bx)?;
                for axis in slices {
                    let pos = bx.axis(axis).lo;
                    arr = slice(&arr, axis, pos)?;
                }
                Ok(Value::Array(arr))
            }
            _ => {
                let frame = resolve_frame(spec, &meta.domain)?;
                Ok(Value::Array(provider.fetch_frame(oid, &frame)?))
            }
        };
    }
    // General case: materialize, then select on the value.
    let v = eval(provider, oid, alias, inner)?;
    let arr = match v {
        Value::Array(a) => a,
        Value::Scalar(_) => {
            return Err(ArrayDbError::Semantic(
                "cannot apply a selection to a scalar".into(),
            ))
        }
    };
    match spec {
        FrameSpec::Single(b) => {
            let (bx, slices) = resolve_box(b, arr.domain())?;
            let mut out = trim(&arr, &bx)?;
            for axis in slices {
                let pos = bx.axis(axis).lo;
                out = slice(&out, axis, pos)?;
            }
            Ok(Value::Array(out))
        }
        _ => {
            let frame = resolve_frame(spec, arr.domain())?.clip(arr.domain());
            let bbox = frame
                .bounding_box()
                .ok_or_else(|| ArrayDbError::Semantic("frame selects nothing".into()))?;
            let mut out = MDArray::zeros(bbox, arr.cell_type());
            for b in frame.boxes() {
                out.patch(&trim(&arr, b)?)?;
            }
            Ok(Value::Array(out))
        }
    }
}

fn eval_condense(
    provider: &mut dyn TileProvider,
    oid: ObjectId,
    alias: &str,
    c: Condenser,
    inner: &Expr,
) -> Result<Value> {
    // Precomputed-result catalog hook (paper §3.9): condensers over plain
    // trims of the iteration variable are memoizable by (oid, op, region).
    if let Some(region) = plain_trim_region(provider, oid, alias, inner)? {
        if let Some(v) = provider.precomputed(oid, c, &region) {
            return Ok(Value::Scalar(v));
        }
        // Fold tile piece by tile piece: no assembly buffer, no copy.
        let mut fold = Fold::new(c);
        provider.visit_region(oid, &region, &mut |clip, src| fold.add(src, clip))?;
        let v = fold.finish()?;
        provider.note_computed(oid, c, &region, v);
        return Ok(Value::Scalar(v));
    }
    let v = eval(provider, oid, alias, inner)?;
    match v {
        Value::Array(a) => Ok(Value::Scalar(c.eval(&a)?)),
        Value::Scalar(_) => Err(ArrayDbError::Semantic(
            "condenser applied to a scalar".into(),
        )),
    }
}

/// If `expr` is `var` or `var[plain trim]`, return the selected region.
fn plain_trim_region(
    provider: &mut dyn TileProvider,
    oid: ObjectId,
    alias: &str,
    expr: &Expr,
) -> Result<Option<Minterval>> {
    match expr {
        Expr::Var(name) if name == alias => Ok(Some(provider.object_meta(oid)?.domain)),
        Expr::Select(inner, FrameSpec::Single(b)) => {
            if let Expr::Var(name) = &**inner {
                if name == alias {
                    let meta = provider.object_meta(oid)?;
                    let (bx, slices) = resolve_box(b, &meta.domain)?;
                    if slices.is_empty() && meta.domain.contains(&bx) {
                        return Ok(Some(bx));
                    }
                }
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ArrayDb;
    use heaven_array::{CellType, Point, Tiling};

    fn setup() -> (ArrayDb, ObjectId) {
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("temps", CellType::F64, 2).unwrap();
        let dom = Minterval::new(&[(0, 19), (0, 19)]).unwrap();
        let arr = MDArray::generate(dom, CellType::F64, |p| {
            (p.coord(0) * 100 + p.coord(1)) as f64
        });
        let oid = adb
            .insert_object(
                "temps",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![10, 10],
                },
            )
            .unwrap();
        (adb, oid)
    }

    #[test]
    fn trim_query_returns_subarray() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select t[5:6, 7:8] from temps as t").unwrap();
        assert_eq!(rs.len(), 1);
        let arr = rs[0].value.as_array().unwrap();
        assert_eq!(arr.domain(), &Minterval::new(&[(5, 6), (7, 8)]).unwrap());
        assert_eq!(arr.get_f64(&Point::new(vec![6, 8])).unwrap(), 608.0);
    }

    #[test]
    fn slice_query_reduces_dimensionality() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select t[*:*, 3] from temps as t").unwrap();
        let arr = rs[0].value.as_array().unwrap();
        assert_eq!(arr.domain().dim(), 1);
        assert_eq!(arr.get_f64(&Point::new(vec![7])).unwrap(), 703.0);
    }

    #[test]
    fn condenser_query_returns_scalar() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select avg_cells(t[0:1, 0:1]) from temps as t").unwrap();
        let avg = rs[0].value.as_scalar().unwrap();
        assert_eq!(avg, (0.0 + 1.0 + 100.0 + 101.0) / 4.0);
    }

    #[test]
    fn arithmetic_with_scalars() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select (t[0:0,0:1] + 10) * 2 from temps as t").unwrap();
        let arr = rs[0].value.as_array().unwrap();
        assert_eq!(arr.get_f64(&Point::new(vec![0, 0])).unwrap(), 20.0);
        assert_eq!(arr.get_f64(&Point::new(vec![0, 1])).unwrap(), 22.0);
    }

    #[test]
    fn scalar_minus_array_is_not_commuted() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select 100 - t[0:0, 0:1] from temps as t").unwrap();
        let arr = rs[0].value.as_array().unwrap();
        assert_eq!(arr.get_f64(&Point::new(vec![0, 0])).unwrap(), 100.0);
        assert_eq!(arr.get_f64(&Point::new(vec![0, 1])).unwrap(), 99.0);
    }

    #[test]
    fn comparison_mask_counts() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select count_cells(t >= 1900) from temps as t").unwrap();
        // values 1900..=1919
        assert_eq!(rs[0].value.as_scalar().unwrap(), 20.0);
    }

    #[test]
    fn union_frame_query() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select t[0:4,0:4 | 15:19,15:19] from temps as t").unwrap();
        let arr = rs[0].value.as_array().unwrap();
        // bounding box covers both corners
        assert_eq!(arr.domain(), &Minterval::new(&[(0, 19), (0, 19)]).unwrap());
        assert_eq!(arr.get_f64(&Point::new(vec![2, 2])).unwrap(), 202.0);
        assert_eq!(arr.get_f64(&Point::new(vec![17, 17])).unwrap(), 1717.0);
        // outside the frame: zero
        assert_eq!(arr.get_f64(&Point::new(vec![10, 10])).unwrap(), 0.0);
    }

    #[test]
    fn difference_frame_query() {
        let (mut adb, _) = setup();
        let rs = run(
            &mut adb,
            r"select add_cells(t[0:19,0:19 \ 1:18,1:18]) from temps as t",
        )
        .unwrap();
        // border ring sum
        let dom = Minterval::new(&[(0, 19), (0, 19)]).unwrap();
        let mut expect = 0.0;
        for p in dom.iter_points() {
            let on_border =
                p.coord(0) == 0 || p.coord(0) == 19 || p.coord(1) == 0 || p.coord(1) == 19;
            if on_border {
                expect += (p.coord(0) * 100 + p.coord(1)) as f64;
            }
        }
        assert_eq!(rs[0].value.as_scalar().unwrap(), expect);
    }

    #[test]
    fn queries_run_per_object() {
        let (mut adb, _) = setup();
        let dom = Minterval::new(&[(0, 9), (0, 9)]).unwrap();
        let arr2 = MDArray::generate(dom, CellType::F64, |_| 1.0);
        adb.insert_object(
            "temps",
            &arr2,
            Tiling::Regular {
                tile_shape: vec![5, 5],
            },
        )
        .unwrap();
        let rs = run(&mut adb, "select avg_cells(t[0:1,0:1]) from temps as t").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].value.as_scalar().unwrap(), 1.0);
    }

    #[test]
    fn scale_query_downsamples() {
        let (mut adb, _) = setup();
        let rs = run(&mut adb, "select scale(t[0:19,0:19], 10) from temps as t").unwrap();
        let arr = rs[0].value.as_array().unwrap();
        assert_eq!(arr.domain().shape(), vec![2, 2]);
        // top-left 10x10 block of values r*100+c, r,c in 0..10:
        // mean = 4.5*100 + 4.5 = 454.5
        assert_eq!(arr.get_f64(&Point::new(vec![0, 0])).unwrap(), 454.5);
        // bad factor and scalar operand rejected
        assert!(run(&mut adb, "select scale(t[0:1,0:1], 0) from temps as t").is_err());
        assert!(run(&mut adb, "select scale(avg_cells(t), 2) from temps as t").is_err());
    }

    #[test]
    fn where_clause_filters_objects() {
        let (mut adb, oid1) = setup();
        let dom = Minterval::new(&[(0, 9), (0, 9)]).unwrap();
        let arr2 = MDArray::generate(dom, CellType::F64, |_| 2.0);
        let oid2 = adb
            .insert_object(
                "temps",
                &arr2,
                Tiling::Regular {
                    tile_shape: vec![5, 5],
                },
            )
            .unwrap();
        let rs = run(
            &mut adb,
            &format!("select avg_cells(t[0:1,0:1]) from temps as t where oid(t) = {oid2}"),
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].oid, oid2);
        assert_eq!(rs[0].value.as_scalar().unwrap(), 2.0);
        let rs = run(
            &mut adb,
            &format!(
                "select avg_cells(t[0:1,0:1]) from temps as t where oid(t) in ({oid1}, {oid2})"
            ),
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        // no matching objects → empty result set
        let rs = run(
            &mut adb,
            "select avg_cells(t[0:1,0:1]) from temps as t where oid(t) = 999",
        )
        .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn semantic_errors_detected() {
        let (mut adb, _) = setup();
        assert!(run(&mut adb, "select x[0:1,0:1] from temps as t").is_err());
        assert!(run(&mut adb, "select t[0:1] from temps as t").is_err()); // wrong dims
        assert!(run(&mut adb, "select t[0:100,0:1] from temps as t").is_err()); // out of domain
        assert!(run(&mut adb, "select avg_cells(1 + 1) from temps as t").is_err());
        assert!(run(&mut adb, "select t[0:1,0:1] from nosuch as t").is_err());
    }

    #[test]
    fn out_of_domain_scalar_division_guarded() {
        let (mut adb, _) = setup();
        assert!(run(&mut adb, "select t[0:1,0:1] / 0 from temps as t").is_err());
    }
}
