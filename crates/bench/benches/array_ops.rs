//! Microbenchmarks of the array substrate: tiling, linearization orders,
//! trims, condensers and induced operations. These are the CPU-side hot
//! paths of export and retrieval (the device costs are simulated and
//! excluded here).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heaven_array::{
    induced_scalar, trim, BinaryOp, CellType, Condenser, Fold, LinearOrder, MDArray, Minterval,
    Tiling,
};

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

fn bench_tiling(c: &mut Criterion) {
    let dom = mi(&[(0, 1023), (0, 1023), (0, 1023)]);
    let tiling = Tiling::Regular {
        tile_shape: vec![64, 64, 64],
    };
    c.bench_function("tiling/tile_domains 4096 tiles", |b| {
        b.iter(|| {
            let d = tiling.tile_domains(black_box(&dom), CellType::F32).unwrap();
            black_box(d.len())
        })
    });
}

fn bench_orders(c: &mut Criterion) {
    let shape = [16u64, 16, 16];
    let coords: Vec<Vec<u64>> = {
        let grid = Minterval::with_shape(&shape).unwrap();
        grid.iter_points()
            .map(|p| p.0.iter().map(|&c| c as u64).collect())
            .collect()
    };
    for order in [
        LinearOrder::RowMajor,
        LinearOrder::ZOrder,
        LinearOrder::Hilbert,
    ] {
        c.bench_function(&format!("order/sort 4096 cells {order:?}"), |b| {
            b.iter(|| black_box(order.sort_indices(&coords, &shape)))
        });
    }
}

fn bench_trim_and_condense(c: &mut Criterion) {
    let arr = MDArray::generate(mi(&[(0, 127), (0, 127), (0, 15)]), CellType::F32, |p| {
        (p.coord(0) + p.coord(1) + p.coord(2)) as f64
    });
    c.bench_function("ops/trim 64x64x8 of 128x128x16", |b| {
        b.iter(|| black_box(trim(&arr, &mi(&[(32, 95), (32, 95), (4, 11)])).unwrap()))
    });
    c.bench_function("ops/avg_cells 128x128x16", |b| {
        b.iter(|| black_box(Condenser::Avg.eval(&arr).unwrap()))
    });
}

fn bench_patch(c: &mut Criterion) {
    let src = MDArray::generate(mi(&[(0, 63), (0, 63)]), CellType::F64, |_| 1.0);
    c.bench_function("ops/patch 64x64 into 256x256", |b| {
        b.iter(|| {
            let mut dst = MDArray::zeros(mi(&[(0, 255), (0, 255)]), CellType::F64);
            dst.patch(black_box(&src)).unwrap();
            black_box(dst.size_bytes())
        })
    });
}

/// Warm region assembly at the `warm_rasql` tile shapes: every tile that
/// meets a ~5 % box is patched into it. The rows are 32 bytes long, so
/// the per-row cost of the copy kernel, not bandwidth, sets the time.
fn bench_patch_tiles(c: &mut Criterion) {
    let cases = [
        (
            "ops/patch 4x8x8 f32 tiles into 5% box",
            mi(&[(0, 15), (0, 127), (0, 127)]),
            vec![4, 8, 8],
            CellType::F32,
            mi(&[(2, 9), (17, 56), (30, 70)]),
        ),
        (
            "ops/patch 32x32 u8 tiles into 5% box",
            mi(&[(0, 1023), (0, 1023)]),
            vec![32, 32],
            CellType::U8,
            mi(&[(100, 328), (400, 628)]),
        ),
    ];
    for (name, dom, tile_shape, ty, query) in cases {
        let tiles: Vec<MDArray> = Tiling::Regular { tile_shape }
            .tile_domains(&dom, ty)
            .unwrap()
            .into_iter()
            .filter(|t| t.intersects(&query))
            .map(|t| MDArray::generate(t, ty, |p| p.coord(0) as f64))
            .collect();
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut dst = MDArray::zeros(query.clone(), ty);
                for t in &tiles {
                    dst.patch(black_box(t)).unwrap();
                }
                black_box(dst.size_bytes())
            })
        });
    }
}

/// The condense kernel on `warm_rasql`-sized boxes: ~13k and ~52k cells
/// of f32 (climate) and u8 (satellite) data, whole-array and folded over
/// the warm path's tile pieces (4x8x8 f32 tiles, grid order).
fn bench_condense(c: &mut Criterion) {
    let boxes = [
        ("f32 13k", mi(&[(0, 7), (0, 40), (0, 40)]), CellType::F32),
        ("f32 52k", mi(&[(0, 15), (0, 56), (0, 56)]), CellType::F32),
        ("u8 13k", mi(&[(0, 114), (0, 114)]), CellType::U8),
        ("u8 52k", mi(&[(0, 227), (0, 227)]), CellType::U8),
    ];
    for (name, dom, ty) in boxes {
        let arr = MDArray::generate(dom, ty, |p| {
            ((p.coord(0) * 37 + p.coord(1) * 11 + p.coord(p.0.len() - 1)) % 251) as f64 / 2.0
        });
        for op in [Condenser::Sum, Condenser::Max] {
            c.bench_function(&format!("ops/condense {} {name}", op.name()), |b| {
                b.iter(|| black_box(op.eval(black_box(&arr)).unwrap()))
            });
        }
    }
    let query = mi(&[(2, 9), (17, 56), (30, 70)]);
    let pieces: Vec<(Minterval, MDArray)> = Tiling::Regular {
        tile_shape: vec![4, 8, 8],
    }
    .tile_domains(&mi(&[(0, 15), (0, 127), (0, 127)]), CellType::F32)
    .unwrap()
    .into_iter()
    .filter_map(|t| {
        let clip = t.intersection(&query)?;
        Some((
            clip,
            MDArray::generate(t, CellType::F32, |p| p.coord(1) as f64 / 3.0),
        ))
    })
    .collect();
    for op in [Condenser::Sum, Condenser::Max] {
        c.bench_function(
            &format!(
                "ops/fold {} over 4x8x8 f32 tile pieces of 5% box",
                op.name()
            ),
            |b| {
                b.iter(|| {
                    let mut fold = Fold::new(op);
                    for (clip, tile) in &pieces {
                        fold.add(black_box(tile), clip).unwrap();
                    }
                    black_box(fold.finish().unwrap())
                })
            },
        );
    }
}

/// Induced ops of the `warm_rasql` query mix on ~5 % boxes: a u8 mask
/// (`s[box] > 127`, 10.4k cells) and the f32 Kelvin-to-Fahrenheit chain
/// (`(c[box] - 273.15) * 1.8 + 32`, 13k cells).
fn bench_induced(c: &mut Criterion) {
    let sat = MDArray::generate(mi(&[(0, 101), (0, 101)]), CellType::U8, |p| {
        ((p.coord(0) * 37 + p.coord(1) * 11) % 256) as f64
    });
    c.bench_function("ops/induced u8 > scalar", |b| {
        b.iter(|| black_box(induced_scalar(black_box(&sat), 127.0, BinaryOp::Gt).unwrap()))
    });
    let climate = MDArray::generate(mi(&[(0, 7), (0, 40), (0, 40)]), CellType::F32, |p| {
        250.0 + (p.coord(0) * 3 + p.coord(1) + p.coord(2)) as f64 / 4.0
    });
    c.bench_function("ops/induced f32 chain", |b| {
        b.iter(|| {
            let k = induced_scalar(black_box(&climate), 273.15, BinaryOp::Sub).unwrap();
            let k = induced_scalar(&k, 1.8, BinaryOp::Mul).unwrap();
            black_box(induced_scalar(&k, 32.0, BinaryOp::Add).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_tiling,
    bench_orders,
    bench_trim_and_condense,
    bench_patch,
    bench_patch_tiles,
    bench_condense,
    bench_induced
);
criterion_main!(benches);
