//! The grid-arithmetic tile lookup of [`ObjectMeta`] must return exactly
//! what a linear filter over the object's tile list returns (same ids, same
//! order), for every tiling, dimensionality, domain offset and query box —
//! including boxes partly or wholly outside the domain — and on metadata
//! decoded from the catalog tables.

use heaven_array::{CellType, MDArray, Minterval, TileId, Tiling};
use heaven_arraydb::{ArrayDb, ObjectMeta};
use proptest::prelude::*;

/// The reference: scan every tile and keep the intersecting ones.
fn linear_filter(meta: &ObjectMeta, region: &Minterval) -> Vec<TileId> {
    meta.tiles
        .iter()
        .filter(|(d, _)| d.intersects(region))
        .map(|&(_, id)| id)
        .collect()
}

/// Build a box from per-axis `(lo, extent)` pairs, keeping the first `dim`.
fn boxed(axes: &[(i64, u64)], dim: usize) -> Minterval {
    let bounds: Vec<(i64, i64)> = axes[..dim]
        .iter()
        .map(|&(lo, ext)| (lo, lo + ext as i64 - 1))
        .collect();
    Minterval::new(&bounds).unwrap()
}

/// One of the three tiling strategies, chosen by `kind`.
fn tiling(kind: u8, dim: usize, edges: &[u64], axis: usize, factor: u64, max_bytes: u64) -> Tiling {
    match kind {
        0 => Tiling::Regular {
            tile_shape: edges[..dim].to_vec(),
        },
        1 => Tiling::Directional {
            axis: axis % dim,
            base_edge: edges[0],
            factor,
        },
        _ => Tiling::SizeBounded { max_bytes },
    }
}

/// Query boxes: around the domain (straddling, inside, past either border)
/// and one shifted wholly past the upper corner.
fn regions(domain: &Minterval, probes: &[Vec<(i64, u64)>]) -> Vec<Minterval> {
    let dim = domain.dim();
    let mut out: Vec<Minterval> = probes.iter().map(|p| boxed(p, dim)).collect();
    let past: Vec<(i64, i64)> = domain.axes().iter().map(|a| (a.hi + 1, a.hi + 3)).collect();
    out.push(Minterval::new(&past).unwrap());
    out.push(domain.clone());
    out
}

fn assert_lookups_match(meta: &ObjectMeta, regions: &[Minterval]) -> Result<(), TestCaseError> {
    for r in regions {
        let grid = meta.tiles_intersecting(r);
        prop_assert_eq!(
            &grid,
            &linear_filter(meta, r),
            "region {} of {}",
            r,
            meta.domain
        );
        let walked: Vec<TileId> = meta.tiles_in(r).map(|&(_, id)| id).collect();
        prop_assert_eq!(&walked, &grid);
    }
    for &(ref dom, id) in meta.tiles.iter() {
        prop_assert_eq!(meta.tile_domain(id), Some(dom));
    }
    let last = meta.tiles[meta.tiles.len() - 1].1;
    prop_assert_eq!(meta.tile_domain(last + 1), None);
    prop_assert_eq!(meta.tile_domain(meta.tiles[0].1.wrapping_sub(1)), None);
    Ok(())
}

fn axes() -> impl Strategy<Value = Vec<(i64, u64)>> {
    prop::collection::vec((-20i64..20, 1u64..=10), 4)
}

fn probe() -> impl Strategy<Value = Vec<(i64, u64)>> {
    prop::collection::vec((-35i64..35, 1u64..=20), 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn grid_lookup_matches_linear_filter(
        dim in 1usize..=4,
        kind in 0u8..3,
        domain_axes in axes(),
        edges in prop::collection::vec(1u64..=5, 4),
        axis in 0usize..4,
        factor in 1u64..=3,
        max_bytes in 4u64..=512,
        first_tile in 1u64..1000,
        probes in prop::collection::vec(probe(), 6),
    ) {
        let domain = boxed(&domain_axes, dim);
        let t = tiling(kind, dim, &edges, axis, factor, max_bytes);
        let meta = ObjectMeta::new(1, 1, domain.clone(), CellType::F32, t, first_tile).unwrap();
        assert_lookups_match(&meta, &regions(&domain, &probes))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn reopened_catalog_lookup_matches_linear_filter(
        dim in 1usize..=4,
        kind in 0u8..3,
        domain_axes in prop::collection::vec((-20i64..20, 1u64..=6), 4),
        edges in prop::collection::vec(1u64..=4, 4),
        axis in 0usize..4,
        factor in 1u64..=3,
        max_bytes in 4u64..=256,
        probes in prop::collection::vec(probe(), 6),
    ) {
        let domain = boxed(&domain_axes, dim);
        let t = tiling(kind, dim, &edges, axis, factor, max_bytes);
        let mut adb = ArrayDb::for_tests();
        adb.create_collection("c", CellType::F32, dim).unwrap();
        let arr = MDArray::zeros(domain.clone(), CellType::F32);
        let materialized = adb.insert_object("c", &arr, t.clone()).unwrap();
        let streamed = adb
            .insert_object_streamed("c", &domain, t, |d| MDArray::zeros(d.clone(), CellType::F32))
            .unwrap();
        let before: Vec<ObjectMeta> = [materialized, streamed]
            .iter()
            .map(|&oid| adb.object(oid).unwrap().clone())
            .collect();
        adb.rebuild_catalogs().unwrap();
        let queries = regions(&domain, &probes);
        for old in &before {
            let meta = adb.object(old.oid).unwrap();
            prop_assert_eq!(meta, old);
            assert_lookups_match(meta, &queries)?;
        }
    }
}

#[test]
fn region_of_other_dimensionality_hits_nothing() {
    let domain = Minterval::new(&[(0, 9), (0, 9)]).unwrap();
    let tiling = Tiling::Regular {
        tile_shape: vec![4, 4],
    };
    let meta = ObjectMeta::new(1, 1, domain, CellType::U8, tiling, 1).unwrap();
    let line = Minterval::new(&[(0, 9)]).unwrap();
    assert!(meta.tiles_intersecting(&line).is_empty());
    assert_eq!(meta.tiles_intersecting(&line), linear_filter(&meta, &line));
}
