//! Synthetic multidimensional test data (paper §4.2).
//!
//! The evaluation's data came from the ESTEDI partners: DKRZ climate
//! simulations (3-D/4-D temperature fields with seasonal periodicity,
//! Fig. 1.2) and DLR satellite rasters (vegetation-index imagery). These
//! generators reproduce the *statistical shape* of that data — smooth
//! spatial gradients, periodic time dimension, correlated noise — which is
//! what tiling and clustering behaviour depends on; absolute values are
//! irrelevant to storage-access cost.

use heaven_array::{CellType, MDArray, Minterval, Point};

/// Deterministic value noise from integer coordinates (splitmix-style).
fn hash_noise(seed: u64, coords: &[i64]) -> f64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &c in coords {
        h ^= (c as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    // map to [0, 1)
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Temperature (Kelvin) at a point, normalized against a *global* domain.
fn climate_value(global: &Minterval, p: &Point, seed: u64) -> f64 {
    let d = global.dim();
    let (time, lat_axis, alt) = match d {
        2 => (0.0, 0, None),
        3 => (p.coord(0) as f64, 1, None),
        _ => (p.coord(0) as f64, 1, Some(p.coord(3) as f64)),
    };
    let lat_extent = global.axis(lat_axis).extent() as f64;
    let lat_frac = (p.coord(lat_axis) - global.axis(lat_axis).lo) as f64 / lat_extent.max(1.0);
    // 303 K at the "equator" (middle), colder toward both poles
    let equator_dist = (lat_frac - 0.5).abs() * 2.0;
    let base = 303.0 - 45.0 * equator_dist;
    let season = 8.0 * (2.0 * std::f64::consts::PI * time / 12.0).sin();
    let lapse = alt.map(|a| -6.5 * a / 10.0).unwrap_or(0.0);
    let noise = 2.0 * (hash_noise(seed, &p.0) - 0.5);
    base + season + lapse + noise
}

/// A climate temperature field in Kelvin.
///
/// Dimensions are interpreted as `(time, latitude, longitude[, altitude])`
/// when 3-D/4-D, `(latitude, longitude)` when 2-D:
/// equator-to-pole gradient on the latitude axis, seasonal sinusoid on the
/// time axis, altitude lapse rate, plus correlated noise.
pub fn climate_field(domain: Minterval, seed: u64) -> MDArray {
    let global = domain.clone();
    MDArray::generate(domain, CellType::F32, move |p: &Point| {
        climate_value(&global, p, seed)
    })
}

/// One tile of a climate field: values are identical to the corresponding
/// cells of `climate_field(global, seed)`, so tiles can be produced in a
/// streamed insert without materializing the whole field.
pub fn climate_field_tile(global: &Minterval, tile: &Minterval, seed: u64) -> MDArray {
    let global = global.clone();
    MDArray::generate(tile.clone(), CellType::F32, move |p: &Point| {
        climate_value(&global, p, seed)
    })
}

/// A satellite vegetation-index raster (`octet` cells, 0–255).
///
/// Smooth multi-octave value noise: spatially correlated like real NDVI
/// scenes, so neighbouring tiles compress/cluster like real imagery.
pub fn satellite_image(domain: Minterval, seed: u64) -> MDArray {
    MDArray::generate(domain, CellType::U8, |p: &Point| {
        let mut v = 0.0;
        let mut weight = 0.0;
        for octave in 0..3u32 {
            let cell = 1i64 << (6 - 2 * octave as i64).max(0);
            let coarse: Vec<i64> = p.0.iter().map(|&c| c.div_euclid(cell)).collect();
            let w = 1.0 / (1 << octave) as f64;
            v += w * hash_noise(seed + octave as u64, &coarse);
            weight += w;
        }
        (v / weight) * 255.0
    })
}

/// A computational-fluid-dynamics-style field (`double` cells): a sum of
/// smooth sinusoidal modes, mimicking turbulence-simulation output.
pub fn cfd_field(domain: Minterval, seed: u64) -> MDArray {
    let modes: Vec<(f64, Vec<f64>)> = (0..5)
        .map(|m| {
            let amp = 1.0 / (m + 1) as f64;
            let freqs: Vec<f64> = (0..domain.dim())
                .map(|a| {
                    0.02 + 0.1 * hash_noise(seed + m as u64 * 17 + a as u64, &[m as i64, a as i64])
                })
                .collect();
            (amp, freqs)
        })
        .collect();
    MDArray::generate(domain, CellType::F64, |p: &Point| {
        modes
            .iter()
            .map(|(amp, freqs)| {
                let phase: f64 = p.0.iter().zip(freqs).map(|(&c, f)| c as f64 * f).sum();
                amp * phase.sin()
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::Condenser;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    #[test]
    fn climate_is_deterministic_per_seed() {
        let a = climate_field(mi(&[(0, 11), (0, 19), (0, 9)]), 42);
        let b = climate_field(mi(&[(0, 11), (0, 19), (0, 9)]), 42);
        let c = climate_field(mi(&[(0, 11), (0, 19), (0, 9)]), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn climate_values_are_physical() {
        let f = climate_field(mi(&[(0, 11), (0, 39), (0, 39)]), 1);
        for k in [
            Condenser::Min.eval(&f).unwrap(),
            Condenser::Max.eval(&f).unwrap(),
        ] {
            assert!((200.0..330.0).contains(&k), "temperature {k} K");
        }
    }

    #[test]
    fn climate_equator_warmer_than_pole() {
        let f = climate_field(mi(&[(0, 0), (0, 99), (0, 9)]), 7);
        let mut equator = 0.0;
        let mut pole = 0.0;
        for lon in 0..10 {
            equator += f.get_f64(&Point::new(vec![0, 50, lon])).unwrap();
            pole += f.get_f64(&Point::new(vec![0, 0, lon])).unwrap();
        }
        assert!(equator > pole + 100.0);
    }

    #[test]
    fn seasonal_cycle_visible_along_time() {
        let f = climate_field(mi(&[(0, 23), (0, 3), (0, 3)]), 9);
        // month 3 (peak of sin at t=3: sin(pi/2)=1) vs month 9 (trough)
        let p_summer = Point::new(vec![3, 2, 2]);
        let p_winter = Point::new(vec![9, 2, 2]);
        assert!(f.get_f64(&p_summer).unwrap() > f.get_f64(&p_winter).unwrap() + 5.0);
    }

    #[test]
    fn streamed_tiles_match_whole_field() {
        let global = mi(&[(0, 11), (0, 19), (0, 9)]);
        let whole = climate_field(global.clone(), 8);
        let tile_dom = mi(&[(3, 7), (5, 14), (0, 9)]);
        let tile = climate_field_tile(&global, &tile_dom, 8);
        for p in tile_dom.iter_points() {
            assert_eq!(tile.get_f64(&p).unwrap(), whole.get_f64(&p).unwrap());
        }
    }

    #[test]
    fn satellite_is_u8_and_correlated() {
        let img = satellite_image(mi(&[(0, 63), (0, 63)]), 3);
        assert_eq!(img.cell_type(), CellType::U8);
        // neighbouring cells correlate more than distant ones
        let mut near_diff = 0.0;
        let mut far_diff = 0.0;
        for i in 0..32 {
            let a = img.get_f64(&Point::new(vec![i, 10])).unwrap();
            let b = img.get_f64(&Point::new(vec![i, 11])).unwrap();
            let c = img.get_f64(&Point::new(vec![i, 60])).unwrap();
            near_diff += (a - b).abs();
            far_diff += (a - c).abs();
        }
        assert!(near_diff < far_diff);
    }

    #[test]
    fn cfd_field_is_smooth() {
        let f = cfd_field(mi(&[(0, 31), (0, 31)]), 5);
        let mut max_grad: f64 = 0.0;
        for i in 0..31 {
            let a = f.get_f64(&Point::new(vec![i, 16])).unwrap();
            let b = f.get_f64(&Point::new(vec![i + 1, 16])).unwrap();
            max_grad = max_grad.max((a - b).abs());
        }
        assert!(max_grad < 1.0, "adjacent cells differ smoothly");
    }
}
