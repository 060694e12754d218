//! Benchmarks of the cache hierarchy: super-tile cache under each eviction
//! policy, and the memory tile cache, including a warm query's 100-tile
//! probe (batched and one `get` at a time) and evicting puts into a full
//! cache at 1k, 4k and 16k resident tiles (the default 64 MiB tile cache
//! holds ~16k 4 KiB tiles).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heaven_array::{CellType, MDArray, Minterval, Tile};
use heaven_core::{EvictionPolicy, SuperTileCache, TileCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_st_cache(c: &mut Criterion) {
    for policy in EvictionPolicy::all() {
        c.bench_function(&format!("st_cache/{} mixed ops", policy.name()), |b| {
            b.iter(|| {
                let cache = SuperTileCache::new(100 << 20, policy, None);
                let mut rng = StdRng::seed_from_u64(1);
                let mut hits = 0u32;
                for i in 0..2000u64 {
                    let st = rng.gen_range(0..200);
                    if cache.get(st).is_some() {
                        hits += 1;
                    } else {
                        cache.put_phantom(st, 1 << 20, (i % 90) as f64);
                    }
                }
                black_box(hits)
            })
        });
    }
}

fn bench_tile_cache(c: &mut Criterion) {
    let dom = Minterval::new(&[(0, 31), (0, 31)]).unwrap();
    let tiles: Vec<Tile> = (0..256u64)
        .map(|i| Tile::new(i, 1, MDArray::zeros(dom.clone(), CellType::F32)))
        .collect();
    c.bench_function("tile_cache/lru mixed ops", |b| {
        b.iter(|| {
            let cache = TileCache::new(128 * 4096);
            let mut rng = StdRng::seed_from_u64(2);
            let mut hits = 0u32;
            for _ in 0..2000 {
                let id = rng.gen_range(0..256u64);
                if cache.get(id).is_some() {
                    hits += 1;
                } else {
                    cache.put(tiles[id as usize].clone());
                }
            }
            black_box(hits)
        })
    });
}

/// A warm query's tile probe: 100 distinct resident ids of a 1024-tile
/// cache, through one `get_many` and through 100 single `get`s.
fn bench_tile_probe(c: &mut Criterion) {
    let dom = Minterval::new(&[(0, 31), (0, 31)]).unwrap();
    let cache = TileCache::new(1024 * 4096);
    for id in 0..1024u64 {
        cache.put(Tile::new(id, 1, MDArray::zeros(dom.clone(), CellType::F32)));
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut ids: Vec<u64> = Vec::new();
    while ids.len() < 100 {
        let id = rng.gen_range(0..1024u64);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let mut slots = vec![None; ids.len()];
    c.bench_function("tile_cache/get_many 100 of 1024 resident", |b| {
        b.iter(|| {
            cache.get_many(black_box(&ids), &mut slots);
            black_box(slots.iter().flatten().count())
        })
    });
    c.bench_function("tile_cache/get 100 of 1024 resident", |b| {
        b.iter(|| {
            for (slot, &id) in slots.iter_mut().zip(black_box(&ids)) {
                *slot = cache.get(id);
            }
            black_box(slots.iter().flatten().count())
        })
    });
    assert_eq!(cache.stats().misses, 0, "every probed tile stays resident");
}

/// Evicting puts per timed iteration of [`bench_evicting_put`].
const EVICTING_PUTS: u64 = 5000;

fn bench_evicting_put(c: &mut Criterion) {
    let dom = Minterval::new(&[(0, 31), (0, 31)]).unwrap();
    let mut template = Tile::new(0, 1, MDArray::zeros(dom, CellType::F32));
    template.data.freeze_payload(); // clones below are refcount bumps
    let tile = |id: u64| {
        let mut t = template.clone();
        t.id = id;
        t
    };
    for resident in [1024u64, 4096, 16384] {
        // A full cache: every put of a new id evicts the LRU tile.
        let cache = TileCache::new(resident * template.payload_bytes());
        (0..resident).for_each(|id| cache.put(tile(id)));
        let mut next = resident;
        let name = format!("tile_cache/{EVICTING_PUTS} evicting puts, {resident} resident");
        c.bench_function(&name, |b| {
            b.iter(|| {
                for _ in 0..EVICTING_PUTS {
                    cache.put(tile(next));
                    next += 1;
                }
            })
        });
        assert_eq!(cache.stats().evictions, next - resident);
    }
}

criterion_group!(
    benches,
    bench_st_cache,
    bench_tile_cache,
    bench_tile_probe,
    bench_evicting_put
);
criterion_main!(benches);
