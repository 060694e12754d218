//! E8 — Cache eviction strategies (paper §3.7.3).
//!
//! A hot-region query workload (80 % of queries inside 20 % of the data)
//! runs against the disk super-tile cache under each eviction policy.
//! Metrics: hit ratio and mean response time, for several cache sizes
//! relative to the working set.

use heaven_array::{CellType, LinearOrder, Minterval};
use heaven_bench::table::{fmt_bytes, fmt_s};
use heaven_bench::{emit_prometheus, PhantomArchive, Table};
use heaven_core::{ClusteringStrategy, EvictionPolicy, SuperTileCache};
use heaven_obs::MetricsRegistry;
use heaven_tape::DeviceProfile;
use heaven_workload::hot_region_queries;

const QUERIES: usize = 120;

fn main() {
    // One 16 GB object, 8 MB tiles, 128 MB super-tiles.
    let domain = Minterval::new(&[(0, 2047), (0, 2047), (0, 1023)]).unwrap();
    let queries = hot_region_queries(&domain, 0.005, QUERIES, 0.8, 99);
    let registry = MetricsRegistry::new();

    let mut t = Table::new(
        "E8: eviction strategies under a hot-region workload (16 GB object, 128 MB STs)",
        &[
            "cache size",
            "policy",
            "hit ratio",
            "tape fetches",
            "mean response",
        ],
    );
    for &cache_frac in &[0.05f64, 0.15, 0.40] {
        let object_bytes = domain.cell_count() * 4;
        let cache_bytes = (object_bytes as f64 * cache_frac) as u64;
        for policy in EvictionPolicy::all() {
            // fresh archive per run: identical layout, cold drives
            let mut archive = PhantomArchive::build_with_registry(
                DeviceProfile::dlt7000(),
                1,
                std::slice::from_ref(&domain),
                CellType::F32,
                &[128, 128, 128],
                128 << 20,
                ClusteringStrategy::Star(LinearOrder::Hilbert),
                &registry,
            );
            // Phantom cache entries: sizes accounted, no bytes held.
            let cache = SuperTileCache::new(cache_bytes, policy, None);
            let clock = archive.clock();
            let mut total_s = 0.0;
            let mut tape_fetches = 0u64;
            for q in &queries {
                let touched = archive.objects[0].groups_touching(q);
                let t0 = clock.now_s();
                for gi in touched {
                    let st_id = gi as u64;
                    let addr = archive.objects[0].addrs[gi];
                    if cache.get(st_id).is_some() {
                        continue;
                    }
                    archive.store.read(addr).expect("read");
                    tape_fetches += 1;
                    let refetch = archive.store.refetch_cost_s(addr);
                    cache.put_phantom(st_id, addr.len, refetch);
                }
                total_s += clock.now_s() - t0;
            }
            t.row(&[
                format!("{} ({:.0}%)", fmt_bytes(cache_bytes), cache_frac * 100.0),
                cache.policy().name().to_string(),
                format!("{:.2}", cache.stats().hit_ratio()),
                format!("{tape_fetches}"),
                fmt_s(total_s / QUERIES as f64),
            ]);
        }
    }
    t.emit();
    emit_prometheus(&registry);
    println!(
        "\nShape check (paper §3.7): caching pays off dramatically under\n\
         locality; LRU/LFU beat FIFO; the cost-aware policy, which keeps\n\
         deep-on-tape blocks, has the best mean response at 5% and 40%\n\
         but trails LFU at 15%, where it gives up too many hits;\n\
         all policies converge as the cache approaches the working set.\n"
    );
}
