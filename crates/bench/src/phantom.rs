//! Paper-scale archives with phantom payloads.
//!
//! A [`PhantomArchive`] lays out objects of arbitrary (paper-scale) size on
//! the tape simulator exactly as HEAVEN's export would — tile grids,
//! STAR/eSTAR super-tile partitions, intra-/inter-super-tile clustering,
//! media placement — but writes phantom (size-only) blocks. Access-time
//! experiments then measure real simulated costs over hundreds of
//! gigabytes without allocating host memory.

use heaven_array::{CellType, Minterval, TileId, Tiling};
use heaven_core::{fetch_order, ClusteringStrategy, FetchRequest, TileInfo};
use heaven_hsm::{BlockAddress, DirectStore};
use heaven_obs::{MetricsRegistry, TraceBus};
use heaven_tape::{DeviceProfile, SimClock, TapeLibrary, TapeStats, WritePayload};

/// One phantom object: geometry plus super-tile placement.
#[derive(Debug)]
pub struct PhantomObject {
    /// The object's domain.
    pub domain: Minterval,
    /// Tile geometry.
    pub tiles: Vec<TileInfo>,
    /// Super-tile groups (indices into `tiles`).
    pub groups: Vec<Vec<usize>>,
    /// Block address of each group, parallel to `groups`.
    pub addrs: Vec<BlockAddress>,
}

impl PhantomObject {
    /// Indices of groups whose members intersect `query`.
    pub fn groups_touching(&self, query: &Minterval) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.iter().any(|&i| self.tiles[i].domain.intersects(query)))
            .map(|(gi, _)| gi)
            .collect()
    }

    /// Total object size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.tiles.iter().map(|t| t.bytes).sum()
    }
}

/// A tape archive of phantom objects.
#[derive(Debug)]
pub struct PhantomArchive {
    /// The placement-aware store over the library.
    pub store: DirectStore,
    /// The archived objects.
    pub objects: Vec<PhantomObject>,
    /// Shared metrics registry the tape library reports into.
    registry: MetricsRegistry,
}

impl PhantomArchive {
    /// Build an archive: each object in `domains` is tiled with
    /// `tile_shape`, partitioned into super-tiles of `st_target` bytes via
    /// `strategy`, and written in cluster order.
    pub fn build(
        profile: DeviceProfile,
        drives: usize,
        domains: &[Minterval],
        cell: CellType,
        tile_shape: &[u64],
        st_target: u64,
        strategy: ClusteringStrategy,
    ) -> PhantomArchive {
        Self::build_with_registry(
            profile,
            drives,
            domains,
            cell,
            tile_shape,
            st_target,
            strategy,
            &MetricsRegistry::new(),
        )
    }

    /// Like [`PhantomArchive::build`], but report into an existing shared
    /// registry, so experiments that build a fresh archive per
    /// configuration accumulate one set of metrics for the whole run.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_registry(
        profile: DeviceProfile,
        drives: usize,
        domains: &[Minterval],
        cell: CellType,
        tile_shape: &[u64],
        st_target: u64,
        strategy: ClusteringStrategy,
        registry: &MetricsRegistry,
    ) -> PhantomArchive {
        let registry = registry.clone();
        let clock = SimClock::new();
        let mut lib = TapeLibrary::new(profile, drives, clock);
        lib.attach_obs(&registry, TraceBus::noop());
        let mut store = DirectStore::new(lib);
        let mut objects = Vec::with_capacity(domains.len());
        let mut next_tile: TileId = 1;
        for domain in domains {
            let tiling = Tiling::Regular {
                tile_shape: tile_shape.to_vec(),
            };
            let tile_domains = tiling.tile_domains(domain, cell).expect("valid tiling");
            let (grid, grid_shape) = tiling.tile_grid(domain, cell).expect("valid tiling");
            let tiles: Vec<TileInfo> = tile_domains
                .into_iter()
                .zip(grid)
                .map(|(d, gc)| {
                    let id = next_tile;
                    next_tile += 1;
                    TileInfo::encoded(id, d, cell, gc)
                })
                .collect();
            let groups = strategy.partition(&tiles, &grid_shape, st_target);
            let addrs: Vec<BlockAddress> = groups
                .iter()
                .map(|g| {
                    let len: u64 = g.iter().map(|&i| tiles[i].bytes).sum();
                    store
                        .append(WritePayload::Phantom(len))
                        .expect("phantom write")
                })
                .collect();
            objects.push(PhantomObject {
                domain: domain.clone(),
                tiles,
                groups,
                addrs,
            });
        }
        PhantomArchive {
            store,
            objects,
            registry,
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> SimClock {
        self.store.clock()
    }

    /// The metrics registry the tape library reports into (histograms
    /// and counters for every simulated device operation).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Tape statistics.
    pub fn stats(&self) -> TapeStats {
        self.store.stats()
    }

    /// The fetch requests a query would issue against one object.
    pub fn fetch_requests(&self, obj: usize, query: &Minterval) -> Vec<FetchRequest> {
        let o = &self.objects[obj];
        o.groups_touching(query)
            .into_iter()
            .map(|gi| FetchRequest {
                st: (obj * 1_000_000 + gi) as u64,
                addr: o.addrs[gi],
            })
            .collect()
    }

    /// Execute an explicit fetch order, returning `(elapsed simulated
    /// seconds, bytes fetched)`.
    pub fn execute_order(&mut self, order: &[FetchRequest]) -> (f64, u64) {
        let clock = self.clock();
        let t0 = clock.now_s();
        let mut bytes = 0;
        for r in order {
            self.store.read(r.addr).expect("phantom read");
            bytes += r.addr.len;
        }
        (clock.now_s() - t0, bytes)
    }

    /// Execute one query against one object: fetch all touching
    /// super-tiles (scheduled), returning `(elapsed simulated seconds,
    /// bytes fetched, super-tiles fetched)`.
    pub fn fetch_query(
        &mut self,
        obj: usize,
        query: &Minterval,
        scheduled: bool,
    ) -> (f64, u64, usize) {
        let reqs = self.fetch_requests(obj, query);
        self.execute(&reqs, scheduled)
    }

    /// Execute a batch of `(object, query)` pairs as one scheduling unit.
    pub fn fetch_batch(
        &mut self,
        batch: &[(usize, Minterval)],
        scheduled: bool,
    ) -> (f64, u64, usize) {
        let reqs: Vec<FetchRequest> = batch
            .iter()
            .flat_map(|(obj, q)| self.fetch_requests(*obj, q))
            .collect();
        self.execute(&reqs, scheduled)
    }

    fn execute(&mut self, reqs: &[FetchRequest], scheduled: bool) -> (f64, u64, usize) {
        let order = fetch_order(reqs, scheduled, &self.store.library().mounted_media());
        let (dt, bytes) = self.execute_order(&order);
        (dt, bytes, order.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::LinearOrder;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn build_small() -> PhantomArchive {
        // 2 objects of 1 GB each (f32 512^3 / 2), tiles 128^3 (8 MB),
        // super-tiles 64 MB.
        let domains = vec![
            mi(&[(0, 511), (0, 511), (0, 255)]),
            mi(&[(0, 511), (0, 511), (0, 255)]),
        ];
        PhantomArchive::build(
            DeviceProfile::ibm3590(),
            1,
            &domains,
            CellType::F32,
            &[128, 128, 128],
            64 << 20,
            ClusteringStrategy::Star(LinearOrder::Hilbert),
        )
    }

    #[test]
    fn archive_geometry_is_consistent() {
        let a = build_small();
        for o in &a.objects {
            assert_eq!(o.groups.len(), o.addrs.len());
            let grouped: usize = o.groups.iter().map(|g| g.len()).sum();
            assert_eq!(grouped, o.tiles.len());
            // 512*512*256 f32 = 256 MB... tiles clipped at 256-edge axis
            assert!(o.size_bytes() > 200 << 20);
        }
    }

    #[test]
    fn small_queries_touch_few_supertiles() {
        let mut a = build_small();
        let (t, bytes, sts) = a.fetch_query(0, &mi(&[(0, 99), (0, 99), (0, 99)]), true);
        assert!(t > 0.0);
        assert!(bytes > 0);
        assert!(sts >= 1);
        let total = a.objects[0].groups.len();
        assert!(sts < total);
    }

    #[test]
    fn scheduled_batch_is_not_slower() {
        let batch: Vec<(usize, Minterval)> = (0..6)
            .map(|i| {
                (
                    i % 2,
                    mi(&[(i as i64 * 50, i as i64 * 50 + 120), (0, 200), (0, 200)]),
                )
            })
            .collect();
        let mut a1 = build_small();
        let (t_naive, b1, _) = a1.fetch_batch(&batch, false);
        let mut a2 = build_small();
        let (t_sched, b2, _) = a2.fetch_batch(&batch, true);
        assert_eq!(b1, b2);
        assert!(t_sched <= t_naive + 1e-6, "{t_sched} vs {t_naive}");
    }
}
