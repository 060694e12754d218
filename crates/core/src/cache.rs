//! The HEAVEN caching hierarchy (paper §3.7).
//!
//! Three levels: main-memory **tile cache** (decoded tiles, free access) →
//! secondary-storage **super-tile cache** (raw payloads, disk-cost access)
//! → tertiary storage. The super-tile cache supports pluggable eviction
//! strategies (§3.7.3): LRU, LFU, FIFO and a cost-aware policy weighting
//! the tertiary refetch cost per byte — a super-tile that is expensive to
//! re-fetch (deep on a rarely mounted medium) is kept longer.
//!
//! Both caches are **lock-striped**: entries live in N shards selected by
//! a Fibonacci hash of the id, each shard behind its own cache-padded
//! mutex, so concurrent sessions touching different super-tiles never
//! serialize on one lock. All methods take `&self`; `new()` builds a
//! single shard (byte-identical behavior to the pre-concurrency cache)
//! and [`SuperTileCache::with_shards`] stripes for parallel load.
//! Eviction and capacity are per shard (total capacity divided evenly),
//! so `used() <= capacity()` holds at every instant. Time a caller spends
//! blocked on a busy stripe is recorded in `cache.shard_lock_wait_s`.

use crate::supertile::SuperTileId;
use bytes::Bytes;
use crossbeam::utils::CachePadded;
use heaven_array::{Tile, TileId};
use heaven_obs::{Counter, FloatCounter, Histogram, MetricsRegistry, TraceBus};
use heaven_tape::{DiskProfile, SimClock};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;

/// Eviction strategy of the super-tile cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least recently used.
    Lru,
    /// Least frequently used (ties broken by recency).
    Lfu,
    /// First in, first out.
    Fifo,
    /// Smallest (refetch cost × frequency / size) first.
    CostAware,
}

impl EvictionPolicy {
    /// All policies (for the eviction-strategy experiment, E8).
    pub fn all() -> [EvictionPolicy; 4] {
        [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::Fifo,
            EvictionPolicy::CostAware,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "LRU",
            EvictionPolicy::Lfu => "LFU",
            EvictionPolicy::Fifo => "FIFO",
            EvictionPolicy::CostAware => "COST",
        }
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Bytes served from the cache.
    pub bytes_served: u64,
    /// Simulated seconds of I/O charged by the cache (0 for the free
    /// main-memory tile cache).
    pub io_s: f64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Difference of two snapshots (`self` minus `earlier`), underflow-safe
    /// like [`heaven_tape::TapeStats::since`].
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_served: self.bytes_served.saturating_sub(earlier.bytes_served),
            io_s: (self.io_s - earlier.io_s).max(0.0),
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} ratio={:.2} evictions={} served={}MB io={:.1}s",
            self.hits,
            self.misses,
            self.hit_ratio(),
            self.evictions,
            self.bytes_served >> 20,
            self.io_s,
        )
    }
}

/// Registry names of one cache instance's metrics.
#[derive(Debug, Clone, Copy)]
struct CacheMetricNames {
    hits: &'static str,
    misses: &'static str,
    evictions: &'static str,
    bytes_served: &'static str,
    io_s: &'static str,
    io_hist: &'static str,
}

const ST_CACHE_NAMES: CacheMetricNames = CacheMetricNames {
    hits: "cache.st.hits",
    misses: "cache.st.misses",
    evictions: "cache.st.evictions",
    bytes_served: "cache.st.bytes_served",
    io_s: "cache.st.io_s",
    io_hist: "cache.st.io_hist_s",
};

const MEM_CACHE_NAMES: CacheMetricNames = CacheMetricNames {
    hits: "cache.mem.hits",
    misses: "cache.mem.misses",
    evictions: "cache.mem.evictions",
    bytes_served: "cache.mem.bytes_served",
    io_s: "cache.mem.io_s",
    io_hist: "cache.mem.io_hist_s",
};

/// Registry name of the shared stripe-wait total. Both caches fold into
/// the same counter: the interesting signal is "how much host time do
/// sessions lose to cache lock pressure", not which cache lost it.
pub const SHARD_LOCK_WAIT_NAME: &str = "cache.shard_lock_wait_s";

/// Metric handles backing [`CacheStats`]; the registry is the source of
/// truth and the struct is reconstructed on demand.
#[derive(Debug, Clone)]
struct CacheMetrics {
    names: CacheMetricNames,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes_served: Counter,
    io_s: FloatCounter,
    /// Per-access disk-I/O duration distribution (simulated seconds).
    io_hist: Histogram,
    /// Host seconds spent blocked on a busy cache stripe.
    lock_wait_s: FloatCounter,
}

impl CacheMetrics {
    fn new(registry: &MetricsRegistry, names: CacheMetricNames) -> CacheMetrics {
        CacheMetrics {
            names,
            hits: registry.counter(names.hits),
            misses: registry.counter(names.misses),
            evictions: registry.counter(names.evictions),
            bytes_served: registry.counter(names.bytes_served),
            io_s: registry.fcounter(names.io_s),
            io_hist: registry.histogram(names.io_hist),
            lock_wait_s: registry.fcounter(SHARD_LOCK_WAIT_NAME),
        }
    }

    fn rebind(&mut self, registry: &MetricsRegistry) {
        let next = CacheMetrics::new(registry, self.names);
        next.hits.add(self.hits.get());
        next.misses.add(self.misses.get());
        next.evictions.add(self.evictions.get());
        next.bytes_served.add(self.bytes_served.get());
        next.io_s.add(self.io_s.get());
        next.io_hist.merge_from(&self.io_hist);
        next.lock_wait_s.add(self.lock_wait_s.get());
        *self = next;
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            bytes_served: self.bytes_served.get(),
            io_s: self.io_s.get(),
        }
    }
}

/// Fibonacci-hash shard index for an id among `n` (power-of-two) shards.
#[inline]
fn shard_index(id: u64, n: usize) -> usize {
    ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) & (n - 1)
}

#[derive(Debug)]
struct StEntry {
    payload: Bytes,
    /// Accounted size in bytes (equals `payload.len()` for real entries;
    /// may exceed it for phantom entries used by paper-scale experiments).
    size: u64,
    last_access: u64,
    access_count: u64,
    insert_seq: u64,
    /// Estimated seconds to refetch from tertiary storage.
    refetch_cost_s: f64,
}

/// One lock stripe of the super-tile cache.
#[derive(Debug, Default)]
struct StShard {
    capacity: u64,
    used: u64,
    entries: HashMap<SuperTileId, StEntry>,
    counter: u64,
}

impl StShard {
    fn pick_victim(&self, policy: EvictionPolicy) -> Option<SuperTileId> {
        let score = |e: &StEntry| -> f64 {
            match policy {
                EvictionPolicy::Lru => e.last_access as f64,
                EvictionPolicy::Lfu => e.access_count as f64 * 1e12 + e.last_access as f64,
                EvictionPolicy::Fifo => e.insert_seq as f64,
                EvictionPolicy::CostAware => {
                    // keep entries whose refetch is expensive per byte and
                    // that are used often; evict the cheapest-to-lose first
                    e.refetch_cost_s * e.access_count as f64 / (e.size.max(1) as f64)
                }
            }
        };
        // Ties go to the oldest entry, so the victim never depends on
        // `HashMap` iteration order.
        self.entries
            .iter()
            .min_by(|(_, a), (_, b)| {
                score(a)
                    .partial_cmp(&score(b))
                    .expect("no NaN")
                    .then(a.insert_seq.cmp(&b.insert_seq))
            })
            .map(|(&id, _)| id)
    }
}

/// The disk-resident super-tile cache (lock-striped, shareable by `&self`
/// across session threads).
#[derive(Debug)]
pub struct SuperTileCache {
    capacity: u64,
    policy: EvictionPolicy,
    shards: Box<[CachePadded<Mutex<StShard>>]>,
    metrics: CacheMetrics,
    bus: TraceBus,
    disk: Option<(DiskProfile, SimClock)>,
}

impl SuperTileCache {
    /// Create a single-shard cache of `capacity` bytes — the exact
    /// behavior of the pre-concurrency cache. When `disk` is given, hits
    /// and stores charge disk I/O costs to the clock (the cache lives on
    /// secondary storage).
    pub fn new(
        capacity: u64,
        policy: EvictionPolicy,
        disk: Option<(DiskProfile, SimClock)>,
    ) -> SuperTileCache {
        SuperTileCache::with_shards(capacity, policy, disk, 1)
    }

    /// Create a cache striped over `shards` locks (rounded up to a power
    /// of two). Each stripe owns `capacity / shards` bytes, so the rolled
    /// up `used()` can never exceed `capacity()`.
    pub fn with_shards(
        capacity: u64,
        policy: EvictionPolicy,
        disk: Option<(DiskProfile, SimClock)>,
        shards: usize,
    ) -> SuperTileCache {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity / n as u64;
        let shards: Box<[_]> = (0..n)
            .map(|_| {
                CachePadded::new(Mutex::new(StShard {
                    capacity: per_shard,
                    ..StShard::default()
                }))
            })
            .collect();
        SuperTileCache {
            capacity: per_shard * n as u64,
            policy,
            shards,
            metrics: CacheMetrics::new(&MetricsRegistry::new(), ST_CACHE_NAMES),
            bus: TraceBus::noop(),
            disk,
        }
    }

    /// Attach the cache's counters to a shared metrics registry and its
    /// admit/evict events to a trace bus; values accumulated so far carry
    /// over.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry, bus: TraceBus) {
        self.metrics.rebind(registry);
        self.bus = bus;
    }

    /// Cache statistics (a view over the metrics registry).
    pub fn stats(&self) -> CacheStats {
        self.metrics.stats()
    }

    /// Bytes currently cached, rolled up across shards.
    pub fn used(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Capacity in bytes (sum of the per-shard capacities).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Whether a super-tile is cached (no stats/cost effect).
    pub fn contains(&self, st: SuperTileId) -> bool {
        self.lock_shard(st).entries.contains_key(&st)
    }

    /// Lock the stripe owning `st`, folding any blocked host time into
    /// `cache.shard_lock_wait_s`.
    fn lock_shard(&self, st: SuperTileId) -> MutexGuard<'_, StShard> {
        let (guard, wait_s) = self.shards[shard_index(st, self.shards.len())].lock_timed();
        if wait_s > 0.0 {
            self.metrics.lock_wait_s.add(wait_s);
        }
        guard
    }

    /// Advance a clock by the disk access cost and return the seconds
    /// charged (0 for a memory-resident cache). Costs go to `lane` when
    /// given (a session's private time lane), else to the shared clock.
    fn charge(&self, bytes: u64, lane: Option<&SimClock>) -> f64 {
        if let Some((profile, clock)) = &self.disk {
            let s = profile.access_time_s(bytes);
            lane.unwrap_or(clock).advance_s(s);
            s
        } else {
            0.0
        }
    }

    /// The current simulated time (0 for a memory-resident cache).
    fn now_s(&self, lane: Option<&SimClock>) -> f64 {
        match (lane, &self.disk) {
            (Some(lane), _) => lane.now_s(),
            (None, Some((_, c))) => c.now_s(),
            (None, None) => 0.0,
        }
    }

    /// Look up a super-tile payload. The returned `Bytes` aliases the
    /// cached buffer — a hit bumps a refcount, it does not copy the
    /// payload (the simulated disk read is still charged).
    pub fn get(&self, st: SuperTileId) -> Option<Bytes> {
        self.get_impl(st, None)
    }

    /// [`SuperTileCache::get`] charging the disk cost to a session's
    /// private clock lane instead of the shared clock.
    pub fn get_clocked(&self, st: SuperTileId, lane: &SimClock) -> Option<Bytes> {
        self.get_impl(st, Some(lane))
    }

    fn get_impl(&self, st: SuperTileId, lane: Option<&SimClock>) -> Option<Bytes> {
        let mut shard = self.lock_shard(st);
        shard.counter += 1;
        let counter = shard.counter;
        match shard.entries.get_mut(&st) {
            Some(e) => {
                e.last_access = counter;
                e.access_count += 1;
                self.metrics.hits.inc();
                self.metrics.bytes_served.add(e.size);
                let size = e.size;
                let payload = e.payload.clone();
                let io = self.charge(size, lane);
                self.metrics.io_s.add(io);
                if self.disk.is_some() {
                    self.metrics.io_hist.observe(io);
                }
                self.bus.event(
                    "cache.st.hit",
                    self.now_s(lane),
                    &[("st", st.into()), ("bytes", size.into())],
                );
                Some(payload)
            }
            None => {
                self.metrics.misses.inc();
                self.bus
                    .event("cache.st.miss", self.now_s(lane), &[("st", st.into())]);
                None
            }
        }
    }

    /// Insert a payload with its estimated tertiary refetch cost; evicts
    /// per policy until it fits. Payloads larger than a shard are not
    /// admitted. Accepts anything convertible to [`Bytes`] (`Vec<u8>`
    /// converts in O(1)).
    pub fn put(&self, st: SuperTileId, payload: impl Into<Bytes>, refetch_cost_s: f64) {
        let payload = payload.into();
        let size = payload.len() as u64;
        self.put_sized(st, payload, size, refetch_cost_s, None);
    }

    /// [`SuperTileCache::put`] charging the disk cost to a session's
    /// private clock lane instead of the shared clock.
    pub fn put_clocked(
        &self,
        st: SuperTileId,
        payload: impl Into<Bytes>,
        refetch_cost_s: f64,
        lane: &SimClock,
    ) {
        let payload = payload.into();
        let size = payload.len() as u64;
        self.put_sized(st, payload, size, refetch_cost_s, Some(lane));
    }

    /// Insert a phantom entry: accounted as `size` bytes without holding
    /// them (paper-scale experiments). Lookups return an empty payload.
    pub fn put_phantom(&self, st: SuperTileId, size: u64, refetch_cost_s: f64) {
        self.put_sized(st, Bytes::new(), size, refetch_cost_s, None);
    }

    fn put_sized(
        &self,
        st: SuperTileId,
        payload: Bytes,
        size: u64,
        refetch_cost_s: f64,
        lane: Option<&SimClock>,
    ) {
        let mut shard = self.lock_shard(st);
        if size > shard.capacity {
            return;
        }
        if let Some(old) = shard.entries.remove(&st) {
            shard.used -= old.size;
        }
        while shard.used + size > shard.capacity {
            match shard.pick_victim(self.policy) {
                Some(victim) => {
                    let e = shard.entries.remove(&victim).expect("victim exists");
                    shard.used -= e.size;
                    self.metrics.evictions.inc();
                    self.bus.event(
                        "cache.st.evict",
                        self.now_s(lane),
                        &[
                            ("st", victim.into()),
                            ("bytes", e.size.into()),
                            ("policy", self.policy.name().into()),
                        ],
                    );
                }
                None => return,
            }
        }
        shard.counter += 1;
        let counter = shard.counter;
        let io = self.charge(size, lane);
        self.metrics.io_s.add(io);
        if self.disk.is_some() {
            self.metrics.io_hist.observe(io);
        }
        self.bus.event(
            "cache.st.admit",
            self.now_s(lane),
            &[
                ("st", st.into()),
                ("bytes", size.into()),
                ("refetch_s", refetch_cost_s.into()),
            ],
        );
        shard.entries.insert(
            st,
            StEntry {
                payload,
                size,
                last_access: counter,
                access_count: 1,
                insert_seq: counter,
                refetch_cost_s,
            },
        );
        shard.used += size;
    }

    /// Drop an entry (e.g. after the super-tile was rewritten).
    pub fn invalidate(&self, st: SuperTileId) {
        let mut shard = self.lock_shard(st);
        if let Some(e) = shard.entries.remove(&st) {
            shard.used -= e.size;
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        for stripe in self.shards.iter() {
            let mut shard = stripe.lock();
            shard.entries.clear();
            shard.used = 0;
        }
    }
}

/// One lock stripe of the tile cache.
#[derive(Debug, Default)]
struct MemShard {
    capacity: u64,
    used: u64,
    entries: HashMap<TileId, (Tile, u64)>,
    counter: u64,
}

/// The main-memory tile cache: decoded tiles, LRU, no access cost.
/// Lock-striped like [`SuperTileCache`]; `new()` is single-shard.
#[derive(Debug)]
pub struct TileCache {
    capacity: u64,
    shards: Box<[CachePadded<Mutex<MemShard>>]>,
    metrics: CacheMetrics,
}

impl TileCache {
    /// Create a single-shard tile cache of `capacity` payload bytes.
    pub fn new(capacity: u64) -> TileCache {
        TileCache::with_shards(capacity, 1)
    }

    /// Create a tile cache striped over `shards` locks (rounded up to a
    /// power of two), each owning `capacity / shards` bytes.
    pub fn with_shards(capacity: u64, shards: usize) -> TileCache {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity / n as u64;
        let shards: Box<[_]> = (0..n)
            .map(|_| {
                CachePadded::new(Mutex::new(MemShard {
                    capacity: per_shard,
                    ..MemShard::default()
                }))
            })
            .collect();
        TileCache {
            capacity: per_shard * n as u64,
            shards,
            metrics: CacheMetrics::new(&MetricsRegistry::new(), MEM_CACHE_NAMES),
        }
    }

    /// Attach the cache's counters to a shared metrics registry; values
    /// accumulated so far carry over.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry) {
        self.metrics.rebind(registry);
    }

    /// Cache statistics (a view over the metrics registry).
    pub fn stats(&self) -> CacheStats {
        self.metrics.stats()
    }

    /// Bytes currently cached, rolled up across shards.
    pub fn used(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Capacity in bytes (sum of the per-shard capacities).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock_shard(&self, id: TileId) -> MutexGuard<'_, MemShard> {
        let (guard, wait_s) = self.shards[shard_index(id, self.shards.len())].lock_timed();
        if wait_s > 0.0 {
            self.metrics.lock_wait_s.add(wait_s);
        }
        guard
    }

    /// Look up a tile. The returned tile shares the cached payload (the
    /// clone is a refcount bump); a caller that mutates it detaches via
    /// copy-on-write without disturbing the cached copy.
    pub fn get(&self, id: TileId) -> Option<Tile> {
        let mut shard = self.lock_shard(id);
        shard.counter += 1;
        let c = shard.counter;
        match shard.entries.get_mut(&id) {
            Some((t, last)) => {
                *last = c;
                self.metrics.hits.inc();
                self.metrics.bytes_served.add(t.payload_bytes());
                Some(t.clone())
            }
            None => {
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Insert a tile, evicting LRU entries as needed. The payload is
    /// frozen into shared form (O(1)) so subsequent `get`s are zero-copy.
    pub fn put(&self, mut tile: Tile) {
        tile.data.freeze_payload();
        let len = tile.payload_bytes();
        let mut shard = self.lock_shard(tile.id);
        if len > shard.capacity {
            return;
        }
        if let Some((old, _)) = shard.entries.remove(&tile.id) {
            shard.used -= old.payload_bytes();
        }
        while shard.used + len > shard.capacity {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(&id, _)| id);
            match victim {
                Some(v) => {
                    let (t, _) = shard.entries.remove(&v).expect("victim exists");
                    shard.used -= t.payload_bytes();
                    self.metrics.evictions.inc();
                }
                None => return,
            }
        }
        shard.counter += 1;
        let counter = shard.counter;
        shard.used += len;
        shard.entries.insert(tile.id, (tile, counter));
    }

    /// Drop an entry.
    pub fn invalidate(&self, id: TileId) {
        let mut shard = self.lock_shard(id);
        if let Some((t, _)) = shard.entries.remove(&id) {
            shard.used -= t.payload_bytes();
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        for stripe in self.shards.iter() {
            let mut shard = stripe.lock();
            shard.entries.clear();
            shard.used = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_array::{CellType, MDArray, Minterval};

    fn payload(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n]
    }

    fn cache(cap: u64, policy: EvictionPolicy) -> SuperTileCache {
        SuperTileCache::new(cap, policy, None)
    }

    #[test]
    fn put_get_roundtrip() {
        let c = cache(1000, EvictionPolicy::Lru);
        c.put(1, payload(100, 0xAA), 30.0);
        assert_eq!(c.get(1).unwrap(), payload(100, 0xAA));
        assert!(c.get(2).is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hits_alias_the_cached_buffer() {
        let c = cache(1000, EvictionPolicy::Lru);
        c.put(1, payload(100, 7), 1.0);
        let a = c.get(1).unwrap();
        let b = c.get(1).unwrap();
        assert_eq!(
            a.as_slice().as_ptr(),
            b.as_slice().as_ptr(),
            "st-cache hits must not copy the payload"
        );
        assert!(a.ref_count() >= 3); // cache entry + both handles
    }

    #[test]
    fn tile_cache_hits_share_payload() {
        let dom = Minterval::new(&[(0, 9)]).unwrap();
        let c = TileCache::new(1 << 20);
        c.put(Tile::new(1, 1, MDArray::zeros(dom, CellType::F64)));
        let a = c.get(1).unwrap();
        let b = c.get(1).unwrap();
        assert!(a.data.is_shared() && b.data.is_shared());
        let pa = a.data.shared_bytes().unwrap();
        let pb = b.data.shared_bytes().unwrap();
        assert_eq!(pa.as_slice().as_ptr(), pb.as_slice().as_ptr());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = cache(300, EvictionPolicy::Lru);
        c.put(1, payload(100, 1), 1.0);
        c.put(2, payload(100, 2), 1.0);
        c.put(3, payload(100, 3), 1.0);
        c.get(1); // 2 is now LRU
        c.put(4, payload(100, 4), 1.0);
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3) && c.contains(4));
    }

    #[test]
    fn fifo_evicts_oldest_insert() {
        let c = cache(300, EvictionPolicy::Fifo);
        c.put(1, payload(100, 1), 1.0);
        c.put(2, payload(100, 2), 1.0);
        c.put(3, payload(100, 3), 1.0);
        c.get(1); // does not matter for FIFO
        c.put(4, payload(100, 4), 1.0);
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn lfu_keeps_frequent_entries() {
        let c = cache(300, EvictionPolicy::Lfu);
        c.put(1, payload(100, 1), 1.0);
        c.put(2, payload(100, 2), 1.0);
        c.put(3, payload(100, 3), 1.0);
        c.get(1);
        c.get(1);
        c.get(3);
        c.put(4, payload(100, 4), 1.0); // evicts 2 (count 1)
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn cost_aware_keeps_expensive_refetches() {
        let c = cache(300, EvictionPolicy::CostAware);
        c.put(1, payload(100, 1), 120.0); // expensive to refetch
        c.put(2, payload(100, 2), 1.0); // cheap
        c.put(3, payload(100, 3), 60.0);
        c.put(4, payload(100, 4), 60.0); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn cost_aware_ties_evict_the_oldest_entry() {
        let c = cache(800, EvictionPolicy::CostAware);
        // Equal size, refetch cost and access count: every score ties.
        let ids = [57u64, 3, 91, 12, 40, 77, 8, 64];
        for &id in &ids {
            c.put(id, payload(100, id as u8), 5.0);
        }
        for (n, &evicted) in ids.iter().enumerate().take(3) {
            c.put(1000 + n as u64, payload(100, 0), 5.0);
            assert!(!c.contains(evicted), "insert #{n} must evict {evicted}");
            assert!(ids[n + 1..].iter().all(|&id| c.contains(id)));
        }
    }

    #[test]
    fn oversized_entry_not_admitted() {
        let c = cache(100, EvictionPolicy::Lru);
        c.put(1, payload(200, 1), 1.0);
        assert!(!c.contains(1));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn invalidate_and_clear() {
        let c = cache(1000, EvictionPolicy::Lru);
        c.put(1, payload(100, 1), 1.0);
        c.put(2, payload(100, 2), 1.0);
        c.invalidate(1);
        assert!(!c.contains(1));
        assert_eq!(c.used(), 100);
        c.clear();
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn disk_backed_cache_charges_time() {
        let clock = SimClock::new();
        let c = SuperTileCache::new(
            1 << 30,
            EvictionPolicy::Lru,
            Some((DiskProfile::scsi2003(), clock.clone())),
        );
        c.put(1, payload(30 << 20, 0), 10.0);
        let after_put = clock.now_s();
        assert!(after_put > 1.0);
        c.get(1);
        assert!(clock.now_s() > after_put + 0.9);
    }

    #[test]
    fn clocked_access_charges_the_lane_not_the_shared_clock() {
        let shared = SimClock::new();
        let c = SuperTileCache::new(
            1 << 30,
            EvictionPolicy::Lru,
            Some((DiskProfile::scsi2003(), shared.clone())),
        );
        let lane = shared.fork();
        c.put_clocked(1, payload(30 << 20, 0), 10.0, &lane);
        c.get_clocked(1, &lane);
        assert_eq!(
            shared.now_s(),
            0.0,
            "lane I/O must not move the shared clock"
        );
        assert!(lane.now_s() > 2.0);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn tile_cache_lru() {
        let dom = Minterval::new(&[(0, 9)]).unwrap();
        let mk = |id: TileId| Tile::new(id, 1, MDArray::zeros(dom.clone(), CellType::F64));
        let c = TileCache::new(200); // each tile 80 bytes
        c.put(mk(1));
        c.put(mk(2));
        c.get(1);
        c.put(mk(3)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn sharded_cache_caps_every_stripe() {
        let c = SuperTileCache::with_shards(4000, EvictionPolicy::Lru, None, 4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.capacity(), 4000);
        for st in 0..64u64 {
            c.put(st, payload(250, st as u8), 1.0);
            assert!(c.used() <= c.capacity());
        }
        assert!(c.stats().evictions > 0, "64 x 250B must overflow 4 x 1000B");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c = SuperTileCache::with_shards(700, EvictionPolicy::Lru, None, 7);
        assert_eq!(c.shard_count(), 8);
        assert_eq!(c.capacity(), 696); // 8 * (700 / 8)
        let m = TileCache::with_shards(1 << 20, 3);
        assert_eq!(m.shard_count(), 4);
    }

    #[test]
    fn attach_obs_carries_counters_and_emits_cache_events() {
        let clock = SimClock::new();
        let mut c = SuperTileCache::new(
            250,
            EvictionPolicy::Lru,
            Some((DiskProfile::scsi2003(), clock)),
        );
        c.put(1, payload(100, 1), 5.0);
        c.get(1);
        let registry = MetricsRegistry::new();
        let bus = TraceBus::ring(64);
        c.attach_obs(&registry, bus.clone());
        assert_eq!(registry.counter("cache.st.hits").get(), 1);
        assert!(registry.fcounter("cache.st.io_s").get() > 0.0);
        c.put(2, payload(100, 2), 5.0);
        c.put(3, payload(100, 3), 5.0); // evicts one entry
        assert_eq!(registry.counter("cache.st.evictions").get(), 1);
        let recs = bus.records();
        let evict = recs
            .iter()
            .find(|r| r.name == "cache.st.evict")
            .expect("evict event recorded");
        assert!(evict
            .fields
            .iter()
            .any(|(k, v)| *k == "policy" && format!("{v:?}").contains("LRU")));
        assert!(recs.iter().any(|r| r.name == "cache.st.admit"));
        assert_eq!(c.stats().evictions, 1, "stats view reads the registry");
    }

    #[test]
    fn cache_stats_since_and_display() {
        let a = CacheStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            bytes_served: 100,
            io_s: 2.5,
        };
        let b = CacheStats {
            hits: 8,
            misses: 2,
            evictions: 1,
            bytes_served: 300,
            io_s: 4.0,
        };
        let d = b.since(&a);
        assert_eq!(d.hits, 3);
        assert!((d.io_s - 1.5).abs() < 1e-12);
        let wrong = a.since(&b); // clamps instead of underflowing
        assert_eq!(wrong.hits, 0);
        assert_eq!(wrong.io_s, 0.0);
        let shown = format!("{a}");
        assert!(shown.contains("hits=5"));
        assert!(shown.contains("io=2.5s"));
    }

    #[test]
    fn hit_ratio_math() {
        let c = cache(1000, EvictionPolicy::Lru);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.put(1, payload(10, 0), 1.0);
        c.get(1);
        c.get(1);
        c.get(9);
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }
}
