//! The HEAVEN caching hierarchy (paper §3.7).
//!
//! Three levels: main-memory **tile cache** (decoded tiles, free access) →
//! secondary-storage **super-tile cache** (raw payloads, disk-cost access)
//! → tertiary storage. The super-tile cache's eviction policy is
//! selectable (§3.7.3): LRU, LFU, FIFO, or cost-aware, which keeps a
//! super-tile longer the more its tertiary refetch costs per byte. The
//! tile cache is LRU.
//!
//! Both caches are typed fronts over one lock-striped core: N shards
//! (picked by a Fibonacci hash of the id) behind their own mutexes, each
//! owning `capacity / N` bytes, so `used() <= capacity()` always holds and
//! time blocked on a busy stripe is recorded in `cache.shard_lock_wait_s`.
//! Each shard picks victims from a lazy min-heap of `(rank, id)`
//! (`Entry::rank`). A put pushes the new entry's rank; a hit pushes only
//! a rank that fell (cost-aware with a negative refetch cost), so every
//! live entry keeps a heap item at or below its rank. Eviction pops
//! `(rank, id)`: a live entry still at that rank is the victim, a live
//! entry ranked higher since is requeued at its current rank, and any
//! other item is dropped. Ranks end in a unique per-shard stamp, so the
//! victim is exactly the least-ranked live entry — amortised O(log n), no
//! scan under the lock, and no heap traffic on a hit that raises a rank.
//! Eviction and admission (with the super-tile cache's disk charge and
//! trace events) run under the lock. `TileCache::get_many` probes a batch
//! of ids taking each stripe lock once and bumping the hit counters once,
//! with the same outcome and recency stamps as the same `get`s in order.

use crate::supertile::SuperTileId;
use bytes::Bytes;
use crossbeam::utils::CachePadded;
use heaven_array::{Tile, TileId};
use heaven_obs::{Counter, FloatCounter, Histogram, MetricsRegistry, TraceBus};
use heaven_tape::{DiskProfile, SimClock};
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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

/// The Fibonacci-hash multiplier (2^64 / golden ratio) both id hashes use.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci-hash shard index for an id among `n` (power-of-two) shards.
#[inline]
fn shard_index(id: u64, n: usize) -> usize {
    ((id.wrapping_mul(FIB) >> 33) as usize) & (n - 1)
}

/// The hasher of a shard's id-keyed table: one Fibonacci multiply, its
/// high half folded into the low bits the table indexes by (a SipHash
/// round per probe buys nothing for integer ids).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("cache ids hash through write_u64")
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let p = id.wrapping_mul(FIB);
        self.0 = p ^ (p >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An eviction rank: the live entry with the least rank is the victim.
type Rank = (u64, u64);

/// A shard's heap is rebuilt from its live entries once it holds more than
/// 2 × entries + `HEAP_SLACK` items.
const HEAP_SLACK: usize = 64;

/// One cached value with the counters every policy ranks by.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Accounted size in bytes (the payload length, or more for phantom
    /// super-tile entries used by paper-scale experiments).
    size: u64,
    last_access: u64,
    access_count: u64,
    insert_seq: u64,
    /// Estimated seconds to refetch from tertiary storage.
    refetch_cost_s: f64,
}

impl<V> Entry<V> {
    /// The entry's rank under `policy`. `last_access` and `insert_seq`
    /// are stamps of one per-shard counter, so no two entries tie.
    fn rank(&self, policy: EvictionPolicy) -> Rank {
        match policy {
            EvictionPolicy::Lru => (self.last_access, self.insert_seq),
            EvictionPolicy::Lfu => (self.access_count, self.last_access),
            EvictionPolicy::Fifo => (self.insert_seq, 0),
            EvictionPolicy::CostAware => {
                // refetch cost per byte, weighted by use, mapped to bits
                // that sort like the float (`+ 0.0` folds in -0.0, set sign
                // bits are flipped so negatives sort below zero)
                let score =
                    self.refetch_cost_s * self.access_count as f64 / (self.size.max(1) as f64);
                debug_assert!(!score.is_nan(), "cost-aware score is NaN");
                let bits = (score + 0.0).to_bits();
                let key = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | 1 << 63
                };
                (key, self.insert_seq)
            }
        }
    }
}

/// One lock stripe.
#[derive(Debug)]
struct Shard<V> {
    capacity: u64,
    used: u64,
    entries: HashMap<u64, Entry<V>, BuildHasherDefault<IdHasher>>,
    /// Lazy min-heap of `(rank, id)`: every live entry has an item at or
    /// below its current rank (see the module doc for how pops treat
    /// the rest).
    heap: BinaryHeap<Reverse<(Rank, u64)>>,
    counter: u64,
}

impl<V> Shard<V> {
    fn new(capacity: u64) -> Shard<V> {
        Shard {
            capacity,
            used: 0,
            entries: HashMap::default(),
            heap: BinaryHeap::new(),
            counter: 0,
        }
    }

    /// Push a rank, rebuilding the heap from the live entries once stale
    /// items outnumber them (bounds the heap at 2 × entries + slack).
    fn push(&mut self, policy: EvictionPolicy, rank: Rank, id: u64) {
        self.heap.push(Reverse((rank, id)));
        if self.heap.len() > 2 * self.entries.len() + HEAP_SLACK {
            let live = self
                .entries
                .iter()
                .map(|(&id, e)| Reverse((e.rank(policy), id)));
            self.heap = live.collect();
        }
    }

    /// Look up `id`: on a hit, stamp its recency and count, run `hit` on
    /// it, and push its rank only if that fell. Returns `hit`'s result
    /// and the entry's size.
    fn probe<R>(
        &mut self,
        policy: EvictionPolicy,
        id: u64,
        hit: impl FnOnce(&Entry<V>) -> R,
    ) -> Option<(R, u64)> {
        self.counter += 1;
        let now = self.counter;
        let e = self.entries.get_mut(&id)?;
        let old = e.rank(policy);
        e.last_access = now;
        e.access_count += 1;
        let rank = e.rank(policy);
        let size = e.size;
        let r = hit(e);
        if rank < old {
            self.push(policy, rank, id);
        }
        Some((r, size))
    }

    fn remove(&mut self, id: u64) -> Option<Entry<V>> {
        let e = self.entries.remove(&id)?;
        self.used -= e.size;
        Some(e)
    }
}

/// The striped core under both caches: shards, policy, and the metrics
/// every level keeps.
#[derive(Debug)]
struct Stripes<V> {
    capacity: u64,
    policy: EvictionPolicy,
    shards: Box<[CachePadded<Mutex<Shard<V>>>]>,
    metrics: CacheMetrics,
}

impl<V> Stripes<V> {
    /// `shards` stripes (rounded up to a power of two) of
    /// `capacity / shards` bytes each.
    fn new(capacity: u64, policy: EvictionPolicy, shards: usize, names: CacheMetricNames) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity / n as u64;
        let shard = |_| CachePadded::new(Mutex::new(Shard::new(per_shard)));
        Stripes {
            capacity: per_shard * n as u64,
            policy,
            shards: (0..n).map(shard).collect(),
            metrics: CacheMetrics::new(&MetricsRegistry::new(), names),
        }
    }

    /// Lock the stripe owning `id`, folding any blocked host time into
    /// `cache.shard_lock_wait_s`.
    fn lock(&self, id: u64) -> MutexGuard<'_, Shard<V>> {
        self.lock_stripe(shard_index(id, self.shards.len()))
    }

    /// Lock stripe `s`, folding any blocked host time into
    /// `cache.shard_lock_wait_s`.
    fn lock_stripe(&self, s: usize) -> MutexGuard<'_, Shard<V>> {
        let (guard, wait_s) = self.shards[s].lock_timed();
        if wait_s > 0.0 {
            self.metrics.lock_wait_s.add(wait_s);
        }
        guard
    }

    /// Look up `id`, counting the hit or miss; on a hit, stamp its
    /// recency and run `hit` on the entry under the stripe lock.
    fn get<R>(&self, id: u64, hit: impl FnOnce(&Entry<V>) -> R) -> Option<R> {
        let found = self.lock(id).probe(self.policy, id, hit);
        let Some((r, size)) = found else {
            self.metrics.misses.inc();
            return None;
        };
        self.metrics.hits.inc();
        self.metrics.bytes_served.add(size);
        Some(r)
    }

    /// [`Self::get`] over a batch: `out[i]` becomes `get(ids[i])`. Each
    /// stripe is locked at most once and probes its ids in call order,
    /// so every stripe stamps the same recency sequence as those `get`s
    /// would; the hit, miss and byte counters are added once.
    fn get_many<R>(&self, ids: &[u64], out: &mut [Option<R>], mut hit: impl FnMut(&Entry<V>) -> R) {
        assert_eq!(ids.len(), out.len(), "one slot per id");
        let (mut hits, mut bytes) = (0u64, 0u64);
        let mut probe = |shard: &mut Shard<V>, i: usize| {
            out[i] = shard.probe(self.policy, ids[i], &mut hit).map(|(r, size)| {
                hits += 1;
                bytes += size;
                r
            });
        };
        // positions grouped by stripe, in call order within each
        let n = self.shards.len();
        let mut order: Vec<(usize, usize)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (shard_index(id, n), i))
            .collect();
        order.sort_unstable();
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.lock_stripe(run[0].0);
            run.iter().for_each(|&(_, i)| probe(&mut shard, i));
        }
        let misses = ids.len() as u64 - hits;
        for (counter, n) in [
            (&self.metrics.hits, hits),
            (&self.metrics.misses, misses),
            (&self.metrics.bytes_served, bytes),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Admit `value` as `size` bytes, evicting the least-ranked entries
    /// until it fits. Under the stripe lock, `evict` sees each victim's id
    /// and size, then `admit` runs once the value fits. A value larger
    /// than the shard is not admitted.
    fn put(
        &self,
        id: u64,
        value: V,
        size: u64,
        cost: f64,
        mut evict: impl FnMut(u64, u64),
        admit: impl FnOnce(),
    ) {
        let mut shard = self.lock(id);
        if size > shard.capacity {
            return;
        }
        shard.remove(id);
        while shard.used + size > shard.capacity {
            let Some(Reverse((rank, victim))) = shard.heap.pop() else {
                return;
            };
            let Some(now) = shard.entries.get(&victim).map(|e| e.rank(self.policy)) else {
                continue;
            };
            match now.cmp(&rank) {
                // hits raised the rank since this item was queued
                std::cmp::Ordering::Greater => shard.heap.push(Reverse((now, victim))),
                std::cmp::Ordering::Equal => {
                    let e = shard.remove(victim).expect("live victim");
                    self.metrics.evictions.inc();
                    evict(victim, e.size);
                }
                // a lower item of this entry is still queued
                std::cmp::Ordering::Less => {}
            }
        }
        admit();
        shard.counter += 1;
        let e = Entry {
            value,
            size,
            last_access: shard.counter,
            access_count: 1,
            insert_seq: shard.counter,
            refetch_cost_s: cost,
        };
        let rank = e.rank(self.policy);
        shard.entries.insert(id, e);
        shard.used += size;
        shard.push(self.policy, rank, id);
    }
}

/// The public methods both cache fronts share, forwarded to their core.
macro_rules! front_methods {
    ($id:ty) => {
        /// Cache statistics (a view over the metrics registry).
        pub fn stats(&self) -> CacheStats {
            self.core.metrics.stats()
        }

        /// Bytes currently cached, rolled up across shards.
        pub fn used(&self) -> u64 {
            self.core.shards.iter().map(|s| s.lock().used).sum()
        }

        /// Capacity in bytes (sum of the per-shard capacities).
        pub fn capacity(&self) -> u64 {
            self.core.capacity
        }

        /// Number of lock stripes.
        pub fn shard_count(&self) -> usize {
            self.core.shards.len()
        }

        /// Drop an entry (e.g. after its object was rewritten).
        pub fn invalidate(&self, id: $id) {
            self.core.lock(id).remove(id);
        }

        /// Drop everything.
        pub fn clear(&self) {
            for stripe in self.core.shards.iter() {
                let mut shard = stripe.lock();
                *shard = Shard::new(shard.capacity);
            }
        }
    };
}

/// The disk-resident super-tile cache (lock-striped, shareable by `&self`
/// across session threads).
#[derive(Debug)]
pub struct SuperTileCache {
    core: Stripes<Bytes>,
    bus: TraceBus,
    disk: Option<(DiskProfile, SimClock)>,
}

impl SuperTileCache {
    /// Create a single-shard cache of `capacity` bytes. When `disk` is
    /// given, hits and stores charge disk I/O costs to the clock (the
    /// cache lives on secondary storage).
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
        SuperTileCache {
            core: Stripes::new(capacity, policy, shards, ST_CACHE_NAMES),
            bus: TraceBus::noop(),
            disk,
        }
    }

    /// Attach the cache's counters to a shared metrics registry and its
    /// admit/evict events to a trace bus; values accumulated so far carry
    /// over.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry, bus: TraceBus) {
        self.core.metrics.rebind(registry);
        self.bus = bus;
    }

    front_methods!(SuperTileId);

    /// The eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.core.policy
    }

    /// Whether a super-tile is cached (no stats/cost effect).
    pub fn contains(&self, st: SuperTileId) -> bool {
        self.core.lock(st).entries.contains_key(&st)
    }

    /// Charge and record the disk access cost of `bytes` (none for a
    /// memory-resident cache) to `lane`, else to the shared clock.
    fn charge(&self, bytes: u64, lane: Option<&SimClock>) {
        if let Some((profile, clock)) = &self.disk {
            let s = profile.access_time_s(bytes);
            lane.unwrap_or(clock).advance_s(s);
            self.core.metrics.io_s.add(s);
            self.core.metrics.io_hist.observe(s);
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
        let hit = self.core.get(st, |e| {
            self.charge(e.size, lane);
            self.bus.event(
                "cache.st.hit",
                self.now_s(lane),
                &[("st", st.into()), ("bytes", e.size.into())],
            );
            e.value.clone()
        });
        if hit.is_none() {
            self.bus
                .event("cache.st.miss", self.now_s(lane), &[("st", st.into())]);
        }
        hit
    }

    /// Insert a payload with its estimated tertiary refetch cost; evicts
    /// per policy until it fits. Payloads larger than a shard are not
    /// admitted. Accepts anything convertible to [`Bytes`] (`Vec<u8>`
    /// converts in O(1)).
    pub fn put(&self, st: SuperTileId, payload: impl Into<Bytes>, refetch_cost_s: f64) {
        let payload: Bytes = payload.into();
        self.put_sized(st, payload.len() as u64, payload, refetch_cost_s, None);
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
        let payload: Bytes = payload.into();
        let size = payload.len() as u64;
        self.put_sized(st, size, payload, refetch_cost_s, Some(lane));
    }

    /// Insert a phantom entry: accounted as `size` bytes without holding
    /// them (paper-scale experiments). Lookups return an empty payload.
    pub fn put_phantom(&self, st: SuperTileId, size: u64, refetch_cost_s: f64) {
        self.put_sized(st, size, Bytes::new(), refetch_cost_s, None);
    }

    fn put_sized(
        &self,
        st: SuperTileId,
        size: u64,
        payload: Bytes,
        refetch_s: f64,
        lane: Option<&SimClock>,
    ) {
        let evict = |victim: u64, bytes: u64| {
            self.bus.event(
                "cache.st.evict",
                self.now_s(lane),
                &[
                    ("st", victim.into()),
                    ("bytes", bytes.into()),
                    ("policy", self.core.policy.name().into()),
                ],
            );
        };
        let admit = || {
            self.charge(size, lane);
            self.bus.event(
                "cache.st.admit",
                self.now_s(lane),
                &[
                    ("st", st.into()),
                    ("bytes", size.into()),
                    ("refetch_s", refetch_s.into()),
                ],
            );
        };
        self.core.put(st, payload, size, refetch_s, evict, admit);
    }
}

/// The main-memory tile cache: decoded tiles, LRU, no access cost.
/// Lock-striped like [`SuperTileCache`]; `new()` is single-shard.
#[derive(Debug)]
pub struct TileCache {
    core: Stripes<Arc<Tile>>,
}

impl TileCache {
    /// Create a single-shard tile cache of `capacity` payload bytes.
    pub fn new(capacity: u64) -> TileCache {
        TileCache::with_shards(capacity, 1)
    }

    /// Create a tile cache striped over `shards` locks (rounded up to a
    /// power of two), each owning `capacity / shards` bytes.
    pub fn with_shards(capacity: u64, shards: usize) -> TileCache {
        TileCache {
            core: Stripes::new(capacity, EvictionPolicy::Lru, shards, MEM_CACHE_NAMES),
        }
    }

    /// Attach the cache's counters to a shared metrics registry; values
    /// accumulated so far carry over.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry) {
        self.core.metrics.rebind(registry);
    }

    front_methods!(TileId);

    /// Look up a tile. A hit hands out the cached tile itself: one
    /// refcount bump, no copy of its domain or payload.
    pub fn get(&self, id: TileId) -> Option<Arc<Tile>> {
        self.core.get(id, |e| Arc::clone(&e.value))
    }

    /// [`Self::get`] for a batch of ids: `slots[i]` becomes
    /// `get(ids[i])`, with the same hits, stats and recency stamps, but
    /// each stripe is locked once and the counters are bumped once.
    pub fn get_many(&self, ids: &[TileId], slots: &mut [Option<Arc<Tile>>]) {
        self.core.get_many(ids, slots, |e| Arc::clone(&e.value));
    }

    /// Insert a tile, evicting LRU entries as needed. The payload of a
    /// tile handed in by value is frozen into shared form (O(1)), so a
    /// caller that clones a hit's payload gets a refcount bump too.
    pub fn put(&self, tile: impl Into<Arc<Tile>>) {
        let mut tile = tile.into();
        if let Some(t) = Arc::get_mut(&mut tile) {
            t.data.freeze_payload();
        }
        let len = tile.payload_bytes();
        self.core.put(tile.id, tile, len, 0.0, |_, _| {}, || {});
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
    fn lfu_breaks_count_ties_by_recency_after_many_hits() {
        // 9,999 rounds push the counts past the point where a composite
        // `count × 1e12 + last_access` float loses the recency stamp.
        for rounds in [99u64, 9_999] {
            let c = cache(2048, EvictionPolicy::Lfu);
            c.put(1, payload(1024, 1), 1.0);
            c.put(2, payload(1024, 2), 1.0);
            for _ in 0..rounds {
                c.get(2);
                c.get(1);
            }
            c.put(3, payload(1024, 3), 1.0); // equal counts: 2 is older
            assert!(c.contains(1), "{rounds} rounds: 1 is the recent one");
            assert!(!c.contains(2), "{rounds} rounds: 2 must be evicted");
        }
    }

    #[test]
    fn victim_heap_stays_bounded_without_evictions() {
        for policy in EvictionPolicy::all() {
            let c = cache(1 << 20, policy);
            for id in 0..8u64 {
                c.put(id, payload(100, id as u8), 1.0 + id as f64);
            }
            for i in 0..100_000u64 {
                c.get(i % 8);
                let shard = c.core.shards[0].lock();
                assert!(shard.heap.len() <= 2 * shard.entries.len() + HEAP_SLACK);
            }
            assert_eq!(c.stats().evictions, 0);
            c.put(100, payload(1 << 20, 0), 1.0); // evicts all 8 from the heap
            assert_eq!((c.stats().evictions, c.used()), (8, 1 << 20), "{policy:?}");
        }
    }

    #[test]
    fn get_many_matches_the_same_gets_in_order() {
        let tile = |id: TileId, cells: i64| {
            let dom = Minterval::new(&[(0, cells - 1)]).unwrap();
            Tile::new(id, 1, MDArray::zeros(dom, CellType::U8))
        };
        let mut seed = 7u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for shards in [1, 4] {
            let (many, twin) = (
                TileCache::with_shards(4000, shards),
                TileCache::with_shards(4000, shards),
            );
            for round in 0..60 {
                // a batch over 48 ids, some repeated, some never cached
                let ids: Vec<TileId> = (0..1 + next(24)).map(|_| next(48)).collect();
                let mut slots = vec![None; ids.len()];
                many.get_many(&ids, &mut slots);
                for (&id, slot) in ids.iter().zip(&slots) {
                    let got = twin.get(id).map(|t| t.id);
                    assert_eq!(
                        slot.as_ref().map(|t| t.id),
                        got,
                        "{shards} shards, round {round}"
                    );
                }
                assert_eq!(many.stats(), twin.stats());
                // puts that evict by the recency both probes stamped
                for _ in 0..3 {
                    let (id, cells) = (next(40), 50 + next(150) as i64);
                    many.put(tile(id, cells));
                    twin.put(tile(id, cells));
                }
                assert_eq!(many.used(), twin.used());
                assert_eq!(many.stats(), twin.stats());
            }
            assert!(many.stats().evictions > 0 && many.stats().hits > 0);
            let all: Vec<TileId> = (0..48).collect();
            let mut slots = vec![None; all.len()];
            many.get_many(&all, &mut slots);
            let resident: Vec<bool> = all.iter().map(|&id| twin.get(id).is_some()).collect();
            assert_eq!(
                slots.iter().map(Option::is_some).collect::<Vec<_>>(),
                resident
            );
        }
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
    fn cost_aware_orders_zero_and_negative_costs() {
        let c = cache(300, EvictionPolicy::CostAware);
        c.put(1, payload(100, 1), 0.0);
        c.put(2, payload(100, 2), -5.0);
        c.put(3, payload(100, 3), -1.0);
        c.get(1); // a zero cost keeps a zero score
        c.put(4, payload(100, 4), 0.0); // most negative score first
        assert!(!c.contains(2) && c.contains(3));
        c.put(5, payload(100, 5), 1.0);
        assert!(!c.contains(3) && c.contains(1));
        c.put(6, payload(100, 6), 1.0); // zero ties: the older insert
        assert!(!c.contains(1) && c.contains(4));
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
