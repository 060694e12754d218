//! HEAVEN configuration.

use crate::cache::EvictionPolicy;
use crate::estar::{estar_partition, AccessPattern};
use crate::star::{star_partition, Partition, TileInfo};
use heaven_array::{CodecPolicy, Condenser, LinearOrder};
use heaven_obs::TraceConfig;

/// How super-tiles are formed at export time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteringStrategy {
    /// STAR along a fixed linearization order (paper §3.3.2).
    Star(LinearOrder),
    /// eSTAR, access-pattern aware (paper §3.3.3).
    EStar(AccessPattern),
}

impl ClusteringStrategy {
    /// Partition an object's `tiles` (its tile grid has `grid_shape`) into
    /// super-tiles of at most `target_bytes` with this strategy.
    pub fn partition(self, tiles: &[TileInfo], grid_shape: &[u64], target_bytes: u64) -> Partition {
        match self {
            ClusteringStrategy::Star(order) => {
                star_partition(tiles, grid_shape, target_bytes, order)
            }
            ClusteringStrategy::EStar(pattern) => {
                estar_partition(tiles, grid_shape, target_bytes, pattern)
            }
        }
    }
}

/// Prefetching policy (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No prefetching.
    None,
    /// After serving a query, stage the next `n` super-tiles in cluster
    /// order into the disk cache (cluster order ≈ spatial successor).
    NextInOrder(usize),
}

/// Tunable parameters of a HEAVEN instance.
#[derive(Debug, Clone)]
pub struct HeavenConfig {
    /// Fixed super-tile size; `None` selects the automatic size adaptation
    /// (paper §3.3.4) from the device profile and `expected_query_bytes`.
    pub supertile_bytes: Option<u64>,
    /// Expected useful bytes per query, for the sizing model.
    pub expected_query_bytes: u64,
    /// Clustering strategy for export.
    pub clustering: ClusteringStrategy,
    /// Main-memory tile cache size in bytes.
    pub mem_cache_bytes: u64,
    /// Disk super-tile cache size in bytes.
    pub disk_cache_bytes: u64,
    /// Eviction policy of the disk super-tile cache.
    pub eviction: EvictionPolicy,
    /// Prefetching policy.
    pub prefetch: PrefetchPolicy,
    /// Whether to reorder tertiary fetches (query scheduling, §3.5.3).
    pub scheduling: bool,
    /// Start every exported object on a fresh medium (strong inter-object
    /// clustering; costs media, avoids inter-object interference).
    pub medium_per_object: bool,
    /// Condensers to precompute per tile at export time (§3.9).
    pub precompute: Vec<Condenser>,
    /// Compress super-tile payloads (RLE) before they go to tape —
    /// RasDaMan's tile compression / tape hardware compression analogue.
    /// Trades CPU for tertiary transfer volume; disables partial
    /// super-tile reads on random-access media.
    pub compress: bool,
    /// Codec selection policy used when [`Self::compress`] is on: probe
    /// budget, incompressibility threshold, and an optional forced codec.
    /// The default probes ~2 KiB per payload and passes incompressible
    /// payloads through raw (zero-copy).
    pub codec: CodecPolicy,
    /// Tracing sink for the observability bus (spans and events keyed to
    /// simulated time), plus sampling and per-subsystem level knobs. The
    /// default ([`TraceConfig::off`]) costs one atomic load per
    /// instrumentation site.
    pub trace: TraceConfig,
    /// Lock stripes per cache level (rounded up to a power of two). 1
    /// reproduces the single-owner cache exactly; concurrent sessions
    /// want one stripe per expected worker or more.
    pub cache_shards: usize,
    /// Merge the tertiary fetches of concurrent sessions into shared
    /// scheduled batches (one mount serves every session needing the
    /// medium; duplicate super-tile requests coalesce into one fetch).
    /// When off, each session stages its own query's misses, scheduled
    /// per query as the single owner does.
    pub cross_session_batching: bool,
    /// Dual-copy archival: write every super-tile to two media at export
    /// and fall back to the second copy when the first is unreadable or
    /// fails checksum verification. Doubles archive volume for
    /// fault tolerance (the paper's media-unreliability answer).
    pub dual_copy: bool,
    /// Stall watchdog threshold for batched tertiary fetches, expressed
    /// as a multiple of the batcher's drain window: a queued fetch that
    /// survives this many drain passes without being served (it keeps
    /// requeueing through the retry/failover ladder) is flagged once via
    /// the `sched.stalls` counter and a `sched.stall` trace event naming
    /// the blocking medium. `0.0` disables the watchdog. Runs entirely
    /// on deterministic drain-pass counts, so chaos runs stay
    /// seed-reproducible.
    pub stall_window_mult: f64,
}

impl Default for HeavenConfig {
    fn default() -> Self {
        HeavenConfig {
            supertile_bytes: None,
            expected_query_bytes: 256 << 20,
            clustering: ClusteringStrategy::EStar(AccessPattern::Uniform),
            mem_cache_bytes: 64 << 20,
            disk_cache_bytes: 1 << 30,
            eviction: EvictionPolicy::Lru,
            prefetch: PrefetchPolicy::None,
            scheduling: true,
            medium_per_object: false,
            precompute: Vec::new(),
            compress: false,
            codec: CodecPolicy::default(),
            trace: TraceConfig::off(),
            cache_shards: 1,
            cross_session_batching: true,
            dual_copy: false,
            stall_window_mult: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = HeavenConfig::default();
        assert!(c.supertile_bytes.is_none());
        assert!(c.scheduling);
        assert!(matches!(
            c.clustering,
            ClusteringStrategy::EStar(AccessPattern::Uniform)
        ));
        assert_eq!(c.prefetch, PrefetchPolicy::None);
        assert_eq!(c.trace, TraceConfig::off());
        assert!(!c.dual_copy);
        assert!(c.stall_window_mult > 0.0, "watchdog on by default");
        assert!(c.codec.forced.is_none());
        assert!(c.codec.raw_threshold > 0.0 && c.codec.raw_threshold < 1.0);
    }
}
