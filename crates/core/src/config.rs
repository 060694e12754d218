//! HEAVEN configuration.

use crate::cache::EvictionPolicy;
use crate::estar::AccessPattern;
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

/// Prefetching policy (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No prefetching.
    None,
    /// After serving a query, stage the next `n` super-tiles in cluster
    /// order into the disk cache (cluster order ≈ spatial successor).
    NextInOrder(usize),
}

/// Bounded-retry policy for tertiary reads (chaos-mode recovery). A
/// transient failure (drive death, bad segment) is retried up to
/// `max_retries` times per archive copy, backing off exponentially on
/// the **simulated** clock; when a copy is exhausted the read fails over
/// to the replica (if dual-copy archival is on) before giving up with
/// [`crate::HeavenError::MediaLost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-reads of one copy after its initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, simulated seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff per subsequent retry.
    pub backoff_mult: f64,
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based); 0.0 for the
    /// initial attempt.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            0.0
        } else {
            self.backoff_base_s * self.backoff_mult.powi(attempt as i32 - 1)
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 0.5,
            backoff_mult: 2.0,
        }
    }
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
    /// Retry/backoff policy for tertiary reads.
    pub retry: RetryPolicy,
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
            retry: RetryPolicy::default(),
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
        assert_eq!(c.retry.max_retries, 3);
        assert!(c.stall_window_mult > 0.0, "watchdog on by default");
        assert!(c.codec.forced.is_none());
        assert!(c.codec.raw_threshold > 0.0 && c.codec.raw_threshold < 1.0);
    }

    #[test]
    fn retry_backoff_is_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_s(0), 0.0);
        assert!((p.backoff_s(1) - 0.5).abs() < 1e-12);
        assert!((p.backoff_s(2) - 1.0).abs() < 1e-12);
        assert!((p.backoff_s(3) - 2.0).abs() < 1e-12);
    }
}
