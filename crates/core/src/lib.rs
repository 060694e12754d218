#![warn(missing_docs)]
//! # heaven-core — HEAVEN: Hierarchical Storage and Archive Environment
//! for Multidimensional Array Database Management Systems
//!
//! The paper's primary contribution: a transparent fusion of a
//! multidimensional array DBMS with automated tertiary-storage systems,
//! optimized for tape access. The pieces:
//!
//! * [`supertile`] — super-tiles, the tertiary transfer unit (§3.3);
//! * [`star`] / [`estar`] — the (extended) Super-Tile Algorithm forming
//!   them (§3.3.2–3.3.3);
//! * [`sizing`] — automatic super-tile size adaptation (§3.3.4);
//! * [`export`] — naive vs. decoupled-TCT export with intra-/inter-
//!   super-tile clustering (§3.4);
//! * [`concurrent`] + [`system`] + [`scheduler`] — hierarchy-transparent
//!   retrieval with query scheduling (§3.5): one engine serves both the
//!   single owner and concurrent sessions;
//! * [`cache`] — the caching hierarchy with pluggable eviction (§3.7);
//! * [`maintenance`] — delete / update / re-import / media reclamation and
//!   prefetching (§3.6);
//! * [`precomp`] — the catalog of precomputed operation results (§3.9);
//! * Object Framing (§3.8) lives in the query language
//!   (`heaven-arraydb::ql`) on the geometry of `heaven-array::frame`,
//!   evaluated here tile-precisely through the [`system::Heaven`]
//!   provider.

pub mod cache;
pub mod catalog;
pub mod concurrent;
pub mod config;
pub mod error;
pub mod estar;
pub mod export;
pub mod maintenance;
pub(crate) mod persist;
pub mod precomp;
pub(crate) mod recovery;
pub mod report;
pub mod scheduler;
pub mod sizing;
pub mod star;
pub mod supertile;
pub mod system;

pub use cache::{CacheStats, EvictionPolicy, SuperTileCache, TileCache};
pub use catalog::{CatalogEntry, SuperTileCatalog};
pub use concurrent::{ConcurrentHeaven, Session};
pub use config::{ClusteringStrategy, HeavenConfig, PrefetchPolicy, RetryPolicy};
pub use error::{HeavenError, Result};
// Codec selection is configured through `HeavenConfig::codec`; re-export
// the policy types so callers don't need a direct heaven-array dep.
pub use estar::{estar_partition, AccessPattern};
pub use export::{pipeline_makespan, ExportMode, ExportReport};
pub use heaven_array::{Codec, CodecPolicy};
pub use precomp::{PrecompCatalog, PrecompStats};
pub use report::ArchiveReport;
pub use scheduler::{
    count_exchanges, fetch_order, plan_drive_rounds, schedule, seek_distance, FetchRequest,
};
pub use sizing::{expected_query_cost_s, optimal_supertile_size};
pub use star::{bytes_touched, groups_touched, star_partition, TileInfo};
pub use supertile::{
    checksum64, decode_all, decode_member, encode_supertile, MemberEntry, SuperTileId,
    SuperTileMeta,
};
pub use system::{Heaven, HeavenStats};
