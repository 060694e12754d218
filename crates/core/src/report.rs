//! Archive-wide status reporting.
//!
//! Aggregates the state of a HEAVEN instance — what is archived where, how
//! the caches perform, how much dead space the media carry — into one
//! structure administrators can print (the operational view the ESTEDI
//! centres asked for, Tab. 1.1 "Datenverwaltung").

use crate::export::{ExportMode, ExportReport};
use crate::system::Heaven;
use heaven_array::ObjectId;
use heaven_tape::MediumId;
use std::fmt;

/// Snapshot of the archive's state.
#[derive(Debug, Clone)]
pub struct ArchiveReport {
    /// Objects with at least one exported super-tile.
    pub exported_objects: usize,
    /// Objects entirely on secondary storage.
    pub resident_objects: usize,
    /// Super-tiles in the catalog.
    pub supertiles: usize,
    /// Per-medium usage: `(medium, used bytes, dead bytes)`.
    pub media: Vec<(MediumId, u64, u64)>,
    /// Super-tile disk cache hit ratio so far.
    pub st_cache_hit_ratio: f64,
    /// Memory tile cache hit ratio so far.
    pub tile_cache_hit_ratio: f64,
    /// Super-tiles fetched from tape so far.
    pub st_tape_fetches: u64,
    /// Total simulated seconds elapsed.
    pub simulated_s: f64,
}

impl fmt::Display for ArchiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "archive: {} exported / {} resident objects, {} super-tiles",
            self.exported_objects, self.resident_objects, self.supertiles
        )?;
        for &(m, used, dead) in &self.media {
            let frac = if used > 0 {
                dead as f64 / used as f64 * 100.0
            } else {
                0.0
            };
            writeln!(
                f,
                "  medium {m}: {:.1} MB used, {:.1} MB dead ({frac:.0}%)",
                used as f64 / (1 << 20) as f64,
                dead as f64 / (1 << 20) as f64,
            )?;
        }
        writeln!(
            f,
            "caches: ST {:.2}, tile {:.2}; tape fetches: {}; t = {:.1} s",
            self.st_cache_hit_ratio,
            self.tile_cache_hit_ratio,
            self.st_tape_fetches,
            self.simulated_s
        )
    }
}

impl Heaven {
    /// Export every not-yet-archived object of a collection; returns the
    /// per-object reports.
    pub fn export_collection(
        &mut self,
        collection: &str,
        mode: ExportMode,
    ) -> crate::error::Result<Vec<ExportReport>> {
        let oids: Vec<ObjectId> = self.arraydb_mut().collection(collection)?.objects.clone();
        let mut reports = Vec::with_capacity(oids.len());
        for oid in oids {
            if self.catalog().is_exported(oid) {
                continue;
            }
            reports.push(self.export_object(oid, mode)?);
        }
        Ok(reports)
    }

    /// Build an archive status snapshot.
    pub fn archive_report(&self) -> ArchiveReport {
        let mut exported = 0usize;
        let mut resident = 0usize;
        for oid in self.arraydb().object_ids() {
            if self.catalog().is_exported(oid) {
                exported += 1;
            } else {
                resident += 1;
            }
        }
        let media_ids = self.store().library().media_ids();
        let media = media_ids
            .into_iter()
            .map(|m| {
                let used = self.store().library().medium_used(m).unwrap_or(0);
                (m, used, self.dead_bytes_on(m))
            })
            .collect();
        ArchiveReport {
            exported_objects: exported,
            resident_objects: resident,
            supertiles: self.catalog().len(),
            media,
            st_cache_hit_ratio: self.st_cache_stats().hit_ratio(),
            tile_cache_hit_ratio: self.tile_cache_stats().hit_ratio(),
            st_tape_fetches: self.stats().st_tape_fetches,
            simulated_s: self.clock().now_s(),
        }
    }
}
