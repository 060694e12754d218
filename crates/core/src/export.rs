//! Export of multidimensional data to tertiary storage (paper §3.4).
//!
//! Two export modes are implemented, matching the evaluation's Chapter 4:
//!
//! * **Naive** (the standard RasDaMan export, §4.3.1): tiles are written
//!   synchronously, one block per tile, in insertion order — no clustering,
//!   DBMS reads and tape writes strictly alternating.
//! * **TCT** (the decoupled Tertiary Communication Thread export, §4.3.2):
//!   tiles are grouped into super-tiles (STAR/eSTAR), ordered by
//!   intra-/inter-super-tile clustering and written in large sequential
//!   blocks. In the paper a communication thread overlaps the DBMS read
//!   of super-tile *n+1* with the tape write of super-tile *n*; here that
//!   overlap is modelled in simulated time by [`pipeline_makespan`], and
//!   the report carries both the serialized total and the pipelined
//!   makespan.
//!
//! Both modes are one loop over tile groups (one tile per group for
//! Naive), and every group goes to tape through the one archive write
//! path, [`Heaven::archive_supertile`], which maintenance's
//! `update_region` shares.

use crate::catalog::CatalogEntry;
use crate::config::ClusteringStrategy;
use crate::error::{HeavenError, Result};
use crate::estar::estar_partition;
use crate::star::{star_partition, TileInfo};
use crate::supertile::{checksum64, encode_supertile, SuperTileId};
use crate::system::Heaven;
use heaven_array::{ObjectId, Tile, TileId};
use heaven_arraydb::ObjectMeta;
use heaven_tape::{MediumId, WritePayload};

/// Which export path to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportMode {
    /// Synchronous tile-at-a-time export (baseline).
    Naive,
    /// Decoupled, clustered super-tile export.
    Tct,
}

/// Outcome of an export.
#[derive(Debug, Clone)]
pub struct ExportReport {
    /// The exported object.
    pub oid: ObjectId,
    /// The mode used.
    pub mode: ExportMode,
    /// Number of blocks (super-tiles) written.
    pub supertiles: usize,
    /// Total bytes written to tertiary storage (post-compression).
    pub bytes: u64,
    /// Uncompressed payload bytes (equals `bytes` when compression is off).
    pub raw_bytes: u64,
    /// Simulated seconds of DBMS (secondary-storage) reading.
    pub dbms_read_s: f64,
    /// Simulated seconds of tertiary-storage writing.
    pub tape_write_s: f64,
    /// Serialized wall time (clock delta; what the naive path takes).
    pub elapsed_s: f64,
    /// Pipelined makespan with the TCT overlapping reads and writes
    /// (equals `elapsed_s` for the naive path).
    pub pipelined_s: f64,
    /// Media written to.
    pub media: Vec<MediumId>,
}

/// One super-tile written by [`Heaven::archive_supertile`].
pub(crate) struct Archived {
    /// The new super-tile's id.
    pub id: SuperTileId,
    /// Uncompressed payload bytes.
    pub raw_len: u64,
    /// Bytes of the primary copy on tape.
    pub wire_len: u64,
    /// The primary copy's medium.
    pub medium: MediumId,
    /// Simulated instant the last copy landed on tape.
    pub written_s: f64,
}

impl Heaven {
    /// Export an object's tiles to tertiary storage.
    pub fn export_object(&mut self, oid: ObjectId, mode: ExportMode) -> Result<ExportReport> {
        if self.catalog.is_exported(oid) {
            return Err(HeavenError::AlreadyExported(oid));
        }
        let meta = self.arraydb_mut().object(oid)?.clone();
        let (groups, name) = match mode {
            ExportMode::Naive => (
                meta.tiles.iter().map(|&(_, t)| vec![t]).collect(),
                "export.naive",
            ),
            ExportMode::Tct => (self.tct_groups(&meta)?, "export.tct"),
        };
        if self.config.medium_per_object {
            self.store_mut().open_new_medium();
        }
        let clock = self.clock();
        let span = self.bus.span(
            name,
            clock.now_s(),
            &[("oid", oid.into()), ("supertiles", groups.len().into())],
        );
        let start = clock.now_s();
        let mut report = ExportReport {
            oid,
            mode,
            supertiles: groups.len(),
            bytes: 0,
            raw_bytes: 0,
            dbms_read_s: 0.0,
            tape_write_s: 0.0,
            elapsed_s: 0.0,
            pipelined_s: 0.0,
            media: Vec::new(),
        };
        let mut stage_costs: Vec<(f64, f64)> = Vec::with_capacity(groups.len());
        for group in &groups {
            let t0 = clock.now_s();
            let tiles = group
                .iter()
                .map(|&t| self.arraydb_mut().read_tile(t))
                .collect::<std::result::Result<Vec<Tile>, _>>()?;
            let t1 = clock.now_s();
            self.record_precomp(oid, &tiles);
            let st = self.archive_supertile(oid, &tiles, meta.cell_type.size_bytes())?;
            let t2 = st.written_s;
            report.raw_bytes += st.raw_len;
            report.bytes += st.wire_len;
            report.dbms_read_s += t1 - t0;
            report.tape_write_s += t2 - t1;
            stage_costs.push((t1 - t0, t2 - t1));
            if !report.media.contains(&st.medium) {
                report.media.push(st.medium);
            }
            self.bus.event(
                "export.stage",
                t2,
                &[
                    ("st", st.id.into()),
                    ("tiles", group.len().into()),
                    ("read_s", (t1 - t0).into()),
                    ("write_s", (t2 - t1).into()),
                ],
            );
        }
        report.elapsed_s = clock.now_s() - start;
        report.pipelined_s = match mode {
            ExportMode::Naive => report.elapsed_s,
            ExportMode::Tct => pipeline_makespan(&stage_costs),
        };
        span.end(clock.now_s());
        Ok(report)
    }

    /// The TCT's super-tiles: the STAR/eSTAR partition of the object's
    /// tile grid, as tile ids in cluster order.
    fn tct_groups(&self, meta: &ObjectMeta) -> Result<Vec<Vec<TileId>>> {
        let (grid, grid_shape) = meta.tiling.tile_grid(&meta.domain, meta.cell_type)?;
        let infos: Vec<TileInfo> = meta
            .tiles
            .iter()
            .zip(grid)
            .map(|((domain, tid), gc)| TileInfo {
                id: *tid,
                domain: domain.clone(),
                bytes: (Tile::header_len(meta.domain.dim())
                    + (domain.cell_count() * meta.cell_type.size_bytes() as u64) as usize)
                    as u64,
                grid: gc,
            })
            .collect();
        let target = self.supertile_target();
        let partition = match self.config.clustering {
            ClusteringStrategy::Star(order) => star_partition(&infos, &grid_shape, target, order),
            ClusteringStrategy::EStar(pattern) => {
                estar_partition(&infos, &grid_shape, target, pattern)
            }
        };
        Ok(partition
            .into_iter()
            .map(|g| g.into_iter().map(|i| infos[i].id).collect())
            .collect())
    }

    /// The archive write path, shared by both export modes and
    /// `update_region`: encode `tiles` as one super-tile under a fresh id,
    /// run the codec, checksum the wire bytes, write the primary copy and
    /// (with dual copy) the replica, register the entry with write-through
    /// to the persistent catalog, and only then mark the member tiles
    /// exported, so a failed write or register never strands a tile that
    /// nothing can read.
    pub(crate) fn archive_supertile(
        &mut self,
        oid: ObjectId,
        tiles: &[Tile],
        cell_size: usize,
    ) -> Result<Archived> {
        let id = self.engine.catalog.next_id();
        let (payload, meta) = encode_supertile(id, oid, tiles);
        let raw_len = payload.len() as u64;
        let wire = self.maybe_compress(payload, cell_size);
        let checksum = checksum64(&wire);
        let addr = self.store_mut().append(WritePayload::Real(wire.clone()))?;
        // The second copy is kept off the primary's medium so one dead
        // tape can't take both.
        let replica = if self.config.dual_copy {
            Some(
                self.store_mut()
                    .append_replica(WritePayload::Real(wire), addr.medium)?,
            )
        } else {
            None
        };
        let written_s = self.clock().now_s();
        self.register_supertile(CatalogEntry {
            meta,
            addr,
            replica,
            checksum,
        })?;
        for t in tiles {
            self.arraydb_mut().mark_exported(t.id)?;
        }
        Ok(Archived {
            id,
            raw_len,
            wire_len: addr.len,
            medium: addr.medium,
            written_s,
        })
    }

    /// Fold the configured precomputations over freshly exported tiles.
    fn record_precomp(&mut self, oid: ObjectId, tiles: &[Tile]) {
        if self.config.precompute.is_empty() {
            return;
        }
        let ops = self.config.precompute.clone();
        for t in tiles {
            for &op in &ops {
                if let Ok(v) = op.eval(&t.data) {
                    self.precomp
                        .record_tile_partial(oid, op, t.id, v, t.domain().cell_count());
                }
            }
        }
    }
}

/// Classic two-stage pipeline makespan: stage A (DBMS read) of item *i*
/// can run while stage B (tape write) of item *i−1* is in progress.
pub fn pipeline_makespan(stage_costs: &[(f64, f64)]) -> f64 {
    let mut read_done = 0.0f64;
    let mut write_done = 0.0f64;
    for &(a, b) in stage_costs {
        read_done += a;
        write_done = read_done.max(write_done) + b;
    }
    write_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_overlaps_stages() {
        // 3 items, read 2 s, write 3 s: serialized 15 s, pipelined 2+9=11 s.
        let costs = vec![(2.0, 3.0); 3];
        let m = pipeline_makespan(&costs);
        assert!((m - 11.0).abs() < 1e-9);
        // pipelined never beats the bottleneck stage
        assert!(m >= 9.0);
        // empty pipeline
        assert_eq!(pipeline_makespan(&[]), 0.0);
    }

    #[test]
    fn makespan_bounded_by_serialized_total() {
        let costs = vec![(1.0, 5.0), (4.0, 0.5), (2.0, 2.0)];
        let serial: f64 = costs.iter().map(|(a, b)| a + b).sum();
        let m = pipeline_makespan(&costs);
        assert!(m <= serial + 1e-9);
        let max_stage: f64 = costs
            .iter()
            .map(|(a, _)| a)
            .sum::<f64>()
            .max(costs.iter().map(|(_, b)| b).sum());
        assert!(m >= max_stage - 1e-9);
    }
}
