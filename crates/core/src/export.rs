//! Export of multidimensional data to tertiary storage (paper §3.4).
//!
//! Two export paths are implemented, matching the evaluation's Chapter 4:
//!
//! * **Naive** (the standard RasDaMan export, §4.3.1): tiles are written
//!   synchronously, one block per tile, in insertion order — no clustering,
//!   DBMS reads and tape writes strictly alternating.
//! * **TCT** (the decoupled Tertiary Communication Thread export, §4.3.2):
//!   tiles are grouped into super-tiles (STAR/eSTAR), ordered by
//!   intra-/inter-super-tile clustering, assembled by a separate
//!   communication thread, and written in large sequential blocks. DBMS
//!   reads of super-tile *n+1* overlap the tape write of super-tile *n*;
//!   the report carries both the serialized total and the pipelined
//!   makespan.

use crate::config::ClusteringStrategy;
use crate::error::{HeavenError, Result};
use crate::estar::estar_partition;
use crate::star::{star_partition, TileInfo};
use crate::supertile::{checksum64, encode_supertile, SuperTileMeta};
use crate::system::Heaven;
use heaven_array::{ObjectId, Tile};
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

impl Heaven {
    /// Export an object's tiles to tertiary storage.
    pub fn export_object(&mut self, oid: ObjectId, mode: ExportMode) -> Result<ExportReport> {
        if self.catalog.is_exported(oid) {
            return Err(HeavenError::AlreadyExported(oid));
        }
        match mode {
            ExportMode::Naive => self.export_naive(oid),
            ExportMode::Tct => self.export_tct(oid),
        }
    }

    fn export_naive(&mut self, oid: ObjectId) -> Result<ExportReport> {
        let meta = self.arraydb_mut().object(oid)?.clone();
        let clock = self.clock();
        let span = self.bus.span(
            "export.naive",
            clock.now_s(),
            &[("oid", oid.into()), ("tiles", meta.tiles.len().into())],
        );
        let start = clock.now_s();
        let mut dbms_read_s = 0.0;
        let mut tape_write_s = 0.0;
        let mut bytes = 0u64;
        let mut raw_bytes = 0u64;
        let mut media = Vec::new();
        for (_, tid) in meta.tiles.iter() {
            let t0 = clock.now_s();
            let tile = self.arraydb_mut().read_tile(*tid)?;
            let t1 = clock.now_s();
            let (payload, st_meta) = {
                let st_id = self.engine.catalog.next_id();
                encode_supertile(st_id, oid, std::slice::from_ref(&tile))
            };
            raw_bytes += payload.len() as u64;
            let wire = self.maybe_compress(payload, meta.cell_type.size_bytes());
            bytes += wire.len() as u64;
            let checksum = checksum64(&wire);
            let addr = self.store_mut().append(WritePayload::Real(wire.clone()))?;
            let replica = if self.config.dual_copy {
                Some(
                    self.store_mut()
                        .append_replica(WritePayload::Real(wire), addr.medium)?,
                )
            } else {
                None
            };
            let t2 = clock.now_s();
            dbms_read_s += t1 - t0;
            tape_write_s += t2 - t1;
            if !media.contains(&addr.medium) {
                media.push(addr.medium);
            }
            self.record_precomp(&st_meta, &[tile]);
            self.bus.event(
                "export.stage",
                t2,
                &[
                    ("st", st_meta.id.into()),
                    ("read_s", (t1 - t0).into()),
                    ("write_s", (t2 - t1).into()),
                ],
            );
            self.register_supertile(st_meta, addr, replica, checksum)?;
            self.arraydb_mut().mark_exported(*tid)?;
        }
        let elapsed = clock.now_s() - start;
        span.end(clock.now_s());
        Ok(ExportReport {
            oid,
            mode: ExportMode::Naive,
            supertiles: meta.tiles.len(),
            bytes,
            raw_bytes,
            dbms_read_s,
            tape_write_s,
            elapsed_s: elapsed,
            pipelined_s: elapsed,
            media,
        })
    }

    fn export_tct(&mut self, oid: ObjectId) -> Result<ExportReport> {
        let meta = self.arraydb_mut().object(oid)?.clone();
        // Build tile infos with encoded sizes and grid coordinates.
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
        if self.config.medium_per_object {
            self.store_mut().open_new_medium();
        }

        let clock = self.clock();
        let span = self.bus.span(
            "export.tct",
            clock.now_s(),
            &[("oid", oid.into()), ("supertiles", partition.len().into())],
        );
        let start = clock.now_s();
        let mut dbms_read_s = 0.0;
        let mut tape_write_s = 0.0;
        let mut stage_costs: Vec<(f64, f64)> = Vec::with_capacity(partition.len());
        let mut bytes = 0u64;
        let mut raw_bytes = 0u64;
        let mut media = Vec::new();

        // The TCT: a separate assembly thread connected by channels. The
        // main (DBMS) thread reads tiles and ships them over; the TCT
        // serializes super-tiles and ships payloads back for the tape
        // writer.
        let (tx_tiles, rx_tiles) = crossbeam::channel::bounded::<(u64, ObjectId, Vec<Tile>)>(2);
        let (tx_enc, rx_enc) = crossbeam::channel::bounded::<(bytes::Bytes, SuperTileMeta)>(2);
        let result: Result<()> = std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok((st_id, object, tiles)) = rx_tiles.recv() {
                    let enc = encode_supertile(st_id, object, &tiles);
                    if tx_enc.send(enc).is_err() {
                        break;
                    }
                }
            });
            for group in &partition {
                let st_id = self.engine.catalog.next_id();
                let t0 = clock.now_s();
                let mut tiles = Vec::with_capacity(group.len());
                for &gi in group {
                    tiles.push(self.arraydb_mut().read_tile(infos[gi].id)?);
                }
                let t1 = clock.now_s();
                self.record_precomp_tiles(oid, &tiles);
                tx_tiles
                    .send((st_id, oid, tiles))
                    .map_err(|_| HeavenError::Codec("TCT thread gone".into()))?;
                let (payload, st_meta) = rx_enc
                    .recv()
                    .map_err(|_| HeavenError::Codec("TCT thread gone".into()))?;
                raw_bytes += payload.len() as u64;
                let wire = self.maybe_compress(payload, meta.cell_type.size_bytes());
                bytes += wire.len() as u64;
                let checksum = checksum64(&wire);
                let addr = self.store_mut().append(WritePayload::Real(wire.clone()))?;
                // The second copy is deliberately kept off the primary's
                // medium so one dead tape can't take both.
                let replica = if self.config.dual_copy {
                    Some(
                        self.store_mut()
                            .append_replica(WritePayload::Real(wire), addr.medium)?,
                    )
                } else {
                    None
                };
                let t2 = clock.now_s();
                dbms_read_s += t1 - t0;
                tape_write_s += t2 - t1;
                stage_costs.push((t1 - t0, t2 - t1));
                if !media.contains(&addr.medium) {
                    media.push(addr.medium);
                }
                self.bus.event(
                    "export.stage",
                    t2,
                    &[
                        ("st", st_id.into()),
                        ("tiles", group.len().into()),
                        ("read_s", (t1 - t0).into()),
                        ("write_s", (t2 - t1).into()),
                    ],
                );
                for m in &st_meta.members {
                    self.arraydb_mut().mark_exported(m.tile)?;
                }
                self.register_supertile(st_meta, addr, replica, checksum)?;
            }
            drop(tx_tiles);
            Ok(())
        });
        result?;
        let elapsed = clock.now_s() - start;
        span.end(clock.now_s());
        Ok(ExportReport {
            oid,
            mode: ExportMode::Tct,
            supertiles: partition.len(),
            bytes,
            raw_bytes,
            dbms_read_s,
            tape_write_s,
            elapsed_s: elapsed,
            pipelined_s: pipeline_makespan(&stage_costs),
            media,
        })
    }

    fn record_precomp(&mut self, _meta: &SuperTileMeta, tiles: &[Tile]) {
        let oid = tiles.first().map(|t| t.object);
        if let Some(oid) = oid {
            self.record_precomp_tiles(oid, tiles);
        }
    }

    pub(crate) fn record_precomp_tiles(&mut self, oid: ObjectId, tiles: &[Tile]) {
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
