//! Query scheduling (paper §3.5.3): ordering tertiary-storage fetches to
//! minimize media exchanges and locate distances.
//!
//! Naive execution fetches super-tiles in request order, thrashing the few
//! drives with media exchanges. The scheduler reorders a fetch batch:
//!
//! 1. group requests by medium,
//! 2. serve media already mounted in a drive first,
//! 3. order the remaining media by their first-needed offset,
//! 4. within a medium, fetch in ascending offset order (one sweep, no
//!    back-seeks).
//!
//! For multi-query batches the requests of all queries are merged before
//! scheduling, so one mount of a medium serves every query needing it.

use crate::supertile::SuperTileId;
use heaven_hsm::BlockAddress;
use heaven_tape::MediumId;
use std::collections::BTreeMap;

/// One super-tile fetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRequest {
    /// The super-tile to fetch.
    pub st: SuperTileId,
    /// Where it lives.
    pub addr: BlockAddress,
}

/// Reorder fetch requests to minimize exchanges and seeks.
///
/// `mounted` lists media currently in drives (served first, keeping their
/// mounts warm). Duplicate super-tiles are collapsed.
pub fn schedule(requests: &[FetchRequest], mounted: &[MediumId]) -> Vec<FetchRequest> {
    // Collapse duplicates, group by medium.
    let mut groups: BTreeMap<MediumId, Vec<FetchRequest>> = BTreeMap::new();
    let mut seen = std::collections::HashSet::new();
    for r in requests {
        if seen.insert(r.st) {
            groups.entry(r.addr.medium).or_default().push(*r);
        }
    }
    for g in groups.values_mut() {
        g.sort_by_key(|r| r.addr.offset);
    }
    let mut out = Vec::with_capacity(requests.len());
    // Mounted media first, in the given order.
    for &m in mounted {
        if let Some(g) = groups.remove(&m) {
            out.extend(g);
        }
    }
    // Remaining media: by medium id (stable, deterministic; media are
    // filled in cluster order so id order ≈ spatial order).
    for (_, g) in groups {
        out.extend(g);
    }
    out
}

/// Count the media exchanges a fetch order would cause with `drives`
/// drives and the given initially mounted media (LRU replacement —
/// mirrors the library simulator).
pub fn count_exchanges(order: &[FetchRequest], drives: usize, mounted: &[MediumId]) -> u64 {
    if order.is_empty() {
        // A warm query's order: nothing to simulate, nothing to allocate.
        return 0;
    }
    let mut in_drive: Vec<Option<MediumId>> = vec![None; drives.max(1)];
    for (i, &m) in mounted.iter().take(drives).enumerate() {
        in_drive[i] = Some(m);
    }
    let mut last_used = vec![0u64; drives.max(1)];
    let mut tick = 0u64;
    let mut exchanges = 0u64;
    for r in order {
        tick += 1;
        if let Some(d) = in_drive.iter().position(|&m| m == Some(r.addr.medium)) {
            last_used[d] = tick;
            continue;
        }
        exchanges += 1;
        let d = in_drive
            .iter()
            .position(|m| m.is_none())
            .unwrap_or_else(|| {
                last_used
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .map(|(i, _)| i)
                    .expect("at least one drive")
            });
        in_drive[d] = Some(r.addr.medium);
        last_used[d] = tick;
    }
    exchanges
}

/// Split a scheduled fetch order into staging **rounds** for parallel
/// drives: each round holds at most `drives` groups, each group all the
/// consecutive requests of one medium, so every group can execute on its
/// own drive against a detached clock (see
/// `heaven_hsm::DirectStore::read_parallel`) and a round costs only its
/// slowest group. The within-round and across-round request order is the
/// scheduled order, so exchange/seek minimization is preserved.
pub fn plan_drive_rounds(order: &[FetchRequest], drives: usize) -> Vec<Vec<Vec<FetchRequest>>> {
    let drives = drives.max(1);
    let mut rounds: Vec<Vec<Vec<FetchRequest>>> = Vec::new();
    let mut round: Vec<Vec<FetchRequest>> = Vec::new();
    for r in order {
        match round.last_mut() {
            Some(group) if group[0].addr.medium == r.addr.medium => group.push(*r),
            _ => {
                if round.len() == drives {
                    rounds.push(std::mem::take(&mut round));
                }
                round.push(vec![*r]);
            }
        }
    }
    if !round.is_empty() {
        rounds.push(round);
    }
    rounds
}

/// Sum of forward/backward head travel (bytes) within each medium for a
/// fetch order, assuming the head starts at 0 after each mount.
pub fn seek_distance(order: &[FetchRequest]) -> u64 {
    let mut head: BTreeMap<MediumId, u64> = BTreeMap::new();
    let mut dist = 0u64;
    for r in order {
        let h = head.entry(r.addr.medium).or_insert(0);
        dist += h.abs_diff(r.addr.offset);
        *h = r.addr.offset + r.addr.len;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(st: SuperTileId, medium: MediumId, offset: u64) -> FetchRequest {
        FetchRequest {
            st,
            addr: BlockAddress {
                medium,
                offset,
                len: 100,
            },
        }
    }

    #[test]
    fn groups_by_medium_and_sorts_by_offset() {
        let reqs = vec![
            req(1, 2, 500),
            req(2, 1, 900),
            req(3, 2, 100),
            req(4, 1, 100),
        ];
        let s = schedule(&reqs, &[]);
        // medium 1 first (lower id), offsets ascending
        assert_eq!(s.iter().map(|r| r.st).collect::<Vec<_>>(), vec![4, 2, 3, 1]);
    }

    #[test]
    fn mounted_media_served_first() {
        let reqs = vec![req(1, 1, 0), req(2, 5, 0), req(3, 3, 0)];
        let s = schedule(&reqs, &[5]);
        assert_eq!(s[0].st, 2);
    }

    #[test]
    fn duplicates_collapsed() {
        let reqs = vec![req(1, 1, 0), req(1, 1, 0), req(2, 1, 100)];
        let s = schedule(&reqs, &[]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn scheduling_reduces_exchanges() {
        // Interleaved access to two media: naive order thrashes one drive.
        let naive: Vec<FetchRequest> = (0..10)
            .map(|i| req(i, (i % 2) as MediumId, i * 100))
            .collect();
        let scheduled = schedule(&naive, &[]);
        let ex_naive = count_exchanges(&naive, 1, &[]);
        let ex_sched = count_exchanges(&scheduled, 1, &[]);
        assert_eq!(ex_naive, 10);
        assert_eq!(ex_sched, 2);
    }

    #[test]
    fn scheduling_reduces_seek_distance() {
        let naive = vec![req(1, 0, 9000), req(2, 0, 100), req(3, 0, 5000)];
        let scheduled = schedule(&naive, &[]);
        assert!(seek_distance(&scheduled) < seek_distance(&naive));
    }

    #[test]
    fn drive_rounds_group_by_medium_and_cap_at_drive_count() {
        let order = vec![
            req(1, 0, 0),
            req(2, 0, 100),
            req(3, 1, 0),
            req(4, 2, 0),
            req(5, 2, 100),
        ];
        let rounds = plan_drive_rounds(&order, 2);
        assert_eq!(rounds.len(), 2, "3 media / 2 drives = 2 rounds");
        assert_eq!(rounds[0].len(), 2);
        assert_eq!(
            rounds[0][0].iter().map(|r| r.st).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(rounds[0][1][0].st, 3);
        assert_eq!(
            rounds[1][0].iter().map(|r| r.st).collect::<Vec<_>>(),
            [4, 5]
        );
        // Flattened rounds reproduce the scheduled order exactly.
        let flat: Vec<_> = rounds.iter().flatten().flatten().map(|r| r.st).collect();
        assert_eq!(flat, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn drive_rounds_single_drive_is_one_group_per_round() {
        let order = vec![req(1, 0, 0), req(2, 1, 0), req(3, 0, 100)];
        let rounds = plan_drive_rounds(&order, 1);
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| r.len() == 1));
        assert!(plan_drive_rounds(&[], 4).is_empty());
    }

    #[test]
    fn exchange_count_respects_multiple_drives() {
        let order: Vec<FetchRequest> = (0..8)
            .map(|i| req(i, (i % 2) as MediumId, i * 10))
            .collect();
        // with two drives both media stay mounted: 2 initial mounts
        assert_eq!(count_exchanges(&order, 2, &[]), 2);
        // already mounted: zero
        assert_eq!(count_exchanges(&order, 2, &[0, 1]), 0);
    }
}
