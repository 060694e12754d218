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

/// The order to stage `requests` in: [`schedule`]'s when `scheduling`,
/// else arrival order (the paper's baseline: the order the requests were
/// first needed). Duplicate super-tiles collapse either way.
pub fn fetch_order(
    requests: &[FetchRequest],
    scheduling: bool,
    mounted: &[MediumId],
) -> Vec<FetchRequest> {
    if scheduling {
        return schedule(requests, mounted);
    }
    let mut seen = std::collections::HashSet::new();
    requests
        .iter()
        .filter(|r| seen.insert(r.st))
        .copied()
        .collect()
}

/// Split a scheduled fetch order into staging **rounds** for parallel
/// drives: each round holds at most `drives` groups, each group all the
/// consecutive requests of one medium, so every group can execute on its
/// own drive against a detached clock (`TapeLibrary::run_detached`, as
/// the batcher's drainer does) and a round costs only its slowest group.
/// The within-round and across-round request order is the scheduled
/// order, so exchange/seek minimization is preserved.
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
    use heaven_tape::{DeviceProfile, SimClock, TapeLibrary, WritePayload};

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
    fn fetch_order_keeps_arrival_order_unless_scheduling() {
        let reqs = vec![
            req(1, 2, 500),
            req(2, 1, 900),
            req(1, 2, 500),
            req(3, 1, 100),
        ];
        let arrival = fetch_order(&reqs, false, &[]);
        assert_eq!(arrival.iter().map(|r| r.st).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(fetch_order(&reqs, true, &[2]), schedule(&reqs, &[2]));
    }

    /// Mounts the library simulator makes staging the order `stage`
    /// picks (given the media left mounted) on `drives` drives, after one
    /// phantom write per medium that covers its requests.
    fn mounts(
        reqs: &[FetchRequest],
        drives: usize,
        stage: impl Fn(&[MediumId]) -> Vec<FetchRequest>,
    ) -> u64 {
        let mut lib = TapeLibrary::new(DeviceProfile::ibm3590(), drives, SimClock::new());
        let media = reqs.iter().map(|r| r.addr.medium).max().unwrap_or(0);
        for m in 0..=media {
            assert_eq!(lib.add_medium(), m);
            let len = reqs
                .iter()
                .filter(|r| r.addr.medium == m)
                .map(|r| r.addr.offset + r.addr.len)
                .max()
                .unwrap_or(1);
            lib.write(m, WritePayload::Phantom(len)).unwrap();
        }
        let before = lib.stats().mounts;
        for r in stage(&lib.mounted_media()) {
            lib.read(r.addr.medium, r.addr.offset, r.addr.len).unwrap();
        }
        lib.stats().mounts - before
    }

    #[test]
    fn scheduling_reduces_exchanges() {
        // Interleaved access to two media: arrival order thrashes one
        // drive; the scheduled order serves the mounted medium, then
        // mounts the other once.
        let naive: Vec<FetchRequest> = (0..10)
            .map(|i| req(i, (i % 2) as MediumId, i * 100))
            .collect();
        assert_eq!(mounts(&naive, 1, |_| naive.clone()), 10);
        assert_eq!(
            mounts(&naive, 1, |mounted| fetch_order(&naive, true, mounted)),
            1
        );
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
}
