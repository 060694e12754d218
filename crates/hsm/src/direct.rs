//! Direct tape-drive attachment (paper §3.1.2).
//!
//! HEAVEN's second coupling mode bypasses the HSM's file abstraction and
//! talks to the library directly: the caller controls **placement** (which
//! medium a super-tile goes to, in which order) and can read **byte ranges**
//! (individual super-tiles) instead of whole files. This is what makes
//! intra-/inter-super-tile clustering and query scheduling possible.

use crate::error::Result;
use bytes::Bytes;
use heaven_tape::{MediumId, SimClock, TapeLibrary, TapeStats, WritePayload};

/// Location of a stored block (super-tile) on tertiary storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddress {
    /// Medium holding the block.
    pub medium: MediumId,
    /// Byte offset on the medium.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Placement-aware direct store over a tape library.
#[derive(Debug)]
pub struct DirectStore {
    library: TapeLibrary,
    /// Media opened for filling, in creation order.
    fill_media: Vec<MediumId>,
    /// Media opened for second-copy (replica) filling, kept disjoint from
    /// the primary fill media so dual-copy archival never puts both
    /// copies of a super-tile on one medium.
    replica_media: Vec<MediumId>,
}

impl DirectStore {
    /// Wrap a tape library.
    pub fn new(library: TapeLibrary) -> DirectStore {
        DirectStore {
            library,
            fill_media: Vec::new(),
            replica_media: Vec::new(),
        }
    }

    /// Whether the underlying library has a fault schedule installed.
    pub fn faults_enabled(&self) -> bool {
        self.library.faults_enabled()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> SimClock {
        self.library.clock().clone()
    }

    /// Tape statistics.
    pub fn stats(&self) -> TapeStats {
        self.library.stats()
    }

    /// Access the underlying library.
    pub fn library(&self) -> &TapeLibrary {
        &self.library
    }

    /// Mutable access to the underlying library.
    pub fn library_mut(&mut self) -> &mut TapeLibrary {
        &mut self.library
    }

    /// Media opened for filling so far.
    pub fn fill_media(&self) -> &[MediumId] {
        &self.fill_media
    }

    /// Append a block to a *specific* medium (placement control). The
    /// caller guarantees capacity; errors propagate otherwise.
    pub fn write_to(&mut self, medium: MediumId, payload: WritePayload) -> Result<BlockAddress> {
        let len = payload.len();
        let offset = self.library.write(medium, payload)?;
        Ok(BlockAddress {
            medium,
            offset,
            len,
        })
    }

    /// Append a block to the current fill medium, opening a new medium when
    /// the block does not fit. Returns the block's address.
    pub fn append(&mut self, payload: WritePayload) -> Result<BlockAddress> {
        let len = payload.len();
        let medium = match self.fill_media.last() {
            Some(&m) if self.library.medium_free(m)? >= len => m,
            _ => {
                let m = self.library.add_medium();
                self.fill_media.push(m);
                m
            }
        };
        self.write_to(
            medium,
            if len == 0 {
                WritePayload::Phantom(0)
            } else {
                payload
            },
        )
    }

    /// Append a **second archive copy**, guaranteed to land on a medium
    /// different from `avoid` (the primary copy's). Dual-copy archival
    /// reads the replica when the primary copy fails or is corrupt; one
    /// bad medium can never take out both copies.
    pub fn append_replica(
        &mut self,
        payload: WritePayload,
        avoid: MediumId,
    ) -> Result<BlockAddress> {
        let len = payload.len();
        let medium = match self.replica_media.last() {
            Some(&m) if m != avoid && self.library.medium_free(m)? >= len => m,
            _ => {
                let m = self.library.add_medium();
                self.replica_media.push(m);
                m
            }
        };
        self.write_to(
            medium,
            if len == 0 {
                WritePayload::Phantom(0)
            } else {
                payload
            },
        )
    }

    /// Open a fresh medium and make it the fill target; returns its id.
    /// Used by inter-super-tile clustering to start a new object on a new
    /// medium boundary.
    pub fn open_new_medium(&mut self) -> MediumId {
        let m = self.library.add_medium();
        self.fill_media.push(m);
        m
    }

    /// Read a block. The returned `Bytes` aliases the stored segment.
    pub fn read(&mut self, addr: BlockAddress) -> Result<Bytes> {
        Ok(self.library.read(addr.medium, addr.offset, addr.len)?)
    }

    /// Read a sub-range of a block (partial super-tile reads are possible
    /// on random-access media; on tape they still pay the locate).
    pub fn read_range(&mut self, addr: BlockAddress, rel_offset: u64, len: u64) -> Result<Bytes> {
        Ok(self
            .library
            .read(addr.medium, addr.offset + rel_offset, len)?)
    }

    /// Cost (seconds) of refetching `addr` from tertiary storage, whatever
    /// the drives hold now: a full mount, a locate from the beginning of
    /// the medium and the transfer. Cost-aware caching ranks blocks by it,
    /// so a block deep on its medium outranks a shallow one of equal size.
    pub fn refetch_cost_s(&self, addr: BlockAddress) -> f64 {
        let p = self.library.profile();
        p.mount_time_s() + p.locate_time_s(0, addr.offset) + p.transfer_time_s(addr.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_tape::DeviceProfile;

    fn store() -> DirectStore {
        DirectStore::new(TapeLibrary::new(
            DeviceProfile::ibm3590(),
            2,
            SimClock::new(),
        ))
    }

    #[test]
    fn append_and_read_block() {
        let mut s = store();
        let addr = s.append(WritePayload::real(vec![3u8; 512])).unwrap();
        assert_eq!(s.read(addr).unwrap(), vec![3u8; 512]);
        assert_eq!(s.fill_media().len(), 1);
    }

    #[test]
    fn partial_block_read() {
        let mut s = store();
        let mut payload = vec![0u8; 100];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = i as u8;
        }
        let addr = s.append(WritePayload::real(payload)).unwrap();
        assert_eq!(s.read_range(addr, 10, 3).unwrap(), vec![10, 11, 12]);
    }

    #[test]
    fn placement_control_targets_specific_media() {
        let mut s = store();
        let m1 = s.open_new_medium();
        let m2 = s.open_new_medium();
        let a1 = s.write_to(m1, WritePayload::Phantom(100)).unwrap();
        let a2 = s.write_to(m2, WritePayload::Phantom(100)).unwrap();
        let a3 = s.write_to(m1, WritePayload::Phantom(100)).unwrap();
        assert_eq!(a1.medium, m1);
        assert_eq!(a2.medium, m2);
        assert_eq!(a3.medium, m1);
        assert_eq!(a3.offset, 100);
    }

    #[test]
    fn append_rolls_to_new_medium_when_full() {
        let profile = DeviceProfile {
            media_capacity: 1000,
            ..DeviceProfile::ibm3590()
        };
        let mut s = DirectStore::new(TapeLibrary::new(profile, 1, SimClock::new()));
        let a1 = s.append(WritePayload::Phantom(800)).unwrap();
        let a2 = s.append(WritePayload::Phantom(800)).unwrap();
        assert_ne!(a1.medium, a2.medium);
        assert_eq!(s.fill_media().len(), 2);
    }

    #[test]
    fn replica_never_shares_medium_with_primary() {
        let mut s = store();
        for i in 0..6 {
            let payload = vec![i as u8; 256];
            let primary = s.append(WritePayload::real(payload.clone())).unwrap();
            let replica = s
                .append_replica(WritePayload::real(payload.clone()), primary.medium)
                .unwrap();
            assert_ne!(primary.medium, replica.medium);
            assert_eq!(s.read(replica).unwrap(), payload);
        }
        // All replicas share one medium (they fit), distinct from fills.
        assert!(!s.fill_media().iter().any(|m| s.replica_media.contains(m)));
    }

    #[test]
    fn estimates_are_positive_for_cold_blocks() {
        let mut s = store();
        let shallow = s.append(WritePayload::Phantom(1 << 20)).unwrap();
        let deep = s.append(WritePayload::Phantom(1 << 20)).unwrap();
        assert_eq!(shallow.medium, deep.medium);
        assert!(s.refetch_cost_s(shallow) > 0.0);
        // The refetch cost ignores the drive head and grows with depth.
        let before = s.refetch_cost_s(deep);
        s.read(deep).unwrap(); // mounts the medium, head now past `deep`
        assert_eq!(s.refetch_cost_s(deep), before);
        assert!(s.refetch_cost_s(deep) > s.refetch_cost_s(shallow));
    }
}
