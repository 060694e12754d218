//! Bounded-retry, drive-failover, dual-copy recovery for tertiary reads.
//!
//! The perfect-world fetch path is one `store.read(addr)`. Under fault
//! injection a read can die three ways: the drive fails mid-transfer
//! (transient — the next mount fails over to a healthy drive), a media
//! segment is unreadable (transient — the drive may recover the pass, or
//! the replica copy has the bytes), or the payload arrives silently
//! corrupted (caught by the wire checksum, never transient — tape
//! corruption is persistent, so the read falls straight back to the
//! replica). This module holds the one policy: per copy, up to
//! [`RETRY`]`.max_retries` retries with exponential backoff on the
//! **simulated** clock; then failover to the second archive copy; then
//! a typed [`HeavenError::MediaLost`] — a query can return correct bytes
//! or a loud error, never quiet garbage.
//!
//! The policy is one per-read [`Ladder`] whose [`Ladder::step`] judges
//! each read. Two drivers step it: [`read_with_recovery`] charges each
//! backoff to the clock and reads again at once (direct pass, prefetch,
//! reclaim), and the cross-session batcher requeues the read for its
//! next drain pass, charging one shared backoff per pass.

use crate::error::{HeavenError, Result};
use crate::supertile::{checksum64, SuperTileId};
use bytes::Bytes;
use heaven_hsm::{BlockAddress, DirectStore, HsmError};
use heaven_obs::{Counter, Field, MetricsRegistry, TraceBus};
use heaven_tape::TapeError;

/// Bounded-retry policy for tertiary reads: a transient failure is
/// retried up to `max_retries` times per archive copy, backing off
/// exponentially on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetryPolicy {
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

/// The engine's retry policy: 3 retries per copy, 0.5 s, 1 s, 2 s.
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    max_retries: 3,
    backoff_base_s: 0.5,
    backoff_mult: 2.0,
};

/// Handles for the recovery counters (`hsm.*` namespace: this is the
/// storage-management layer's recovery machinery).
#[derive(Debug, Clone)]
pub(crate) struct RecoveryMetrics {
    /// Read attempts repeated after a transient failure.
    pub retries: Counter,
    /// Mount-level failovers forced by drive failures.
    pub failovers: Counter,
    /// Payloads rejected by wire-checksum verification.
    pub checksum_failures: Counter,
    /// Super-tiles lost with every copy exhausted.
    pub media_lost: Counter,
}

impl RecoveryMetrics {
    pub fn new(registry: &MetricsRegistry) -> RecoveryMetrics {
        RecoveryMetrics {
            retries: registry.counter("hsm.retries"),
            failovers: registry.counter("hsm.failovers"),
            checksum_failures: registry.counter("hsm.checksum_failures"),
            media_lost: registry.counter("hsm.media_lost"),
        }
    }
}

/// What the ladder makes of one read.
#[derive(Debug)]
pub(crate) enum Step {
    /// The payload matched the catalogued checksum.
    Verified(Bytes),
    /// Read [`Ladder::addr`] again once `backoff_s` simulated seconds have
    /// passed: a retry of the same copy, or the replica (0 s).
    ReadAgain { backoff_s: f64 },
    /// The read is over: [`HeavenError::MediaLost`] once every copy is
    /// exhausted, or a non-transient storage error.
    Failed(HeavenError),
}

/// The recovery state of one super-tile read: the copy being read, its
/// attempt, the copy still untried and the checksum every payload must
/// match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ladder {
    st: SuperTileId,
    addr: BlockAddress,
    next: Option<BlockAddress>,
    /// Index of the copy being read (0 = the first one tried).
    copy: u32,
    attempt: u32,
    checksum: u64,
    /// Unit tests may raise [`RETRY`]`.max_retries`.
    #[cfg(test)]
    max_retries: u32,
}

impl Ladder {
    /// A read of `st` starting from its copy at `first`, falling back to
    /// `other`, verified against the catalogued `checksum`.
    pub fn new(
        st: SuperTileId,
        first: BlockAddress,
        other: Option<BlockAddress>,
        checksum: u64,
    ) -> Ladder {
        Ladder {
            st,
            addr: first,
            next: other,
            copy: 0,
            attempt: 0,
            checksum,
            #[cfg(test)]
            max_retries: RETRY.max_retries,
        }
    }

    /// The super-tile being read.
    pub fn st(&self) -> SuperTileId {
        self.st
    }

    /// The copy to read next.
    pub fn addr(&self) -> BlockAddress {
        self.addr
    }

    /// Retries spent on the current copy.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Whether the read moved on to its second copy.
    pub fn on_replica(&self) -> bool {
        self.copy > 0
    }

    /// Judge one read of [`Self::addr`] finished at `now_s`, bumping the
    /// `hsm.*` counters and emitting the `hsm.*` events of the verdict.
    pub fn step(
        &mut self,
        read: std::result::Result<Bytes, HsmError>,
        now_s: f64,
        m: &RecoveryMetrics,
        bus: &TraceBus,
    ) -> Step {
        match read {
            Ok(raw) if checksum64(&raw) == self.checksum => Step::Verified(raw),
            Ok(_) => {
                // Persistent corruption on this copy: no point re-reading
                // it, fall through to the replica.
                m.checksum_failures.inc();
                bus.event(
                    "hsm.checksum_failure",
                    now_s,
                    &[
                        ("st", Field::U64(self.st)),
                        ("medium", Field::U64(self.addr.medium)),
                        ("copy", Field::U64(self.copy as u64)),
                    ],
                );
                self.fail_over(now_s, m, bus)
            }
            Err(HsmError::Tape(te)) if te.is_transient() => {
                if matches!(te, TapeError::DriveFailed { .. }) {
                    // The next mount picks a healthy drive.
                    m.failovers.inc();
                }
                #[cfg(not(test))]
                let max_retries = RETRY.max_retries;
                #[cfg(test)]
                let max_retries = self.max_retries;
                if self.attempt >= max_retries {
                    return self.fail_over(now_s, m, bus);
                }
                self.attempt += 1;
                m.retries.inc();
                let backoff_s = RETRY.backoff_s(self.attempt);
                bus.event(
                    "hsm.retry",
                    now_s,
                    &[
                        ("st", Field::U64(self.st)),
                        ("medium", Field::U64(self.addr.medium)),
                        ("attempt", Field::U64(self.attempt as u64)),
                        ("backoff_s", Field::F64(backoff_s)),
                    ],
                );
                Step::ReadAgain { backoff_s }
            }
            Err(e) => Step::Failed(e.into()),
        }
    }

    /// Move on to the untried copy, or declare the super-tile lost when
    /// there is none.
    fn fail_over(&mut self, now_s: f64, m: &RecoveryMetrics, bus: &TraceBus) -> Step {
        match self.next.take() {
            Some(addr) => {
                self.addr = addr;
                self.copy += 1;
                self.attempt = 0;
                Step::ReadAgain { backoff_s: 0.0 }
            }
            None => {
                m.media_lost.inc();
                bus.event("hsm.media_lost", now_s, &[("st", Field::U64(self.st))]);
                Step::Failed(HeavenError::MediaLost { st: self.st })
            }
        }
    }
}

/// The synchronous driver: read through `ladder` until it verifies a
/// payload or fails, charging every backoff to the store's clock.
pub(crate) fn read_with_recovery(
    store: &mut DirectStore,
    mut ladder: Ladder,
    m: &RecoveryMetrics,
    bus: &TraceBus,
) -> Result<Bytes> {
    let clock = store.clock();
    loop {
        let read = store.read(ladder.addr());
        match ladder.step(read, clock.now_s(), m, bus) {
            Step::Verified(raw) => return Ok(raw),
            Step::ReadAgain { backoff_s } => clock.advance_s(backoff_s),
            Step::Failed(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_tape::{DeviceProfile, FaultConfig, SimClock, TapeLibrary, WritePayload};

    fn store_with(cfg: Option<FaultConfig>) -> DirectStore {
        let mut lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, SimClock::new());
        lib.set_fault_plan(cfg);
        DirectStore::new(lib)
    }

    fn obs() -> (RecoveryMetrics, TraceBus) {
        (
            RecoveryMetrics::new(&MetricsRegistry::new()),
            TraceBus::noop(),
        )
    }

    #[test]
    fn retry_backoff_is_exponential() {
        assert_eq!(RETRY.max_retries, 3);
        assert_eq!(RETRY.backoff_s(0), 0.0);
        assert!((RETRY.backoff_s(1) - 0.5).abs() < 1e-12);
        assert!((RETRY.backoff_s(2) - 1.0).abs() < 1e-12);
        assert!((RETRY.backoff_s(3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clean_read_passes_through() {
        let mut s = store_with(None);
        let payload = vec![9u8; 512];
        let addr = s.append(WritePayload::real(payload.clone())).unwrap();
        let (m, bus) = obs();
        let ladder = Ladder::new(1, addr, None, checksum64(&payload));
        let got = read_with_recovery(&mut s, ladder, &m, &bus).unwrap();
        assert_eq!(got, payload);
        assert_eq!(m.retries.get(), 0);
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let mut s = store_with(None);
        let payload = vec![3u8; 256];
        let addr = s.append(WritePayload::real(payload.clone())).unwrap();
        // Enable a high media-error rate AFTER the write; the keyed hash
        // re-rolls per attempt, so some retry eventually succeeds.
        s.library_mut().set_fault_plan(Some(FaultConfig {
            media_read_error_per_read: 0.6,
            ..FaultConfig::quiet(12)
        }));
        let (m, bus) = obs();
        // Replica on a different medium guards against exhausting one copy.
        let replica = s
            .append_replica(WritePayload::real(payload.clone()), addr.medium)
            .unwrap();
        let t0 = s.clock().now_s();
        let ladder = Ladder::new(1, addr, Some(replica), checksum64(&payload));
        let got = read_with_recovery(&mut s, ladder, &m, &bus).unwrap();
        assert_eq!(got, payload);
        if m.retries.get() > 0 {
            assert!(
                s.clock().now_s() - t0 >= RETRY.backoff_base_s,
                "backoff must be charged to the simulated clock"
            );
        }
    }

    #[test]
    fn checksum_mismatch_fails_over_to_replica() {
        let mut s = store_with(None);
        let payload = vec![0x5Au8; 1024];
        let addr = s.append(WritePayload::real(payload.clone())).unwrap();
        let replica = s
            .append_replica(WritePayload::real(payload.clone()), addr.medium)
            .unwrap();
        // Corrupt every read of the primary's medium... corruption rolls
        // are keyed per (medium, offset), so use rate 1.0 but clear it
        // after the first (corrupted) read via active window? Simpler:
        // rate 1.0 corrupts BOTH copies' reads — but each flips one bit,
        // and the checksum catches both... so instead only corrupt with
        // probability via seed such that primary is hit. Use rate 1.0 and
        // expect MediaLost when both copies corrupt:
        s.library_mut().set_fault_plan(Some(FaultConfig {
            corrupt_per_read: 1.0,
            ..FaultConfig::quiet(1)
        }));
        let (m, bus) = obs();
        let ladder = Ladder::new(7, addr, Some(replica), checksum64(&payload));
        let err = read_with_recovery(&mut s, ladder, &m, &bus).unwrap_err();
        assert!(matches!(err, HeavenError::MediaLost { st: 7 }));
        assert_eq!(m.checksum_failures.get(), 2, "both copies rejected");
        assert_eq!(m.media_lost.get(), 1);
        // Without the corruption, the replica path works.
        s.library_mut().set_fault_plan(None);
        let got = read_with_recovery(&mut s, ladder, &m, &bus).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn structural_errors_are_not_retried() {
        let mut s = store_with(None);
        let (m, bus) = obs();
        let bogus = BlockAddress {
            medium: 99,
            offset: 0,
            len: 10,
        };
        let ladder = Ladder::new(1, bogus, None, 0);
        let err = read_with_recovery(&mut s, ladder, &m, &bus).unwrap_err();
        assert!(matches!(
            err,
            HeavenError::Hsm(HsmError::Tape(TapeError::NoSuchMedium(99)))
        ));
        assert_eq!(m.retries.get(), 0);
        assert_eq!(m.media_lost.get(), 0);
    }

    #[test]
    fn drive_failure_counts_failover_and_recovers() {
        let mut s = store_with(None);
        let payload = vec![1u8; 128];
        let addr = s.append(WritePayload::real(payload.clone())).unwrap();
        s.library_mut().set_fault_plan(Some(FaultConfig {
            drive_failure_per_read: 0.7,
            drive_repair_s: 60.0,
            ..FaultConfig::quiet(5)
        }));
        let (m, bus) = obs();
        let mut ladder = Ladder::new(1, addr, None, checksum64(&payload));
        ladder.max_retries = 10;
        let got = read_with_recovery(&mut s, ladder, &m, &bus).unwrap();
        assert_eq!(got, payload);
        assert_eq!(m.failovers.get() > 0, m.retries.get() > 0);
    }
}
