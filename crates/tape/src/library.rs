//! The robotic tape library: drives + slots + robot, with cost accounting.
//!
//! The library executes reads and writes against media, charging every
//! mount, locate, transfer and rewind to the shared [`SimClock`] and to its
//! [`TapeStats`]. It also exposes *estimation* methods that compute the cost
//! of an access without performing it — these feed HEAVEN's super-tile
//! sizing model and the decoupled-export pipeline model.

use crate::clock::SimClock;
use crate::error::{Result, TapeError};
use crate::fault::{FaultConfig, FaultKind, FaultPlan, FaultStats};
use crate::media::{Medium, MediumId};
use crate::profile::DeviceProfile;
use crate::stats::TapeStats;
use bytes::Bytes;
use heaven_obs::{Counter, Field, FloatCounter, Histogram, MetricsRegistry, TraceBus};
use std::collections::BTreeMap;

/// Metric handles backing [`TapeStats`]. The registry is the source of
/// truth; `TapeLibrary::stats()` reconstructs the public struct from these
/// handles, so the same counters appear in `MetricsRegistry` renderings
/// and in the legacy stats view.
#[derive(Debug, Clone)]
struct TapeMetrics {
    mounts: Counter,
    unmounts: Counter,
    locates: Counter,
    exchange_s: FloatCounter,
    locate_s: FloatCounter,
    transfer_s: FloatCounter,
    rewind_s: FloatCounter,
    bytes_read: Counter,
    bytes_written: Counter,
    shelf_fetches: Counter,
    shelf_s: FloatCounter,
    /// Injected-fault counters (see `fault::FaultPlan`).
    drive_failures: Counter,
    media_read_errors: Counter,
    robot_stalls: Counter,
    corrupted_reads: Counter,
    /// Per-operation duration distributions (simulated seconds).
    exchange_hist: Histogram,
    locate_hist: Histogram,
    transfer_hist: Histogram,
    rewind_hist: Histogram,
    shelf_hist: Histogram,
}

impl TapeMetrics {
    fn new(registry: &MetricsRegistry) -> TapeMetrics {
        TapeMetrics {
            mounts: registry.counter("tape.mounts"),
            unmounts: registry.counter("tape.unmounts"),
            locates: registry.counter("tape.locates"),
            exchange_s: registry.fcounter("tape.exchange_s"),
            locate_s: registry.fcounter("tape.locate_s"),
            transfer_s: registry.fcounter("tape.transfer_s"),
            rewind_s: registry.fcounter("tape.rewind_s"),
            bytes_read: registry.counter("tape.bytes_read"),
            bytes_written: registry.counter("tape.bytes_written"),
            shelf_fetches: registry.counter("tape.shelf_fetches"),
            shelf_s: registry.fcounter("tape.shelf_s"),
            drive_failures: registry.counter("tape.drive_failures"),
            media_read_errors: registry.counter("tape.media_read_errors"),
            robot_stalls: registry.counter("tape.robot_stalls"),
            corrupted_reads: registry.counter("tape.corrupted_reads"),
            exchange_hist: registry.histogram("tape.exchange_hist_s"),
            locate_hist: registry.histogram("tape.locate_hist_s"),
            transfer_hist: registry.histogram("tape.transfer_hist_s"),
            rewind_hist: registry.histogram("tape.rewind_hist_s"),
            shelf_hist: registry.histogram("tape.shelf_hist_s"),
        }
    }

    /// Move accumulated values into handles from `registry` (used when a
    /// library built with a private registry is attached to a shared one).
    fn rebind(&mut self, registry: &MetricsRegistry) {
        let next = TapeMetrics::new(registry);
        next.mounts.add(self.mounts.get());
        next.unmounts.add(self.unmounts.get());
        next.locates.add(self.locates.get());
        next.exchange_s.add(self.exchange_s.get());
        next.locate_s.add(self.locate_s.get());
        next.transfer_s.add(self.transfer_s.get());
        next.rewind_s.add(self.rewind_s.get());
        next.bytes_read.add(self.bytes_read.get());
        next.bytes_written.add(self.bytes_written.get());
        next.shelf_fetches.add(self.shelf_fetches.get());
        next.shelf_s.add(self.shelf_s.get());
        next.drive_failures.add(self.drive_failures.get());
        next.media_read_errors.add(self.media_read_errors.get());
        next.robot_stalls.add(self.robot_stalls.get());
        next.corrupted_reads.add(self.corrupted_reads.get());
        next.exchange_hist.merge_from(&self.exchange_hist);
        next.locate_hist.merge_from(&self.locate_hist);
        next.transfer_hist.merge_from(&self.transfer_hist);
        next.rewind_hist.merge_from(&self.rewind_hist);
        next.shelf_hist.merge_from(&self.shelf_hist);
        *self = next;
    }

    fn stats(&self) -> TapeStats {
        TapeStats {
            mounts: self.mounts.get(),
            unmounts: self.unmounts.get(),
            locates: self.locates.get(),
            exchange_s: self.exchange_s.get(),
            locate_s: self.locate_s.get(),
            transfer_s: self.transfer_s.get(),
            rewind_s: self.rewind_s.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
        }
    }
}

/// Payload of a write: real bytes or a phantom size.
#[derive(Debug, Clone)]
pub enum WritePayload {
    /// Real bytes (retrievable). Cloning is a refcount bump, so staging a
    /// payload for write never duplicates it.
    Real(Bytes),
    /// Size-only payload; reads return zeros. Lets experiments run
    /// paper-scale data volumes without host memory.
    Phantom(u64),
}

impl WritePayload {
    /// A real payload from anything convertible to [`Bytes`] (`Vec<u8>` is
    /// O(1), slices copy once).
    pub fn real(data: impl Into<Bytes>) -> WritePayload {
        WritePayload::Real(data.into())
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            WritePayload::Real(v) => v.len() as u64,
            WritePayload::Phantom(n) => *n,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone)]
struct Drive {
    mounted: Option<MediumId>,
    /// Head position (byte offset) on the mounted medium.
    head_pos: u64,
    /// Logical timestamp of last use, for LRU eviction.
    last_used: u64,
    /// Simulated instant the drive comes back from repair; `0.0` means
    /// healthy. A failed drive is skipped by the mount path until then.
    failed_until_s: f64,
}

/// Slot configuration: how many media the robot can hold, and how long an
/// operator needs to fetch a shelved (offline) medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotConfig {
    /// Number of robot-accessible slots.
    pub slots: usize,
    /// Operator time to bring a shelved medium into the library, seconds
    /// (minutes in practice — the paper's motivation for keeping archives
    /// inside automated silos).
    pub shelf_fetch_s: f64,
}

/// A robotic tape library with one device class and `n` drives. By default
/// slots are unlimited; [`TapeLibrary::set_slot_config`] enables the
/// finite-slot + shelf model.
#[derive(Debug)]
pub struct TapeLibrary {
    profile: DeviceProfile,
    clock: SimClock,
    drives: Vec<Drive>,
    media: BTreeMap<MediumId, Medium>,
    metrics: TapeMetrics,
    bus: TraceBus,
    next_medium: MediumId,
    op_counter: u64,
    slot_config: Option<SlotConfig>,
    /// Media currently shelved (outside the robot's reach).
    shelved: std::collections::BTreeSet<MediumId>,
    /// Last-use tick per in-library medium, for shelf eviction.
    media_last_used: BTreeMap<MediumId, u64>,
    /// Seeded fault schedule; `None` is a perfect world.
    fault: Option<FaultPlan>,
}

impl TapeLibrary {
    /// Create a library with `drives` drives sharing `clock`.
    pub fn new(profile: DeviceProfile, drives: usize, clock: SimClock) -> TapeLibrary {
        TapeLibrary {
            profile,
            clock,
            drives: vec![
                Drive {
                    mounted: None,
                    head_pos: 0,
                    last_used: 0,
                    failed_until_s: 0.0,
                };
                drives.max(1)
            ],
            media: BTreeMap::new(),
            metrics: TapeMetrics::new(&MetricsRegistry::new()),
            bus: TraceBus::noop(),
            next_medium: 0,
            op_counter: 0,
            slot_config: None,
            shelved: Default::default(),
            media_last_used: BTreeMap::new(),
            fault: None,
        }
    }

    /// Install (or clear) a seeded fault schedule. All subsequent reads
    /// and mounts roll against it; writes are never failed (archival is
    /// verified at export time in the layers above).
    pub fn set_fault_plan(&mut self, cfg: Option<FaultConfig>) {
        self.fault = cfg.map(FaultPlan::new);
    }

    /// Whether a fault schedule is installed.
    pub fn faults_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// Counters of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            drive_failures: self.metrics.drive_failures.get(),
            media_read_errors: self.metrics.media_read_errors.get(),
            robot_stalls: self.metrics.robot_stalls.get(),
            corrupted_reads: self.metrics.corrupted_reads.get(),
        }
    }

    /// Roll the fault schedule on behalf of an upper layer (the HSM uses
    /// this for staging-disk watermark storms). Returns `false` when no
    /// plan is installed.
    pub fn roll_fault(&mut self, kind: FaultKind, a: u64, b: u64) -> bool {
        let now = self.clock.now_s();
        match self.fault.as_mut() {
            Some(plan) => plan.roll(kind, a, b, now),
            None => false,
        }
    }

    /// Attach the library to a shared metrics registry and trace bus.
    /// Counter values accumulated so far carry over into the registry.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry, bus: TraceBus) {
        self.metrics.rebind(registry);
        self.bus = bus;
    }

    /// Enable the finite-slot model: at most `config.slots` media stay in
    /// the library; the least recently used unmounted media are moved to
    /// the shelf, and accessing a shelved medium costs an operator fetch.
    pub fn set_slot_config(&mut self, config: SlotConfig) {
        self.slot_config = Some(config);
        self.enforce_slots();
    }

    /// Whether a medium is currently shelved.
    pub fn is_shelved(&self, id: MediumId) -> bool {
        self.shelved.contains(&id)
    }

    /// Operator fetches performed so far.
    pub fn shelf_fetches(&self) -> u64 {
        self.metrics.shelf_fetches.get()
    }

    /// Seconds spent on operator fetches so far.
    pub fn shelf_wait_s(&self) -> f64 {
        self.metrics.shelf_s.get()
    }

    fn in_library_count(&self) -> usize {
        self.media.len() - self.shelved.len()
    }

    /// Move LRU unmounted media to the shelf until within the slot limit.
    fn enforce_slots(&mut self) {
        let Some(cfg) = self.slot_config else { return };
        while self.in_library_count() > cfg.slots.max(self.drives.len()) {
            let victim = self
                .media
                .keys()
                .filter(|id| !self.shelved.contains(id))
                .filter(|id| self.mounted_in(**id).is_none())
                .min_by_key(|id| self.media_last_used.get(id).copied().unwrap_or(0))
                .copied();
            match victim {
                Some(v) => {
                    self.shelved.insert(v);
                }
                None => break,
            }
        }
    }

    /// Bring a shelved medium back into the library (operator fetch).
    fn unshelve(&mut self, id: MediumId) {
        if self.shelved.remove(&id) {
            let cfg = self.slot_config.expect("shelved implies slot config");
            self.clock.advance_s(cfg.shelf_fetch_s);
            self.metrics.shelf_fetches.inc();
            self.metrics.shelf_s.add(cfg.shelf_fetch_s);
            self.metrics.shelf_hist.observe(cfg.shelf_fetch_s);
            self.bus.event(
                "tape.shelf_fetch",
                self.clock.now_s(),
                &[
                    ("medium", Field::U64(id)),
                    ("cost_s", Field::F64(cfg.shelf_fetch_s)),
                ],
            );
            self.enforce_slots();
        }
    }

    /// The device profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Accumulated statistics (a view over the metrics registry).
    pub fn stats(&self) -> TapeStats {
        self.metrics.stats()
    }

    /// Number of drives.
    pub fn drive_count(&self) -> usize {
        self.drives.len()
    }

    /// Register a fresh medium; returns its id. Under a slot limit, older
    /// unmounted media may move to the shelf to make room.
    pub fn add_medium(&mut self) -> MediumId {
        let id = self.next_medium;
        self.next_medium += 1;
        self.media
            .insert(id, Medium::new(id, self.profile.media_capacity));
        self.op_counter += 1;
        self.media_last_used.insert(id, self.op_counter);
        self.enforce_slots();
        id
    }

    /// All registered media ids.
    pub fn media_ids(&self) -> Vec<MediumId> {
        self.media.keys().copied().collect()
    }

    /// Bytes used on a medium.
    pub fn medium_used(&self, id: MediumId) -> Result<u64> {
        Ok(self.medium(id)?.used())
    }

    /// Bytes free on a medium.
    pub fn medium_free(&self, id: MediumId) -> Result<u64> {
        Ok(self.medium(id)?.free())
    }

    /// The drive a medium is currently mounted in, if any.
    pub fn mounted_in(&self, id: MediumId) -> Option<usize> {
        self.drives.iter().position(|d| d.mounted == Some(id))
    }

    /// Media currently mounted, most recently used first.
    pub fn mounted_media(&self) -> Vec<MediumId> {
        let mut v: Vec<(u64, MediumId)> = self
            .drives
            .iter()
            .filter_map(|d| d.mounted.map(|m| (d.last_used, m)))
            .collect();
        v.sort_by_key(|&(t, _)| std::cmp::Reverse(t));
        v.into_iter().map(|(_, m)| m).collect()
    }

    fn medium(&self, id: MediumId) -> Result<&Medium> {
        self.media.get(&id).ok_or(TapeError::NoSuchMedium(id))
    }

    fn medium_mut(&mut self, id: MediumId) -> Result<&mut Medium> {
        self.media.get_mut(&id).ok_or(TapeError::NoSuchMedium(id))
    }

    /// Ensure `id` is mounted; returns the drive index. Charges exchange,
    /// load and (for evictions) rewind costs.
    pub fn ensure_mounted(&mut self, id: MediumId) -> Result<usize> {
        self.medium(id)?; // existence check
        self.op_counter += 1;
        let op = self.op_counter;
        self.media_last_used.insert(id, op);
        if let Some(di) = self.mounted_in(id) {
            self.drives[di].last_used = op;
            return Ok(di);
        }
        self.unshelve(id);
        // Injected robot contention: another client holds the robot arm;
        // the exchange waits out the stall on the simulated clock.
        if let Some(plan) = self.fault.as_mut() {
            let now = self.clock.now_s();
            if plan.roll(FaultKind::RobotContention, id, 0, now) {
                let stall = plan.config().robot_stall_s;
                self.clock.advance_s(stall);
                self.metrics.robot_stalls.inc();
                self.bus.event(
                    "tape.robot_stall",
                    self.clock.now_s(),
                    &[("medium", Field::U64(id)), ("cost_s", Field::F64(stall))],
                );
            }
        }
        // Failed drives are out of service until repaired; if every drive
        // is down, wait (in simulated time) for the earliest repair.
        if self
            .drives
            .iter()
            .all(|d| d.failed_until_s > self.clock.now_s())
        {
            let repair = self
                .drives
                .iter()
                .map(|d| d.failed_until_s)
                .fold(f64::INFINITY, f64::min);
            // One microsecond of slack: the clock rounds to its microsecond
            // grid, which can land just short of `repair` and leave every
            // drive still nominally in repair.
            self.clock.advance_to_s(repair + 1e-6);
        }
        // Pick a healthy drive: empty first, else least recently used.
        let now = self.clock.now_s();
        let di = self
            .drives
            .iter()
            .position(|d| d.mounted.is_none() && d.failed_until_s <= now)
            .unwrap_or_else(|| {
                self.drives
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.failed_until_s <= now)
                    .min_by_key(|(_, d)| d.last_used)
                    .map(|(i, _)| i)
                    .expect("at least one healthy drive")
            });
        // Evict the current occupant.
        if let Some(evicted) = self.drives[di].mounted {
            let rewind = self.profile.rewind_time_s(self.drives[di].head_pos);
            self.clock.advance_s(rewind);
            self.metrics.rewind_s.add(rewind);
            self.metrics.rewind_hist.observe(rewind);
            self.metrics.unmounts.inc();
            self.bus.event(
                "tape.unmount",
                self.clock.now_s(),
                &[
                    ("medium", Field::U64(evicted)),
                    ("drive", Field::U64(di as u64)),
                    ("rewind_s", Field::F64(rewind)),
                ],
            );
        }
        // Robot exchange + drive load.
        let mount = self.profile.mount_time_s();
        self.clock.advance_s(mount);
        self.metrics.exchange_s.add(mount);
        self.metrics.exchange_hist.observe(mount);
        self.metrics.mounts.inc();
        self.bus.event(
            "tape.mount",
            self.clock.now_s(),
            &[
                ("medium", Field::U64(id)),
                ("drive", Field::U64(di as u64)),
                ("cost_s", Field::F64(mount)),
            ],
        );
        let failed_until_s = self.drives[di].failed_until_s;
        self.drives[di] = Drive {
            mounted: Some(id),
            head_pos: 0,
            last_used: op,
            failed_until_s,
        };
        Ok(di)
    }

    /// Append a payload to a medium; returns the start offset.
    pub fn write(&mut self, id: MediumId, payload: WritePayload) -> Result<u64> {
        let len = payload.len();
        let di = self.ensure_mounted(id)?;
        let write_pos = self.medium(id)?.used();
        // Locate to append position.
        let head = self.drives[di].head_pos;
        let locate = self.profile.locate_time_s(head, write_pos);
        if locate > 0.0 {
            self.metrics.locates.inc();
        }
        let transfer = self.profile.transfer_time_s(len) + self.profile.write_sync_s;
        self.clock.advance_s(locate + transfer);
        self.metrics.locate_s.add(locate);
        self.metrics.transfer_s.add(transfer);
        self.metrics.transfer_hist.observe(transfer);
        self.metrics.bytes_written.add(len);
        if locate > 0.0 {
            self.metrics.locate_hist.observe(locate);
            self.bus.event(
                "tape.locate",
                self.clock.now_s() - transfer,
                &[
                    ("medium", Field::U64(id)),
                    ("drive", Field::U64(di as u64)),
                    ("from", Field::U64(head)),
                    ("to", Field::U64(write_pos)),
                    ("cost_s", Field::F64(locate)),
                ],
            );
        }
        self.bus.event(
            "tape.transfer",
            self.clock.now_s(),
            &[
                ("medium", Field::U64(id)),
                ("drive", Field::U64(di as u64)),
                ("offset", Field::U64(write_pos)),
                ("bytes", Field::U64(len)),
                ("dir", Field::StaticStr("write")),
                ("cost_s", Field::F64(transfer)),
            ],
        );
        let off = match payload {
            WritePayload::Real(data) => self.medium_mut(id)?.append(data)?,
            WritePayload::Phantom(n) => self.medium_mut(id)?.append_phantom(n)?,
        };
        self.drives[di].head_pos = off + len;
        Ok(off)
    }

    /// Read `len` bytes at `offset` from a medium. The returned `Bytes`
    /// aliases the stored segment — the simulated transfer is charged to
    /// the clock, but no host-memory copy happens.
    pub fn read(&mut self, id: MediumId, offset: u64, len: u64) -> Result<Bytes> {
        let di = self.ensure_mounted(id)?;
        // Roll the fault schedule for this read attempt. The roll order
        // short-circuits (a drive failure pre-empts a media error), but
        // each class keeps its own per-(medium, offset) attempt counter,
        // so the outcome sequence is deterministic per access regardless
        // of thread interleaving.
        enum Injected {
            None,
            DriveFail,
            MediaErr,
            Corrupt(u64),
        }
        let injected = match self.fault.as_mut() {
            Some(plan) => {
                let now = self.clock.now_s();
                if plan.roll(FaultKind::DriveFailure, id, offset, now) {
                    Injected::DriveFail
                } else if plan.roll(FaultKind::MediaReadError, id, offset, now) {
                    Injected::MediaErr
                } else if let Some(bit) = plan.roll_corrupt(id, offset, now) {
                    Injected::Corrupt(bit)
                } else {
                    Injected::None
                }
            }
            None => Injected::None,
        };
        match injected {
            Injected::DriveFail => {
                // The drive dies halfway through the transfer: charge the
                // locate plus half the transfer, eject the medium, and
                // take the drive out of service for the repair window.
                let head = self.drives[di].head_pos;
                let locate = self.profile.locate_time_s(head, offset);
                let partial = self.profile.transfer_time_s(len) * 0.5;
                self.clock.advance_s(locate + partial);
                self.metrics.locate_s.add(locate);
                self.metrics.transfer_s.add(partial);
                let repair = self
                    .fault
                    .as_ref()
                    .map(|p| p.config().drive_repair_s)
                    .unwrap_or(0.0);
                let now = self.clock.now_s();
                let last_used = self.drives[di].last_used;
                self.drives[di] = Drive {
                    mounted: None,
                    head_pos: 0,
                    last_used,
                    failed_until_s: now + repair,
                };
                self.metrics.drive_failures.inc();
                self.bus.event(
                    "tape.drive_failure",
                    now,
                    &[
                        ("drive", Field::U64(di as u64)),
                        ("medium", Field::U64(id)),
                        ("offset", Field::U64(offset)),
                        ("repair_s", Field::F64(repair)),
                    ],
                );
                return Err(TapeError::DriveFailed {
                    drive: di as u64,
                    medium: id,
                });
            }
            Injected::MediaErr => {
                // A bad segment: discovered after the locate and a full
                // (failed) transfer pass; the head stays at the segment.
                let head = self.drives[di].head_pos;
                let locate = self.profile.locate_time_s(head, offset);
                let transfer = self.profile.transfer_time_s(len);
                self.clock.advance_s(locate + transfer);
                self.metrics.locate_s.add(locate);
                self.metrics.transfer_s.add(transfer);
                self.drives[di].head_pos = offset;
                self.metrics.media_read_errors.inc();
                self.bus.event(
                    "tape.media_read_error",
                    self.clock.now_s(),
                    &[("medium", Field::U64(id)), ("offset", Field::U64(offset))],
                );
                return Err(TapeError::MediaReadError { medium: id, offset });
            }
            _ => {}
        }
        let head = self.drives[di].head_pos;
        let locate = self.profile.locate_time_s(head, offset);
        if locate > 0.0 {
            self.metrics.locates.inc();
        }
        let transfer = self.profile.transfer_time_s(len);
        self.clock.advance_s(locate + transfer);
        self.metrics.locate_s.add(locate);
        self.metrics.transfer_s.add(transfer);
        self.metrics.transfer_hist.observe(transfer);
        self.metrics.bytes_read.add(len);
        if locate > 0.0 {
            self.metrics.locate_hist.observe(locate);
            self.bus.event(
                "tape.locate",
                self.clock.now_s() - transfer,
                &[
                    ("medium", Field::U64(id)),
                    ("drive", Field::U64(di as u64)),
                    ("from", Field::U64(head)),
                    ("to", Field::U64(offset)),
                    ("cost_s", Field::F64(locate)),
                ],
            );
        }
        self.bus.event(
            "tape.transfer",
            self.clock.now_s(),
            &[
                ("medium", Field::U64(id)),
                ("drive", Field::U64(di as u64)),
                ("offset", Field::U64(offset)),
                ("bytes", Field::U64(len)),
                ("dir", Field::StaticStr("read")),
                ("cost_s", Field::F64(transfer)),
            ],
        );
        let data = self.medium(id)?.read(offset, len)?;
        self.drives[di].head_pos = offset + len;
        if let Injected::Corrupt(bit) = injected {
            // Silent corruption: one bit of the payload flips. The copy
            // is deliberate — the stored segment stays pristine, only
            // this read observes the flip (a dirty head, a bad cable).
            if !data.is_empty() {
                let mut buf = data.to_vec();
                let b = (bit as usize) % (buf.len() * 8);
                buf[b / 8] ^= 1 << (b % 8);
                self.metrics.corrupted_reads.inc();
                self.bus.event(
                    "tape.corrupt",
                    self.clock.now_s(),
                    &[
                        ("medium", Field::U64(id)),
                        ("offset", Field::U64(offset)),
                        ("bit", Field::U64(b as u64)),
                    ],
                );
                return Ok(Bytes::from(buf));
            }
        }
        Ok(data)
    }

    /// Segment boundaries of a medium, in tape order (offset, len).
    pub fn medium_segments(&self, id: MediumId) -> Result<Vec<(u64, u64)>> {
        Ok(self.medium(id)?.segments())
    }

    /// Whether a byte range on a medium holds stored data.
    pub fn covers(&self, id: MediumId, offset: u64, len: u64) -> Result<bool> {
        Ok(self.medium(id)?.covers(offset, len))
    }

    /// Erase a medium (recycle). The medium must exist; if mounted, the
    /// head returns to position 0.
    pub fn erase_medium(&mut self, id: MediumId) -> Result<()> {
        self.medium_mut(id)?.erase();
        if let Some(di) = self.mounted_in(id) {
            self.drives[di].head_pos = 0;
        }
        Ok(())
    }

    /// Run `f` against a *detached* clock forked at the current instant
    /// and return `(result, elapsed_s)`. Every cost `f` charges inside
    /// the library (mounts, locates, transfers, rewinds) accrues on the
    /// fork — and is trace-stamped with fork time — while the shared
    /// clock does not move. This models drives working in parallel:
    /// execute each drive's fetch group detached from the same start
    /// instant, then advance the shared clock by the *longest* group, so
    /// per-drive busy windows overlap in the trace exactly as parallel
    /// hardware would.
    pub fn run_detached<R>(&mut self, f: impl FnOnce(&mut TapeLibrary) -> R) -> (R, f64) {
        let shared = self.clock.clone();
        let fork = shared.fork();
        let start = fork.now_s();
        self.clock = fork.clone();
        let r = f(self);
        self.clock = shared;
        (r, fork.now_s() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(drives: usize) -> TapeLibrary {
        TapeLibrary::new(DeviceProfile::ibm3590(), drives, SimClock::new())
    }

    #[test]
    fn write_read_roundtrip_with_costs() {
        let mut l = lib(1);
        let m = l.add_medium();
        let off = l.write(m, WritePayload::real(vec![7u8; 1024])).unwrap();
        assert_eq!(off, 0);
        let t_after_write = l.clock().now_s();
        assert!(t_after_write > 0.0, "mount+transfer must cost time");
        let data = l.read(m, 0, 1024).unwrap();
        assert_eq!(data, vec![7u8; 1024]);
        // read required a locate back to 0
        assert!(l.stats().locate_s > 0.0);
        assert_eq!(l.stats().bytes_read, 1024);
        assert_eq!(l.stats().mounts, 1);
    }

    #[test]
    fn sequential_reads_avoid_locates() {
        let mut l = lib(1);
        let m = l.add_medium();
        l.write(m, WritePayload::Phantom(1 << 20)).unwrap();
        l.write(m, WritePayload::Phantom(1 << 20)).unwrap();
        // Position head at 0 by reading the first byte range.
        l.read(m, 0, 1 << 20).unwrap();
        let locates_before = l.stats().locates;
        // Next segment starts exactly at the head: no locate.
        l.read(m, 1 << 20, 1 << 20).unwrap();
        assert_eq!(l.stats().locates, locates_before);
    }

    #[test]
    fn media_exchange_on_single_drive() {
        let mut l = lib(1);
        let m1 = l.add_medium();
        let m2 = l.add_medium();
        l.write(m1, WritePayload::Phantom(100)).unwrap();
        l.write(m2, WritePayload::Phantom(100)).unwrap();
        assert_eq!(l.stats().mounts, 2);
        assert_eq!(l.stats().unmounts, 1);
        // Alternating access thrashes the single drive.
        l.read(m1, 0, 100).unwrap();
        l.read(m2, 0, 100).unwrap();
        assert_eq!(l.stats().mounts, 4);
    }

    #[test]
    fn two_drives_avoid_thrashing() {
        let mut l = lib(2);
        let m1 = l.add_medium();
        let m2 = l.add_medium();
        l.write(m1, WritePayload::Phantom(100)).unwrap();
        l.write(m2, WritePayload::Phantom(100)).unwrap();
        l.read(m1, 0, 100).unwrap();
        l.read(m2, 0, 100).unwrap();
        l.read(m1, 0, 100).unwrap();
        assert_eq!(l.stats().mounts, 2, "both media stay mounted");
    }

    #[test]
    fn lru_eviction_picks_least_recent() {
        let mut l = lib(2);
        let m1 = l.add_medium();
        let m2 = l.add_medium();
        let m3 = l.add_medium();
        l.write(m1, WritePayload::Phantom(10)).unwrap();
        l.write(m2, WritePayload::Phantom(10)).unwrap();
        l.read(m1, 0, 10).unwrap(); // m1 most recent
        l.write(m3, WritePayload::Phantom(10)).unwrap(); // evicts m2
        assert!(l.mounted_in(m1).is_some());
        assert!(l.mounted_in(m2).is_none());
        assert!(l.mounted_in(m3).is_some());
    }

    #[test]
    fn unknown_medium_is_error() {
        let mut l = lib(1);
        assert!(matches!(l.read(99, 0, 1), Err(TapeError::NoSuchMedium(99))));
        assert!(l.write(99, WritePayload::Phantom(1)).is_err());
    }

    #[test]
    fn capacity_error_propagates() {
        let mut l = TapeLibrary::new(
            DeviceProfile {
                media_capacity: 1000,
                ..DeviceProfile::ibm3590()
            },
            1,
            SimClock::new(),
        );
        let m = l.add_medium();
        assert!(l.write(m, WritePayload::Phantom(900)).is_ok());
        assert!(matches!(
            l.write(m, WritePayload::Phantom(200)),
            Err(TapeError::MediumFull { .. })
        ));
    }

    #[test]
    fn slot_limit_shelves_lru_media() {
        let mut l = lib(1);
        let m1 = l.add_medium();
        let m2 = l.add_medium();
        let m3 = l.add_medium();
        l.write(m1, WritePayload::Phantom(10)).unwrap();
        l.write(m2, WritePayload::Phantom(10)).unwrap();
        l.write(m3, WritePayload::Phantom(10)).unwrap();
        l.set_slot_config(SlotConfig {
            slots: 2,
            shelf_fetch_s: 300.0,
        });
        // m3 is mounted; one of m1/m2 is shelved (m1 is LRU)
        assert!(l.is_shelved(m1));
        assert!(!l.is_shelved(m3));
        // accessing the shelved medium costs the operator fetch
        let t0 = l.clock().now_s();
        l.read(m1, 0, 10).unwrap();
        assert!(l.clock().now_s() - t0 >= 300.0);
        assert_eq!(l.shelf_fetches(), 1);
        assert!(!l.is_shelved(m1));
        // bringing m1 in pushed another medium out
        assert_eq!(l.media_ids().len(), 3);
        assert!(l.is_shelved(m2) || l.is_shelved(m3));
    }

    #[test]
    fn unlimited_slots_never_shelve() {
        let mut l = lib(1);
        for _ in 0..10 {
            let m = l.add_medium();
            l.write(m, WritePayload::Phantom(1)).unwrap();
        }
        assert_eq!(l.shelf_fetches(), 0);
        assert!(l.media_ids().iter().all(|&m| !l.is_shelved(m)));
    }

    #[test]
    fn mounted_media_are_never_shelved() {
        let mut l = lib(2);
        let m1 = l.add_medium();
        let m2 = l.add_medium();
        let _ = l.add_medium();
        l.write(m1, WritePayload::Phantom(1)).unwrap();
        l.write(m2, WritePayload::Phantom(1)).unwrap();
        l.set_slot_config(SlotConfig {
            slots: 1, // fewer slots than drives: drives win
            shelf_fetch_s: 60.0,
        });
        assert!(!l.is_shelved(m1));
        assert!(!l.is_shelved(m2));
    }

    #[test]
    fn attach_obs_carries_counters_and_emits_events() {
        let mut l = lib(1);
        let m1 = l.add_medium();
        l.write(m1, WritePayload::Phantom(100)).unwrap();
        let mounts_before = l.stats().mounts;
        assert_eq!(mounts_before, 1);

        let registry = MetricsRegistry::new();
        let bus = TraceBus::ring(64);
        l.attach_obs(&registry, bus.clone());
        // prior counts carried into the shared registry
        assert_eq!(registry.counter("tape.mounts").get(), mounts_before);

        let m2 = l.add_medium();
        l.write(m2, WritePayload::Phantom(100)).unwrap(); // unmount m1, mount m2
        l.read(m2, 0, 100).unwrap(); // locate back + transfer
        assert_eq!(registry.counter("tape.mounts").get(), 2);
        assert_eq!(l.stats().mounts, 2, "stats view reads the registry");

        let names: Vec<&str> = bus.records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"tape.unmount"));
        assert!(names.contains(&"tape.mount"));
        assert!(names.contains(&"tape.locate"));
        assert!(names.contains(&"tape.transfer"));
    }

    #[test]
    fn run_detached_charges_fork_not_shared_clock() {
        let mut l = lib(2);
        let m1 = l.add_medium();
        let m2 = l.add_medium();
        l.write(m1, WritePayload::Phantom(5 << 20)).unwrap();
        l.write(m2, WritePayload::Phantom(5 << 20)).unwrap();
        let t0 = l.clock().now_s();
        let (res, dt) = l.run_detached(|lib| lib.read(m1, 0, 5 << 20));
        res.unwrap();
        assert!(dt > 0.0, "detached work still costs time on the fork");
        assert!(
            (l.clock().now_s() - t0).abs() < 1e-9,
            "shared clock must not move during detached execution"
        );
        // The caller decides how the window lands on the shared timeline.
        l.clock().advance_to_s(t0 + dt);
        assert!((l.clock().now_s() - (t0 + dt)).abs() < 1e-9);
        // Stats accrued normally.
        assert_eq!(l.stats().bytes_read, 5 << 20);
    }

    #[test]
    fn drive_failure_ejects_and_repairs() {
        let mut l = lib(1);
        l.set_fault_plan(Some(FaultConfig {
            drive_failure_per_read: 1.0,
            drive_repair_s: 120.0,
            ..FaultConfig::quiet(1)
        }));
        let m = l.add_medium();
        l.write(m, WritePayload::real(vec![5u8; 1024])).unwrap();
        let err = l.read(m, 0, 1024).unwrap_err();
        assert!(matches!(err, TapeError::DriveFailed { medium, .. } if medium == m));
        assert!(err.is_transient());
        assert_eq!(l.fault_stats().drive_failures, 1);
        assert!(l.mounted_in(m).is_none(), "medium ejected on failure");
        // The single drive is down: the next mount waits out the repair
        // window on the simulated clock, then the read is re-rolled.
        l.set_fault_plan(Some(FaultConfig::quiet(1))); // stop further faults
        let t0 = l.clock().now_s();
        let data = l.read(m, 0, 1024).unwrap();
        assert_eq!(data, vec![5u8; 1024]);
        assert!(
            l.clock().now_s() - t0 >= 120.0,
            "mount must wait for drive repair"
        );
    }

    #[test]
    fn failed_drive_is_skipped_when_another_is_healthy() {
        let mut l = lib(2);
        l.set_fault_plan(Some(FaultConfig {
            drive_failure_per_read: 1.0,
            drive_repair_s: 1000.0,
            ..FaultConfig::quiet(2)
        }));
        let m = l.add_medium();
        l.write(m, WritePayload::Phantom(100)).unwrap();
        assert!(l.read(m, 0, 100).is_err());
        l.set_fault_plan(Some(FaultConfig::quiet(2)));
        let t0 = l.clock().now_s();
        l.read(m, 0, 100).unwrap();
        // Failover to the second (healthy) drive: only a mount, no
        // 1000-second repair wait.
        assert!(l.clock().now_s() - t0 < 1000.0);
    }

    #[test]
    fn media_read_error_keeps_drive_alive() {
        let mut l = lib(1);
        l.set_fault_plan(Some(FaultConfig {
            media_read_error_per_read: 1.0,
            ..FaultConfig::quiet(3)
        }));
        let m = l.add_medium();
        l.write(m, WritePayload::Phantom(100)).unwrap();
        let err = l.read(m, 0, 100).unwrap_err();
        assert!(matches!(err, TapeError::MediaReadError { .. }));
        assert!(err.is_transient());
        assert_eq!(l.fault_stats().media_read_errors, 1);
        assert!(l.mounted_in(m).is_some(), "medium stays mounted");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut l = lib(1);
        l.set_fault_plan(Some(FaultConfig {
            corrupt_per_read: 1.0,
            ..FaultConfig::quiet(4)
        }));
        let m = l.add_medium();
        let payload = vec![0xAAu8; 256];
        l.write(m, WritePayload::real(payload.clone())).unwrap();
        let data = l.read(m, 0, 256).unwrap();
        let flipped: u32 = data
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must flip");
        assert_eq!(l.fault_stats().corrupted_reads, 1);
        // The stored segment itself is pristine.
        l.set_fault_plan(None);
        assert_eq!(l.read(m, 0, 256).unwrap(), payload);
    }

    #[test]
    fn robot_stall_charges_simulated_time() {
        let mut l = lib(1);
        let m = l.add_medium();
        l.write(m, WritePayload::Phantom(10)).unwrap();
        let m2 = l.add_medium();
        l.write(m2, WritePayload::Phantom(10)).unwrap(); // m mounted out
        l.set_fault_plan(Some(FaultConfig {
            robot_contention_per_mount: 1.0,
            robot_stall_s: 30.0,
            ..FaultConfig::quiet(5)
        }));
        let t0 = l.clock().now_s();
        l.read(m, 0, 10).unwrap(); // forces a mount → stall
        assert!(l.clock().now_s() - t0 >= 30.0);
        assert_eq!(l.fault_stats().robot_stalls, 1);
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let run = |seed: u64| -> (Vec<bool>, FaultStats) {
            let mut l = lib(1);
            l.set_fault_plan(Some(FaultConfig::chaos(seed)));
            let m = l.add_medium();
            for _ in 0..8 {
                l.write(m, WritePayload::Phantom(1 << 16)).unwrap();
            }
            let outcomes = (0..8)
                .flat_map(|i| (0..4).map(move |_| i))
                .map(|i| l.read(m, i * (1 << 16), 1 << 16).is_ok())
                .collect();
            (outcomes, l.fault_stats())
        };
        let (a, sa) = run(77);
        let (b, sb) = run(77);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, sc) = run(78);
        assert!(a != c || sa != sc, "different seeds should differ");
    }

    #[test]
    fn erase_resets_medium() {
        let mut l = lib(1);
        let m = l.add_medium();
        l.write(m, WritePayload::real(vec![1; 10])).unwrap();
        l.erase_medium(m).unwrap();
        assert_eq!(l.medium_used(m).unwrap(), 0);
        assert!(l.read(m, 0, 1).is_err());
    }
}
