//! Multi-session concurrent query execution over the HEAVEN hierarchy.
//!
//! [`ConcurrentHeaven`] is the `Send + Sync` façade over a built
//! [`Heaven`] system: build and export single-threaded, call
//! [`Heaven::into_concurrent`], then serve queries from any number of
//! session threads. Three mechanisms make that safe *and* fast:
//!
//! * **Sharded caches** — both cache levels are lock-striped
//!   (see [`crate::cache`]), so sessions touching different super-tiles
//!   never serialize on a cache lock;
//! * **Session time lanes** — each [`Session`] forks the shared
//!   [`SimClock`] into a private lane and charges its *overlappable*
//!   work (disk-cache reads, decode) there; dropping the session re-joins
//!   the shared timeline with `advance_to_s`, so the simulated makespan
//!   of N concurrent sessions is the slowest lane, not the sum — exactly
//!   how wall-clock time behaves for parallel clients of one archive;
//! * **Cross-session tape batching** — the tape library stays the serial
//!   shared resource. Instead of each session mounting media on its own
//!   ([`HeavenConfig::cross_session_batching`] = false: per-session FIFO
//!   staging), a session enqueues its query's whole super-tile miss set
//!   ([`FetchRequest`]s) with the [`FetchBatcher`] in one call and waits
//!   once, so a query costs at most one batching window however many
//!   super-tiles it misses. One waiting session becomes the *drainer*,
//!   waits for peers to pile on (a condvar handoff — the window closes
//!   as soon as every open session has a request queued, so no peer is
//!   left to join, or when it runs out), then stages the merged batch in
//!   one scheduled sweep (mounted-media first, ascending offsets,
//!   drive-parallel rounds). Which requests share a batch therefore
//!   depends on what the sessions ask for, not on thread timing, as long
//!   as every open session keeps querying. Duplicate super-tile requests **coalesce**:
//!   one tape fetch resolves every waiting session
//!   (`sched.coalesced_fetches` counts the saved fetches).
//!
//! Under fault injection the batcher is also the recovery ladder: a
//! transiently failed fetch is *requeued* into the next drain iteration
//! (`sched.requeued_fetches`) with its coalesced waiters intact, a copy
//! that exhausts its retries or fails checksum verification fails over
//! to the replica, and only when every copy is gone do the waiters get a
//! typed [`HeavenError::MediaLost`].
//!
//! The batcher is also where the trace model turns **causal across
//! sessions**: every tertiary fetch runs inside a `heaven.st_fetch` span
//! that *links* to the shared `sched.batch` span which staged it, emits
//! a `sched.served` event decomposing its latency into queue vs service
//! time (`sched.queue_wait_s` / `sched.service_s` histograms), and every
//! session record is stamped with the session id — so an offline
//! profiler (`heaven-prof critical-path`) can attribute any session's
//! wait to the shared fetch that actually served it. A deterministic
//! stall watchdog ([`HeavenConfig::stall_window_mult`]) flags fetches
//! that survive too many drain passes (`sched.stalls` + `sched.stall`
//! events naming the blocking medium).

use crate::cache::{CacheStats, SuperTileCache, TileCache};
use crate::catalog::SuperTileCatalog;
use crate::config::HeavenConfig;
use crate::error::{HeavenError, Result};
use crate::recovery::{read_with_recovery, RecoveryMetrics};
use crate::scheduler::{plan_drive_rounds, schedule, FetchRequest};
use crate::supertile::{checksum64, decode_member, SuperTileId};
use crate::system::Heaven;
use bytes::Bytes;
use heaven_array::{MDArray, Minterval, ObjectId, TileId};
use heaven_arraydb::{ArrayDb, TileLocation};
use heaven_hsm::{BlockAddress, DirectStore, HsmError};
use heaven_obs::{Counter, Histogram, MetricsRegistry, TraceBus};
use heaven_tape::{SimClock, TapeError, TapeStats};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrency-path metric handles (same registry as the rest of the
/// hierarchy; `heaven.*` names continue the single-owner counters).
#[derive(Debug, Clone)]
struct ConcMetrics {
    region_fetches: Counter,
    st_tape_fetches: Counter,
    st_tape_bytes: Counter,
    bytes_copied: Counter,
    /// Tape fetches saved because a session's request coalesced onto an
    /// identical in-flight request of another session.
    coalesced_fetches: Counter,
    /// Cross-session staging batches drained.
    batches: Counter,
    /// Fetch requests staged through cross-session batches.
    batched_fetches: Counter,
    /// Batched fetches put back in the queue after a transient failure
    /// (retry) or for their replica copy (failover).
    requeued_fetches: Counter,
    /// Queued fetches flagged by the stall watchdog (once per fetch; see
    /// [`HeavenConfig::stall_window_mult`]).
    stalls: Counter,
    /// Per tertiary fetch: simulated seconds between enqueueing and the
    /// start of the staging round that served it (includes retry backoff
    /// and earlier drain passes the fetch requeued through).
    queue_wait: Histogram,
    /// Per tertiary fetch: simulated seconds from staging start to
    /// waiter notification (mount + locate + transfer of its round).
    service: Histogram,
    /// Session query latency (same series the single-owner bracketed
    /// path observes); fed here with the query span as its exemplar.
    query_latency: Histogram,
}

impl ConcMetrics {
    fn new(registry: &MetricsRegistry) -> ConcMetrics {
        let query_latency = registry.histogram("heaven.query_latency_s");
        // Exemplar tables are sized at registration so the per-query
        // observe stays allocation-free.
        query_latency.reserve_exemplars();
        ConcMetrics {
            region_fetches: registry.counter("heaven.region_fetches"),
            st_tape_fetches: registry.counter("heaven.st_tape_fetches"),
            st_tape_bytes: registry.counter("heaven.st_tape_bytes"),
            bytes_copied: registry.counter("heaven.bytes_copied"),
            coalesced_fetches: registry.counter("sched.coalesced_fetches"),
            batches: registry.counter("sched.batches"),
            batched_fetches: registry.counter("sched.batched_fetches"),
            requeued_fetches: registry.counter("sched.requeued_fetches"),
            stalls: registry.counter("sched.stalls"),
            queue_wait: registry.histogram("sched.queue_wait_s"),
            service: registry.histogram("sched.service_s"),
            query_latency,
        }
    }
}

/// A queued tertiary fetch plus its recovery state: which attempt this
/// is, whether it already failed over to the second copy, and the
/// catalog's replica/checksum for that failover.
#[derive(Debug, Clone, Copy)]
struct PendingFetch {
    req: FetchRequest,
    attempt: u32,
    on_replica: bool,
    replica: Option<BlockAddress>,
    checksum: Option<u64>,
    /// Shared-clock instant the first waiter enqueued this super-tile
    /// (survives requeues: queue time accumulates across the ladder).
    enqueue_s: f64,
    /// Drain passes this fetch has been seen by (each pass ≈ one batching
    /// window) — the stall watchdog's deterministic time base.
    drains: u32,
    /// Already flagged by the stall watchdog (flag once per fetch).
    stalled: bool,
}

/// Why a batched fetch ultimately failed (cloned to every coalesced
/// waiter, then mapped to a [`HeavenError`]).
#[derive(Debug, Clone)]
enum FetchFailure {
    /// Every archive copy was unreadable or corrupt.
    MediaLost(SuperTileId),
    /// A non-recoverable error (bad address, codec failure, ...).
    Other(String),
}

impl FetchFailure {
    fn into_error(self) -> HeavenError {
        match self {
            FetchFailure::MediaLost(st) => HeavenError::MediaLost { st },
            FetchFailure::Other(m) => HeavenError::Config(format!("batched fetch failed: {m}")),
        }
    }
}

/// The shared outcome of a successful batched fetch, cloned to every
/// coalesced waiter (the payload clone is a refcount bump). Besides the
/// payload it carries the causal/timing context each waiter stamps onto
/// its own trace: the `sched.batch` span that staged it and the
/// queue/service decomposition of its latency.
#[derive(Debug, Clone)]
struct Served {
    payload: Bytes,
    /// Shared-clock instant the staging round completed (waiters
    /// fast-forward their lanes to it).
    done_s: f64,
    /// Enqueue → staging-round start (simulated seconds).
    queue_s: f64,
    /// Staging-round start → notification (simulated seconds).
    service_s: f64,
    /// The `sched.batch` span that staged this fetch (0 = untraced).
    batch_span: u64,
}

/// How one batched fetch ended, as every coalesced waiter sees it.
type Outcome = std::result::Result<Served, FetchFailure>;

/// One in-flight tertiary fetch; every session waiting on the same
/// super-tile holds the same `Arc<Inflight>` and reads the same outcome.
/// `done` is signalled exactly once, when the slot is filled.
#[derive(Debug, Default)]
struct Inflight {
    slot: Mutex<Option<Outcome>>,
    done: Condvar,
    /// The [`BatchQueue::epoch`] the fetch was queued in: while the two
    /// are equal, the fetch still waits in `pending`.
    epoch: u64,
}

/// Arrival-ordered fetch queue plus the session accounting that closes
/// the batching window.
#[derive(Debug, Default)]
struct BatchQueue {
    pending: Vec<PendingFetch>,
    /// Retries and failovers for the current drainer's next pass (they
    /// come from the drainer itself, so they never count as arrivals).
    requeued: Vec<PendingFetch>,
    /// Sessions with a request in `pending`.
    queued_sessions: usize,
    /// Open sessions: once all of them are queued, nobody can join.
    live_sessions: usize,
    /// Batches taken from `pending` so far.
    epoch: u64,
}

/// The cross-session staging coordinator (a combining lock).
///
/// `inflight` registers-or-coalesces under one critical section (a request
/// is pushed to the queue in the same section, so no request is ever both
/// unqueued and unobserved). Whichever waiting session wins `drain`
/// becomes the drainer: it waits on the `arrived` condvar until every
/// open session has a request queued or the window runs out, then stages
/// the merged batch in one scheduled, drive-parallel sweep — and stages
/// requeued retries/failovers in further passes before the drainer seat
/// is vacated. Non-drainers park on their entry's `done` condvar.
#[derive(Debug)]
pub(crate) struct FetchBatcher {
    queue: Mutex<BatchQueue>,
    arrived: Condvar,
    inflight: Mutex<HashMap<SuperTileId, Arc<Inflight>>>,
    drain: Mutex<()>,
    window: Duration,
}

impl FetchBatcher {
    fn new(window: Duration) -> FetchBatcher {
        FetchBatcher {
            queue: Mutex::new(BatchQueue::default()),
            arrived: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            drain: Mutex::new(()),
            window,
        }
    }

    /// Fetch a session's whole miss set through the shared batch. Each
    /// request registers (or coalesces onto) one inflight entry, the
    /// session counts as one arrival, and it waits until **every** entry
    /// is resolved — one batching window per query, not per super-tile.
    /// Returns one outcome per request, in request order, each paired
    /// with whether it coalesced onto an already-queued request.
    fn fetch(&self, h: &ConcurrentHeaven, reqs: Vec<PendingFetch>) -> Vec<(Outcome, bool)> {
        let entries: Vec<(Arc<Inflight>, bool)> = {
            let mut map = self.inflight.lock();
            let mut q = self.queue.lock();
            let enqueue_s = h.clock.now_s();
            // Queued in this window: a new request, or a coalesced one
            // still waiting in `pending` (not one already being staged).
            let mut joined = false;
            let entries = reqs
                .into_iter()
                .map(|mut p| match map.get(&p.req.st) {
                    Some(e) => {
                        h.metrics.coalesced_fetches.inc();
                        joined |= e.epoch == q.epoch;
                        (Arc::clone(e), true)
                    }
                    None => {
                        let e = Arc::new(Inflight {
                            epoch: q.epoch,
                            ..Inflight::default()
                        });
                        map.insert(p.req.st, Arc::clone(&e));
                        p.enqueue_s = enqueue_s;
                        q.pending.push(p);
                        joined = true;
                        (e, false)
                    }
                })
                .collect();
            if joined {
                q.queued_sessions += 1;
                self.arrived.notify_all();
            }
            entries
        };
        while let Some((entry, _)) = entries.iter().find(|(e, _)| e.slot.lock().is_none()) {
            match self.drain.try_lock() {
                // Re-check under the seat: the drainer it was just taken
                // from may have resolved the entry.
                Some(_drainer) if entry.slot.lock().is_none() => {
                    // Requeued retries and replica failovers are staged
                    // before the drainer seat is vacated, so their
                    // coalesced waiters are never stranded behind an empty
                    // election. New arrivals wait for the next window.
                    let mut batch = self.next_batch();
                    while !batch.is_empty() {
                        self.drain_all(h, batch);
                        batch = std::mem::take(&mut self.queue.lock().requeued);
                    }
                }
                Some(_) => {}
                None => {
                    let slot = entry.slot.lock();
                    if slot.is_none() {
                        // Timed wait: if the drainer vacated between our
                        // slot check and this park, the timeout re-runs
                        // the drainer election above.
                        let _ = entry.done.wait_for(slot, Duration::from_millis(1));
                    }
                }
            }
        }
        entries
            .into_iter()
            .map(|(e, coalesced)| (e.slot.lock().clone().expect("resolved"), coalesced))
            .collect()
    }

    /// Wait out the batching window on the arrival condvar, then take the
    /// queued batch. The window closes as soon as every open session has
    /// a request queued — no peer is left to join — or when it runs out,
    /// which bounds the wait for a session that is busy elsewhere or idle
    /// between queries. Peers enqueue freely while the drainer sleeps —
    /// the queue lock is released inside `wait_for` — and a closing
    /// session notifies the condvar too.
    fn next_batch(&self) -> Vec<PendingFetch> {
        let deadline = Instant::now() + self.window;
        let mut q = self.queue.lock();
        while q.queued_sessions < q.live_sessions {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            q = self.arrived.wait_for(q, deadline - now).0;
        }
        q.queued_sessions = 0;
        q.epoch += 1;
        std::mem::take(&mut q.pending)
    }

    /// Count a newly opened session (see [`FetchBatcher::next_batch`]).
    fn open_session(&self) {
        self.queue.lock().live_sessions += 1;
    }

    /// Uncount a closed session; a drainer waiting for it stops waiting.
    fn close_session(&self) {
        self.queue.lock().live_sessions -= 1;
        self.arrived.notify_all();
    }

    /// Stage `reqs` in one scheduled sweep and resolve the waiters.
    /// Transient failures requeue (with their coalesced waiters intact —
    /// the inflight entry survives); failures resolve the affected
    /// entries (nobody is left parked on a fetch that will never
    /// complete).
    fn drain_all(&self, h: &ConcurrentHeaven, mut reqs: Vec<PendingFetch>) {
        let mut store = h.store.lock();
        // Stall watchdog: each drain pass is one batching window; a fetch
        // still pending past `stall_window_mult` passes (it keeps
        // requeueing through the retry/failover ladder) is flagged once.
        // The count of passes is interleaving-independent, so seeded
        // chaos runs flag identical stalls.
        let stall_after = match h.config.stall_window_mult {
            m if m > 0.0 => m.ceil() as u32,
            _ => u32::MAX,
        };
        for p in reqs.iter_mut() {
            p.drains += 1;
            if p.drains > stall_after && !p.stalled {
                p.stalled = true;
                h.metrics.stalls.inc();
                let now_s = store.clock().now_s();
                h.bus.event(
                    "sched.stall",
                    now_s,
                    &[
                        ("st", p.req.st.into()),
                        ("medium", p.req.addr.medium.into()),
                        ("drains", (p.drains as u64).into()),
                        ("waited_s", (now_s - p.enqueue_s).max(0.0).into()),
                        ("replica", (p.on_replica as u64).into()),
                    ],
                );
            }
        }
        // Retried requests owe their backoff before re-reading; the whole
        // batch backs off in parallel, so one charge (the largest) covers
        // the drain.
        let max_attempt = reqs.iter().map(|p| p.attempt).max().unwrap_or(0);
        if max_attempt > 0 {
            store
                .clock()
                .advance_s(h.config.retry.backoff_s(max_attempt));
        }
        let by_st: HashMap<SuperTileId, PendingFetch> =
            reqs.iter().map(|p| (p.req.st, *p)).collect();
        let plain: Vec<FetchRequest> = reqs.iter().map(|p| p.req).collect();
        let mounted = store.library().mounted_media();
        let order = if h.config.scheduling {
            schedule(&plain, &mounted)
        } else {
            plain
        };
        h.metrics.batches.inc();
        h.metrics.batched_fetches.add(order.len() as u64);
        let drives = store.library().drive_count();
        let rounds = plan_drive_rounds(&order, drives);
        // The batch is a span (not an event) so waiter fetch spans can
        // link to it: `sched.batch` is the shared cause every coalesced
        // session's latency traces back to.
        let batch_span = h.bus.span_start(
            "sched.batch",
            store.clock().now_s(),
            &[
                ("fetches", order.len().into()),
                ("rounds", rounds.len().into()),
                ("max_attempt", (max_attempt as u64).into()),
            ],
        );
        for round in rounds {
            // One drive per group: run each group on a detached clock lane
            // and land the slowest lane on the shared timeline, so groups
            // transfer in parallel but errors stay per-request.
            let t0 = store.clock().now_s();
            let mut window = 0.0f64;
            let mut results: Vec<(FetchRequest, std::result::Result<Bytes, HsmError>)> =
                Vec::with_capacity(round.iter().map(Vec::len).sum());
            for group in &round {
                let (res, dt) = store.library_mut().run_detached(|lib| {
                    group
                        .iter()
                        .map(|r| {
                            let read = lib
                                .read(r.addr.medium, r.addr.offset, r.addr.len)
                                .map_err(HsmError::from);
                            (*r, read)
                        })
                        .collect::<Vec<_>>()
                });
                results.extend(res);
                window = window.max(dt);
            }
            store.clock().advance_to_s(t0 + window);
            let done_s = store.clock().now_s();
            for (r, res) in results {
                let p = by_st.get(&r.st).copied().unwrap_or(PendingFetch {
                    req: r,
                    attempt: 0,
                    on_replica: false,
                    replica: None,
                    checksum: None,
                    enqueue_s: t0,
                    drains: 1,
                    stalled: false,
                });
                match res {
                    Ok(raw) => {
                        if let Some(sum) = p.checksum {
                            if checksum64(&raw) != sum {
                                // Persistent corruption on this copy: no
                                // same-copy retry, straight to the replica.
                                h.recovery.checksum_failures.inc();
                                h.bus.event(
                                    "hsm.checksum_failure",
                                    done_s,
                                    &[
                                        ("st", r.st.into()),
                                        ("medium", r.addr.medium.into()),
                                        ("replica", (p.on_replica as u64).into()),
                                    ],
                                );
                                self.fail_over(h, p);
                                continue;
                            }
                        }
                        h.metrics.st_tape_fetches.inc();
                        h.metrics.st_tape_bytes.add(r.addr.len);
                        let refetch = store.estimate_read_s(r.addr);
                        match h.maybe_decompress(r.st, raw) {
                            Ok(payload) => {
                                h.st_cache.put(r.st, payload.clone(), refetch);
                                // Decompose the fetch's latency: queue =
                                // enqueue → this round's staging start
                                // (backoffs and earlier passes included),
                                // service = staging start → notify.
                                let queue_s = (t0 - p.enqueue_s).max(0.0);
                                let service_s = (done_s - t0).max(0.0);
                                h.metrics.queue_wait.observe(queue_s);
                                h.metrics.service.observe(service_s);
                                self.resolve(
                                    r.st,
                                    Ok(Served {
                                        payload,
                                        done_s,
                                        queue_s,
                                        service_s,
                                        batch_span,
                                    }),
                                );
                            }
                            Err(e) => self.resolve(r.st, Err(FetchFailure::Other(e.to_string()))),
                        }
                    }
                    Err(HsmError::Tape(te)) if te.is_transient() => {
                        if matches!(te, TapeError::DriveFailed { .. }) {
                            // The next drain's mount picks a healthy drive.
                            h.recovery.failovers.inc();
                        }
                        if p.attempt < h.config.retry.max_retries {
                            h.recovery.retries.inc();
                            self.requeue(
                                h,
                                PendingFetch {
                                    attempt: p.attempt + 1,
                                    ..p
                                },
                            );
                        } else {
                            self.fail_over(h, p);
                        }
                    }
                    Err(e) => self.resolve(r.st, Err(FetchFailure::Other(e.to_string()))),
                }
            }
        }
        h.bus.span_end(batch_span, store.clock().now_s());
    }

    /// Move a request to its second archive copy, or declare the
    /// super-tile lost when there is none (or the replica failed too).
    fn fail_over(&self, h: &ConcurrentHeaven, p: PendingFetch) {
        if !p.on_replica {
            if let Some(r) = p.replica {
                self.requeue(
                    h,
                    PendingFetch {
                        req: FetchRequest {
                            st: p.req.st,
                            addr: r,
                        },
                        attempt: 0,
                        on_replica: true,
                        ..p
                    },
                );
                return;
            }
        }
        h.recovery.media_lost.inc();
        h.bus.event(
            "hsm.media_lost",
            h.clock.now_s(),
            &[("st", p.req.st.into())],
        );
        self.resolve(p.req.st, Err(FetchFailure::MediaLost(p.req.st)));
    }

    /// Put a request back in the queue for the next drain iteration. The
    /// inflight entry stays, so every coalesced waiter keeps waiting on
    /// the same slot — nobody is dropped or double-notified.
    fn requeue(&self, h: &ConcurrentHeaven, p: PendingFetch) {
        h.metrics.requeued_fetches.inc();
        h.bus.event(
            "sched.requeue",
            h.clock.now_s(),
            &[
                ("st", p.req.st.into()),
                ("attempt", (p.attempt as u64).into()),
                ("replica", (p.on_replica as u64).into()),
            ],
        );
        self.queue.lock().requeued.push(p);
    }

    fn resolve(&self, st: SuperTileId, outcome: Outcome) {
        let entry = self.inflight.lock().remove(&st);
        if let Some(e) = entry {
            let mut slot = e.slot.lock();
            debug_assert!(slot.is_none(), "double notify on super-tile {st}");
            *slot = Some(outcome);
            e.done.notify_all();
        }
    }
}

/// The `Send + Sync` multi-session HEAVEN system.
///
/// Built from a fully assembled [`Heaven`] via
/// [`Heaven::into_concurrent`]. Query state that sessions share mutably
/// sits behind interior synchronization: the array DBMS and the tape
/// store behind mutexes (the DBMS for its buffer pool, the store because
/// the tape library is physically serial), the catalog behind a reader/
/// writer lock (read-mostly), and both caches lock-striped internally.
#[derive(Debug)]
pub struct ConcurrentHeaven {
    adb: Mutex<ArrayDb>,
    store: Mutex<DirectStore>,
    catalog: RwLock<SuperTileCatalog>,
    tile_cache: TileCache,
    st_cache: SuperTileCache,
    batcher: FetchBatcher,
    config: HeavenConfig,
    registry: MetricsRegistry,
    bus: TraceBus,
    clock: SimClock,
    metrics: ConcMetrics,
    recovery: RecoveryMetrics,
    /// Monotone session-id source; ids key trace records (`"session":N`)
    /// and the profiler's per-session lanes.
    next_session: AtomicU64,
}

impl ConcurrentHeaven {
    /// Convert a built system (see [`Heaven::into_concurrent`]).
    pub fn from_heaven(heaven: Heaven) -> ConcurrentHeaven {
        let (adb, store, catalog, tile_cache, st_cache, config, registry, bus) =
            heaven.into_concurrent_parts();
        let clock = store.clock();
        let metrics = ConcMetrics::new(&registry);
        let recovery = RecoveryMetrics::new(&registry);
        ConcurrentHeaven {
            adb: Mutex::new(adb),
            store: Mutex::new(store),
            catalog: RwLock::new(catalog),
            tile_cache,
            st_cache,
            batcher: FetchBatcher::new(Duration::from_millis(2)),
            config,
            registry,
            bus,
            clock,
            metrics,
            recovery,
            next_session: AtomicU64::new(1),
        }
    }

    /// Open a query session with its own simulated-time lane (forked at
    /// the shared clock's current instant) and a fresh session id for
    /// trace attribution. Dropping the session re-joins the shared
    /// timeline.
    pub fn session(&self) -> Session<'_> {
        self.batcher.open_session();
        Session {
            h: self,
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            lane: self.clock.fork(),
        }
    }

    /// The batching window: the longest (host time) a drainer waits for
    /// open peer sessions to enqueue before staging the merged batch; it
    /// stages earlier once every open session has a request queued. Zero
    /// disables the wait (requests still coalesce when they genuinely
    /// overlap).
    pub fn set_batch_window(&mut self, window: Duration) {
        self.batcher.window = window;
    }

    /// Arm (or disarm, with `None`) deterministic fault injection on the
    /// shared library — the concurrent twin of [`Heaven::set_fault_plan`].
    pub fn set_fault_plan(&self, config: Option<heaven_tape::FaultConfig>) {
        self.store.lock().library_mut().set_fault_plan(config);
    }

    /// The shared simulated clock (re-joined by every finished session).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace bus (span/event/link stream keyed to simulated time).
    pub fn trace(&self) -> &TraceBus {
        &self.bus
    }

    /// The active configuration.
    pub fn config(&self) -> &HeavenConfig {
        &self.config
    }

    /// Tertiary-storage statistics.
    pub fn tape_stats(&self) -> TapeStats {
        self.store.lock().stats()
    }

    /// Fault-injection statistics of the shared library.
    pub fn fault_stats(&self) -> heaven_tape::FaultStats {
        self.store.lock().library().fault_stats()
    }

    /// Disk super-tile cache statistics.
    pub fn st_cache_stats(&self) -> CacheStats {
        self.st_cache.stats()
    }

    /// Memory tile cache statistics.
    pub fn tile_cache_stats(&self) -> CacheStats {
        self.tile_cache.stats()
    }

    /// Clear both cache levels (between experiment phases).
    pub fn clear_caches(&self) {
        self.tile_cache.clear();
        self.st_cache.clear();
    }

    /// Undo payload compression on wire bytes read from tape (zero-copy
    /// when compression is off or the payload shipped raw) — the
    /// concurrent twin of `Heaven::maybe_decompress`. The catalogued
    /// uncompressed length of `st` disambiguates untagged raw
    /// pass-through from legacy pre-frame RLE streams.
    fn maybe_decompress(&self, st: SuperTileId, bytes: Bytes) -> Result<Bytes> {
        if !self.config.compress {
            return Ok(bytes);
        }
        let expected = self.catalog.read().meta(st)?.total_len;
        let (out, codec) = heaven_array::decode_wire(&bytes, expected)
            .map_err(|e| HeavenError::Codec(format!("corrupt compressed super-tile: {e}")))?;
        if codec != heaven_array::Codec::Raw {
            self.metrics.bytes_copied.add(out.len() as u64);
        }
        Ok(out)
    }

    /// Record the memcpy performed by patching `src` into `out`.
    fn note_patch_copy(&self, out: &MDArray, src: &MDArray) {
        if let Some(ov) = out.domain().intersection(src.domain()) {
            self.metrics
                .bytes_copied
                .add(ov.cell_count() * out.cell_type().size_bytes() as u64);
        }
    }
}

/// One query session: a handle on the shared system plus a private
/// simulated-time lane. Overlappable work (disk-cache I/O, decode) is
/// charged to the lane; the shared tape library charges the shared clock
/// and waiters fast-forward their lanes to the staging completion.
#[derive(Debug)]
pub struct Session<'h> {
    h: &'h ConcurrentHeaven,
    id: u64,
    lane: SimClock,
}

impl Session<'_> {
    /// This session's current simulated time.
    pub fn now_s(&self) -> f64 {
        self.lane.now_s()
    }

    /// This session's trace id (stamped as `"session":N` on its records).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's private clock lane.
    pub fn lane(&self) -> &SimClock {
        &self.lane
    }

    /// Materialize `region` of `oid` across the hierarchy — the
    /// multi-session twin of [`Heaven::fetch_region_hierarchical`].
    ///
    /// Opens a root `query` span stamped with this session's id, and
    /// observes `heaven.query_latency_s` with the span as the histogram
    /// exemplar — so a slow Prometheus bucket names the concrete trace
    /// to chase. (Plain `span_start`, not the sampling bracket: head
    /// sampling's divert flag is bus-global and concurrent sessions
    /// would race it.)
    pub fn fetch_region(&self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        self.h.metrics.region_fetches.inc();
        self.h.bus.set_session(self.id);
        let start_s = self.lane.now_s();
        let span = self
            .h
            .bus
            .span_start("query", start_s, &[("oid", oid.into())]);
        let res = self.fetch_region_inner(oid, region);
        let end_s = self.lane.now_s();
        self.h.bus.span_end(span, end_s);
        self.h
            .metrics
            .query_latency
            .observe_with_exemplar((end_s - start_s).max(0.0), span, span);
        res
    }

    fn fetch_region_inner(&self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        let meta = self.h.adb.lock().object(oid)?.clone();
        let target = meta.domain.intersection(region).ok_or_else(|| {
            HeavenError::Config(format!(
                "region {region} outside object domain {}",
                meta.domain
            ))
        })?;
        let mut out = MDArray::zeros(target.clone(), meta.cell_type);
        let mut pending: BTreeMap<SuperTileId, Vec<TileId>> = BTreeMap::new();
        for tid in meta.tiles_intersecting(&target) {
            if let Some(t) = self.h.tile_cache.get(tid) {
                self.h.note_patch_copy(&out, &t.data);
                out.patch(&t.data)?;
                continue;
            }
            let loc = self.h.adb.lock().tile_location(tid)?;
            match loc {
                TileLocation::Disk => {
                    let t = self.h.adb.lock().read_tile(tid)?;
                    self.h.note_patch_copy(&out, &t.data);
                    out.patch(&t.data)?;
                    self.h.tile_cache.put(t);
                }
                TileLocation::Exported => {
                    let st = self.h.catalog.read().supertile_of(tid)?;
                    pending.entry(st).or_default().push(tid);
                }
            }
        }
        let sts: Vec<SuperTileId> = pending.keys().copied().collect();
        let payloads = self.supertile_payloads(&sts)?;
        for ((st, tids), payload) in pending.into_iter().zip(payloads) {
            let meta_st = self.h.catalog.read().meta(st)?.clone();
            for tid in tids {
                let t = decode_member(&meta_st, &payload, tid)?;
                self.h.note_patch_copy(&out, &t.data);
                out.patch(&t.data)?;
                self.h.tile_cache.put(t);
            }
        }
        Ok(out)
    }

    /// Stage the payloads of one query's super-tiles `sts`, in order:
    /// striped-cache hits are charged to this session's lane, and the
    /// misses go to tertiary storage — all of them as **one** cross-session
    /// batch request, or one by one over per-session FIFO when batching is
    /// off. Either path runs the full recovery ladder (retry, failover,
    /// dual-copy) under faults; on the batched path a failed super-tile
    /// fails the query only once every one of its fetches has resolved.
    ///
    /// Each tertiary fetch gets a `heaven.st_fetch` span. On the batched
    /// path the span **links** to the shared `sched.batch` span that
    /// staged the payload (the cross-session causal edge) and emits a
    /// `sched.served` event carrying the queue/service decomposition, so
    /// `heaven-prof critical-path` can attribute this session's wait to
    /// the shared fetch. The lane ends at the latest completion.
    fn supertile_payloads(&self, sts: &[SuperTileId]) -> Result<Vec<Bytes>> {
        let mut out: Vec<Option<Bytes>> = sts
            .iter()
            .map(|&st| self.h.st_cache.get_clocked(st, &self.lane))
            .collect();
        let mut misses = Vec::new();
        for (i, &st) in sts.iter().enumerate().filter(|&(i, _)| out[i].is_none()) {
            let cat = self.h.catalog.read();
            let p = PendingFetch {
                req: FetchRequest {
                    st,
                    addr: cat.address(st)?,
                },
                attempt: 0,
                on_replica: false,
                replica: cat.replica(st),
                checksum: cat.checksum(st),
                enqueue_s: 0.0, // stamped at registration, under the lock
                drains: 0,
                stalled: false,
            };
            misses.push((i, p));
        }
        let batched = self.h.config.cross_session_batching;
        let open_span = |st: SuperTileId| {
            self.h.bus.span_start(
                "heaven.st_fetch",
                self.lane.now_s(),
                &[("st", st.into()), ("batched", (batched as u64).into())],
            )
        };
        if !batched {
            for (i, p) in misses {
                let span = open_span(p.req.st);
                let res = self.fifo_payload(p);
                self.h.bus.span_end(span, self.lane.now_s());
                out[i] = Some(res?);
            }
        } else if !misses.is_empty() {
            let (slots, reqs): (Vec<usize>, Vec<PendingFetch>) = misses.into_iter().unzip();
            let mut failed = None;
            for (i, (outcome, coalesced)) in
                slots.into_iter().zip(self.h.batcher.fetch(self.h, reqs))
            {
                let st = sts[i];
                let span = open_span(st);
                match outcome {
                    Ok(served) => {
                        self.h.bus.link(
                            "sched.link",
                            served.done_s,
                            span,
                            served.batch_span,
                            &[("st", st.into()), ("coalesced", (coalesced as u64).into())],
                        );
                        self.h.bus.event(
                            "sched.served",
                            served.done_s,
                            &[
                                ("st", st.into()),
                                ("queue_s", served.queue_s.into()),
                                ("service_s", served.service_s.into()),
                                ("batch", served.batch_span.into()),
                                ("coalesced", (coalesced as u64).into()),
                            ],
                        );
                        self.lane.advance_to_s(served.done_s);
                        out[i] = Some(served.payload);
                    }
                    Err(f) => {
                        failed.get_or_insert(f);
                    }
                }
                self.h.bus.span_end(span, self.lane.now_s());
            }
            if let Some(f) = failed {
                return Err(f.into_error());
            }
        }
        Ok(out.into_iter().map(|p| p.expect("staged")).collect())
    }

    /// The per-session FIFO tertiary path: mount-and-read in request
    /// order, holding the store for the whole access (the baseline the
    /// batcher is measured against). Queue time is zero by construction;
    /// the whole access is service time.
    fn fifo_payload(&self, p: PendingFetch) -> Result<Bytes> {
        let FetchRequest { st, addr } = p.req;
        let mut store = self.h.store.lock();
        let t0 = store.clock().now_s();
        let raw = read_with_recovery(
            &mut store,
            st,
            addr,
            p.replica,
            p.checksum,
            &self.h.config.retry,
            &self.h.recovery,
            &self.h.bus,
        )?;
        self.h.metrics.st_tape_fetches.inc();
        self.h.metrics.st_tape_bytes.add(addr.len);
        let refetch = store.estimate_read_s(addr);
        let done_s = store.clock().now_s();
        drop(store);
        let payload = self.h.maybe_decompress(st, raw)?;
        self.h.st_cache.put(st, payload.clone(), refetch);
        let service_s = (done_s - t0).max(0.0);
        self.h.metrics.queue_wait.observe(0.0);
        self.h.metrics.service.observe(service_s);
        self.h.bus.event(
            "sched.served",
            done_s,
            &[
                ("st", st.into()),
                ("queue_s", 0.0.into()),
                ("service_s", service_s.into()),
                ("batch", 0u64.into()),
                ("coalesced", 0u64.into()),
            ],
        );
        self.lane.advance_to_s(done_s);
        Ok(payload)
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // Re-join the shared timeline: the epoch ends when the slowest
        // overlapped lane ends.
        self.h.clock.advance_to_s(self.lane.now_s());
        self.h.batcher.close_session();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_heaven_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentHeaven>();
        assert_send_sync::<Session<'static>>();
        assert_send_sync::<FetchBatcher>();
    }
}
