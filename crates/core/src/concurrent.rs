//! The retrieval engine: one `&self` path across memory, disk cache and
//! tape (paper §3.5.2), shared by the single owner and every session.
//!
//! [`ConcurrentHeaven`] holds all the state a query reads: the array DBMS
//! and the tape store behind mutexes (the DBMS for its buffer pool, the
//! store because the tape library is physically serial), the super-tile
//! catalog (plain: nothing writes it while sessions can exist, since
//! catalog writers need `&mut Heaven`), both lock-striped caches, the
//! cross-session batcher and one set of metric handles. [`Heaven`] is
//! this engine plus the state only a single owner has (precomputed
//! results, the persistent catalog, the query bracket) and
//! reaches it through `Deref`; [`Heaven::into_concurrent`] hands the
//! engine out on its own.
//!
//! Every query, and every batch of queries, goes through one staging pass
//! (plan the tiles into slots, stage the missed super-tiles once, deliver
//! the slots in grid order), and every tertiary payload — demand, batch,
//! prefetch or drainer — enters the hierarchy through one admission step
//! that counts the fetch, observes the fetch histograms, decompresses and
//! caches. Two staging modes sit under the pass:
//!
//! * **Direct** — the single owner's path, also taken by sessions with
//!   [`HeavenConfig::cross_session_batching`] off: the pass's misses are
//!   ordered per pass (`heaven.schedule` event), read one super-tile at a
//!   time (member-only reads on random-access media), and followed by
//!   prefetch.
//! * **Batched** — a session enqueues its query's whole super-tile miss
//!   set ([`FetchRequest`]s) with the [`FetchBatcher`] in one call and
//!   waits once, so a query costs at most one batching window however
//!   many super-tiles it misses. One waiting session becomes the
//!   *drainer*, waits for peers to pile on (a condvar handoff — the
//!   window closes as soon as every open session has a request queued,
//!   so no peer is left to join, or when it runs out), then stages the
//!   merged batch in one scheduled sweep (mounted-media first, ascending
//!   offsets, drive-parallel rounds). A drainer that vacates its seat
//!   wakes the sessions that queued behind it, so the next drainer is
//!   elected at once, not after a timed wait. Which requests share a
//!   batch therefore depends on what the sessions ask for, not on
//!   thread timing, as long as every open session keeps querying.
//!   Duplicate super-tile requests **coalesce**: one tape fetch resolves
//!   every waiting session (`sched.coalesced_fetches` counts the saved
//!   fetches).
//!
//! Each [`Session`] forks the shared [`SimClock`] into a private lane and
//! charges its overlappable work (disk-cache reads, decode) there;
//! dropping the session re-joins the shared timeline with `advance_to_s`,
//! so the simulated makespan of N concurrent sessions is the slowest
//! lane, not the sum. The single owner runs on the shared clock itself.
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
//!
//! [`Heaven`]: crate::system::Heaven
//! [`Heaven::into_concurrent`]: crate::system::Heaven::into_concurrent

use crate::cache::{CacheStats, SuperTileCache, TileCache};
use crate::catalog::SuperTileCatalog;
use crate::config::{HeavenConfig, PrefetchPolicy};
use crate::error::{HeavenError, Result};
use crate::recovery::{read_with_recovery, RecoveryMetrics};
use crate::scheduler::{count_exchanges, fetch_order, plan_drive_rounds, FetchRequest};
use crate::sizing::optimal_supertile_size;
use crate::supertile::{checksum64, decode_member, SuperTileId, SuperTileMeta};
use crate::system::HeavenStats;
use bytes::Bytes;
use heaven_array::mdd::copy_region;
use heaven_array::{CellType, Codec, MDArray, Minterval, ObjectId, Tile, TileId};
use heaven_arraydb::{visit_clip, ArrayDb, TileLocation, Visitor};
use heaven_hsm::{BlockAddress, DirectStore, HsmError};
use heaven_obs::{Counter, FloatCounter, Histogram, MetricsRegistry, TraceBus};
use heaven_tape::{DiskProfile, MediumId, SimClock, TapeError, TapeLibrary, TapeStats};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The exported misses of one staging pass.
#[derive(Default)]
struct Misses {
    /// `(slot, tile)` pairs by super-tile, the slot being the tile's index
    /// in the pass's slot vector. Sorted by tile, so a tile that several
    /// targets miss forms one run (see [`tile_runs`]).
    by_st: BTreeMap<SuperTileId, Vec<(usize, TileId)>>,
    /// The missed super-tiles in the order the pass first needs them: the
    /// arrival order of [`fetch_order`].
    arrival: Vec<SuperTileId>,
}

/// What a region access needs of its object.
struct Target {
    oid: ObjectId,
    /// The requested region ∩ the object's domain.
    region: Minterval,
    /// The object's tiles that meet `region`, in grid order.
    tiles: Vec<TileId>,
    cell_type: CellType,
}

/// Deliver a target's staged `slots` in grid order: `f(clip, tile)` once
/// per tile that meets the region.
fn deliver(target: &Target, slots: &[Option<Arc<Tile>>], f: &mut Visitor) -> Result<()> {
    for (slot, &tid) in slots.iter().zip(&target.tiles) {
        let t = slot.as_ref().ok_or(HeavenError::TileUnlocated(tid))?;
        visit_clip(&target.region, &t.data, f)?;
    }
    Ok(())
}

/// A super-tile's members in runs of one tile each.
fn tile_runs(members: &[(usize, TileId)]) -> impl Iterator<Item = &[(usize, TileId)]> {
    members.chunk_by(|a, b| a.1 == b.1)
}

/// Metric handles of the whole retrieval path; the registry is the source
/// of truth and [`HeavenStats`] is reconstructed from it on demand.
#[derive(Debug, Clone)]
pub(crate) struct HeavenMetrics {
    st_tape_fetches: Counter,
    st_tape_bytes: Counter,
    prefetches: Counter,
    prefetch_s: FloatCounter,
    prefetch_bytes: Counter,
    region_fetches: Counter,
    pub(crate) bytes_copied: Counter,
    /// Wire bytes saved by super-tile compression (payload − wire, when
    /// the encoded form is smaller).
    pub(crate) codec_bytes_saved: Counter,
    /// Super-tile payloads shipped as raw pass-through.
    pub(crate) codec_raw: Counter,
    /// Super-tile payloads encoded with plain RLE.
    pub(crate) codec_rle: Counter,
    /// Super-tile payloads encoded with byte-shuffle + RLE.
    pub(crate) codec_shuffle: Counter,
    /// Queries whose per-level attribution exceeded the observed clock
    /// delta (overlapping spans); their `other_s` was clamped to zero.
    pub(crate) breakdown_overattributed: Counter,
    /// End-to-end query latency distribution (simulated seconds), with
    /// the query span as the exemplar.
    pub(crate) query_latency: Histogram,
    /// Tertiary super-tile fetch duration distribution (simulated s).
    st_fetch_hist: Histogram,
    /// Tertiary super-tile fetch size distribution (bytes).
    st_fetch_bytes_hist: Histogram,
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
    /// Per batched fetch: simulated seconds between enqueueing and the
    /// start of the staging round that served it (includes retry backoff
    /// and earlier drain passes the fetch requeued through).
    queue_wait: Histogram,
    /// Per batched fetch: simulated seconds from staging start to waiter
    /// notification (mount + locate + transfer of its round).
    service: Histogram,
}

impl HeavenMetrics {
    fn new(registry: &MetricsRegistry) -> HeavenMetrics {
        let query_latency = registry.histogram("heaven.query_latency_s");
        // Pre-size the exemplar table so the per-query exemplar write
        // stays allocation-free.
        query_latency.reserve_exemplars();
        HeavenMetrics {
            st_tape_fetches: registry.counter("heaven.st_tape_fetches"),
            st_tape_bytes: registry.counter("heaven.st_tape_bytes"),
            prefetches: registry.counter("heaven.prefetches"),
            prefetch_s: registry.fcounter("heaven.prefetch_s"),
            prefetch_bytes: registry.counter("heaven.prefetch_bytes"),
            region_fetches: registry.counter("heaven.region_fetches"),
            bytes_copied: registry.counter("heaven.bytes_copied"),
            codec_bytes_saved: registry.counter("heaven.codec_bytes_saved"),
            codec_raw: registry.counter("heaven.codec_raw"),
            codec_rle: registry.counter("heaven.codec_rle"),
            codec_shuffle: registry.counter("heaven.codec_shuffle"),
            breakdown_overattributed: registry.counter("heaven.breakdown_overattributed"),
            query_latency,
            st_fetch_hist: registry.histogram("heaven.st_fetch_hist_s"),
            st_fetch_bytes_hist: registry.histogram("heaven.st_fetch_bytes"),
            coalesced_fetches: registry.counter("sched.coalesced_fetches"),
            batches: registry.counter("sched.batches"),
            batched_fetches: registry.counter("sched.batched_fetches"),
            requeued_fetches: registry.counter("sched.requeued_fetches"),
            stalls: registry.counter("sched.stalls"),
            queue_wait: registry.histogram("sched.queue_wait_s"),
            service: registry.histogram("sched.service_s"),
        }
    }

    fn stats(&self) -> HeavenStats {
        HeavenStats {
            st_tape_fetches: self.st_tape_fetches.get(),
            st_tape_bytes: self.st_tape_bytes.get(),
            prefetches: self.prefetches.get(),
            prefetch_s: self.prefetch_s.get(),
            prefetch_bytes: self.prefetch_bytes.get(),
            region_fetches: self.region_fetches.get(),
            bytes_copied: self.bytes_copied.get(),
        }
    }

    /// Count one tertiary fetch of `bytes` that took `dt` simulated
    /// seconds (a whole payload or a sparse member read).
    fn note_tape_fetch(&self, bytes: u64, dt: f64) {
        self.st_tape_fetches.inc();
        self.st_tape_bytes.add(bytes);
        self.st_fetch_bytes_hist.observe(bytes as f64);
        self.st_fetch_hist.observe(dt);
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
/// `done` is signalled when the slot is filled, and when a drainer
/// vacates its seat with the fetch still unresolved.
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
    /// Bumped when a drainer starts staging and again just before it
    /// vacates the seat: odd while a drain is under way.
    seat: AtomicU64,
}

impl FetchBatcher {
    fn new(window: Duration) -> FetchBatcher {
        FetchBatcher {
            queue: Mutex::new(BatchQueue::default()),
            arrived: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            drain: Mutex::new(()),
            window,
            seat: AtomicU64::new(0),
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
                Some(drainer) if entry.slot.lock().is_none() => {
                    self.seat.fetch_add(1, Ordering::AcqRel);
                    // Requeued retries and replica failovers are staged
                    // before the drainer seat is vacated, so their
                    // coalesced waiters are never stranded behind an empty
                    // election. New arrivals wait for the next window.
                    let mut batch = self.next_batch();
                    while !batch.is_empty() {
                        self.drain_all(h, batch);
                        batch = std::mem::take(&mut self.queue.lock().requeued);
                    }
                    self.seat.fetch_add(1, Ordering::AcqRel);
                    drop(drainer);
                    // Sessions that queued while this drain ran sleep
                    // only behind it: wake them to elect the next drainer.
                    for e in self.inflight.lock().values() {
                        let _slot = e.slot.lock();
                        e.done.notify_all();
                    }
                }
                Some(_) => {}
                None => {
                    let seat = self.seat.load(Ordering::Acquire);
                    if seat.is_multiple_of(2) {
                        // The seat is held only for an election: retry.
                        std::hint::spin_loop();
                        continue;
                    }
                    // Sleep only behind the drain seen above: it wakes
                    // every unresolved entry after it vacates, and the
                    // slot lock held from this check to the park keeps
                    // that wake-up from slipping in between. The timeout
                    // is a backstop.
                    let slot = entry.slot.lock();
                    if slot.is_none() && self.seat.load(Ordering::Acquire) == seat {
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
        let order = fetch_order(&plain, h.config.scheduling, &mounted);
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
                        // Decompose the fetch's latency: queue =
                        // enqueue → this round's staging start (backoffs
                        // and earlier passes included), service =
                        // staging start → notify.
                        let queue_s = (t0 - p.enqueue_s).max(0.0);
                        let service_s = (done_s - t0).max(0.0);
                        let refetch_s = store.refetch_cost_s(r.addr);
                        match h.admit(r.st, r.addr, raw, service_s, refetch_s) {
                            Ok(payload) => {
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

/// The `Send + Sync` HEAVEN retrieval engine.
///
/// Obtained from a built system with [`Heaven::into_concurrent`], or used
/// in place through a [`Heaven`] (which dereferences to it). Sessions
/// opened with [`ConcurrentHeaven::session`] need only `&self`.
///
/// [`Heaven`]: crate::system::Heaven
/// [`Heaven::into_concurrent`]: crate::system::Heaven::into_concurrent
#[derive(Debug)]
pub struct ConcurrentHeaven {
    pub(crate) adb: Mutex<ArrayDb>,
    pub(crate) store: Mutex<DirectStore>,
    pub(crate) catalog: SuperTileCatalog,
    pub(crate) tile_cache: TileCache,
    pub(crate) st_cache: SuperTileCache,
    batcher: FetchBatcher,
    pub(crate) config: HeavenConfig,
    registry: MetricsRegistry,
    pub(crate) bus: TraceBus,
    clock: SimClock,
    pub(crate) metrics: HeavenMetrics,
    recovery: RecoveryMetrics,
    /// Monotone session-id source; ids key trace records (`"session":N`)
    /// and the profiler's per-session lanes.
    next_session: AtomicU64,
}

impl ConcurrentHeaven {
    /// Assemble the engine from an array DBMS and a tape library: every
    /// subsystem's counters bind into one shared [`MetricsRegistry`], and
    /// the trace bus selected by [`HeavenConfig::trace`] is attached
    /// across the hierarchy.
    pub(crate) fn new(
        mut adb: ArrayDb,
        library: TapeLibrary,
        config: HeavenConfig,
    ) -> ConcurrentHeaven {
        let registry = MetricsRegistry::new();
        let bus = TraceBus::from_config(&config.trace);
        let clock = library.clock().clone();
        let mut st_cache = SuperTileCache::with_shards(
            config.disk_cache_bytes,
            config.eviction,
            Some((DiskProfile::scsi2003(), clock.clone())),
            config.cache_shards,
        );
        st_cache.attach_obs(&registry, bus.clone());
        let mut tile_cache = TileCache::with_shards(config.mem_cache_bytes, config.cache_shards);
        tile_cache.attach_obs(&registry);
        adb.attach_obs(&registry);
        adb.attach_trace(bus.clone());
        let mut store = DirectStore::new(library);
        store.library_mut().attach_obs(&registry, bus.clone());
        ConcurrentHeaven {
            adb: Mutex::new(adb),
            store: Mutex::new(store),
            catalog: SuperTileCatalog::new(),
            tile_cache,
            st_cache,
            batcher: FetchBatcher::new(Duration::from_millis(2)),
            config,
            metrics: HeavenMetrics::new(&registry),
            recovery: RecoveryMetrics::new(&registry),
            registry,
            bus,
            clock,
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
    /// shared library (see [`heaven_tape::FaultConfig`]). Typically
    /// combined with [`HeavenConfig::dual_copy`] so injected failures are
    /// recoverable.
    pub fn set_fault_plan(&self, config: Option<heaven_tape::FaultConfig>) {
        self.store.lock().library_mut().set_fault_plan(config);
    }

    /// The array DBMS (locked for the guard's lifetime).
    pub fn arraydb(&self) -> MutexGuard<'_, ArrayDb> {
        self.adb.lock()
    }

    /// The direct tertiary store (locked for the guard's lifetime).
    pub fn store(&self) -> MutexGuard<'_, DirectStore> {
        self.store.lock()
    }

    /// The super-tile catalog (read-only).
    pub fn catalog(&self) -> &SuperTileCatalog {
        &self.catalog
    }

    /// The shared simulated clock (re-joined by every finished session).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The shared metrics registry holding every subsystem's counters
    /// (tape, HSM, buffer pool, caches, HEAVEN itself).
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

    /// HEAVEN-level statistics (a view over the metrics registry).
    pub fn stats(&self) -> HeavenStats {
        self.metrics.stats()
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

    /// Clear both cache levels (between experiment runs).
    pub fn clear_caches(&self) {
        self.tile_cache.clear();
        self.st_cache.clear();
    }

    /// The effective super-tile target size for export.
    pub fn supertile_target(&self) -> u64 {
        self.config.supertile_bytes.unwrap_or_else(|| {
            optimal_supertile_size(
                self.store.lock().library().profile(),
                self.config.expected_query_bytes,
            )
        })
    }

    // -- the retrieval path (paper §3.5.2) -----------------------------------

    /// What a region access needs of `oid`, read under one DBMS lock.
    fn target_of(&self, oid: ObjectId, region: &Minterval) -> Result<Target> {
        let adb = self.adb.lock();
        let meta = adb.object(oid)?;
        let region = meta.domain.intersection(region).ok_or_else(|| {
            HeavenError::Config(format!(
                "region {region} outside object domain {}",
                meta.domain
            ))
        })?;
        Ok(Target {
            oid,
            tiles: meta.tiles_intersecting(&region),
            region,
            cell_type: meta.cell_type,
        })
    }

    /// Materialize `region` of `oid` across the whole hierarchy. See
    /// [`Self::visit_region_on`].
    pub(crate) fn fetch_region_on(
        &self,
        lane: &SimClock,
        oid: ObjectId,
        region: &Minterval,
        batched: bool,
    ) -> Result<MDArray> {
        let targets = [self.target_of(oid, region)?];
        let slots = self.stage_pass(lane, &targets, batched)?;
        self.assemble(&targets[0], &slots)
    }

    /// Materialize a batch of regions in one direct staging pass (paper
    /// §3.5.3): the tertiary misses of every region are merged,
    /// deduplicated and ordered together, each super-tile is staged once,
    /// and every region that needs it decodes its tiles from that
    /// payload. Results come back in request order.
    pub(crate) fn fetch_regions_on(
        &self,
        lane: &SimClock,
        requests: &[(ObjectId, Minterval)],
    ) -> Result<Vec<MDArray>> {
        let targets = requests
            .iter()
            .map(|(oid, region)| self.target_of(*oid, region))
            .collect::<Result<Vec<_>>>()?;
        let slots = self.stage_pass(lane, &targets, false)?;
        let mut rest = slots.as_slice();
        targets
            .iter()
            .map(|target| {
                let (mine, tail) = rest.split_at(target.tiles.len());
                rest = tail;
                self.assemble(target, mine)
            })
            .collect()
    }

    /// Deliver a target's staged `slots` into one buffer: one copy of
    /// each clip, counted in `heaven.bytes_copied`.
    fn assemble(&self, target: &Target, slots: &[Option<Arc<Tile>>]) -> Result<MDArray> {
        let mut out = MDArray::zeros(target.region.clone(), target.cell_type);
        let cell_bytes = target.cell_type.size_bytes() as u64;
        deliver(target, slots, &mut |clip, src| {
            self.metrics
                .bytes_copied
                .add(clip.cell_count() * cell_bytes);
            copy_region(src, &mut out, clip)
        })?;
        Ok(out)
    }

    /// Visit `region` of `oid` across the whole hierarchy, charging
    /// overlappable work to `lane` (the shared clock for the single
    /// owner, a session's private lane otherwise): `f(clip, tile)` once
    /// per object tile that meets the region, in grid order (the
    /// [`heaven_arraydb::TileProvider::visit_region`] contract). The
    /// tertiary misses go through the cross-session batcher when
    /// `batched`, else through the direct path (per-pass scheduling,
    /// sparse reads, prefetch).
    pub(crate) fn visit_region_on(
        &self,
        lane: &SimClock,
        oid: ObjectId,
        region: &Minterval,
        batched: bool,
        f: &mut Visitor,
    ) -> Result<()> {
        let targets = [self.target_of(oid, region)?];
        let slots = self.stage_pass(lane, &targets, batched)?;
        deliver(&targets[0], &slots, f)
    }

    /// The one staging pass, for one region or a batch of them: **plan**
    /// (classify every target's tiles into slots), then **stage** (one
    /// pass over the missed super-tiles, decoding each payload's members
    /// into every slot that needs them). Returns the slots of all
    /// targets, in target then grid order, for [`deliver`]. So what a
    /// target delivers does not depend on cache state, batching or the
    /// staging path, and a pass fetches no super-tile twice, however
    /// small the disk cache.
    fn stage_pass(
        &self,
        lane: &SimClock,
        targets: &[Target],
        batched: bool,
    ) -> Result<Vec<Option<Arc<Tile>>>> {
        self.metrics.region_fetches.add(targets.len() as u64);
        let (mut slots, misses) = self.plan(targets)?;
        if !misses.arrival.is_empty() {
            if batched {
                let payloads = self.stage_batched(lane, &misses.arrival)?;
                for (st, payload) in misses.arrival.iter().zip(payloads) {
                    let members = &misses.by_st[st];
                    self.decode_members(self.catalog.meta(*st)?, &payload, members, &mut slots)?;
                }
            } else {
                self.stage_direct(lane, &misses, &mut slots)?;
                self.run_prefetch(lane, targets, &misses)?;
            }
        }
        Ok(slots)
    }

    /// Give every tile of `targets` a slot, in target then grid order.
    /// Tile-cache hits and DBMS tiles fill theirs at once; exported tiles
    /// become the pass's [`Misses`].
    fn plan(&self, targets: &[Target]) -> Result<(Vec<Option<Arc<Tile>>>, Misses)> {
        let mut slots = vec![None; targets.iter().map(|t| t.tiles.len()).sum()];
        let mut misses = Misses::default();
        for (i, &tid) in targets.iter().flat_map(|t| &t.tiles).enumerate() {
            if let Some(t) = self.tile_cache.get(tid) {
                slots[i] = Some(t);
                continue;
            }
            let mut adb = self.adb.lock();
            match adb.tile_location(tid)? {
                TileLocation::Disk => {
                    let t = Arc::new(adb.read_tile(tid)?);
                    drop(adb);
                    self.tile_cache.put(Arc::clone(&t));
                    slots[i] = Some(t);
                }
                TileLocation::Exported => {
                    drop(adb);
                    let st = self.catalog.supertile_of(tid)?;
                    let members = misses.by_st.entry(st).or_insert_with(|| {
                        misses.arrival.push(st);
                        Vec::new()
                    });
                    members.push((i, tid));
                }
            }
        }
        for members in misses.by_st.values_mut() {
            members.sort_unstable_by_key(|&(_, tid)| tid);
        }
        Ok((slots, misses))
    }

    /// Decode the `members` of a staged super-tile into their slots, each
    /// tile once.
    fn decode_members(
        &self,
        meta: &SuperTileMeta,
        payload: &Bytes,
        members: &[(usize, TileId)],
        slots: &mut [Option<Arc<Tile>>],
    ) -> Result<()> {
        for run in tile_runs(members) {
            let t = decode_member(meta, payload, run[0].1)?;
            self.fill(slots, run, t);
        }
        Ok(())
    }

    /// Cache a staged tile and hand it to every slot of its `run`.
    fn fill(&self, slots: &mut [Option<Arc<Tile>>], run: &[(usize, TileId)], t: Tile) {
        let t = Arc::new(t);
        self.tile_cache.put(Arc::clone(&t));
        for &(i, _) in run {
            slots[i] = Some(Arc::clone(&t));
        }
    }

    /// The direct path: stage a pass's super-tiles — cached ones first,
    /// then the tape misses in [`fetch_order`] — and decode their members
    /// into `slots`.
    fn stage_direct(
        &self,
        lane: &SimClock,
        misses: &Misses,
        slots: &mut [Option<Arc<Tile>>],
    ) -> Result<()> {
        let (ordered, random_access) = {
            let store = self.store.lock();
            let mut ordered: Vec<SuperTileId> = Vec::new();
            let mut to_fetch = Vec::new();
            for &st in &misses.arrival {
                if self.st_cache.contains(st) {
                    ordered.push(st);
                } else {
                    to_fetch.push(FetchRequest {
                        st,
                        addr: self.catalog.address(st)?,
                    });
                }
            }
            let cached = ordered.len();
            let mounted = store.library().mounted_media();
            let order = fetch_order(&to_fetch, self.config.scheduling, &mounted);
            self.note_schedule(&store, lane, &order, &mounted, cached);
            ordered.extend(order.iter().map(|r| r.st));
            // Partial reads need the uncompressed on-media layout; they
            // also bypass the whole-payload checksum, so under fault
            // injection we fall back to full (verifiable) fetches.
            let random_access = !store.library().profile().linear_seek
                && !self.config.compress
                && !store.faults_enabled();
            (ordered, random_access)
        };
        for st in ordered {
            let meta = self.catalog.meta(st)?;
            let members = &misses.by_st[&st];
            // On random-access media (MO jukeboxes) a sparse request reads
            // only the member tiles, not the whole super-tile — the medium
            // has no locate penalty to amortize (paper §2.2).
            let needed_bytes: u64 = tile_runs(members)
                .filter_map(|run| meta.member(run[0].1))
                .map(|m| m.len)
                .sum();
            if random_access && !self.st_cache.contains(st) && needed_bytes * 2 < meta.total_len {
                self.read_sparse(lane, meta, members, needed_bytes, slots)?;
            } else {
                let payload = self.supertile_payload(lane, st)?;
                self.decode_members(meta, &payload, members, slots)?;
            }
        }
        Ok(())
    }

    /// Emit the scheduler-decision event: how many super-tiles go to tape,
    /// how many are already staged, and the media-exchange estimate for
    /// the chosen order.
    fn note_schedule(
        &self,
        store: &DirectStore,
        lane: &SimClock,
        order: &[FetchRequest],
        mounted: &[MediumId],
        cached: usize,
    ) {
        if !self.bus.is_enabled() || (order.is_empty() && cached == 0) {
            return;
        }
        let est = count_exchanges(order, store.library().drive_count(), mounted);
        let policy = if self.config.scheduling {
            "scheduled"
        } else {
            "request-order"
        };
        self.bus.event(
            "heaven.schedule",
            lane.now_s(),
            &[
                ("tape_fetches", order.len().into()),
                ("cached", cached.into()),
                ("policy", policy.into()),
                ("exchanges_est", est.into()),
            ],
        );
    }

    /// Read only the `members` of super-tile `meta` (random-access
    /// media), each tile once, decode them into their slots and cache
    /// them. Counts as one tertiary fetch of the member bytes; nothing
    /// enters the disk cache.
    fn read_sparse(
        &self,
        lane: &SimClock,
        meta: &SuperTileMeta,
        members: &[(usize, TileId)],
        needed_bytes: u64,
        slots: &mut [Option<Arc<Tile>>],
    ) -> Result<()> {
        let addr = self.catalog.address(meta.id)?;
        let span = self.bus.span(
            "heaven.st_fetch",
            lane.now_s(),
            &[
                ("st", meta.id.into()),
                ("bytes", needed_bytes.into()),
                ("medium", addr.medium.into()),
                ("sparse", 1u64.into()),
            ],
        );
        let (payloads, dt) = {
            let mut store = self.store.lock();
            let t0 = store.clock().now_s();
            let bytes = tile_runs(members)
                .map(|run| {
                    let tid = run[0].1;
                    let m = meta.member(tid).ok_or(HeavenError::TileUnlocated(tid))?;
                    Ok(store.read_range(addr, m.offset, m.len)?)
                })
                .collect::<Result<Vec<Bytes>>>()?;
            let t1 = store.clock().now_s();
            lane.advance_to_s(t1);
            (bytes, t1 - t0)
        };
        for (bytes, run) in payloads.iter().zip(tile_runs(members)) {
            let (t, _) = Tile::decode_shared(bytes, 0).map_err(HeavenError::Array)?;
            self.fill(slots, run, t);
        }
        self.metrics.note_tape_fetch(needed_bytes, dt);
        span.end(lane.now_s());
        Ok(())
    }

    /// A super-tile's payload, *uncompressed*: a disk-cache hit (charged
    /// to `lane`) or a demand fetch from tape inside a `heaven.st_fetch`
    /// span. The returned handle aliases the cache entry (and, on a cold
    /// fetch without compression, the tape segment itself) — no payload
    /// copies.
    pub(crate) fn supertile_payload(&self, lane: &SimClock, st: SuperTileId) -> Result<Bytes> {
        if let Some(p) = self.st_cache.get_clocked(st, lane) {
            return Ok(p);
        }
        let addr = self.catalog.address(st)?;
        let span = self.bus.span(
            "heaven.st_fetch",
            lane.now_s(),
            &[
                ("st", st.into()),
                ("bytes", addr.len.into()),
                ("medium", addr.medium.into()),
            ],
        );
        let result = self.stage(lane, st);
        span.end(lane.now_s());
        result
    }

    /// Stage one super-tile from tertiary storage: the verified read of
    /// its primary copy, then [`Self::admit`].
    pub(crate) fn stage(&self, lane: &SimClock, st: SuperTileId) -> Result<Bytes> {
        let addr = self.catalog.address(st)?;
        let (raw, dt) = self.read_verified(lane, st, addr)?;
        let refetch_s = self.store.lock().refetch_cost_s(addr);
        self.admit(st, addr, raw, dt, refetch_s)
    }

    /// Read the wire payload of `st` starting from its copy at `first`,
    /// through the full recovery ladder (retry, drive failover, the other
    /// archive copy) and verified against the catalogued checksum, under
    /// the store lock. Returns the payload and the read's simulated
    /// duration; `lane` is fast-forwarded to its completion.
    pub(crate) fn read_verified(
        &self,
        lane: &SimClock,
        st: SuperTileId,
        first: BlockAddress,
    ) -> Result<(Bytes, f64)> {
        let e = self.catalog.entry(st)?;
        let mut store = self.store.lock();
        let t0 = store.clock().now_s();
        let raw = read_with_recovery(
            &mut store,
            st,
            first,
            e.copies().find(|&c| c != first),
            Some(e.checksum),
            &self.config.retry,
            &self.recovery,
            &self.bus,
        )?;
        let t1 = store.clock().now_s();
        lane.advance_to_s(t1);
        Ok((raw, t1 - t0))
    }

    /// Admit a verified tape payload of `st` (read from `addr` in `dt`
    /// simulated seconds) into the hierarchy: count the fetch, observe
    /// the fetch histograms, undo the wire codec and cache the payload
    /// with its refetch cost. Every tertiary payload enters here.
    ///
    /// The catalogued uncompressed length disambiguates untagged raw
    /// pass-through (wire length equals it) from legacy pre-frame RLE
    /// streams, keeping the raw path O(1); it is zero-copy when
    /// compression is off or the payload shipped raw.
    fn admit(
        &self,
        st: SuperTileId,
        addr: BlockAddress,
        raw: Bytes,
        dt: f64,
        refetch_s: f64,
    ) -> Result<Bytes> {
        self.metrics.note_tape_fetch(addr.len, dt);
        let payload = if self.config.compress {
            let expected = self.catalog.meta(st)?.total_len;
            let (out, codec) = heaven_array::decode_wire(&raw, expected)
                .map_err(|e| HeavenError::Codec(format!("corrupt compressed super-tile: {e}")))?;
            if codec != Codec::Raw {
                self.metrics.bytes_copied.add(out.len() as u64);
            }
            out
        } else {
            raw
        };
        self.st_cache.put(st, payload.clone(), refetch_s);
        Ok(payload)
    }

    /// Prefetch, for each target of a direct pass, the successors of its
    /// last missed super-tile in cluster order (paper §3.6).
    /// Best-effort: a super-tile that can't be staged now simply stays
    /// on tape for the demand path to recover.
    fn run_prefetch(&self, lane: &SimClock, targets: &[Target], misses: &Misses) -> Result<()> {
        let PrefetchPolicy::NextInOrder(n) = self.config.prefetch else {
            return Ok(());
        };
        let mut first = 0;
        for target in targets {
            let mine = first..first + target.tiles.len();
            first = mine.end;
            let mut missed = misses.by_st.iter().rev();
            let Some((&last, _)) = missed.find(|(_, m)| m.iter().any(|(i, _)| mine.contains(i)))
            else {
                continue;
            };
            let order = self.catalog.object_supertiles(target.oid);
            let Some(pos) = order.iter().position(|&s| s == last) else {
                continue;
            };
            for &st in order.iter().skip(pos + 1).take(n) {
                if self.st_cache.contains(st) {
                    continue;
                }
                let t0 = lane.now_s();
                let bytes = self.catalog.address(st)?.len;
                self.bus.event(
                    "heaven.prefetch.issue",
                    t0,
                    &[("st", st.into()), ("bytes", bytes.into())],
                );
                if self.stage(lane, st).is_err() {
                    continue;
                }
                let t1 = lane.now_s();
                self.metrics.prefetches.inc();
                self.metrics.prefetch_s.add(t1 - t0);
                self.metrics.prefetch_bytes.add(bytes);
                self.bus.event(
                    "heaven.prefetch.complete",
                    t1,
                    &[
                        ("st", st.into()),
                        ("bytes", bytes.into()),
                        ("dur_s", (t1 - t0).into()),
                    ],
                );
            }
        }
        Ok(())
    }

    /// The batched path: stage the payloads of a pass's super-tiles
    /// `sts`, in order. Striped-cache hits are charged to `lane`; the
    /// misses go to tertiary storage as **one** cross-session batch
    /// request, which runs the full recovery ladder under faults. A
    /// failed super-tile fails the query only once every one of its
    /// fetches has resolved.
    ///
    /// Each tertiary fetch gets a `heaven.st_fetch` span that **links** to
    /// the shared `sched.batch` span that staged the payload (the
    /// cross-session causal edge) and emits a `sched.served` event
    /// carrying the queue/service decomposition, so `heaven-prof
    /// critical-path` can attribute this session's wait to the shared
    /// fetch. The lane ends at the latest completion.
    fn stage_batched(&self, lane: &SimClock, sts: &[SuperTileId]) -> Result<Vec<Bytes>> {
        let mut out: Vec<Option<Bytes>> = sts
            .iter()
            .map(|&st| self.st_cache.get_clocked(st, lane))
            .collect();
        let mut slots = Vec::new();
        let mut reqs = Vec::new();
        for (i, &st) in sts.iter().enumerate().filter(|&(i, _)| out[i].is_none()) {
            let e = self.catalog.entry(st)?;
            slots.push(i);
            reqs.push(PendingFetch {
                req: FetchRequest { st, addr: e.addr },
                attempt: 0,
                on_replica: false,
                replica: e.replica,
                checksum: Some(e.checksum),
                enqueue_s: 0.0, // stamped at registration, under the lock
                drains: 0,
                stalled: false,
            });
        }
        if reqs.is_empty() {
            return Ok(out.into_iter().map(|p| p.expect("cached")).collect());
        }
        let mut failed = None;
        for (i, (outcome, coalesced)) in slots.into_iter().zip(self.batcher.fetch(self, reqs)) {
            let st = sts[i];
            let span = self.bus.span_start(
                "heaven.st_fetch",
                lane.now_s(),
                &[("st", st.into()), ("batched", 1u64.into())],
            );
            match outcome {
                Ok(served) => {
                    self.bus.link(
                        "sched.link",
                        served.done_s,
                        span,
                        served.batch_span,
                        &[("st", st.into()), ("coalesced", (coalesced as u64).into())],
                    );
                    self.bus.event(
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
                    lane.advance_to_s(served.done_s);
                    out[i] = Some(served.payload);
                }
                Err(f) => {
                    failed.get_or_insert(f);
                }
            }
            self.bus.span_end(span, lane.now_s());
        }
        match failed {
            Some(f) => Err(f.into_error()),
            None => Ok(out.into_iter().map(|p| p.expect("staged")).collect()),
        }
    }
}

/// One query session: a handle on the shared engine plus a private
/// simulated-time lane. Overlappable work (disk-cache I/O, decode) is
/// charged to the lane; the shared tape library charges the shared clock
/// and the lane fast-forwards to each tertiary completion.
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

    /// Materialize `region` of `oid` across the hierarchy — the session
    /// form of `Heaven::fetch_region_hierarchical`, batched across
    /// sessions when [`HeavenConfig::cross_session_batching`] is on.
    ///
    /// Opens a root `query` span stamped with this session's id, and
    /// observes `heaven.query_latency_s` with the span as the histogram
    /// exemplar — so a slow Prometheus bucket names the concrete trace
    /// to chase. (Plain `span_start`, not the sampling bracket: head
    /// sampling's divert flag is bus-global and concurrent sessions
    /// would race it.)
    pub fn fetch_region(&self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        self.h.bus.set_session(self.id);
        let start_s = self.lane.now_s();
        let span = self
            .h
            .bus
            .span_start("query", start_s, &[("oid", oid.into())]);
        let res = self.h.fetch_region_on(
            &self.lane,
            oid,
            region,
            self.h.config.cross_session_batching,
        );
        let end_s = self.lane.now_s();
        self.h.bus.span_end(span, end_s);
        self.h
            .metrics
            .query_latency
            .observe_with_exemplar((end_s - start_s).max(0.0), span, span);
        res
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
