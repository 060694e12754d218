//! The metric sets every workload emits, so each run prints the same
//! names with the same units. Layers a workload leaves idle read 0.

use crate::harness::{peak_rss_mib, quantile, Report};
use crate::replay::{per_fetch_us, InnerTimes};
use heaven_obs::MetricsRegistry;

/// Registry counters the per-layer metrics read; `true` marks a float
/// counter (simulated or host seconds).
const COUNTERS: [(&str, bool); 26] = [
    ("tape.mounts", false),
    ("tape.exchange_s", true),
    ("tape.locate_s", true),
    ("tape.transfer_s", true),
    ("tape.bytes_read", false),
    ("tape.bytes_written", false),
    ("rdbms.page_hits", false),
    ("rdbms.page_misses", false),
    ("rdbms.page_flushes", false),
    ("hsm.retries", false),
    ("hsm.checksum_failures", false),
    ("sched.batches", false),
    ("sched.coalesced_fetches", false),
    ("sched.requeued_fetches", false),
    ("heaven.st_tape_fetches", false),
    ("heaven.bytes_copied", false),
    ("heaven.codec_raw", false),
    ("heaven.codec_rle", false),
    ("heaven.codec_shuffle", false),
    ("cache.mem.hits", false),
    ("cache.mem.misses", false),
    ("cache.mem.evictions", false),
    ("cache.st.hits", false),
    ("cache.st.misses", false),
    ("cache.st.evictions", false),
    ("cache.shard_lock_wait_s", true),
];

/// A snapshot of the engine's registry counters; the timed phase is the
/// difference of two snapshots.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters([f64; COUNTERS.len()]);

impl Counters {
    pub fn read(m: &MetricsRegistry) -> Counters {
        Counters(COUNTERS.map(|(name, float)| {
            if float {
                m.fcounter(name).get()
            } else {
                m.counter(name).get() as f64
            }
        }))
    }

    /// `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&(n, _)| n == name)
            .expect("counter is listed in COUNTERS");
        self.0[i]
    }
}

fn hit_ratio(c: &Counters, hits: &str, misses: &str) -> f64 {
    let (hits, misses) = (c.get(hits), c.get(misses));
    ratio(hits, hits + misses)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Splits a time-ordered sample of `n` into up to sixteen consecutive
/// blocks of at least `block` entries and returns the interquartile mean
/// over blocks of `f`: the mean of the middle half of the block figures.
/// A burst of interference from outside the program (other tenants of the
/// machine) moves few blocks, and those fall in the trimmed quarters.
/// Unlike a median over blocks, the mean does not jump when the block
/// figures split into two clusters, as block p99s do when the p99 sits at
/// a step of a multi-modal latency distribution (`cold_sessions`, whose
/// latencies cluster by the number of batcher drains a fetch waits for).
/// The p99 uses blocks of 1000 queries, enough for ten samples beyond it
/// in each block.
fn block_iqm(n: usize, block: usize, f: impl Fn(std::ops::Range<usize>) -> f64) -> f64 {
    let blocks = (n / block).clamp(1, 16);
    let mut per_block: Vec<f64> = (0..blocks)
        .map(|b| f(b * n / blocks..(b + 1) * n / blocks))
        .collect();
    per_block.sort_by(|a, b| a.partial_cmp(b).expect("no NaN block figures"));
    let middle = &per_block[blocks / 4..blocks - blocks / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// End-to-end figures of one untraced run.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Host latency per query, µs, in the order the queries started.
    pub query_us: Vec<f64>,
    /// Host µs of client time charged to each query, same order: its own
    /// latency, or, with concurrent clients, its share of the burst's
    /// wall time.
    pub busy_us: Vec<f64>,
}

impl E2e {
    pub fn emit(&self, r: &mut Report) {
        let (lat, busy) = (&self.query_us, &self.busy_us);
        assert_eq!(lat.len(), busy.len(), "one busy share per query");
        let n = lat.len();
        r.put("setup_s", quantile(&self.setup_s, 0.5), "s");
        r.put(
            "query_p50_us",
            block_iqm(n, 250, |b| quantile(&lat[b], 0.5)),
            "us",
        );
        r.put(
            "query_p99_us",
            block_iqm(n, 1000, |b| quantile(&lat[b], 0.99)),
            "us",
        );
        r.put(
            "queries_per_s",
            block_iqm(n, 250, |b| {
                ratio(b.len() as f64, busy[b].iter().sum::<f64>() / 1e6)
            }),
            "1/s",
        );
        r.put("peak_rss_mib", peak_rss_mib(), "MiB");
    }
}

/// Per-layer figures of one traced run. Fields a workload does not
/// exercise stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    /// Queries of the timed phase, traced or not.
    pub queries: u64,
    /// Bytes of the arrays the engine fetches returned.
    pub result_bytes: u64,
    pub counters: Counters,
    // ql (spans around parse_query / execute / provider calls)
    pub ql_parse_us: f64,
    pub ql_exec_self_us: f64,
    pub ql_provider_calls: u64,
    pub precomp_lookup_us: f64,
    // engine fetch spans
    pub engine_fetch_us: f64,
    pub engine_fetches: u64,
    // replayed inner layers
    pub inner: InnerTimes,
    pub condense_us: f64,
    pub condense_queries: u64,
    // ingest / export / update spans and replays
    pub insert_us: f64,
    pub export_us: f64,
    pub ingest_user_bytes: u64,
    pub ingest_sim_s: f64,
    pub export_raw_bytes: u64,
    pub export_wire_bytes: u64,
    pub partition_us: f64,
    pub exports: u64,
    pub encode_ns: u64,
    pub encode_bytes: u64,
    pub decode_ns: u64,
    pub decode_bytes: u64,
    pub update_us: Vec<f64>,
    pub update_user_bytes: u64,
    pub update_tape_bytes: u64,
    /// Simulated seconds per query (single-owner clock or session lane).
    pub query_sim_s: Vec<f64>,
    /// Simulated seconds between enqueue and staging of batched fetches
    /// (the engine's `sched.queue_wait_s` histogram, p99).
    pub queue_wait_p99_s: f64,
    // coverage and overhead
    pub traced_query_us: f64,
    pub traced_queries: u64,
    pub untraced_query_us: f64,
    pub untraced_queries: u64,
    /// Host µs of the traced operations' root spans, and the host µs of
    /// those operations measured around them.
    pub explained_us: f64,
    pub covered_us: f64,
}

impl Layers {
    pub fn emit(&self, r: &mut Report) {
        // Span-derived figures are per traced query; counter-derived ones
        // per query of the whole timed phase.
        let q = self.traced_queries.max(1) as f64;
        let c = &self.counters;
        let f = self.inner.fetches;
        r.put("ql.parse_us", self.ql_parse_us / q, "us");
        r.put("ql.exec_self_us", self.ql_exec_self_us / q, "us");
        r.put(
            "ql.provider_calls_per_query",
            self.ql_provider_calls as f64 / q,
            "count",
        );
        r.put("precomp.lookup_us", self.precomp_lookup_us / q, "us");
        r.put(
            "arraydb.meta_clone_us",
            per_fetch_us(self.inner.meta_clone_ns, f),
            "us",
        );
        r.put(
            "arraydb.tile_lookup_us",
            per_fetch_us(self.inner.tile_lookup_ns, f),
            "us",
        );
        r.put(
            "arraydb.tiles_scanned_per_hit",
            ratio(self.inner.tiles_scanned as f64, self.inner.tiles_hit as f64),
            "count",
        );
        r.put(
            "arraydb.insert_us_per_mib",
            ratio(self.insert_us, self.ingest_user_bytes as f64 / MIB),
            "us/MiB",
        );
        r.put("rdbms.page_hits", c.get("rdbms.page_hits"), "count");
        r.put("rdbms.page_misses", c.get("rdbms.page_misses"), "count");
        r.put("rdbms.page_flushes", c.get("rdbms.page_flushes"), "count");
        r.put(
            "engine.fetch_us",
            ratio(self.engine_fetch_us, self.engine_fetches as f64),
            "us",
        );
        r.put(
            "engine.fetches_per_query",
            self.engine_fetches as f64 / q,
            "count",
        );
        r.put(
            "cache.tile.hit_ratio",
            hit_ratio(c, "cache.mem.hits", "cache.mem.misses"),
            "ratio",
        );
        r.put(
            "cache.tile.evictions",
            c.get("cache.mem.evictions"),
            "count",
        );
        r.put(
            "cache.st.hit_ratio",
            hit_ratio(c, "cache.st.hits", "cache.st.misses"),
            "ratio",
        );
        r.put("cache.st.evictions", c.get("cache.st.evictions"), "count");
        r.put(
            "cache.tile.evicting_put_us",
            per_fetch_us(self.inner.evicting_put_ns, self.inner.evicting_puts),
            "us",
        );
        r.put(
            "cache.shard_lock_wait_s",
            c.get("cache.shard_lock_wait_s"),
            "s",
        );
        r.put(
            "sched.schedule_us",
            per_fetch_us(self.inner.schedule_ns, f),
            "us",
        );
        r.put("sched.batches", c.get("sched.batches"), "count");
        r.put(
            "sched.coalesced_fetches",
            c.get("sched.coalesced_fetches"),
            "count",
        );
        r.put("sched.queue_wait_p99_s", self.queue_wait_p99_s, "sim_s");
        r.put(
            "sched.requeued_fetches",
            c.get("sched.requeued_fetches"),
            "count",
        );
        r.put("tape.mounts", c.get("tape.mounts"), "count");
        r.put("tape.exchange_s", c.get("tape.exchange_s"), "sim_s");
        r.put("tape.locate_s", c.get("tape.locate_s"), "sim_s");
        r.put("tape.transfer_s", c.get("tape.transfer_s"), "sim_s");
        r.put("tape.bytes_read", c.get("tape.bytes_read"), "B");
        r.put(
            "tape.bytes_per_result_byte",
            ratio(c.get("tape.bytes_read"), self.result_bytes as f64),
            "ratio",
        );
        r.put(
            "tape.fetches_per_query",
            ratio(c.get("heaven.st_tape_fetches"), self.queries as f64),
            "count",
        );
        r.put("hsm.retries", c.get("hsm.retries"), "count");
        r.put(
            "hsm.checksum_failures",
            c.get("hsm.checksum_failures"),
            "count",
        );
        r.put(
            "codec.encode_mib_per_s",
            ratio(self.encode_bytes as f64 / MIB, self.encode_ns as f64 / 1e9),
            "MiB/s",
        );
        r.put(
            "codec.decode_mib_per_s",
            ratio(self.decode_bytes as f64 / MIB, self.decode_ns as f64 / 1e9),
            "MiB/s",
        );
        r.put(
            "codec.ratio",
            ratio(self.export_wire_bytes as f64, self.export_raw_bytes as f64),
            "ratio",
        );
        r.put("codec.non_raw_share", self.non_raw_share(), "ratio");
        r.put(
            "supertile.decode_member_us",
            per_fetch_us(self.inner.decode_member_ns, f),
            "us",
        );
        r.put("mdd.patch_us", per_fetch_us(self.inner.patch_ns, f), "us");
        r.put(
            "ops.condense_us",
            ratio(self.condense_us, self.condense_queries as f64),
            "us",
        );
        r.put(
            "heaven.bytes_copied_per_result_byte",
            ratio(c.get("heaven.bytes_copied"), self.result_bytes as f64),
            "ratio",
        );
        r.put(
            "export.us_per_mib",
            ratio(self.export_us, self.export_raw_bytes as f64 / MIB),
            "us/MiB",
        );
        r.put(
            "export.partition_us",
            ratio(self.partition_us, self.exports as f64),
            "us",
        );
        r.put(
            "maintenance.update_us",
            ratio(
                self.update_us.iter().sum::<f64>(),
                self.update_us.len() as f64,
            ),
            "us",
        );
        r.put(
            "maintenance.write_amp",
            ratio(self.update_tape_bytes as f64, self.update_user_bytes as f64),
            "ratio",
        );
        r.put("sim.query_p50_s", quantile(&self.query_sim_s, 0.5), "sim_s");
        r.put(
            "sim.query_p99_s",
            quantile(&self.query_sim_s, 0.99),
            "sim_s",
        );
        r.put(
            "ingest.mib_per_s",
            ratio(
                self.ingest_user_bytes as f64 / MIB,
                (self.insert_us + self.export_us) / 1e6,
            ),
            "MiB/s",
        );
        r.put(
            "ingest.sim_s_per_mib",
            ratio(self.ingest_sim_s, self.ingest_user_bytes as f64 / MIB),
            "sim_s/MiB",
        );
        r.put("ingest.update_p50_us", quantile(&self.update_us, 0.5), "us");
        r.put(
            "ingest.archive_bytes_per_user_byte",
            self.archive_bytes_per_user_byte(),
            "ratio",
        );
        r.put(
            "coverage.layer_share",
            ratio(self.explained_us, self.covered_us),
            "ratio",
        );
        r.put(
            "coverage.inner_share",
            ratio(
                self.inner.total_us_per_fetch(),
                ratio(self.engine_fetch_us, self.engine_fetches as f64),
            ),
            "ratio",
        );
        r.put(
            "obs.trace_overhead",
            ratio(
                self.traced_query_us / self.traced_queries.max(1) as f64,
                self.untraced_query_us / self.untraced_queries.max(1) as f64,
            ),
            "ratio",
        );
    }

    pub fn non_raw_share(&self) -> f64 {
        let c = &self.counters;
        let non_raw = c.get("heaven.codec_rle") + c.get("heaven.codec_shuffle");
        ratio(non_raw, non_raw + c.get("heaven.codec_raw"))
    }

    /// Bytes written to tape per user byte ingested or patched.
    pub fn archive_bytes_per_user_byte(&self) -> f64 {
        ratio(
            self.counters.get("tape.bytes_written"),
            (self.ingest_user_bytes + self.update_user_bytes) as f64,
        )
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub e2e: E2e,
    pub layers: Layers,
    pub ledger: crate::harness::Ledger,
    pub spans: Vec<crate::harness::Span>,
}

pub const MIB: f64 = (1u64 << 20) as f64;
