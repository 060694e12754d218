//! The simulated-time trace bus.
//!
//! Spans and events are recorded with a **simulated** timestamp as the
//! primary time axis (the `SimClock` seconds the storage simulation
//! advances) and the wall-clock Unix time as a secondary field. Because
//! the simulation is deterministic, two runs of the same workload
//! produce byte-identical span trees modulo the wall-clock field.
//!
//! The bus keeps an explicit span stack, so instrumentation sites never
//! thread parent ids around: `span_start` pushes, `span_end` pops, and
//! events attach to the innermost open span. This makes well-nestedness
//! a structural property of every trace the bus emits.
//!
//! # The allocation-free fast path
//!
//! `span_start` / `event` / `span_end` must be cheap enough to leave on
//! in production (<5% on a warm query), so the record→sink path performs
//! **zero heap allocations and takes no global lock**:
//!
//! * Span/event names and field keys are the call sites' `&'static str`s,
//!   stored as is; string field values are interned to `u32` [`Sym`] ids
//!   (warm lookups are lock-free) or, when short and dynamic, copied
//!   inline into the record.
//! * Records are POD [`CompactRecord`]s with a fixed-capacity inline
//!   field array (capacity [`MAX_FIELDS`]; excess fields are dropped).
//! * Each thread builds its records in its own staging buffer and
//!   publishes a whole root span tree at once when the root closes (see
//!   [`ThreadTrace`]): one atomic claim per tree, not per record, and
//!   every tree lands contiguously in the stream.
//! * The ring sink is a preallocated array of slots written through a
//!   seqlock scheme (per-slot version word + one atomic claim cursor),
//!   mirroring crossbeam's `SeqLock`: a torn read is detected by the
//!   version word and skipped. A record's `seq` is its ring claim.
//! * The JSONL sink serializes **drained batches** off the hot path:
//!   records land in the pending ring and a dedicated writer thread is
//!   unparked every [`JSONL_BATCH`] records to serialize them to the
//!   `BufWriter` (it also wakes periodically for stragglers). The
//!   buffered tail is drained and flushed on `Drop` (including panic
//!   unwind), so aborted runs keep a parseable JSONL prefix.
//! * The span stack is thread-local (keyed by bus id), so pushes and
//!   pops never contend.
//! * The secondary wall-clock timestamp is sampled once per **root**
//!   span from the coarse clock, not per record (`wall_unix_s` exists
//!   to correlate with external logs; sub-span granularity would buy
//!   nothing and cost a clock read on every record).
//!
//! # Sampling
//!
//! Production tracing wants less than everything: [`TraceConfig`] carries
//! per-[`Subsystem`] levels (`Off`/`Spans`/`All`), head sampling of
//! bracketed queries (`sample_1_in_n`: keep every n-th query trace), and
//! always-keep-slow tail capture (`keep_slow_s`: a sampled-out query
//! whose simulated duration reaches the threshold is retained anyway).
//! A sampled-out query's records stay in its thread's staging buffer and
//! are discarded when the query span closes unless slow — so the main
//! stream stays well-nested with whole query subtrees present or absent.

use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json;
use crate::sym::{Subsystem, Sym};

/// Identifier of a span, unique within one `TraceBus`.
pub type SpanId = u64;

/// Inline fields per record; excess fields are dropped (the widest
/// instrumentation site today uses 6). Keep this tight: every record
/// write sweeps the whole POD through the ring slot, so unused capacity
/// is pure memory traffic on the fast path.
pub const MAX_FIELDS: usize = 6;

/// Inline string-byte budget per record (see [`Field::dyn_str`]).
const SBUF: usize = 40;

/// Longest dynamic string stored inline by [`Field::dyn_str`]; longer
/// ones fall back to interning. Held at `SBUF - 2` so a `SmallStr`
/// always fits the record's inline buffer when it is the only string.
const SMALL_CAP: usize = 38;

/// Pending-ring capacity in front of the JSONL writer.
const JSONL_PENDING: usize = 8192;

/// Unpark the JSONL writer thread every this many pending records.
const JSONL_BATCH: u64 = 512;

/// How long the JSONL writer thread sleeps between unparks; bounds how
/// stale the file can be while the pending backlog sits under a batch.
const JSONL_WRITER_NAP: Duration = Duration::from_millis(100);

/// Most records a sampled-out query may stage while awaiting its
/// slow/fast verdict. A sampled-out query emitting more than this is
/// dropped entirely (with a `trace.slow_query_dropped` marker if it was
/// slow).
const SIDE_CAP: usize = 4096;

// -- fields -------------------------------------------------------------------

/// A short string stored inline (no heap), built by [`Field::dyn_str`].
#[derive(Debug, Clone, Copy)]
pub struct SmallStr {
    len: u8,
    buf: [u8; SMALL_CAP],
}

impl SmallStr {
    fn new(s: &str) -> Option<SmallStr> {
        if s.len() > SMALL_CAP {
            return None;
        }
        let mut buf = [0u8; SMALL_CAP];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Some(SmallStr {
            len: s.len() as u8,
            buf,
        })
    }

    pub fn as_str(&self) -> &str {
        // SAFETY: built from a str's bytes in `new`, or from ASCII by
        // `push_byte` and `push_i64`.
        unsafe { std::str::from_utf8_unchecked(&self.buf[..self.len as usize]) }
    }

    /// Append one ASCII byte; false if full.
    fn push_byte(&mut self, b: u8) -> bool {
        let at = self.len as usize;
        if at == SMALL_CAP {
            return false;
        }
        self.buf[at] = b;
        self.len += 1;
        true
    }

    /// Append `v` in decimal; false, appending nothing, if it doesn't fit.
    fn push_i64(&mut self, v: i64) -> bool {
        // 20 digits for |i64::MIN|, plus the sign.
        let mut digits = [0u8; 21];
        let mut i = digits.len();
        let mut n = v.unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            i -= 1;
            digits[i] = b'-';
        }
        let (at, len) = (self.len as usize, digits.len() - i);
        if at + len > SMALL_CAP {
            return false;
        }
        self.buf[at..at + len].copy_from_slice(&digits[i..]);
        self.len = (at + len) as u8;
        true
    }
}

/// A typed field value attached to a span or event.
///
/// String payloads come in four flavors so the hot path never allocates:
/// `StaticStr` for literals, `Sym` for pre-interned ids, `Small` (via
/// [`Field::dyn_str`]) for short dynamic strings copied inline, and
/// `Str` as the compatibility spill for owned strings. All four compare
/// equal by content and serialize identically.
#[derive(Debug, Clone)]
pub enum Field {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    StaticStr(&'static str),
    Small(SmallStr),
    Sym(Sym),
}

impl Field {
    /// Wrap a dynamic string without allocating: inline if it fits
    /// ([`SmallStr`]), interned otherwise.
    pub fn dyn_str(s: &str) -> Field {
        match SmallStr::new(s) {
            Some(small) => Field::Small(small),
            None => Field::Sym(Sym::intern(s)),
        }
    }

    /// A box rendered as `[lo0:hi0,lo1:hi1,...]` (a region's text form),
    /// with the digits written straight into the inline buffer: no
    /// formatting machinery, no heap. Longer text is interned like
    /// [`Field::dyn_str`].
    pub fn bounds<I>(axes: I) -> Field
    where
        I: IntoIterator<Item = (i64, i64)>,
        I::IntoIter: Clone,
    {
        let axes = axes.into_iter();
        let mut small = SmallStr {
            len: 0,
            buf: [0; SMALL_CAP],
        };
        let mut fits = small.push_byte(b'[');
        for (i, (lo, hi)) in axes.clone().enumerate() {
            fits = fits
                && (i == 0 || small.push_byte(b','))
                && small.push_i64(lo)
                && small.push_byte(b':')
                && small.push_i64(hi);
            if !fits {
                break;
            }
        }
        if fits && small.push_byte(b']') {
            return Field::Small(small);
        }
        let text: Vec<String> = axes.map(|(lo, hi)| format!("{lo}:{hi}")).collect();
        Field::dyn_str(&format!("[{}]", text.join(",")))
    }

    /// The string payload, if this is a string-flavored field.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            Field::StaticStr(s) => Some(s),
            Field::Small(s) => Some(s.as_str()),
            Field::Sym(s) => Some(s.resolve()),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Field::U64(v) => {
                out.push_str(&v.to_string());
            }
            Field::I64(v) => {
                out.push_str(&v.to_string());
            }
            Field::F64(v) => json::write_f64(out, *v),
            _ => json::write_str(out, self.as_str().unwrap_or_default()),
        }
    }
}

impl PartialEq for Field {
    fn eq(&self, other: &Field) -> bool {
        match (self, other) {
            (Field::U64(a), Field::U64(b)) => a == b,
            (Field::I64(a), Field::I64(b)) => a == b,
            (Field::F64(a), Field::F64(b)) => a == b,
            // String flavors compare by content.
            _ => match (self.as_str(), other.as_str()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::U64(v) => write!(f, "{v}"),
            Field::I64(v) => write!(f, "{v}"),
            Field::F64(v) => write!(f, "{v:.6}"),
            _ => write!(f, "{}", self.as_str().unwrap_or_default()),
        }
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::U64(v as u64)
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Field {
        Field::I64(v)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Field {
        Field::F64(v)
    }
}

impl From<&'static str> for Field {
    fn from(v: &'static str) -> Field {
        Field::StaticStr(v)
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

impl From<Sym> for Field {
    fn from(v: Sym) -> Field {
        Field::Sym(v)
    }
}

/// What a [`TraceRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened; `span` is its id, `parent` the enclosing span.
    SpanStart,
    /// A span closed; `span` is its id.
    SpanEnd,
    /// An instantaneous event inside `parent` (the innermost open span).
    Event,
    /// A causal edge between two spans that may live on different
    /// threads/sessions: `span` is the *linking* span (e.g. a waiter's
    /// `heaven.st_fetch`), `parent` the *linked-to* span (e.g. the shared
    /// `sched.batch` that served it). Links carry no nesting semantics.
    Link,
}

impl RecordKind {
    fn as_str(&self) -> &'static str {
        match self {
            RecordKind::SpanStart => "span_start",
            RecordKind::SpanEnd => "span_end",
            RecordKind::Event => "event",
            RecordKind::Link => "link",
        }
    }

    fn from_u8(v: u8) -> RecordKind {
        match v {
            0 => RecordKind::SpanStart,
            1 => RecordKind::SpanEnd,
            3 => RecordKind::Link,
            _ => RecordKind::Event,
        }
    }
}

/// One record on the bus. Records are totally ordered by `seq`.
///
/// This is the *reconstructed* view handed out by [`TraceBus::records`];
/// internally the bus stores POD [`CompactRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotone sequence number, assigned by the bus.
    pub seq: u64,
    pub kind: RecordKind,
    /// Static name, e.g. `"tape.mount"` or `"query"`.
    pub name: &'static str,
    /// Primary timestamp: simulated seconds.
    pub sim_s: f64,
    /// Secondary timestamp: wall-clock Unix seconds (non-deterministic).
    pub wall_unix_s: f64,
    /// The span this record belongs to (`SpanStart`/`SpanEnd`: the span
    /// itself; `Event`: 0, events hang off `parent`).
    pub span: SpanId,
    /// Enclosing span, if any (for [`RecordKind::Link`]: the linked-to
    /// span).
    pub parent: Option<SpanId>,
    /// Session that emitted this record, if the emitting thread declared
    /// one via [`TraceBus::set_session`].
    pub session: Option<u64>,
    /// Structured payload.
    pub fields: Vec<(&'static str, Field)>,
}

impl TraceRecord {
    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":");
        json::write_str(&mut out, self.name);
        out.push_str(",\"sim_s\":");
        json::write_f64(&mut out, self.sim_s);
        out.push_str(",\"wall_unix_s\":");
        json::write_f64(&mut out, self.wall_unix_s);
        out.push_str(",\"span\":");
        out.push_str(&self.span.to_string());
        match self.parent {
            Some(p) => {
                out.push_str(",\"parent\":");
                out.push_str(&p.to_string());
            }
            None => out.push_str(",\"parent\":null"),
        }
        if let Some(s) = self.session {
            out.push_str(",\"session\":");
            out.push_str(&s.to_string());
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, k);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

// -- compact records ----------------------------------------------------------

const TAG_U64: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_SYM: u8 = 3;
/// Inline string in the record's `sbuf`; bits = `offset << 32 | len`.
const TAG_STR: u8 = 4;

/// A field key and its payload bits; the payload's type tag lives in
/// the record header ([`CompactRecord::tags`]). Keys are the call site's
/// `&'static str`, stored as is: no interning on the record path.
#[derive(Clone, Copy)]
struct CompactField {
    key: &'static str,
    bits: u64,
}

const NIL_FIELD: CompactField = CompactField { key: "", bits: 0 };

/// The POD record stored in ring slots: fixed-size, `Copy`, no heap.
///
/// The sequence number is not stored: it is the record's ring claim.
#[derive(Clone, Copy)]
struct CompactRecord {
    sim_s: f64,
    wall_s: f64,
    span: u64,
    /// 0 = no parent (span ids start at 1).
    parent: u64,
    /// 0 = no session declared (session ids start at 1).
    session: u64,
    name: &'static str,
    kind: u8,
    nf: u8,
    sused: u8,
    /// `TAG_*` of each field, in field order.
    tags: [u8; MAX_FIELDS],
    fields: [CompactField; MAX_FIELDS],
    sbuf: [u8; SBUF],
}

impl CompactRecord {
    const EMPTY: CompactRecord = CompactRecord {
        sim_s: 0.0,
        wall_s: 0.0,
        span: 0,
        parent: 0,
        session: 0,
        name: "",
        kind: 0,
        nf: 0,
        sused: 0,
        tags: [TAG_U64; MAX_FIELDS],
        fields: [NIL_FIELD; MAX_FIELDS],
        sbuf: [0; SBUF],
    };

    /// Copy a dynamic string into `sbuf` if it fits, else intern it.
    fn encode_str(&mut self, s: &str) -> (u8, u64) {
        let off = self.sused as usize;
        if off + s.len() <= SBUF {
            self.sbuf[off..off + s.len()].copy_from_slice(s.as_bytes());
            self.sused = (off + s.len()) as u8;
            (TAG_STR, ((off as u64) << 32) | s.len() as u64)
        } else {
            (TAG_SYM, Sym::intern(s).0 as u64)
        }
    }

    fn encode_fields(&mut self, fields: &[(&'static str, Field)]) {
        let fields = &fields[..fields.len().min(MAX_FIELDS)];
        for (i, (key, v)) in fields.iter().enumerate() {
            let (tag, bits) = match v {
                Field::U64(x) => (TAG_U64, *x),
                Field::I64(x) => (TAG_I64, *x as u64),
                Field::F64(x) => (TAG_F64, x.to_bits()),
                Field::Sym(s) => (TAG_SYM, s.0 as u64),
                Field::StaticStr(s) => (TAG_SYM, Sym::intern_static(s).0 as u64),
                Field::Small(s) => self.encode_str(s.as_str()),
                Field::Str(s) => self.encode_str(s),
            };
            self.tags[i] = tag;
            self.fields[i] = CompactField { key, bits };
        }
        self.nf = fields.len() as u8;
    }

    /// Copy this record into `dst`, skipping unused field and string
    /// capacity.
    fn copy_used_into(&self, dst: &mut CompactRecord) {
        let (nf, sused) = (self.nf as usize, self.sused as usize);
        dst.sim_s = self.sim_s;
        dst.wall_s = self.wall_s;
        dst.span = self.span;
        dst.parent = self.parent;
        dst.session = self.session;
        dst.name = self.name;
        dst.kind = self.kind;
        dst.nf = self.nf;
        dst.sused = self.sused;
        dst.tags = self.tags;
        dst.fields[..nf].copy_from_slice(&self.fields[..nf]);
        dst.sbuf[..sused].copy_from_slice(&self.sbuf[..sused]);
    }

    fn inline_str(&self, bits: u64) -> &str {
        let off = (bits >> 32) as usize;
        let len = (bits & 0xffff_ffff) as usize;
        // SAFETY: encode_str stored valid UTF-8 at this range.
        unsafe { std::str::from_utf8_unchecked(&self.sbuf[off..off + len]) }
    }

    fn decode_field(&self, i: usize) -> (&'static str, Field) {
        let f = &self.fields[i];
        let v = match self.tags[i] {
            TAG_U64 => Field::U64(f.bits),
            TAG_I64 => Field::I64(f.bits as i64),
            TAG_F64 => Field::F64(f64::from_bits(f.bits)),
            TAG_SYM => Field::StaticStr(Sym(f.bits as u32).resolve()),
            _ => Field::Str(self.inline_str(f.bits).to_string()),
        };
        (f.key, v)
    }

    fn to_record(self, seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            kind: RecordKind::from_u8(self.kind),
            name: self.name,
            sim_s: self.sim_s,
            wall_unix_s: self.wall_s,
            span: self.span,
            parent: (self.parent != 0).then_some(self.parent),
            session: (self.session != 0).then_some(self.session),
            fields: (0..self.nf as usize)
                .map(|i| self.decode_field(i))
                .collect(),
        }
    }

    /// Serialize directly (byte-identical to `to_record().to_json()`),
    /// appending to `out` without intermediate allocations beyond `out`.
    ///
    /// `memo` caches formatted floats across records: `wall_unix_s` is a
    /// full-precision Unix timestamp — the worst case for shortest
    /// round-trip formatting — and is constant across a root span, while
    /// adjacent records frequently share `sim_s`.
    fn write_json(&self, seq: u64, out: &mut String, memo: &mut JsonMemo) {
        out.push_str("{\"seq\":");
        json::write_u64(out, seq);
        out.push_str(",\"kind\":\"");
        out.push_str(RecordKind::from_u8(self.kind).as_str());
        out.push_str("\",\"name\":");
        json::write_str(out, self.name);
        out.push_str(",\"sim_s\":");
        memo.sim.write(out, self.sim_s);
        out.push_str(",\"wall_unix_s\":");
        memo.wall.write(out, self.wall_s);
        out.push_str(",\"span\":");
        json::write_u64(out, self.span);
        if self.parent != 0 {
            out.push_str(",\"parent\":");
            json::write_u64(out, self.parent);
        } else {
            out.push_str(",\"parent\":null");
        }
        if self.session != 0 {
            out.push_str(",\"session\":");
            json::write_u64(out, self.session);
        }
        if self.nf > 0 {
            out.push_str(",\"fields\":{");
            for i in 0..self.nf as usize {
                if i > 0 {
                    out.push(',');
                }
                let f = &self.fields[i];
                json::write_str(out, f.key);
                out.push(':');
                match self.tags[i] {
                    TAG_U64 => json::write_u64(out, f.bits),
                    TAG_I64 => json::write_i64(out, f.bits as i64),
                    TAG_F64 => memo.field.write(out, f64::from_bits(f.bits)),
                    TAG_SYM => json::write_str(out, Sym(f.bits as u32).resolve()),
                    _ => json::write_str(out, self.inline_str(f.bits)),
                }
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// One memoized formatted `f64`: re-renders only when the bit pattern
/// changes. Seeded with `u64::MAX` (a NaN), whose rendering is `"null"`,
/// so the seed is self-consistent.
struct F64Memo {
    bits: u64,
    text: String,
}

impl Default for F64Memo {
    fn default() -> F64Memo {
        F64Memo {
            bits: u64::MAX,
            text: "null".to_string(),
        }
    }
}

impl F64Memo {
    fn write(&mut self, out: &mut String, v: f64) {
        if v.to_bits() != self.bits {
            self.bits = v.to_bits();
            self.text.clear();
            json::write_f64(&mut self.text, v);
        }
        out.push_str(&self.text);
    }
}

/// Float-formatting caches threaded through [`CompactRecord::write_json`].
#[derive(Default)]
struct JsonMemo {
    wall: F64Memo,
    sim: F64Memo,
    /// Float *field* values (e.g. a warm query's constant `cost_s`).
    field: F64Memo,
}

// -- seqlock ring -------------------------------------------------------------

/// One ring slot: a version word and the record payload. The version is
/// `2*claim + 1` while the claiming writer copies in, `2*claim + 2` once
/// the record for `claim` is fully published.
struct Slot {
    ver: AtomicU64,
    rec: UnsafeCell<CompactRecord>,
}

/// Preallocated lock-free ring of POD records (seqlock per slot, one
/// atomic claim cursor). Writers never block; readers detect and skip
/// torn slots. Capacity is rounded up to a power of two.
struct SlotRing {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: slot payloads are only read through the seqlock protocol,
// which detects concurrent writers via the version word.
unsafe impl Sync for SlotRing {}

impl SlotRing {
    fn new(capacity: usize) -> SlotRing {
        let cap = capacity.max(2).next_power_of_two();
        SlotRing {
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    // Version 0 never matches any claim's "published"
                    // value (2*claim + 2 >= 2), so unwritten slots read
                    // as absent.
                    ver: AtomicU64::new(0),
                    rec: UnsafeCell::new(CompactRecord::EMPTY),
                })
                .collect(),
        }
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Publish `recs` as consecutive records: one claim for the batch,
    /// then each slot is written inside its seqlock section. The slots
    /// still hold whatever lived there a lap ago; readers never look past
    /// `nf` fields or `sused` string bytes, so only the used parts are
    /// copied.
    fn push_all(&self, recs: &[CompactRecord]) {
        if recs.is_empty() {
            return;
        }
        // The only read-modify-write on the record path, once per batch.
        let first = self.head.fetch_add(recs.len() as u64, Ordering::AcqRel);
        for (claim, rec) in (first..).zip(recs) {
            let slot = &self.slots[(claim & self.mask) as usize];
            // Seqlock write protocol (Boehm, "Can seqlocks get along with
            // programming language memory models?"): a plain store of the
            // odd version, then a release fence, keeps the payload writes
            // from moving above the version bump; a reader that sees any
            // of them also sees the odd version on its re-check.
            slot.ver.store(claim * 2 + 1, Ordering::Relaxed);
            fence(Ordering::Release);
            // SAFETY: the claim cursor hands each claim to exactly one
            // writer; a lapped writer for the same slot bumped the
            // version first, so readers discard whatever they copied.
            rec.copy_used_into(unsafe { &mut *slot.rec.get() });
            slot.ver.store(claim * 2 + 2, Ordering::Release);
        }
    }

    /// Read the record for `claim`, if still present and fully written.
    fn read(&self, claim: u64) -> Option<CompactRecord> {
        let slot = &self.slots[(claim & self.mask) as usize];
        let want = claim * 2 + 2;
        if slot.ver.load(Ordering::Acquire) != want {
            return None;
        }
        // SAFETY: the slot may be concurrently overwritten; the version
        // re-check below (after an Acquire fence) detects that and
        // discards the copy.
        let rec = unsafe { std::ptr::read(slot.rec.get()) };
        fence(Ordering::Acquire);
        if slot.ver.load(Ordering::Relaxed) != want {
            return None;
        }
        Some(rec)
    }
}

// -- jsonl output -------------------------------------------------------------

struct JsonlFile {
    out: BufWriter<File>,
    scratch: String,
    memo: JsonMemo,
    /// Next claim to drain from the pending ring.
    tail: u64,
    /// Records the pending ring overwrote before we drained them.
    lost: u64,
}

struct JsonlOut {
    state: Mutex<JsonlFile>,
    /// Mirror of `JsonlFile::tail`, readable without the lock so the hot
    /// path can check the batch threshold cheaply.
    tail: AtomicU64,
    /// The writer thread to unpark when a batch is pending. Unset only if
    /// the thread could not be spawned (the hot path then drains inline).
    writer: OnceLock<std::thread::Thread>,
}

impl JsonlOut {
    fn create(path: &Path) -> io::Result<JsonlOut> {
        Ok(JsonlOut {
            state: Mutex::new(JsonlFile {
                // A wide buffer: trace records are ~200 bytes and the
                // stock 8 KB buffer would hit write(2) every few queries.
                out: BufWriter::with_capacity(1 << 20, File::create(path)?),
                scratch: String::with_capacity(64 * 1024),
                memo: JsonMemo::default(),
                tail: 0,
                lost: 0,
            }),
            tail: AtomicU64::new(0),
            writer: OnceLock::new(),
        })
    }
}

/// Body of the JSONL writer thread: drain whenever unparked (a batch is
/// pending) or after a nap (stragglers). Holds only a `Weak` to the bus,
/// so dropping the last `TraceBus` clone ends the thread.
fn jsonl_writer_loop(weak: Weak<BusInner>) {
    loop {
        std::thread::park_timeout(JSONL_WRITER_NAP);
        let Some(inner) = weak.upgrade() else { return };
        drain_jsonl(&inner, false);
    }
}

// -- configuration ------------------------------------------------------------

/// How much of a subsystem's instrumentation to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Nothing from this subsystem.
    Off,
    /// Spans only (events dropped).
    Spans,
    /// Spans and events (the default).
    #[default]
    All,
}

impl TraceLevel {
    /// Parse `"off"` / `"spans"` / `"all"`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "spans" => Some(TraceLevel::Spans),
            "all" => Some(TraceLevel::All),
            _ => None,
        }
    }
}

/// Sink selection, carried inside [`TraceConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSink {
    /// No tracing (the default); record calls are near-free.
    #[default]
    Off,
    /// Ring buffer of the most recent `capacity` records (rounded up to
    /// a power of two).
    Memory { capacity: usize },
    /// JSONL file at `path` (plus a pending ring that doubles as the
    /// in-memory mirror for `records()`).
    Jsonl { path: PathBuf },
}

/// Trace configuration, carried inside `HeavenConfig`: sink choice plus
/// the production-tracing knobs (head sampling, slow-tail capture,
/// per-subsystem levels).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    pub sink: TraceSink,
    /// Keep every n-th bracketed query trace (0 or 1 = keep all).
    pub sample_1_in_n: u64,
    /// A sampled-out query whose simulated duration reaches this many
    /// seconds is kept anyway (`INFINITY` = never).
    pub keep_slow_s: f64,
    /// Per-subsystem record levels, indexed by `Subsystem as usize`.
    pub levels: [TraceLevel; Subsystem::COUNT],
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sink: TraceSink::Off,
            sample_1_in_n: 1,
            keep_slow_s: f64::INFINITY,
            levels: [TraceLevel::All; Subsystem::COUNT],
        }
    }
}

impl TraceConfig {
    /// No tracing (the default).
    pub fn off() -> TraceConfig {
        TraceConfig::default()
    }

    /// Ring buffer of the most recent `capacity` records.
    pub fn ring(capacity: usize) -> TraceConfig {
        TraceConfig {
            sink: TraceSink::Memory { capacity },
            ..TraceConfig::default()
        }
    }

    /// Stream records to a JSONL file.
    pub fn jsonl(path: impl Into<PathBuf>) -> TraceConfig {
        TraceConfig {
            sink: TraceSink::Jsonl { path: path.into() },
            ..TraceConfig::default()
        }
    }

    /// Keep every n-th bracketed query trace (head sampling).
    pub fn with_sample(mut self, n: u64) -> TraceConfig {
        self.sample_1_in_n = n;
        self
    }

    /// Keep sampled-out queries at least this slow (simulated seconds).
    pub fn with_keep_slow(mut self, s: f64) -> TraceConfig {
        self.keep_slow_s = s;
        self
    }

    /// Set one subsystem's record level.
    pub fn with_level(mut self, sub: Subsystem, level: TraceLevel) -> TraceConfig {
        self.levels[sub as usize] = level;
        self
    }
}

// -- per-thread staging -------------------------------------------------------

#[derive(Clone, Copy)]
struct Frame {
    id: SpanId,
    name: &'static str,
    start_s: f64,
}

/// Initial staged-record capacity per thread and bus. A tree that
/// outgrows it is published in pieces (sampled-out queries grow it
/// instead, up to [`SIDE_CAP`]).
const STAGE_CAP: usize = 64;

/// One thread's view of one bus: its open-span stack, declared session,
/// and the records of its current root span tree.
///
/// Records are built here, in memory only this thread touches, and
/// published to the shared ring in one batch when the root span closes
/// (or the stage fills, or the thread asks for [`TraceBus::records`] or
/// [`TraceBus::flush`]). A warm query's records therefore cost one ring
/// claim between them, and each tree lands contiguously in the stream.
struct ThreadTrace {
    bus_id: u64,
    /// Publishes what is still staged when the thread exits.
    bus: Weak<BusInner>,
    /// Session this thread currently works on behalf of (0 = none),
    /// stamped onto every record; see [`TraceBus::set_session`].
    session: u64,
    /// Wall-clock stamp of this thread's current root span (or root-level
    /// event or link).
    wall_s: f64,
    frames: Vec<Frame>,
    /// Staged records are `stage[..staged]`; the rest is spare capacity
    /// holding stale records (overwritten in place, never read).
    stage: Vec<CompactRecord>,
    staged: usize,
    /// Head sampling: this thread's current query is sampled out. Its
    /// records (from `stage[div_from]`) stay staged until its span
    /// `div_span` closes and the slow/fast verdict keeps or drops them.
    diverted: bool,
    div_span: SpanId,
    div_from: usize,
    /// The diverted query outgrew [`SIDE_CAP`] records.
    overflowed: bool,
}

impl ThreadTrace {
    fn new(inner: &Arc<BusInner>) -> ThreadTrace {
        ThreadTrace {
            bus_id: inner.bus_id,
            bus: Arc::downgrade(inner),
            session: 0,
            wall_s: wall_now_s(),
            frames: Vec::with_capacity(32),
            stage: vec![CompactRecord::EMPTY; STAGE_CAP],
            staged: 0,
            diverted: false,
            div_span: 0,
            div_from: 0,
            overflowed: false,
        }
    }

    /// Build a record in the next staging slot. Only a full stage costs
    /// more: it is published, or grown while a query is diverted.
    #[allow(clippy::too_many_arguments)]
    fn stage(
        &mut self,
        inner: &BusInner,
        kind: RecordKind,
        name: &'static str,
        sim_s: f64,
        span: u64,
        parent: u64,
        fields: &[(&'static str, Field)],
    ) {
        if self.staged == self.stage.len() {
            if !self.diverted {
                self.publish(inner);
            } else if self.staged - self.div_from >= SIDE_CAP {
                self.overflowed = true;
                return;
            } else {
                self.stage.push(CompactRecord::EMPTY);
            }
        }
        let rec = &mut self.stage[self.staged];
        rec.sim_s = sim_s;
        rec.wall_s = self.wall_s;
        rec.span = span;
        rec.parent = parent;
        rec.session = self.session;
        rec.name = name;
        rec.kind = kind as u8;
        rec.sused = 0;
        rec.encode_fields(fields);
        self.staged += 1;
    }

    /// Hand every staged record not held back by sampling to the sink.
    fn publish(&mut self, inner: &BusInner) {
        let upto = if self.diverted {
            self.div_from
        } else {
            self.staged
        };
        inner.sink(&self.stage[..upto]);
        self.stage.copy_within(upto..self.staged, 0);
        self.staged -= upto;
        self.div_from = 0;
    }

    /// Pop frames down to and including `id`, staging a `SpanEnd` for
    /// each, then settle sampling verdicts and publish a closed tree.
    fn end(&mut self, inner: &BusInner, id: SpanId, sim_s: f64) {
        if !self.frames.iter().any(|f| f.id == id) {
            return; // unknown/already closed: ignore
        }
        while let Some(frame) = self.frames.pop() {
            let parent = self.frames.last().map_or(0, |f| f.id);
            let dur = (sim_s - frame.start_s).max(0.0);
            self.stage(
                inner,
                RecordKind::SpanEnd,
                frame.name,
                sim_s,
                frame.id,
                parent,
                &[("dur_s", Field::F64(dur))],
            );
            if self.diverted && frame.id == self.div_span {
                self.verdict(inner, sim_s, dur);
            }
            if frame.id == id {
                break;
            }
        }
        if self.frames.is_empty() {
            self.publish(inner);
        }
    }

    /// A diverted query closed after `dur` simulated seconds: drop its
    /// records if it was fast, keep them if slow — unless they overflowed,
    /// in which case a partial tree would break nesting, so drop it and
    /// say so.
    fn verdict(&mut self, inner: &BusInner, sim_s: f64, dur: f64) {
        self.diverted = false;
        let overflowed = std::mem::take(&mut self.overflowed);
        if dur < inner.keep_slow_s || overflowed {
            self.staged = self.div_from;
        }
        if dur >= inner.keep_slow_s && overflowed {
            inner.dropped_slow.fetch_add(1, Ordering::Relaxed);
            let session = std::mem::take(&mut self.session);
            self.stage(
                inner,
                RecordKind::Event,
                "trace.slow_query_dropped",
                sim_s,
                0,
                0,
                &[("dur_s", Field::F64(dur))],
            );
            self.session = session;
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        // Thread exit (or a dead bus's stack being pruned): publish what
        // this thread staged, so finished work is never lost (a pending
        // sampled-out query stays unpublished).
        if let Some(inner) = self.bus.upgrade() {
            self.publish(&inner);
        }
    }
}

thread_local! {
    static TRACES: RefCell<Vec<ThreadTrace>> = const { RefCell::new(Vec::new()) };
}

fn with_thread<R>(inner: &Arc<BusInner>, f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
    TRACES.with(|s| {
        let mut v = s.borrow_mut();
        let idx = match v.iter().position(|t| t.bus_id == inner.bus_id) {
            Some(i) => i,
            None => {
                if v.len() >= 16 {
                    // Drop the state of (likely dead) buses with no open
                    // spans.
                    v.retain(|t| !t.frames.is_empty());
                }
                v.push(ThreadTrace::new(inner));
                v.len() - 1
            }
        };
        f(&mut v[idx])
    })
}

// -- the bus ------------------------------------------------------------------

struct BusInner {
    enabled: AtomicBool,
    /// Keys this bus's per-thread state.
    bus_id: u64,
    levels: [TraceLevel; Subsystem::COUNT],
    /// Some subsystem records less than everything: only then does a
    /// record pay for classifying its name (see [`TraceBus::admits`]).
    filtered: bool,
    next_span: AtomicU64,
    /// The retained ring (`Memory` sink) or the JSONL pending ring.
    ring: Option<SlotRing>,
    jsonl: Option<JsonlOut>,
    // Sampling state.
    sample_n: u64,
    keep_slow_s: f64,
    sample_counter: AtomicU64,
    /// Slow sampled-out queries dropped because they outgrew `SIDE_CAP`.
    dropped_slow: AtomicU64,
}

impl BusInner {
    /// Publish a batch of records to the ring, waking the JSONL writer
    /// once a batch is pending.
    fn sink(&self, recs: &[CompactRecord]) {
        let Some(ring) = &self.ring else { return };
        ring.push_all(recs);
        if let Some(j) = &self.jsonl {
            if ring.head().wrapping_sub(j.tail.load(Ordering::Relaxed)) >= JSONL_BATCH {
                match j.writer.get() {
                    Some(t) => t.unpark(),
                    None => drain_jsonl(self, false),
                }
            }
        }
    }
}

impl Drop for BusInner {
    fn drop(&mut self) {
        // Durability: publish what the dropping thread staged, then drain
        // and flush the JSONL tail, even on panic unwind, so an aborted
        // run leaves a parseable trace prefix. (`try_with`: this may run
        // while the thread's own staging state is being torn down.)
        let _ = TRACES.try_with(|s| {
            if let Ok(mut v) = s.try_borrow_mut() {
                if let Some(t) = v.iter_mut().find(|t| t.bus_id == self.bus_id) {
                    t.publish(self);
                }
            }
        });
        drain_jsonl(self, true);
    }
}

fn drain_jsonl(inner: &BusInner, force_flush: bool) {
    let (Some(j), Some(ring)) = (&inner.jsonl, &inner.ring) else {
        return;
    };
    let mut f = j.state.lock().unwrap_or_else(|e| e.into_inner());
    let head = ring.head();
    let oldest = head.saturating_sub(ring.capacity());
    if f.tail < oldest {
        f.lost += oldest - f.tail;
        f.tail = oldest;
    }
    let JsonlFile {
        out,
        scratch,
        memo,
        tail,
        lost: _,
    } = &mut *f;
    scratch.clear();
    while *tail < head {
        match ring.read(*tail) {
            Some(rec) => {
                rec.write_json(*tail, scratch, memo);
                scratch.push('\n');
                *tail += 1;
            }
            None => break, // writer still in this slot; next drain gets it
        }
    }
    // Trace I/O is best-effort; a full disk must not fail a query.
    let _ = out.write_all(scratch.as_bytes());
    j.tail.store(*tail, Ordering::Relaxed);
    if force_flush {
        let _ = out.flush();
    }
}

/// Cloneable handle to the trace bus. All clones share one record stream
/// and one span stack.
#[derive(Clone)]
pub struct TraceBus {
    inner: Arc<BusInner>,
}

impl fmt::Debug for TraceBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBus")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Wall-clock Unix seconds for the secondary `wall_unix_s` stamp.
///
/// On 64-bit Linux this reads `CLOCK_REALTIME_COARSE`: the kernel's
/// last-tick time, a plain memory read in the vDSO (a few ns, against
/// ~30 ns for the precise clock on a virtualized TSC). Its tick
/// resolution (1–4 ms) is ample for a stamp that exists to line traces
/// up with external logs.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wall_now_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_REALTIME_COARSE: i32 = 5;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` matches the 64-bit Linux `struct timespec` layout and
    // outlives the call; clock_gettime only writes through the pointer.
    if unsafe { clock_gettime(CLOCK_REALTIME_COARSE, &mut ts) } != 0 {
        return precise_wall_now_s();
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wall_now_s() -> f64 {
    precise_wall_now_s()
}

fn precise_wall_now_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

static NEXT_BUS_ID: AtomicU64 = AtomicU64::new(1);

impl TraceBus {
    fn build(cfg: &TraceConfig) -> io::Result<TraceBus> {
        let (enabled, ring, jsonl) = match &cfg.sink {
            TraceSink::Off => (false, None, None),
            TraceSink::Memory { capacity } => (true, Some(SlotRing::new(*capacity)), None),
            TraceSink::Jsonl { path } => (
                true,
                Some(SlotRing::new(JSONL_PENDING)),
                Some(JsonlOut::create(path)?),
            ),
        };
        let sample_n = cfg.sample_1_in_n.max(1);
        let bus = TraceBus {
            inner: Arc::new(BusInner {
                enabled: AtomicBool::new(enabled),
                bus_id: NEXT_BUS_ID.fetch_add(1, Ordering::Relaxed),
                levels: cfg.levels,
                filtered: cfg.levels.iter().any(|&l| l != TraceLevel::All),
                next_span: AtomicU64::new(1),
                ring,
                jsonl,
                sample_n,
                keep_slow_s: cfg.keep_slow_s,
                sample_counter: AtomicU64::new(0),
                dropped_slow: AtomicU64::new(0),
            }),
        };
        if let Some(j) = &bus.inner.jsonl {
            // Serialization runs on a dedicated thread; the hot path only
            // pushes into the pending ring and unparks it per batch. If
            // the spawn fails, `sink` falls back to inline drains.
            let weak = Arc::downgrade(&bus.inner);
            if let Ok(handle) = std::thread::Builder::new()
                .name("heaven-trace-jsonl".into())
                .spawn(move || jsonl_writer_loop(weak))
            {
                let _ = j.writer.set(handle.thread().clone());
            }
        }
        if enabled && sample_n > 1 {
            // Announce the sampling rate in-band so consumers
            // (heaven-prof) can rescale totals. Only emitted when
            // sampling is on, so unsampled traces are unchanged.
            let mut fields: Vec<(&'static str, Field)> =
                vec![("sample_1_in_n", Field::U64(sample_n))];
            if cfg.keep_slow_s.is_finite() {
                fields.push(("keep_slow_s", Field::F64(cfg.keep_slow_s)));
            }
            bus.event("trace.config", 0.0, &fields);
        }
        Ok(bus)
    }

    /// A disabled bus; every call is a cheap atomic load.
    pub fn noop() -> TraceBus {
        TraceBus::build(&TraceConfig::off()).expect("noop bus cannot fail")
    }

    /// Retain the most recent `capacity` records in memory.
    pub fn ring(capacity: usize) -> TraceBus {
        TraceBus::build(&TraceConfig::ring(capacity)).expect("ring bus cannot fail")
    }

    /// Stream records to a JSONL file; the pending ring doubles as an
    /// in-memory mirror so `records()` keeps working.
    pub fn jsonl(path: &Path) -> io::Result<TraceBus> {
        TraceBus::build(&TraceConfig::jsonl(path))
    }

    /// Build from configuration. A JSONL path that cannot be created
    /// degrades to a no-op bus rather than failing system construction.
    pub fn from_config(cfg: &TraceConfig) -> TraceBus {
        TraceBus::build(cfg).unwrap_or_else(|_| TraceBus::noop())
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Effective head-sampling rate (1 = keep everything).
    pub fn sample_1_in_n(&self) -> u64 {
        self.inner.sample_n
    }

    /// Slow sampled-out queries dropped because their trace outgrew the
    /// staging bound.
    pub fn dropped_slow(&self) -> u64 {
        self.inner.dropped_slow.load(Ordering::Relaxed)
    }

    /// Whether records named `name` pass the per-subsystem level `need`.
    /// Free at the default levels; otherwise the name is classified
    /// through the interner's pointer cache.
    fn admits(&self, name: &'static str, need: TraceLevel) -> bool {
        let inner = &*self.inner;
        !inner.filtered || inner.levels[Sym::intern_static(name).subsystem() as usize] >= need
    }

    /// Declare the session the **current thread** works on behalf of;
    /// every subsequent record emitted from this thread carries it (0
    /// clears). Session identity survives span pushes/pops, so a worker
    /// thread sets it once per unit of session work.
    pub fn set_session(&self, session: u64) {
        if !self.is_enabled() {
            return;
        }
        with_thread(&self.inner, |t| t.session = session);
    }

    /// The current thread's declared session (0 = none).
    pub fn current_session(&self) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        with_thread(&self.inner, |t| t.session)
    }

    /// Record a causal link `from_span → to_span` (e.g. a waiter's fetch
    /// span to the shared `sched.batch` span that served it). Links cross
    /// thread and session boundaries, carry no nesting semantics, and
    /// ride the same allocation-free staged path as spans.
    /// No-op if either span id is 0 (disabled or level-filtered span).
    pub fn link(
        &self,
        name: &'static str,
        sim_s: f64,
        from_span: SpanId,
        to_span: SpanId,
        fields: &[(&'static str, Field)],
    ) {
        if !self.is_enabled() || from_span == 0 || to_span == 0 {
            return;
        }
        if !self.admits(name, TraceLevel::Spans) {
            return;
        }
        let inner = &*self.inner;
        with_thread(&self.inner, |t| {
            let root = t.frames.is_empty();
            if root {
                t.wall_s = wall_now_s();
            }
            t.stage(
                inner,
                RecordKind::Link,
                name,
                sim_s,
                from_span,
                to_span,
                fields,
            );
            if root {
                t.publish(inner);
            }
        });
    }

    /// Open a span. Returns its id; pass it to [`TraceBus::span_end`].
    pub fn span_start(
        &self,
        name: &'static str,
        sim_s: f64,
        fields: &[(&'static str, Field)],
    ) -> SpanId {
        if !self.is_enabled() {
            return 0;
        }
        if !self.admits(name, TraceLevel::Spans) {
            return 0; // children attach to the grandparent: still nested
        }
        let inner = &*self.inner;
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        with_thread(&self.inner, |t| {
            let parent = t.frames.last().map_or(0, |f| f.id);
            if parent == 0 {
                // Root span: refresh the coarse wall-clock stamp shared by
                // every record in this subtree.
                t.wall_s = wall_now_s();
            }
            t.frames.push(Frame {
                id,
                name,
                start_s: sim_s,
            });
            t.stage(
                inner,
                RecordKind::SpanStart,
                name,
                sim_s,
                id,
                parent,
                fields,
            );
        });
        id
    }

    /// Close a span. Any spans left open above it on the stack are closed
    /// first (with the same timestamp), so traces stay well-nested even
    /// if an instrumented function returns early. Closing a root span
    /// publishes its whole tree.
    pub fn span_end(&self, id: SpanId, sim_s: f64) {
        if !self.is_enabled() || id == 0 {
            return;
        }
        let inner = &*self.inner;
        with_thread(&self.inner, |t| t.end(inner, id, sim_s));
    }

    /// Record an instantaneous event inside the innermost open span.
    pub fn event(&self, name: &'static str, sim_s: f64, fields: &[(&'static str, Field)]) {
        if !self.is_enabled() {
            return;
        }
        if !self.admits(name, TraceLevel::All) {
            return;
        }
        let inner = &*self.inner;
        with_thread(&self.inner, |t| {
            let parent = t.frames.last().map_or(0, |f| f.id);
            if parent == 0 {
                // A root-level event is its own tree: fresh stamp.
                t.wall_s = wall_now_s();
            }
            t.stage(inner, RecordKind::Event, name, sim_s, 0, parent, fields);
            if parent == 0 {
                t.publish(inner);
            }
        });
    }

    /// RAII span helper: the span closes (at `end_sim_s` supplied then)
    /// when [`SpanGuard::end`] is called.
    pub fn span(
        &self,
        name: &'static str,
        sim_s: f64,
        fields: &[(&'static str, Field)],
    ) -> SpanGuard {
        SpanGuard {
            bus: self.clone(),
            id: self.span_start(name, sim_s, fields),
        }
    }

    /// Open a **bracketed query** span, applying head sampling: every
    /// n-th query records normally; the rest stay staged on their thread
    /// and are discarded when they close unless slower than
    /// `keep_slow_s`.
    pub fn query_span_start(
        &self,
        name: &'static str,
        sim_s: f64,
        fields: &[(&'static str, Field)],
    ) -> SpanId {
        if !self.is_enabled() {
            return 0;
        }
        let inner = &*self.inner;
        let sample_out = inner.sample_n > 1
            && !inner
                .sample_counter
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(inner.sample_n);
        let divert = sample_out
            && with_thread(&self.inner, |t| {
                if t.diverted {
                    return false; // already inside a sampled-out query
                }
                t.diverted = true;
                t.div_from = t.staged;
                true
            });
        let id = self.span_start(name, sim_s, fields);
        if divert {
            with_thread(&self.inner, |t| {
                t.div_span = id;
                // A level-filtered query span never closes: nothing to hold.
                t.diverted = id != 0;
            });
        }
        id
    }

    /// Close a bracketed query span; a sampled-out query's records are
    /// kept or dropped here (see [`TraceBus::query_span_start`]).
    pub fn query_span_end(&self, id: SpanId, sim_s: f64) {
        self.span_end(id, sim_s);
    }

    /// Snapshot of retained records (ring sinks and the JSONL mirror),
    /// ordered by `seq`. The calling thread's staged records are
    /// published first; other threads' open span trees are not yet
    /// visible.
    pub fn records(&self) -> Vec<TraceRecord> {
        let Some(ring) = &self.inner.ring else {
            return Vec::new();
        };
        self.publish_here();
        let head = ring.head();
        let oldest = head.saturating_sub(ring.capacity());
        (oldest..head)
            .filter_map(|c| ring.read(c).map(|r| r.to_record(c)))
            .collect()
    }

    /// Publish the calling thread's staged records, then flush buffered
    /// output (JSONL).
    pub fn flush(&self) {
        self.publish_here();
        drain_jsonl(&self.inner, true);
    }

    fn publish_here(&self) {
        if self.is_enabled() {
            with_thread(&self.inner, |t| t.publish(&self.inner));
        }
    }

    /// Depth of the open-span stack on this thread (tests, diagnostics).
    pub fn open_spans(&self) -> usize {
        with_thread(&self.inner, |t| t.frames.len())
    }
}

/// Handle returned by [`TraceBus::span`]; call [`SpanGuard::end`] with the
/// closing simulated timestamp.
#[must_use = "call .end(sim_now) to close the span"]
pub struct SpanGuard {
    bus: TraceBus,
    id: SpanId,
}

impl SpanGuard {
    pub fn id(&self) -> SpanId {
        self.id
    }

    pub fn end(self, sim_s: f64) {
        self.bus.span_end(self.id, sim_s);
    }

    /// Record an event inside this span.
    pub fn event(&self, name: &'static str, sim_s: f64, fields: &[(&'static str, Field)]) {
        self.bus.event(name, sim_s, fields);
    }
}

/// Check that `records` form a well-nested forest: every `SpanEnd` matches
/// the most recently opened unclosed span, and events reference an open
/// (or no) span. Returns the maximum depth seen.
pub fn check_well_nested(records: &[TraceRecord]) -> Result<usize, String> {
    let mut stack: Vec<SpanId> = Vec::new();
    let mut max_depth = 0;
    for rec in records {
        match rec.kind {
            RecordKind::SpanStart => {
                if rec.parent != stack.last().copied() {
                    return Err(format!(
                        "span {} ({}) has parent {:?}, expected {:?}",
                        rec.span,
                        rec.name,
                        rec.parent,
                        stack.last()
                    ));
                }
                stack.push(rec.span);
                max_depth = max_depth.max(stack.len());
            }
            RecordKind::SpanEnd => match stack.pop() {
                Some(top) if top == rec.span => {}
                other => {
                    return Err(format!(
                        "span_end {} ({}) does not match innermost open span {:?}",
                        rec.span, rec.name, other
                    ));
                }
            },
            RecordKind::Event => {
                if rec.parent != stack.last().copied() {
                    return Err(format!(
                        "event {} has parent {:?}, expected {:?}",
                        rec.name,
                        rec.parent,
                        stack.last()
                    ));
                }
            }
            // Links are causal edges across threads/sessions; they carry
            // no nesting semantics and may reference spans opened (and
            // even closed) anywhere in the trace.
            RecordKind::Link => {}
        }
    }
    Ok(max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_bus_is_inert() {
        let bus = TraceBus::noop();
        let id = bus.span_start("x", 0.0, &[]);
        assert_eq!(id, 0);
        bus.event("e", 0.0, &[]);
        bus.span_end(id, 1.0);
        assert!(bus.records().is_empty());
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let bus = TraceBus::ring(64);
        let q = bus.span_start("query", 0.0, &[]);
        let f = bus.span_start("st_fetch", 1.0, &[("st", Field::U64(7))]);
        bus.event("tape.mount", 2.0, &[("medium", Field::U64(3))]);
        bus.span_end(f, 3.0);
        bus.span_end(q, 4.0);
        let recs = bus.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[1].parent, Some(q));
        assert_eq!(recs[2].parent, Some(f));
        check_well_nested(&recs).unwrap();
        assert_eq!(bus.open_spans(), 0);
    }

    #[test]
    fn early_return_spans_are_autoclosed() {
        let bus = TraceBus::ring(64);
        let outer = bus.span_start("outer", 0.0, &[]);
        let _leaked = bus.span_start("leaked", 1.0, &[]);
        // Closing the outer span force-closes the leaked inner one first.
        bus.span_end(outer, 5.0);
        let recs = bus.records();
        check_well_nested(&recs).unwrap();
        assert_eq!(bus.open_spans(), 0);
    }

    #[test]
    fn root_trees_publish_whole_when_the_root_closes() {
        use std::sync::mpsc;
        let bus = TraceBus::ring(64);
        let (opened, wait_opened) = mpsc::channel();
        let (close, wait_close) = mpsc::channel::<()>();
        let worker = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                let q = bus.span_start("query", 0.0, &[]);
                bus.event("cache.st.hit", 0.5, &[]);
                opened.send(()).unwrap();
                wait_close.recv().unwrap();
                bus.span_end(q, 1.0);
            })
        };
        wait_opened.recv().unwrap();
        // Another thread's open tree is still staged.
        assert!(bus.records().is_empty());
        bus.event("e", 0.2, &[]);
        close.send(()).unwrap();
        worker.join().unwrap();
        let recs = bus.records();
        let names: Vec<&str> = recs.iter().map(|r| r.name).collect();
        assert_eq!(names, ["e", "query", "cache.st.hit", "query"]);
        assert!(recs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        check_well_nested(&recs).unwrap();
    }

    #[test]
    fn thread_exit_publishes_staged_records() {
        let bus = TraceBus::ring(64);
        let worker = bus.clone();
        std::thread::spawn(move || {
            let _open = worker.span_start("query", 0.0, &[]);
            worker.event("cache.st.hit", 0.5, &[]);
        })
        .join()
        .unwrap();
        let names: Vec<&str> = bus.records().iter().map(|r| r.name).collect();
        assert_eq!(names, ["query", "cache.st.hit"]);
    }

    #[test]
    fn ring_capacity_is_bounded() {
        let bus = TraceBus::ring(4);
        for i in 0..10 {
            bus.event("e", i as f64, &[]);
        }
        let recs = bus.records();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].seq, 6);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("heaven_obs_test_{}.jsonl", std::process::id()));
        let bus = TraceBus::jsonl(&path).unwrap();
        let s = bus.span_start("query", 0.5, &[("oid", Field::U64(1))]);
        bus.event("tape.locate", 1.25, &[("cost_s", Field::F64(0.75))]);
        bus.span_end(s, 2.0);
        bus.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"span_start\""));
        assert!(lines[0].contains("\"sim_s\":0.5"));
        assert!(lines[1].contains("\"cost_s\":0.75"));
        assert!(lines[2].contains("\"dur_s\":1.5"));
        // the in-memory mirror still answers records()
        assert_eq!(bus.records().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path =
            std::env::temp_dir().join(format!("heaven_obs_drop_{}.jsonl", std::process::id()));
        let bus = TraceBus::jsonl(&path).unwrap();
        let s = bus.span_start("query", 0.0, &[]);
        bus.event("tape.mount", 1.0, &[("medium", Field::U64(1))]);
        bus.span_end(s, 2.0);
        drop(bus); // no explicit flush
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "drop drains the pending ring");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_serialization_matches_reconstructed_records() {
        let bus = TraceBus::ring(64);
        let s = bus.span_start(
            "heaven.st_fetch",
            0.25,
            &[
                ("st", Field::U64(7)),
                ("neg", Field::I64(-3)),
                ("label", Field::dyn_str("warm fetch")),
                ("policy", Field::StaticStr("estar")),
            ],
        );
        bus.span_end(s, 1.0);
        for rec in bus.records() {
            // Round-trip through the compact form preserves the JSON the
            // old Vec-based records produced.
            let mut direct = String::new();
            // records() reconstructs; re-serialize and compare shape.
            direct.push_str(&rec.to_json());
            assert!(
                direct.contains("\"label\":\"warm fetch\"") || rec.kind != RecordKind::SpanStart
            );
            assert!(direct.starts_with('{') && direct.ends_with('}'));
        }
        let recs = bus.records();
        assert_eq!(recs[0].fields.len(), 4);
        assert_eq!(
            recs[0].fields[2],
            ("label", Field::Str("warm fetch".into()))
        );
    }

    #[test]
    fn head_sampling_keeps_every_nth_query() {
        let bus = TraceBus::from_config(&TraceConfig::ring(1 << 12).with_sample(3));
        for i in 0..9 {
            let q = bus.query_span_start("query", i as f64, &[]);
            bus.event("tape.mount", i as f64 + 0.1, &[]);
            bus.query_span_end(q, i as f64 + 0.5);
        }
        let recs = bus.records();
        check_well_nested(&recs).unwrap();
        let queries = recs
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart && r.name == "query")
            .count();
        assert_eq!(queries, 3, "1-in-3 sampling keeps 3 of 9 queries");
        // The sampling rate is announced in-band.
        assert!(recs
            .iter()
            .any(|r| r.name == "trace.config"
                && r.fields.contains(&("sample_1_in_n", Field::U64(3)))));
    }

    #[test]
    fn slow_sampled_out_queries_are_kept() {
        let cfg = TraceConfig::ring(1 << 12)
            .with_sample(1000)
            .with_keep_slow(5.0);
        let bus = TraceBus::from_config(&cfg);
        // Query 0 is head-sampled in; 1 is fast (dropped); 2 is slow (kept).
        let q = bus.query_span_start("query", 0.0, &[]);
        bus.query_span_end(q, 0.1);
        let q = bus.query_span_start("query", 1.0, &[]);
        bus.query_span_end(q, 1.1);
        let q = bus.query_span_start("query", 2.0, &[("slow", Field::U64(1))]);
        bus.event("tape.mount", 4.0, &[]);
        bus.query_span_end(q, 9.0);
        let recs = bus.records();
        check_well_nested(&recs).unwrap();
        let queries: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart && r.name == "query")
            .collect();
        assert_eq!(queries.len(), 2, "head-kept + slow-kept");
        assert!(queries
            .iter()
            .any(|r| r.fields.contains(&("slow", Field::U64(1)))));
        assert!(
            recs.iter()
                .any(|r| r.name == "tape.mount" && r.parent.is_some()),
            "promoted slow query keeps its events"
        );
    }

    #[test]
    fn subsystem_levels_filter_records() {
        let cfg = TraceConfig::ring(256)
            .with_level(Subsystem::Tape, TraceLevel::Off)
            .with_level(Subsystem::Hsm, TraceLevel::Spans);
        let bus = TraceBus::from_config(&cfg);
        let q = bus.span_start("query", 0.0, &[]);
        let t = bus.span_start("tape.transfer", 0.1, &[]); // dropped (Off)
        bus.event("tape.mount", 0.2, &[]); // dropped (Off)
        bus.span_end(t, 0.3);
        let h = bus.span_start("hsm.stage", 0.4, &[]); // kept (Spans)
        bus.event("hsm.purge", 0.5, &[]); // dropped (Spans < All)
        bus.span_end(h, 0.6);
        bus.span_end(q, 1.0);
        let recs = bus.records();
        check_well_nested(&recs).unwrap();
        let names: Vec<&str> = recs.iter().map(|r| r.name).collect();
        assert!(!names.contains(&"tape.transfer"));
        assert!(!names.contains(&"tape.mount"));
        assert!(!names.contains(&"hsm.purge"));
        assert!(names.contains(&"hsm.stage"));
        // The hsm span still nests under the query.
        let hsm = recs
            .iter()
            .find(|r| r.name == "hsm.stage" && r.kind == RecordKind::SpanStart)
            .unwrap();
        assert_eq!(hsm.parent, Some(q));
    }

    #[test]
    fn record_json_escapes_fields() {
        let rec = TraceRecord {
            seq: 1,
            kind: RecordKind::Event,
            name: "e",
            sim_s: 0.0,
            wall_unix_s: 0.0,
            span: 0,
            parent: None,
            session: None,
            fields: vec![("msg", Field::Str("a\"b".into()))],
        };
        assert!(rec.to_json().contains(r#""msg":"a\"b""#));
    }

    #[test]
    fn links_and_sessions_round_trip() {
        let bus = TraceBus::ring(64);
        bus.set_session(7);
        let q = bus.span_start("query", 0.0, &[]);
        let f = bus.span_start("heaven.st_fetch", 0.5, &[]);
        bus.link("sched.link", 1.0, f, 999, &[("coalesced", Field::U64(1))]);
        bus.span_end(f, 2.0);
        bus.span_end(q, 3.0);
        bus.set_session(0);
        bus.event("e", 4.0, &[]);
        let recs = bus.records();
        check_well_nested(&recs).unwrap();
        let link = recs.iter().find(|r| r.kind == RecordKind::Link).unwrap();
        assert_eq!(link.name, "sched.link");
        assert_eq!(link.span, f);
        assert_eq!(link.parent, Some(999));
        assert_eq!(link.session, Some(7));
        assert!(link.to_json().contains("\"kind\":\"link\""));
        assert!(link.to_json().contains("\"session\":7"));
        // Every record inside the session carries it; the cleared-session
        // event does not.
        assert!(recs
            .iter()
            .filter(|r| r.name != "e")
            .all(|r| r.session == Some(7)));
        assert_eq!(recs.iter().find(|r| r.name == "e").unwrap().session, None);
        // Links with a zero endpoint are dropped, not emitted.
        bus.link("sched.link", 5.0, 0, 999, &[]);
        assert!(!bus.records().iter().any(|r| r.sim_s == 5.0));
    }

    #[test]
    fn inline_and_escaped_strings_survive_the_compact_form() {
        let bus = TraceBus::ring(16);
        bus.event("e", 0.0, &[("msg", Field::dyn_str("a\"b\\c"))]);
        let recs = bus.records();
        assert_eq!(recs[0].fields[0].1, Field::Str("a\"b\\c".into()));
        assert!(recs[0].to_json().contains(r#""msg":"a\"b\\c""#));
    }

    #[test]
    fn bounds_fields_render_inline_and_spill_when_long() {
        let short = Field::bounds([(0, 63), (-8, 7)]);
        assert!(matches!(short, Field::Small(_)));
        assert_eq!(short.as_str(), Some("[0:63,-8:7]"));
        let extremes = [(i64::MIN, i64::MAX)];
        let long = Field::bounds(extremes);
        assert!(matches!(long, Field::Sym(_)));
        assert_eq!(
            long.as_str(),
            Some(&*format!("[{}:{}]", i64::MIN, i64::MAX))
        );
    }
}
