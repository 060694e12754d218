#!/usr/bin/env bash
# The local CI gate: formatting, lints, the tier-1 release build, and the
# full workspace test suite. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone

echo "==> no allocating Field::Str at instrumentation sites"
# Instrumentation call sites must use Field::StaticStr / Field::dyn_str /
# numeric fields: Field::Str(..) heap-allocates on the trace fast path.
if grep -rn 'Field::Str(' \
    crates/tape/src crates/hsm/src crates/core/src \
    crates/rdbms/src crates/arraydb/src; then
  echo "Field::Str at an instrumentation site: use Field::StaticStr or Field::dyn_str"
  exit 1
fi

echo "==> no unobservable locks in core/hsm"
# Concurrency-critical crates must lock through the vendored parking_lot
# (contention-counting, timed acquisition feeding cache.shard_lock_wait_s)
# and stay Sync: raw std::sync::Mutex hides contention, RefCell breaks
# Sync at a distance.
if grep -rn 'std::sync::Mutex\|RefCell' crates/core/src crates/hsm/src; then
  echo "raw std::sync::Mutex/RefCell in core/hsm: use parking_lot"
  exit 1
fi

echo "==> one tertiary staging path in core"
# Every tertiary payload enters the hierarchy through the engine's
# stage/admit pair (crates/core/src/concurrent.rs). A second call site of
# the recovery ladder, or a second registration of the fetch counter,
# means a second staging path has crept back in. Every staging path
# orders its fetches through scheduler::fetch_order: a call of the bare
# scheduler (word-bounded, so note_schedule( does not count) outside
# scheduler.rs means a hand-copied scheduled/arrival choice is back.
ladder_calls=$(grep -rn 'read_with_recovery(' crates/core/src \
  | grep -vc '^crates/core/src/recovery.rs:' || true)
fetch_counters=$(grep -rn '"heaven.st_tape_fetches"' crates/core/src | wc -l)
schedule_calls=$(grep -rn '\bschedule(' crates/core/src \
  | grep -vc '^crates/core/src/scheduler.rs:' || true)
if [ "$ladder_calls" -ne 1 ] || [ "$fetch_counters" -ne 1 ] || [ "$schedule_calls" -ne 0 ]; then
  echo "read_with_recovery( call sites outside recovery.rs: $ladder_calls (want 1)"
  echo "\"heaven.st_tape_fetches\" registrations: $fetch_counters (want 1)"
  echo "schedule( call sites outside scheduler.rs: $schedule_calls (want 0)"
  exit 1
fi
# The recovery ladder's decisions (transient or not, checksum verdict)
# live in recovery.rs alone, and every staging path steps its Ladder: an
# is_transient( or checksum_failures.inc( in the non-test code of another
# core file (each file's trailing #[cfg(test)] block is exempt) means a
# hand-copied ladder is back.
for pat in 'is_transient(' 'checksum_failures.inc('; do
  for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/recovery.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "$pat"; then
      echo "$pat in $f: step recovery::Ladder instead"
      exit 1
    fi
  done
done

echo "==> one archive write path in core"
# Export (both modes) and update_region write super-tiles through one
# function (Heaven::archive_supertile in crates/core/src/export.rs). A
# second call site of the encoder or of the replica writer in the
# non-test code of crates/core/src (each file's trailing #[cfg(test)]
# block is exempt; supertile.rs defines the encoder) means a hand-copied
# write path has crept back in.
for fn in 'encode_supertile(' 'append_replica('; do
  calls=0
  for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/supertile.rs ] && continue
    n=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -c "$fn" || true)
    calls=$((calls + n))
  done
  if [ "$calls" -ne 1 ]; then
    echo "$fn call sites in non-test crates/core/src: $calls (want 1)"
    exit 1
  fi
done

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark smoke (perfbench builds against the public API)"
# perfbench/ is its own workspace compiled against the ObjectMeta and
# TileProvider API; the smoke run builds it and checks every workload
# prints each BENCHMARK.json metric, so an API change that breaks the
# benchmark fails here.
python3 perfbench/run.py --smoke

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> array kernels against their references (release)"
# The typed kernels must write the bytes of their per-cell references
# (NaN bits included), and optimization can fold conversions the debug
# build keeps, so the array tests run optimized too.
cargo test -q --release -p heaven-array

echo "==> concurrency stress + invariants (release)"
# The sharded-cache stress and batching invariants are timing-sensitive;
# run them optimized, as the bench does.
cargo test -q --release -p heaven-core --test concurrency
# The batcher has no timed backstop: a lost wake-up shows as a hang, not
# as a stall. Rerun the timing-sensitive binaries under a timeout.
for run in $(seq 10); do
  for target in heaven-core:concurrency heaven-prof:causal_chaos; do
    if ! out=$(timeout 300 cargo test -q --release -p "${target%%:*}" --test "${target#*:}" 2>&1); then
      echo "$out"
      echo "${target#*:} failed or hung on rerun $run of 10"
      exit 1
    fi
  done
done

echo "==> concurrency bench smoke"
tmpjson="$(mktemp)"
cargo bench -p heaven-bench --bench concurrency -- --json "$tmpjson" > /dev/null
for key in '"bench": "concurrency"' '"speedup_16_over_1"' '"fifo_mounts"' '"batched_mounts"'; do
  grep -q "$key" "$tmpjson" || { echo "BENCH_concurrency.json missing $key"; exit 1; }
done
python3 - "$tmpjson" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["warm"]["speedup_16_over_1"] >= 3.0, d["warm"]
assert d["cold"]["batched_mounts"] < d["cold"]["fifo_mounts"], d["cold"]
EOF
rm -f "$tmpjson"

echo "==> super-tile checksum catches every bit flip (release)"
# The 32 KiB sweep flips all 262144 bits only when optimized; the debug
# workspace run above samples every 97th.
cargo test -q --release -p heaven-core --lib supertile::tests::checksum

echo "==> seeded chaos smoke"
# The fault-schedule property tests (any schedule: exact bytes or typed
# MediaLost, never silent corruption) run optimized, then one faults
# bench pass checks the injected/recovered ledger end to end.
cargo test -q --release -p heaven-core --test chaos_proptests
chaosjson="$(mktemp)"
cargo bench -p heaven-bench --bench faults -- --json "$chaosjson" > /dev/null
python3 - "$chaosjson" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
clean, faulty = d["clean"], d["faulty"]
assert clean["silent_corruption"] == 0 and faulty["silent_corruption"] == 0, d
assert clean["media_lost_queries"] == 0, clean
assert faulty["drive_failures"] > 0 and faulty["retries"] > 0, faulty
assert faulty["checksum_failures"] == faulty["corrupted_reads"], faulty
assert d["recovery_overhead_p99"] >= 1.0, d
EOF
rm -f "$chaosjson"

echo "==> no per-point CellValue::read in condenser hot loops"
# Aggregation kernels must run the monomorphized per-cell-type loops;
# a CellValue::read in ops.rs reintroduces a match per point.
if grep -n 'CellValue::read' crates/array/src/ops.rs; then
  echo "CellValue::read in crates/array/src/ops.rs: use the typed kernels"
  exit 1
fi

echo "==> no per-point walks in region kernels"
# Copy, slice, block folds, condenser folds and induced ops run on the
# row-run walker (Minterval::row_runs) or one typed pass; a point
# iterator or point_at in the non-test code of mdd.rs/ops.rs or the query
# executor brings back a Point and a division per row or cell. Each
# file's test module (its trailing #[cfg(test)] block) is exempt.
for f in crates/array/src/mdd.rs crates/array/src/ops.rs crates/arraydb/src/ql/exec.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'iter_points(\|point_at('; then
    echo "per-point walk in $f: use Minterval::row_runs"
    exit 1
  fi
done

echo "==> no victim scan in the caches"
# Both cache levels choose victims from the per-shard lazy heap; a
# min_by/min_by_key in the non-test code of cache.rs brings back an O(n)
# scan under the shard lock. The trailing #[cfg(test)] block is exempt.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/cache.rs | grep -n 'min_by(\|min_by_key('; then
  echo "victim scan in crates/core/src/cache.rs: pop the shard's victim heap"
  exit 1
fi

echo "==> one tile-cache probe pass per staging pass"
# ConcurrentHeaven::plan probes all of a pass's tiles with one
# TileCache::get_many (each stripe locked once, counters bumped once); a
# single tile_cache.get( in the non-test code of concurrent.rs brings
# back a lock and a counter bump per tile. The trailing #[cfg(test)]
# block is exempt.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/concurrent.rs | grep -n 'tile_cache\.get('; then
  echo "tile_cache.get( in crates/core/src/concurrent.rs: probe through get_many"
  exit 1
fi

echo "==> codec bench smoke"
# One pass over all payload classes: schema keys present, the fast RLE
# decode holds its margin over the scalar reference on run-heavy data,
# and the adaptive probe stays within 1% of a raw pass-through on
# incompressible data (which must select the raw codec). The super-tile
# checksum must hold a 4x margin over byte-serial FNV-1a: a ratio on one
# host, so it does not depend on how fast the host is.
codecjson="$(mktemp)"
cargo bench -p heaven-bench --bench codec -- --json "$codecjson" > /dev/null
for key in '"bench": "codec"' '"adaptive_raw_overhead_vs_memcpy_pct"' '"classes"' '"rle_decode_speedup"' '"checksum_speedup_vs_fnv"'; do
  grep -q "$key" "$codecjson" || { echo "BENCH_codec.json missing $key"; exit 1; }
done
python3 - "$codecjson" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
classes = {c["class"]: c for c in d["classes"]}
assert {"constant", "classified", "ramp_i32", "random"} <= classes.keys(), classes.keys()
assert classes["constant"]["rle_decode_speedup"] >= 4.0, classes["constant"]
assert classes["constant"]["seed_rle_decode_speedup"] >= 1.0, classes["constant"]
assert d["adaptive_raw_overhead_vs_memcpy_pct"] <= 1.0, d["adaptive_raw_overhead_vs_memcpy_pct"]
adaptive = [r for r in classes["random"]["codecs"] if r["mode"] == "adaptive"]
assert adaptive and adaptive[0]["codec"] == "raw", adaptive
assert d["checksum"]["checksum_speedup_vs_fnv"] >= 4.0, d["checksum"]
EOF
rm -f "$codecjson"

echo "==> BENCH_*.json schema validation (one pass)"
# Every checked-in bench artifact must exist and carry its expected
# top-level keys; a BENCH file without a schema entry here is an error
# (add the entry when adding the bench).
python3 - <<'EOF'
import glob, json, os
SCHEMAS = {
    "BENCH_codec.json": {
        "bench", "baseline", "classes", "memcpy_gib_s",
        "payload_bytes", "adaptive_raw_overhead_vs_memcpy_pct", "checksum",
    },
    "BENCH_concurrency.json": {"bench", "model", "warm", "cold"},
    "BENCH_faults.json": {
        "bench", "model", "clean", "faulty",
        "recovery_overhead_p99", "recovery_overhead_p999",
    },
    "BENCH_materialize.json": {"bench", "baseline", "configs"},
    "BENCH_obs_overhead.json": {"bench", "queries", "workload", "sinks"},
}
found = {os.path.basename(p) for p in glob.glob("BENCH_*.json")}
missing = set(SCHEMAS) - found
assert not missing, f"checked-in bench files missing: {sorted(missing)}"
unknown = found - set(SCHEMAS)
assert not unknown, f"BENCH files without a schema entry: {sorted(unknown)}"
for name, keys in SCHEMAS.items():
    d = json.load(open(name))
    absent = keys - d.keys()
    assert not absent, f"{name} missing keys {sorted(absent)}"
sinks = {s["sink"] for s in json.load(open("BENCH_obs_overhead.json"))["sinks"]}
assert {"off", "ring", "jsonl"} <= sinks, sinks
print(f"validated {len(SCHEMAS)} bench artifacts")
EOF

echo "==> observability overhead re-run (links + exemplars on)"
# Fresh measurement, not the checked-in numbers: the ring sink must stay
# within 5% of tracing-off with link records and histogram exemplars
# compiled into the fast path. The bench minimizes over order-rotated
# rounds against prebuilt systems, but on a single-vCPU shared runner the
# off baseline itself drifts several percent between invocations, so one
# reading can straddle the bound; a true regression (an allocation or a
# syscall on the record path is 5-20x, not 1%) fails every attempt.
obsjson="$(mktemp)"
obs_ok=0
for attempt in 1 2 3 4; do
  scripts/bench_obs.sh "$obsjson" > /dev/null
  if python3 - "$obsjson" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
ring = next(s for s in d["sinks"] if s["sink"] == "ring")
sys.exit(0 if ring["overhead_vs_off"] <= 0.05 else 1)
EOF
  then obs_ok=1; break; fi
  echo "  ring overhead > 5% on attempt $attempt, retrying"
done
[ "$obs_ok" = 1 ] || { echo "ring-sink overhead exceeded 5% in 4 runs"; exit 1; }
rm -f "$obsjson"

echo "==> causal cross-session trace acceptance (release)"
# 8 chaos-stressed sessions: links attribute every query to its shared
# batch fetch, queue/service histograms fill, the stall watchdog fires,
# and exemplars surface in the Prometheus exposition. Timing-sensitive
# (batch windows), so run optimized like the other concurrency gates.
cargo test -q --release -p heaven-prof --test causal_chaos

echo "==> ring-path allocation guarantee"
# Named explicitly so a regression in the zero-allocation fast path fails
# CI even if someone filters these files out of the workspace run.
cargo test -q -p heaven-obs --test alloc_free
cargo test -q --test trace_alloc

echo "==> heaven-prof smoke test"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release --example quickstart -- --trace "$tmpdir/quickstart.jsonl" > /dev/null
cargo run --release -p heaven-prof -- "$tmpdir/quickstart.jsonl" --out-dir "$tmpdir/prof" > /dev/null
for f in flame.folded timeline.json tail.txt critical_path.json; do
  [ -s "$tmpdir/prof/$f" ] || { echo "heaven-prof artifact $f missing or empty"; exit 1; }
done
# flame.folded: every line is "stack<space>integer-weight"
awk '!/ [0-9]+$/ { exit 1 }' "$tmpdir/prof/flame.folded" \
  || { echo "flame.folded has malformed lines"; exit 1; }
# timeline.json: a JSON object with windows, session lanes, link edges
for key in '"windows":\[' '"lanes":\[' '"edges":\['; do
  grep -q "$key" "$tmpdir/prof/timeline.json" \
    || { echo "timeline.json missing $key"; exit 1; }
done
# critical_path.json: per-query rows with causal totals
grep -q '"totals":{' "$tmpdir/prof/critical_path.json" \
  || { echo "critical_path.json missing totals"; exit 1; }
# tail.txt: header plus at least one span row
[ "$(wc -l < "$tmpdir/prof/tail.txt")" -ge 2 ] \
  || { echo "tail.txt has no span rows"; exit 1; }

echo "==> heaven-prof smoke test (head-sampled trace)"
cargo run --release --example quickstart -- \
  --trace "$tmpdir/sampled.jsonl" --trace-sample 2 > /dev/null
cargo run --release -p heaven-prof -- "$tmpdir/sampled.jsonl" \
  --out-dir "$tmpdir/prof-sampled" > "$tmpdir/prof-sampled.out"
grep -q 'head-sampled 1-in-2' "$tmpdir/prof-sampled.out" \
  || { echo "heaven-prof did not report the sampling rate"; exit 1; }
[ -s "$tmpdir/prof-sampled/flame.folded" ] \
  || { echo "sampled-trace flame.folded missing or empty"; exit 1; }

echo "CI gate passed."
