#!/usr/bin/env bash
# Run the wire-codec benchmark (raw / rle / shuffle_rle per data class,
# fast RLE vs the scalar reference and the seed codec, adaptive probe
# overhead, super-tile checksum vs byte-serial FNV-1a) and record
# machine-readable results.
set -euo pipefail
cd "$(dirname "$0")/.."

# cargo runs bench binaries from the package dir: make the path absolute
out="$(pwd)/${1:-BENCH_codec.json}"
cargo bench -p heaven-bench --bench codec -- --json "$out"
