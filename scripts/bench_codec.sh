#!/usr/bin/env bash
# Collects the codec performance numbers quoted in README and DESIGN §9:
#
#   1. runs the codec_throughput bench with PRONGHORN_BENCH_JSON set, so
#      every result is also appended to results/codec_throughput.jsonl
#      (one JSON object per line: group, bench, ns_per_iter, plus MB/s
#      for the groups that charge payload bytes);
#   2. runs `experiments summary`, which writes results/BENCH_grid.json
#      (grid wall-clock + merged codec counters; no throughput numbers —
#      those come from step 1 alone).
#
# Usage: scripts/bench_codec.sh [--quick]
#   --quick  forwards the experiments harness's reduced-size mode.

set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results
JSONL=results/codec_throughput.jsonl
: > "$JSONL"

echo "== codec_throughput bench (JSON -> $JSONL) =="
# Absolute path: cargo runs the bench binary from the package directory.
PRONGHORN_BENCH_JSON="$PWD/$JSONL" cargo bench -q -p pronghorn-checkpoint --bench codec_throughput

echo
echo "== experiments summary (writes results/BENCH_grid.json) =="
cargo run -q --release -p pronghorn-experiments -- summary "$@"

echo
echo "== artifacts =="
ls -l "$JSONL" results/BENCH_grid.json
