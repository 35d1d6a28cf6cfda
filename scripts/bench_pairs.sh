#!/usr/bin/env bash
# Compares two checkouts on one benchmark workload in alternating pairs:
#
#   1. builds each checkout's `benchmark/` package in release mode, in
#      that checkout's own target directory (`<dir>/benchmark/target`);
#   2. runs the two benchmarks alternately, `<pairs>` times, each run at
#      `--seconds 3 --trace 0` with the same seed (which side runs first
#      alternates too, so a drift in the host's speed hits both sides);
#   3. prints each side's `# sim_digest` (the hash of everything the run
#      simulated), then, for each end-to-end metric that BENCHMARK.json
#      lists, the median over the pairs of each side, the parent's
#      quartiles, and in how many pairs the change was better (in the
#      metric's direction).
#
# Only pairs measured on one host compare, and only when both sides
# simulated the same thing: the digests must agree. A gain is evidence
# when the change wins most pairs and its median lies outside the
# parent's quartiles.
#
# Usage: scripts/bench_pairs.sh [--quick] <parent-dir> <change-dir> <workload> <pairs> [seed]
#   --quick  runs the benchmark's tiny scale at `--seconds 0` (a smoke
#            check of the build and of the result line, not a measurement).
#   seed     defaults to 2654435769, the seed `results/sim_digests.txt`
#            pins.
#
# Exits non-zero if a build fails, a run reports `"correct": false` or
# prints no digest, a result line lacks one of the end-to-end metrics, or
# the parent's and the change's digests differ (after printing the table).

set -euo pipefail

quick=()
seconds=3
if [[ "${1:-}" == "--quick" ]]; then
    quick=(--quick)
    seconds=0
    shift
fi
if [[ $# -lt 4 || $# -gt 5 ]]; then
    sed -n 's/^# Usage: //p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed=${5:-2654435769}

for dir in "$parent" "$change"; do
    echo "== building $dir/benchmark ==" >&2
    env -u CARGO_TARGET_DIR cargo build --release --quiet --offline --locked \
        --manifest-path "$dir/benchmark/Cargo.toml"
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run of side $1 (directory $2): its JSON result line, appended to
# $out/$1.jsonl, and its `# sim_digest`, appended to $out/$1.digests.
run() {
    local report
    report=$(cd "$2" && ./benchmark/target/release/pronghorn-benchmark \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        "${quick[@]}")
    tail -n 1 <<< "$report" >> "$out/$1.jsonl"
    sed -n 's/^# sim_digest \([0-9a-f]*\)$/\1/p' <<< "$report" >> "$out/$1.digests"
}

for ((k = 1; k <= pairs; k++)); do
    echo "== pair $k of $pairs ==" >&2
    if ((k % 2)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
done

python3 - "$change/BENCHMARK.json" "$out/parent.jsonl" "$out/change.jsonl" \
    "$workload" "$seed" "$seconds" "$out/parent.digests" "$out/change.digests" <<'EOF'
import json
import statistics
import sys

bench, parent_path, change_path, workload, seed, seconds = sys.argv[1:7]
parent_digests, change_digests = sys.argv[7:]
metrics = json.load(open(bench))["end_to_end"]


def load(path):
    runs = [json.loads(line) for line in open(path)]
    for r in runs:
        if not r.get("correct"):
            sys.exit(f"{path}: a run reports incorrect outputs: {r}")
    return runs


parent, change = load(parent_path), load(change_path)


def digest(path, runs):
    found = open(path).read().split()
    if len(found) != runs or len(set(found)) != 1:
        sys.exit(f"{path}: expected one equal # sim_digest per run: {found}")
    return found[0]


digests = digest(parent_digests, len(parent)), digest(change_digests, len(change))


def values(runs, name):
    try:
        return [r["metrics"][name]["value"] for r in runs]
    except KeyError:
        sys.exit(f"result line lacks end-to-end metric {name}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print(f"# {workload} seed {seed}, --seconds {seconds}, pairs: {len(parent)}")
print(f"# sim_digest parent {digests[0]} change {digests[1]}")
print(f"{'metric':<15}{'parent':>14}{'change':>14}{'delta':>9}"
      f"{'parent q1':>14}{'parent q3':>14}{'won':>7}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p, c = values(parent, name), values(change, name)
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
    print(f"{name:<15}{pm:>14.6g}{cm:>14.6g}{delta:>9}"
          f"{q1:>14.6g}{q3:>14.6g}{won:>4}/{len(p)}")
if digests[0] != digests[1]:
    sys.exit("parent and change simulated different things: the sim_digests differ")
EOF
