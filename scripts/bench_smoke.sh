#!/usr/bin/env bash
# Bench smoke run: quick-mode passes of the headline criterion benches
# (traversal, verification, dispatch_policy, dynamic, parallel, serve,
# store, mst_scaling), parsed into the next trajectory point — one
# past the highest committed BENCH_N.json — so every PR leaves a
# machine-readable point on the bench trajectory.  `scripts/bench_gate.sh`
# compares this output against the highest committed BENCH_N.json.
#
#   ./scripts/bench_smoke.sh            # quick mode (40 ms budget per bench)
#   CRITERION_STUB_MS=200 ./scripts/bench_smoke.sh   # steadier numbers
#   ./scripts/bench_smoke.sh out.json   # custom output path
#
# Output: a JSON array of {suite, workload, n, ns_per_iter, iters} objects —
# `workload` is the full criterion id, `n` the trailing numeric size
# parameter when the id has one (null otherwise), `ns_per_iter` the best
# measured per-iteration wall-clock in nanoseconds.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK_MS="${CRITERION_STUB_MS:-40}"
LAST="$(git ls-files 'BENCH_*.json' | sed -n 's/^BENCH_\([0-9]*\)\.json$/\1/p' | sort -n | tail -n 1)"
OUT="${1:-BENCH_$((${LAST:-0} + 1)).json}"
BENCHES=(traversal verification dispatch_policy dynamic parallel serve store mst_scaling)

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

for bench in "${BENCHES[@]}"; do
    echo "== bench: $bench (CRITERION_STUB_MS=$QUICK_MS) =="
    CRITERION_STUB_MS="$QUICK_MS" cargo bench -p antennae-bench --bench "$bench" \
        | tee /dev/stderr | grep '^bench ' >> "$RAW" || true
done

# Lines look like:  bench group/id/n ... 12.345 µs/iter (1023 iters)
awk '
BEGIN { print "["; first = 1 }
$1 == "bench" {
    name = $2
    value = $4
    unit = $5
    sub(/\/iter$/, "", unit)
    iters = $6
    sub(/^\(/, "", iters)
    ns = value
    if (unit == "s")       ns = value * 1e9
    else if (unit == "ms") ns = value * 1e6
    else if (unit == "µs") ns = value * 1e3
    # suite = first path segment; n = trailing segment when numeric
    split(name, parts, "/")
    suite = parts[1]
    n = "null"
    last = parts[length(parts)]
    if (last ~ /^[0-9]+$/) n = last
    if (!first) printf(",\n")
    first = 0
    printf("  {\"suite\": \"%s\", \"workload\": \"%s\", \"n\": %s, \"ns_per_iter\": %.1f, \"iters\": %s}", suite, name, n, ns, iters)
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "bench_smoke: wrote $(grep -c '"workload"' "$OUT") entries to $OUT"
