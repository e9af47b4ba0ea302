#!/usr/bin/env bash
# Bench regression gate: runs scripts/bench_smoke.sh into BENCH_<N+1>.json,
# where BENCH_<N>.json is the highest committed trajectory point, and
# compares every workload that also appears in BENCH_<N>.json, failing when
# any entry regressed by more than the gate factor.
#
#   ./scripts/bench_gate.sh                 # gate at the default 2.0x
#   BENCH_GATE_FACTOR=1.5 ./scripts/bench_gate.sh   # stricter gate
#   ./scripts/bench_gate.sh --check-only    # compare an existing BENCH_<N+1>.json
#                                           # without re-running the benches
#
# Knobs:
#   BENCH_GATE_FACTOR  ratio of current/previous ns_per_iter that counts as a
#                      regression (default 2.0 — quick-mode smoke numbers are
#                      noisy, so the gate is deliberately loose).
#   CRITERION_STUB_MS  forwarded to bench_smoke.sh for steadier numbers.
#
# The CI workflow wires this as an *advisory* job (non-blocking): a red gate
# is a prompt to look at the numbers, not an automatic veto — container noise
# can trip it, and genuine regressions should be discussed in the PR.
set -euo pipefail
cd "$(dirname "$0")/.."

FACTOR="${BENCH_GATE_FACTOR:-2.0}"

# Previous trajectory point: the highest-numbered committed BENCH_*.json;
# this run writes the one after it.
LAST="$(git ls-files 'BENCH_*.json' | sed -n 's/^BENCH_\([0-9]*\)\.json$/\1/p' | sort -n | tail -n 1)"
if [[ -z "$LAST" ]]; then
    echo "bench_gate: no committed BENCH_*.json to compare against; nothing to gate"
    exit 0
fi
PREV="BENCH_${LAST}.json"
CURRENT="BENCH_$((LAST + 1)).json"
# Under GitHub Actions, name the file for the upload step.
if [[ -n "${GITHUB_OUTPUT:-}" ]]; then
    echo "bench_file=$CURRENT" >> "$GITHUB_OUTPUT"
fi

if [[ "${1:-}" != "--check-only" ]]; then
    ./scripts/bench_smoke.sh "$CURRENT"
fi
if [[ ! -f "$CURRENT" ]]; then
    echo "bench_gate: $CURRENT missing (run scripts/bench_smoke.sh first)" >&2
    exit 2
fi

echo "bench_gate: comparing $CURRENT against $PREV (gate factor ${FACTOR}x)"

# Extract "workload ns_per_iter" pairs from the flat JSON arrays.
extract() {
    tr ',' '\n' < "$1" | tr -d ' {}' | awk -F'"' '
        /"workload":/ { wl = $4 }
        /"ns_per_iter":/ { split($0, kv, ":"); printf "%s %s\n", wl, kv[2] }
    '
}

extract "$PREV" | sort > /tmp/bench_gate_prev.$$
extract "$CURRENT" | sort > /tmp/bench_gate_cur.$$
trap 'rm -f /tmp/bench_gate_prev.$$ /tmp/bench_gate_cur.$$' EXIT

join /tmp/bench_gate_prev.$$ /tmp/bench_gate_cur.$$ | awk -v factor="$FACTOR" '
{
    workload = $1; prev = $2; cur = $3
    ratio = (prev > 0) ? cur / prev : 1
    flag = (ratio > factor) ? "REGRESSED" : "ok"
    printf "%-55s %12.0f -> %12.0f ns  %6.2fx  %s\n", workload, prev, cur, ratio, flag
    if (ratio > factor) regressions++
    compared++
}
END {
    if (compared == 0) {
        print "bench_gate: no overlapping workloads between runs; nothing gated"
        exit 0
    }
    printf "bench_gate: %d workloads compared, %d regressed beyond %.2fx\n", \
        compared, regressions + 0, factor
    exit (regressions > 0) ? 1 : 0
}
'
