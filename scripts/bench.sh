#!/usr/bin/env bash
# bench.sh — regenerate the model snapshot of the paper's figure cells.
#
# Runs the 54 Fig. 4/5 cells of bench_test.go once each and writes their
# model_ms and bytes_per_str, the two metrics the paper plots, to
# BENCH_<date>.json at the repository root:
#
#   {"date": ..., "results": [{"name", "model_ms", "bytes_per_str"}, ...]}
#
# Both metrics are exact counts, so one iteration is the value. The values
# are the benchmark's printed figures, which TestBenchSnapshotModelInvariance
# replays against the committed snapshot (the file named by benchSnapshot).
#
# Usage:
#   scripts/bench.sh                          # writes BENCH_<today>.json
#   BENCH_OUT=/tmp/snap.json scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

DATE="$(date +%Y-%m-%d)"
OUT="${BENCH_OUT:-BENCH_${DATE}.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkFig' -benchtime 1x . | tee "$RAW" >&2

awk -v date="$DATE" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # the -GOMAXPROCS suffix
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "model-ms")  ms = $i
        if ($(i + 1) == "bytes/str") bps = $i
    }
    rows[++n] = sprintf("    {\"name\": \"%s\", \"model_ms\": %s, \"bytes_per_str\": %s}", name, ms, bps)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"results\": [\n", date
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") cells)" >&2
