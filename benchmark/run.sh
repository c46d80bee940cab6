#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the checkout root:
#
#   bash benchmark/run.sh --workload cc_ms_local --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run leave behind stays under .bench_build/ in
# the checkout (Go build cache, binaries, inputs, spill files, results).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # Go telemetry counters
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/dss-benchmark" .)
cd "$root"
exec "$build/dss-benchmark" "$@"
