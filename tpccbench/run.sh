#!/usr/bin/env bash
# Builds tpccbench from this checkout and runs it with the given flags:
#   bash tpccbench/run.sh --workload tpcc-fastlog --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The build cache and the binary live in
# .bench_build/, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export PPROF_TMPDIR="$root/.bench_build/pprof"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$PPROF_TMPDIR"
go -C tpccbench build -o "$root/.bench_build/tpccbench" . >&2
exec "$root/.bench_build/tpccbench" "$@"
