#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload repair_csv --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (the Go build cache, temporary files, request spools, plan stores) stays
# under .bench_build/ in the current directory. The benchmark is its own Go
# module that builds against the parent module, so outside a full checkout
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -dir "$build" "$@"
