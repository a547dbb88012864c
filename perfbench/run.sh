#!/usr/bin/env bash
# Builds the benchmark harness and the qosd daemon from the source tree
# this script sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload hot_small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and
# temporary file goes under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
# Offline, local-toolchain builds only: nothing is fetched.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

# Build to private names first and rename, so a concurrent run never
# executes a half-written binary.
go -C perfbench build -o "$build/bin/perfbench.$$" .
go build -o "$build/bin/qosd.$$" ./cmd/qosd
mv -f "$build/bin/perfbench.$$" "$build/bin/perfbench"
mv -f "$build/bin/qosd.$$" "$build/bin/qosd"

exec "$build/bin/perfbench" -qosd "$build/bin/qosd" "$@"
