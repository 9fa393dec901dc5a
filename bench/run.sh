#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload link-reactive --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build in
# the current directory, and nothing is fetched: the benchmark module
# depends only on the repository module next to it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	XDG_CACHE_HOME="$build/cache" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

go build -C bench -o "$build/reactivejam-bench" .
exec "$build/reactivejam-bench" "$@"
