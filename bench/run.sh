#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout and run it with the
# arguments given. Everything the build and the run write — Go's build cache,
# its temporary files, the binary, WAL directories, traces — stays inside the
# checkout, under .bench_build/ and bench/out/. The first call in a checkout
# compiles; later calls find the cache warm.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

# Fails here, before any result is printed, when the tree around bench/ is
# missing (no go.mod, no product packages).
go build -o "$build/bench" ./bench

exec "$build/bench" "$@"
