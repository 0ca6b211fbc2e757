#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it
# with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-point --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
