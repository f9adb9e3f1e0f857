#!/usr/bin/env bash
# Builds knncostd and the perfbench load generator from this checkout, then
# runs one benchmark pass; every argument is passed on to perfbench:
#
#   bash perfbench/run.sh --workload select_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, the daemon's cache directories,
# span files and result records.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

cd "$root"
go build -o "$build/bin/knncostd" ./cmd/knncostd >&2
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" -knncostd "$build/bin/knncostd" -work "$build/perfbench" "$@"
