#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload dense --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -runs 10 -sets 2
#
# Everything the build and the runs write goes under .bench_build/ in the
# working directory: the Go build cache, the binary, and the result and span
# files.
set -euo pipefail
here=$(dirname "$0")
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
