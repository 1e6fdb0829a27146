#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, span files and profiles all stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
