#!/usr/bin/env bash
# Builds the exchange benchmark from the sources in this checkout and runs it
# with the arguments given, from the root of the checkout:
#
#   bash exbench/run.sh --workload initial_load --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache and everything the run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go -C exbench build -o "$out/exbench" .
exec "$out/exbench" "$@"
