#!/usr/bin/env bash
# Builds the whole-run benchmark from the sources of the checkout it is
# started in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper50 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, cache and
# temporary file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" --out "$out" "$@"
