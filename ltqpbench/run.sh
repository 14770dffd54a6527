#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments, e.g.
#
#   bash ltqpbench/run.sh --workload discover-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files and configuration live under .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C "$root/ltqpbench" build -o "$out/ltqpbench" . >&2
exec "$out/ltqpbench" "$@"
