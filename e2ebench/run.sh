#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload bank --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and tool configuration all live under
# .bench_build/ in the checkout, and the toolchain never goes to the
# network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
