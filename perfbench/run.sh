#!/usr/bin/env bash
# Builds the socyield benchmark from the checkout it is run in and runs
# it; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go caches,
# per-run scratch files and traces all stay under .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
