#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
# Run from the repository root:
#
#	bash bench/run.sh --workload killchain --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (Go build cache, the binary) stays
# under .bench_build/ in the current directory; the benchmark itself
# writes nothing unless asked to with --out or --spans.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
