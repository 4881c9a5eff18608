#!/usr/bin/env bash
# Builds the benchmark and the simulator it links from the sources of this
# checkout, then runs it with the given arguments. Everything the build
# writes (binary, Go build cache, Go config) stays under .bench_build.
#
#   bash perfbench/run.sh --workload fig2-sweep --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
