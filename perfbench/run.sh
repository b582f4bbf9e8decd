#!/usr/bin/env bash
# Builds the repository benchmark (perfbench) from source and runs it.
#
#   bash perfbench/run.sh --workload bfs-ada --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temp files, the binary, spans and per-layer JSON) stays
# under .bench_build/ and .bench_out/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -tmp "$build/tmp" -out "$root/.bench_out" "$@"
