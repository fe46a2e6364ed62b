#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload fit --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every file the build writes (Go build cache,
# temporary files, the binary) stays under .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
