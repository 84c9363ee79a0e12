#!/usr/bin/env bash
# Builds the benchmark program from source and runs one workload:
#
#   bash benchmark/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, durable-engine temp dirs, span dumps) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOTELEMETRY=off

(cd "$root/benchmark" && go build -o "$out/gcbench" .)
exec "$out/gcbench" "$@"
