#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload proc4_mixed --seed 1 --seconds 10 --trace 0
#
# Everything the toolchain writes (binary, build cache, module path, its own
# configuration and counters) stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C benchmark -o "$build/orthrus-benchmark" .
exec "$build/orthrus-benchmark" "$@"
