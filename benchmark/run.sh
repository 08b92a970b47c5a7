#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ at the root of the checkout, then runs it with the arguments
# given. Everything it writes — build cache, binary, traces, scratch data
# directories — stays inside the checkout, under git-ignored directories.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out benchmark/out "$@"
