#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command, run from the root of a checkout:
#
#   bash bench/run.sh --workload serve_hot --seed 3 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, the binary) stays
# inside the checkout, under .bench_build/, and nothing is downloaded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/fuzzybench" .
exec "$build/fuzzybench" -traces "$here/results" "$@"
