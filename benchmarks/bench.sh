#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source inside the
# checkout (build cache included, so nothing is written outside it) and runs
# it with the arguments given:
#
#   bash benchmarks/bench.sh --workload ycsb-a --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/benchmarks" . >&2
exec "$build/benchmarks" "$@"
