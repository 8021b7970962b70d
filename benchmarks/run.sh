#!/usr/bin/env bash
# The one entry point for CI: format, vet and test the benchmark, run the
# whole suite, then compare the run against itself, which must be "same" on
# every row. Pass -scale smoke (or any other flag of the benchmark) to shorten
# the run:
#
#   bash benchmarks/run.sh [-scale smoke] [-seed N]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local

unformatted="$(gofmt -l "$here")"
if [ -n "$unformatted" ]; then
	echo "gofmt would change: $unformatted" >&2
	exit 1
fi
go vet -C "$here" ./...
go test -C "$here" ./...

result="$build/result.json"
bash "$here/bench.sh" "$@" -out "$result"
"$build/benchmarks" -compare "$result" "$result" | tee "$build/self-compare.txt"
if grep -Eq ' (better|worse|unresolved) ' "$build/self-compare.txt"; then
	echo "a run compared with itself is not all \"same\"" >&2
	exit 1
fi
