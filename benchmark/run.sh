#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; arguments pass through.
# Run from the repository root: bash benchmark/run.sh -workload serve_warm
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/monsoond ]; then
	echo "benchmark: run from the root of a monsoon checkout (go.mod and cmd/monsoond not found)" >&2
	exit 2
fi

# Everything the build writes stays inside the checkout, under the directory
# benchmark/out/.gitignore already keeps out of git.
build="$PWD/benchmark/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false

go build -C benchmark -o "$build/monsoon-benchmark" .
exec "$build/monsoon-benchmark" "$@"
