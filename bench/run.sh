#!/bin/bash
# The benchmark driver's entry point (BENCHMARK.json "command"): builds the
# benchmark from source into .bench_build/ in the checkout — Go build cache
# included, so nothing is read or written outside it — and runs it with the
# driver's arguments. It must be started from the repository root.
set -eu

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/lbrm-bench" ./bench
exec "$out/lbrm-bench" "$@"
