#!/bin/sh
# Builds the benchmark from source into the checkout's own build directory
# and runs it with the arguments given. Run from the root of the repository:
#
#	sh benchmark/run.sh --workload serve-hot --seed 1 --seconds 14 --trace 0
#
# Everything the build writes (the Go build cache included) stays under
# .bench_build, so a run touches nothing outside the checkout.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
