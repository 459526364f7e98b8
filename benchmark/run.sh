#!/usr/bin/env bash
# Entry point of the repository benchmark (see BENCHMARK.json and
# benchmark/README.md). Builds the benchmark program from the checkout's
# source and runs it with the arguments given; the program builds harpd the
# same way. Everything written — binaries, the Go build cache, sockets, state
# directories, trace files — stays under .bench_build/ in the checkout.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build/bin
export GOCACHE="$PWD/.bench_build/gocache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

go build -o .bench_build/bin/harp-benchmark ./benchmark
exec .bench_build/bin/harp-benchmark "$@"
