#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the bench binary from source
# into .bench_build/ of the current checkout and runs it with the driver's
# arguments. Every file the toolchain and the benchmark write (build cache,
# temp dirs, spill runs, journals, traces) stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$(dirname "$0")" -o "$build/blmr-bench" .
exec "$build/blmr-bench" "$@"
