#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# every argument through. Everything the build writes (Go's build cache
# and temporary files, the binary) stays under .bench_build in the
# checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
go build -o "$out/ffbench" ./benchmark
exec "$out/ffbench" -traceout "$out" "$@"
