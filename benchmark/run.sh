#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build leaves behind (binary, Go build and module
# caches, trace files) lands in .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/plinius-benchmark" .)
cd "$root"
exec "$build/plinius-benchmark" "$@"
