#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the Go build cache, the
# temporary build directory and the binary under .bench_build/, the runs'
# traces and scratch state under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd bench && go build -o "$build/govents-bench" .)
exec "$build/govents-bench" "$@"
