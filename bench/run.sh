#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go build cache, binary, store state, trace.json) stays under
# .bench_build/ in the checkout this is started from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/ndpipe-perf" .)
exec "$out/ndpipe-perf" -dir "$out" "$@"
