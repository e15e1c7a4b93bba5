#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it. Everything the go tool writes stays inside the checkout: build
# cache, module cache, temp files, and (via XDG_CONFIG_HOME) the telemetry
# counters it would otherwise leave under $HOME/.config/go. No cgo and no
# module proxy, so the build needs nothing but the go toolchain.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
cd "$root"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
