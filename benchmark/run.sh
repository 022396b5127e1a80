#!/usr/bin/env bash
# Driver entry point: builds the harness from source into .bench_build/ at the
# checkout root (Go's caches and temp files are kept there too, so nothing is
# written outside the checkout) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/memento-benchmark" .
exec "$build/memento-benchmark" -out "$here/out" "$@"
