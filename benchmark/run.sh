#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's build directory and
# runs it from the checkout's root. Everything the Go toolchain writes stays
# inside the checkout: the build cache would otherwise land in $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
