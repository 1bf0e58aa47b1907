#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build reads or writes besides the Go toolchain itself
# (build cache, temporary files, module and telemetry directories, the
# binary) stays under .bench_build at the checkout root; arguments pass
# through.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
