#!/usr/bin/env bash
# Builds the benchmark (a module of its own in this directory) and runs it
# from the root of the checkout. Everything the Go toolchain writes — build
# cache, telemetry, binaries — stays inside the checkout, under .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
work="$PWD/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$work/stackbench" .)
exec "$work/stackbench" "$@"
