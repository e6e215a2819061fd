#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark with every Go
# cache and temp file under benchmark/out/build (untracked), then runs it.
# `go -C benchmark run .` from the root does the same with the user's own
# Go cache.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/benchmark/out/build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters in the user's
# config dir, and a run may write only inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$build/config"
go -C "$root/benchmark" build -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
