#!/usr/bin/env bash
# Builds the loop benchmark from source and runs it with the given flags:
#
#   bash loopbench/run.sh --workload ingest-backlog --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build cache, binary, profiles and span
# dumps all stay under .bench_build/ in that directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/loopbench" && go build -o "$out/loopbench" .)
exec "$out/loopbench" -out "$out" "$@"
