#!/usr/bin/env bash
# Builds cws-serve and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run directories stay under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"

# With telemetry in its default "local" mode, the first go command under a
# fresh HOME forks a detached telemetry sidecar that outlives this script.
# "go telemetry off" itself starts no sidecar.
go telemetry off

go build -o "$build/bin/cws-serve" ./cmd/cws-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --serve-bin "$build/bin/cws-serve" "$@"
