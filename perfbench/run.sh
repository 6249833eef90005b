#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload flow-solo --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the answer digests and the span traces
# all go under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
