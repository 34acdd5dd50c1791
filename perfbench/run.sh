#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root with the given arguments, e.g.
#   bash perfbench/run.sh --workload lubm-serve --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and generated inputs stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p .bench_build
go -C perfbench build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
