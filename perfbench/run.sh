#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from
# the checkout root. Everything the build and the run write stays in
# .bench_build under the checkout.
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -root "$root" -work "$build" "$@"
