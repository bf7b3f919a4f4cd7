#!/usr/bin/env bash
# Builds the served-query benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload spatial-scan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary, temporary
# data directories and span files all stay under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
