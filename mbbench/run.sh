#!/usr/bin/env bash
# Builds the mbTLS benchmark from the source tree it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash mbbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#   bash mbbench/run.sh selftest
#   bash mbbench/run.sh stability
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/mbbench"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/mbbench" && go build -o "$out/mbbench" .)
exec "$out/mbbench" "$@"
