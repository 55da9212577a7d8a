#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-congest --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
