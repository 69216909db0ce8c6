#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gate-churn --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache included, stay under .bench_build
# in the current directory, so the run reads and writes nothing outside
# the checkout except the Go toolchain itself.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -golden "$here/golden" "$@"
