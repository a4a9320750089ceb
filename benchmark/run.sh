#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json names it). Run from the root
# of a checkout:
#
#   bash benchmark/run.sh --workload replay-easy --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -all
#
# Builds the benchmark and rlbf-serve from source into .bench_build/ (Go's
# build cache lives there too, so nothing is read or written outside the
# checkout and every run after the first rebuilds in a fraction of a second),
# then hands all arguments to the benchmark binary. In a directory without
# the repository's sources the build fails and so does this script.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(
  cd "$root/benchmark"
  go build -o "$build/bin/rlbf-bench" .
  go build -o "$build/bin/rlbf-serve" repro/cmd/rlbf-serve
) >&2

exec "$build/bin/rlbf-bench" "$@"
