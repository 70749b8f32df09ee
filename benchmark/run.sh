#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark (a module of its own,
# benchmark/go.mod) and the elrec-serve binary it drives from this checkout's
# sources, then run one workload. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache and temp dir
# are pointed there too. Run from the checkout root.
#
#   bash benchmark/run.sh --workload serve_small --seed 1 --seconds 12 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$build/gopath}"

# go build is incremental against GOCACHE: after the first run this is a
# staleness check. Its output goes to stderr; stdout carries only the result.
go build -o "$build/bin/elrec-serve" ./cmd/elrec-serve >&2
go build -C benchmark -o "$build/bin/benchmark" . >&2

exec "$build/bin/benchmark" -serve-bin "$build/bin/elrec-serve" -out "$build/out" "$@"
