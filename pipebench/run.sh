#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash pipebench/run.sh --workload publish-large --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory (Go build cache, binary, scratch files, traces).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTELEMETRY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
go -C pipebench build -o "$out/pipebench" .
exec "$out/pipebench" -workdir "$out" "$@"
