#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload mr --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
