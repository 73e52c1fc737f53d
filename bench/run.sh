#!/bin/bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: everything the build and the run write stays inside it — the
# binary and Go's caches under .bench_build/, journals and trace files
# under bench/out/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/aortabench" .)
exec "$build/aortabench" "$@"
