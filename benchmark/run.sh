#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes (Go build cache included) stays under .bench_build in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
if [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/reshape-benchmark" .) >&2
exec "$build/reshape-benchmark" "$@"
