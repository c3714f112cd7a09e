#!/usr/bin/env bash
# Builds the load benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash loadbench/run.sh --workload folder-view --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, stores, spans)
# stays under .bench_build in the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/loadbench" .)
exec "$out/loadbench" --workdir "$out/loadbench-run" "$@"
