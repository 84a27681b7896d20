#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figure32 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (the Go build cache, its temporary files, the
# binary) stays under .bench_build in the checkout; the module's vendor
# directory means nothing is downloaded.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=vendor
export GOTOOLCHAIN=local

mkdir -p "$build/tmp"
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
