#!/usr/bin/env bash
# The command of BENCHMARK.json: build scfbench from source inside the
# checkout (Go's caches included, so nothing is written outside it) and
# run it with the arguments given. Run from the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d benchmarks/scfbench ]]; then
	echo "benchmarks/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin"
# Everything the go tool writes stays under the checkout: build cache,
# module cache (empty: the module has no dependencies) and its counters.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/scfbench" ./benchmarks/scfbench
exec "$build/bin/scfbench" "$@"
