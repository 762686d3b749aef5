#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build the harness from the
# checkout's sources, then hand it the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build writes stays inside the checkout: the binary,
# Go's build cache and the toolchain's own config/telemetry directory
# live under .bench_build/ (ignored by git). Run from the root of the
# checkout. People use `go run ./bench` instead.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/main.go ]]; then
	echo "bench/run.sh: run from the root of a full checkout of the scmp module (go.mod, internal/, bench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$build/scmpbench" ./bench
exec "$build/scmpbench" "$@"
