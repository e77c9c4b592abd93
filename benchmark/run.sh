#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root and runs it from there. The Go
# build cache, temp files and every database the benchmark opens live
# under .bench_build/ too, so a run reads and writes only inside its
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/modelardb-benchmark" . >&2
)
cd "$root"
exec "$build/modelardb-benchmark" "$@"
