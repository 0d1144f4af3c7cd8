#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache lives under .bench_build so nothing is written outside.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
(cd benchmark && go build -o ../.bench_build/shadowbench .)
exec .bench_build/shadowbench "$@"
