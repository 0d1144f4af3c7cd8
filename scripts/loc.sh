#!/usr/bin/env bash
# Prints go_loc_nontest: the non-test Go lines of the root module — the
# number ROADMAP aim 2 tracks and CHANGES.md quotes per PR. benchmark/ is
# its own module and .bench_build/ is its build output.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
