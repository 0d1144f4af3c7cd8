#!/usr/bin/env bash
# Prints go_loc_nontest, the non-test Go lines of the root module, as a bare
# number on the first line — the number ROADMAP aim 2 tracks and CHANGES.md
# quotes per PR — and `asm <n>`, the root module's assembly lines, on the
# second, for aim 2's rule that the .s grows only with a measured win.
# benchmark/ is its own module and .bench_build/ is its build output.
set -euo pipefail
cd "$(dirname "$0")/.."
count() {
	find . -name "$1" -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
		xargs -0 cat | wc -l
}
count '*.go'
echo "asm $(count '*.s')"
