#!/usr/bin/env bash
# Lists dead weight: every package-level identifier (func, type, var, const)
# and method declared in non-test Go of the root module that no non-test Go
# file under internal/, cmd/, examples/ or benchmark/ references — code whose
# only callers, if any, are its own tests — minus scripts/deadweight.allow.
# The CI `test` job fails on any output (ROADMAP item 6, "dead weight check").
#
# It is a name scan, not a type check: string literals and comments are
# stripped, every remaining identifier token is counted, and a declared name
# is dead when it occurs no more often than it is declared. Two packages
# declaring the same name are one name, and a method an interface names is
# referenced by that mention — so it can miss dead code, but what it lists is
# dead. scripts/deadweight.allow holds one `name reason`
# line for each listed name that stays: reference implementations and fixture
# builders that tests compare against, and methods called only through an
# interface of the standard library.
set -euo pipefail
cd "$(dirname "$0")/.."

# String literals first ("//" and "/*" occur inside them), then line
# comments; the tree has no block comments.
strip_comments() { sed -e 's/"\([^"\\]\|\\.\)*"//g' -e 's/`[^`]*`//g' -e 's|//.*$||' "$@"; }

mapfile -t decl_files < <(find . -name '*.go' -not -name '*_test.go' \
	-not -path './benchmark/*' -not -path './.bench_build/*' | sort)
mapfile -t ref_files < <(find ./benchmark -name '*.go' -not -name '*_test.go' | sort)

declared=$(strip_comments "${decl_files[@]}" | awk '
	function names(s,    n, parts, i, w) { # leading "a, b, c" identifier list
		n = split(s, parts, /, /)
		for (i = 1; i <= n; i++) {
			w = parts[i]; sub(/[^A-Za-z0-9_].*$/, "", w)
			if (w != "") print w
			if (parts[i] != w) break
		}
	}
	/^\)/ { block = 0; next }
	block && /^\t[A-Za-z_]/ { names(substr($0, 2)); next }
	/^(var|const|type) \($/ { block = 1; next }
	/^func \(/ { s = $0; sub(/^func \([^)]*\) /, "", s); names(s); next }
	/^func / { names(substr($0, 6)); next }
	/^(var|const|type) / { s = $0; sub(/^[a-z]+ /, "", s); names(s); next }
' | grep -vxE '_|init|main' | sort | uniq -c | awk '{print $2, $1}')

# A method's receiver is not a reference to its type.
used=$(strip_comments "${decl_files[@]}" "${ref_files[@]}" | sed -e 's/^func ([^)]*) /func /' |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c | awk '{print $2, $1}')

join <(echo "$declared") <(echo "$used") | awk '$3 <= $2 {print $1}' |
	grep -vxFf <(awk 'NF && $1 !~ /^#/ {print $1}' scripts/deadweight.allow) || true
