#!/usr/bin/env bash
# Benchmark smoke: run the CI scenario matrix through the declarative
# harness (internal/harness) and emit machine-readable metrics.
#
# Usage:
#   bench_smoke.sh [output.json]
#
# The output path defaults to $BENCH_JSON, then BENCH_pr10.json. Scenario
# selection comes from $SCENARIOS (comma-separated names/globs; default is
# the CI regression-gate matrix, including the fleet/* sharded-fabric
# family). CI compares the output against the committed baseline with
# `benchdiff ci/bench_baseline.json <output>`; allocation budgets are
# enforced deterministically, and only, by the TestAllocBudget suite
# (alloc_test.go), which the bench-gate job runs before this script.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-${BENCH_JSON:-BENCH_pr10.json}}"
SCENARIOS="${SCENARIOS:-bandwidth-sweep/*,multiclient/c1,compression/diff-codecs,chaos/drop-midstream,fleet/*,loss/*}"

echo "== scenario smoke (${SCENARIOS}) -> ${OUT} =="
go run ./cmd/stbench -scenario "${SCENARIOS}" -json "${OUT}"
echo "== scenario metrics written to ${OUT} =="
