#!/usr/bin/env bash
# Admin-endpoint smoke: run one fleet scenario with the live admin HTTP
# endpoint enabled (-admin), scrape /metrics while the run is mid-flight,
# and validate what a real Prometheus scraper would see: text exposition
# format, per-shard occupancy gauges, shed counters, and the distill-step
# and frame-latency histograms. This proves observability works against a
# moving system, not just post-mortem totals.
#
# Usage:
#   admin_smoke.sh
#
# Knobs: $ADMIN_ADDR (default 127.0.0.1:19309), $SCENARIO (default
# fleet/skewed-hash — shards plus admission shedding in one run).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ADMIN_ADDR:-127.0.0.1:19309}"
SCENARIO="${SCENARIO:-fleet/skewed-hash}"

echo "== admin smoke: ${SCENARIO} with -admin ${ADDR} =="
go run ./cmd/stbench -scenario "${SCENARIO}" -admin "${ADDR}" &
BENCH_PID=$!
trap 'kill ${BENCH_PID} 2>/dev/null || true' EXIT

# Poll until a shard reports live occupancy — the scrape must catch the
# run mid-flight. Compile time delays the first session, so the window is
# generous.
BODY=""
live='^shadowtutor_sessions_active\{shard="[0-9]+"\} [1-9]'
for _ in $(seq 1 600); do
  if ! kill -0 "${BENCH_PID}" 2>/dev/null; then
    echo "run finished before a scrape saw live occupancy" >&2
    exit 1
  fi
  BODY="$(curl -sf "http://${ADDR}/metrics" || true)"
  if grep -qE "${live}" <<<"${BODY}"; then
    break
  fi
  sleep 0.2
done
grep -qE "${live}" <<<"${BODY}" || {
  echo "no live per-shard occupancy in /metrics" >&2
  exit 1
}

check() {
  grep -qF "$1" <<<"${BODY}" || {
    echo "missing $1 in mid-run /metrics" >&2
    exit 1
  }
}
check '# TYPE shadowtutor_sessions_active gauge'
check '# TYPE shadowtutor_distill_step_seconds histogram'
check 'shadowtutor_fabric_sheds_total'
check 'shadowtutor_distill_step_seconds_bucket{shard="0",le="'
check 'shadowtutor_client_frame_seconds_bucket{le="'
check 'shadowtutor_teacher_queue_depth{shard="'

# Every non-comment, non-blank line must be `name{labels} value` — the
# Prometheus 0.0.4 text format a scraper parses.
BAD="$(grep -v '^#' <<<"${BODY}" | grep -v '^$' |
  grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$' || true)"
if [ -n "${BAD}" ]; then
  echo "invalid Prometheus text lines in /metrics:" >&2
  echo "${BAD}" >&2
  exit 1
fi
echo "== mid-run /metrics valid: per-shard occupancy, sheds, histograms =="

wait "${BENCH_PID}"
trap - EXIT
echo "== admin smoke passed =="
