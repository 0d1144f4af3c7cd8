#!/usr/bin/env bash
# Admin-endpoint and binaries smoke, in two phases.
#
# Phase 1 runs one fleet scenario with the live admin HTTP endpoint enabled
# (-admin), scrapes /metrics while the run is mid-flight, and validates what
# a real Prometheus scraper would see: text exposition format, per-shard
# occupancy gauges, shed counters, and the distill-step and frame-latency
# histograms. This proves observability works against a moving system, not
# just post-mortem totals.
#
# Phase 2 builds shadowtutor-server and shadowtutor-client and runs one
# client against a two-shard server over loopback TCP, with full
# distillation (the one mode no scenario runs live), an 80 Mbps link and
# base-relative int8 checkpoints. The client must finish with key frames,
# the server's /metrics must count them, and the server must drain and
# exit 0 within 10 s of SIGINT.
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
echo "== admin smoke phase 1 passed =="

echo "== binaries smoke: shadowtutor-server + shadowtutor-client over loopback =="
BIN="$(mktemp -d)"
trap 'kill ${SERVER_PID:-} 2>/dev/null || true; rm -rf "${BIN}"' EXIT
go build -o "${BIN}/shadowtutor-server" ./cmd/shadowtutor-server
go build -o "${BIN}/shadowtutor-client" ./cmd/shadowtutor-client
"${BIN}/shadowtutor-server" -listen 127.0.0.1:19307 -shards 2 -partial=false -bandwidth 80 -envelope-codec delta+int8 -admin 127.0.0.1:19308 >"${BIN}/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "${BIN}/server.log" && break
  kill -0 "${SERVER_PID}" 2>/dev/null || { cat "${BIN}/server.log" >&2; exit 1; }
  sleep 0.1
done
grep -q 'listening on' "${BIN}/server.log" || { echo "server never listened" >&2; exit 1; }

"${BIN}/shadowtutor-client" -connect 127.0.0.1:19307 -stream drone -frames 60 -bandwidth 80 2>&1 | tee "${BIN}/client.log"
KEYFRAMES="$(sed -nE 's/^.*done: .*, ([0-9]+) key frames .*$/\1/p' "${BIN}/client.log")"
if [ -z "${KEYFRAMES}" ] || [ "${KEYFRAMES}" -eq 0 ]; then
  echo "client did not finish with key frames" >&2
  exit 1
fi

SERVED="$(curl -sf http://127.0.0.1:19308/metrics |
  awk '/^shadowtutor_key_frames_total\{/ { n += $2 } END { print n + 0 }')"
if [ "${SERVED}" -le 0 ]; then
  echo "server /metrics counts no key frames" >&2
  exit 1
fi
echo "== client: ${KEYFRAMES} key frames; server /metrics: ${SERVED} =="

kill -INT "${SERVER_PID}"
for _ in $(seq 1 100); do
  kill -0 "${SERVER_PID}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${SERVER_PID}" 2>/dev/null; then
  echo "server still running 10 s after SIGINT" >&2
  exit 1
fi
STATUS=0
wait "${SERVER_PID}" || STATUS=$?
cat "${BIN}/server.log"
if [ "${STATUS}" -ne 0 ]; then
  echo "server exited ${STATUS} after SIGINT" >&2
  exit 1
fi
echo "== admin smoke passed =="
