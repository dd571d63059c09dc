#!/usr/bin/env bash
# Service crash-restart smoke (docs/service.md, tests/service_test.cpp):
#
#   1. run the reference sweep locally (`sweepctl run`, no daemon);
#   2. counting run: a daemon under ULTRA_FAILPOINT_REPORT serves the same
#      sweep once, which gives N, the number of seam I/O ops in the cycle;
#   3. start a fresh daemon armed to _exit(137) at op N/2 -- mid-sweep, the
#      literal crash the in-process gtest can only simulate -- submit the
#      sweep detached with a CSV export, then hit the daemon with
#      concurrent clients while it dies;
#   4. restart on the same state dir, require journal recovery to re-queue
#      the request (the smoke fails if there was nothing to recover), and
#      require the recovered export to be byte-identical to the
#      uninterrupted local run (three ways: on-disk export, the bytes
#      returned over the wire, and the local reference);
#   5. drain-shutdown cleanly.
#
# Usage: scripts/service_smoke.sh [path-to-sweepctl]
# Exits nonzero on any violation; prints SERVICE_SMOKE_PASS on success.
set -euo pipefail

SWEEPCTL=${1:-./build/examples/sweepctl}
# Unix socket paths are length-limited (~108 bytes): stay under /tmp.
WORK=$(mktemp -d /tmp/sweepd-smoke.XXXXXX)
SOCK="$WORK/s.sock"
STATE="$WORK/state"
# The spec submitted to the daemon AND run locally -- BuildPoints in
# sweepctl is shared by both paths, so the point lists are identical.
SPEC=(--workload=sort:120
      --kinds=Ideal,UltrascalarI,UltrascalarII,Hybrid
      --windows=8,16,32,64)

SERVER_PID=
cleanup() {
  if [[ -n "$SERVER_PID" ]]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_ready() {
  for _ in $(seq 1 100); do
    if "$SWEEPCTL" status --socket="$SOCK" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "service_smoke: daemon never became ready" >&2
  cat "$WORK"/serve*.log >&2 || true
  return 1
}

echo "== reference run (no daemon) =="
"$SWEEPCTL" run "${SPEC[@]}" --threads=4 --csv-out="$WORK/reference.csv"

echo "== counting run: learn N, the seam ops of one daemon cycle =="
ULTRA_FAILPOINT_REPORT="$WORK/ops.txt" "$SWEEPCTL" serve --socket="$SOCK" \
  --state-dir="$WORK/count-state" --threads=2 >"$WORK/serve0.log" 2>&1 &
SERVER_PID=$!
wait_ready
"$SWEEPCTL" submit --socket="$SOCK" "${SPEC[@]}" --detach --csv=count.csv \
  --wait >/dev/null
"$SWEEPCTL" shutdown --socket="$SOCK"
wait "$SERVER_PID"
SERVER_PID=
N=$(awk '/^ops /{print $2}' "$WORK/ops.txt")
if [[ -z "$N" || "$N" -lt 2 ]]; then
  echo "service_smoke: no op count in the failpoint report" >&2
  exit 1
fi
CRASH_OP=$((N / 2))

echo "== start a daemon armed to die at op $CRASH_OP of $N =="
ULTRA_FAILPOINT_CRASH_AT_OP="$CRASH_OP" ULTRA_FAILPOINT_CRASH_MODE=exit \
  "$SWEEPCTL" serve --socket="$SOCK" --state-dir="$STATE" --threads=2 \
  >"$WORK/serve1.log" 2>&1 &
SERVER_PID=$!
wait_ready

echo "== the crash-target submission + concurrent clients =="
SUBMIT_OUT=$("$SWEEPCTL" submit --socket="$SOCK" "${SPEC[@]}" \
  --detach --csv=smoke.csv)
echo "$SUBMIT_OUT"
ID=$(sed -n 's/.*id=\([0-9][0-9]*\).*/\1/p' <<<"$SUBMIT_OUT")
if [[ -z "$ID" ]]; then
  echo "service_smoke: no request id in submit reply" >&2
  exit 1
fi
# Two interactive clients ride along; the daemon dying under them must
# only fail *them*, never wedge the smoke.
"$SWEEPCTL" submit --socket="$SOCK" --workload=fib:12 --windows=8 --wait \
  --timeout=10 >"$WORK/client-a.log" 2>&1 || true &
CLIENT_A=$!
"$SWEEPCTL" submit --socket="$SOCK" --workload=figure3 --kinds=Hybrid --wait \
  --timeout=10 >"$WORK/client-b.log" 2>&1 || true &
CLIENT_B=$!

echo "== the daemon dies at op $CRASH_OP =="
for _ in $(seq 1 600); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "service_smoke: the daemon never reached crash op $CRASH_OP" >&2
  exit 1
fi
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=
wait "$CLIENT_A" 2>/dev/null || true
wait "$CLIENT_B" 2>/dev/null || true
if [[ "$STATUS" -ne 137 ]]; then
  echo "service_smoke: daemon exited $STATUS, not at crash op $CRASH_OP" >&2
  cat "$WORK/serve1.log" >&2
  exit 1
fi

echo "== restart on the same state dir =="
"$SWEEPCTL" serve --socket="$SOCK" --state-dir="$STATE" --threads=2 \
  >"$WORK/serve2.log" 2>&1 &
SERVER_PID=$!
wait_ready
"$SWEEPCTL" status --socket="$SOCK" >"$WORK/status.txt"
grep '^service\.' "$WORK/status.txt" || true
if ! grep -Eq '^service\.recovered [1-9]' "$WORK/status.txt"; then
  echo "service_smoke: recovery had nothing to recover after the crash" >&2
  exit 1
fi
echo "genuine mid-sweep crash: journal recovery re-queued request $ID"

echo "== wait for the recovered request, compare exports three ways =="
"$SWEEPCTL" wait --socket="$SOCK" --id="$ID" --csv-out="$WORK/recovered.csv"
cmp "$WORK/reference.csv" "$STATE/smoke.csv"
cmp "$WORK/reference.csv" "$WORK/recovered.csv"
echo "export after kill -9 + restart is byte-identical to the uninterrupted run"

echo "== graceful drain shutdown =="
"$SWEEPCTL" shutdown --socket="$SOCK"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "service_smoke: daemon failed to drain after shutdown" >&2
  exit 1
fi
# A nonzero exit here is a real failure (e.g. an ASan leak report on the
# recovery path) -- the SIGKILL'd first daemon is the only expected casualty.
if ! wait "$SERVER_PID"; then
  echo "service_smoke: daemon exited nonzero after drain shutdown" >&2
  cat "$WORK/serve2.log" >&2
  exit 1
fi
SERVER_PID=

echo "SERVICE_SMOKE_PASS"
