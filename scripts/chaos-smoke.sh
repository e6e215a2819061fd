#!/usr/bin/env bash
# Chaos-smoke gate: prove the fail-safe story end to end against a
# real bpmsd with faults injected under the storage layer.
#
# Episode 1 — fsync fault, fail-stop, zero acked-but-lost:
#   boot bpmsd with -fault 'path=state;fsync-at=K', drive durable
#   starts through bpmsctl until the injected fsync trips the shard,
#   then assert the degradation surface (write → 503 shard_degraded
#   with Retry-After, reads still serve, /readyz 503, /healthz 200,
#   bpms_shard_degraded=1 at /metrics), scrape the fault report,
#   SIGKILL, restart WITHOUT the fault, and require every acked start
#   to be recovered — acked-but-lost must be exactly zero.
#
#   The same scrape gates the instrumentation and the SLA deadlines:
#   nonzero bpms_http_requests_total and bpms_engine_transition_seconds
#   (one case is completed through its user task before the fault
#   trips), plus at least one bpms_audit_violations_total — the parked
#   approval items outlive the 200ms -task-sla default deadline, and
#   each one's timer reports it when it fires.
#
# Episode 2 — ENOSPC budget: same contract with the journal hitting a
#   byte-budget wall instead of an I/O error. The budget is read off a
#   server with no fault first: the state bytes the deploy and the first
#   case write, plus those of N/2 starts, so the wall falls mid-run
#   whatever size the records have.
#
# Overload shedding and client retry are covered in-process by
# TestOverloadCarriedByClientRetry (internal/api).
#
# Artifact: chaos-fault-report.json (the last episode's pre-kill
# /api/v1/stats document, injected-fault counters included).
#
# Tunables: ADDR=127.0.0.1:18091 N=40 ./scripts/chaos-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:18091}"
N="${N:-40}"              # start attempts per fault episode
FAULT_REPORT="${FAULT_REPORT:-chaos-fault-report.json}"

BIN="$(mktemp -d)"
cleanup() {
  if [ -n "${PID:-}" ]; then kill -9 "$PID" 2>/dev/null || true; fi
  rm -rf "$BIN" "${DATA:-}"
}
trap cleanup EXIT

go build -o "$BIN/bpmsd" ./cmd/bpmsd
go build -o "$BIN/bpmsctl" ./cmd/bpmsctl
ctl() { "$BIN/bpmsctl" -server "http://$ADDR" "$@"; }

LOG="$BIN/bpmsd.log"
wait_ready() {
  for _ in $(seq 100); do
    if curl -sf "http://$ADDR/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "bpmsd did not become ready; log:" >&2
  cat "$LOG" >&2
  return 1
}
wait_listening() {
  # Degradation can happen before the first probe: wait for the HTTP
  # listener only (healthz is live even when degraded).
  for _ in $(seq 100); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "bpmsd never listened; log:" >&2
  cat "$LOG" >&2
  return 1
}

# msum FAMILY FILE sums every sample of one metric family in a scrape
# (labels collapsed).
msum() {
  awk -v fam="$1" 'index($1, fam"{") == 1 || $1 == fam { s += $NF } END { printf "%.0f\n", s+0 }' "$2"
}

# check_nonzero FAMILY FILE fails the run unless FAMILY sums to >= 1.
check_nonzero() {
  local v
  v="$(msum "$1" "$2")"
  if [ "$v" -lt 1 ]; then
    echo "GATE FAIL: $1 = $v (want >= 1)" >&2
    exit 1
  fi
  echo "   gate ok: $1 = $v"
}

# state_bytes DIR prints the size of the state journal's segments in DIR.
state_bytes() {
  cat "$1"/state/wal-*.log | wc -c
}

# first_case drives one approval case through its user task and prints
# nothing: completing the work item is the engine transition the
# metrics gate looks for (starts are timed in a family of their own).
first_case() {
  local name="$1" item
  item=$(ctl -retries 1 start approval amount=0 | sed -n 's/.*"workItemId": *"\([^"]*\)".*/\1/p')
  if [ -z "$item" ]; then
    echo "FAIL [$name]: first start parked no work item" >&2
    cat "$LOG" >&2
    exit 1
  fi
  for verb in claim begin complete; do ctl -retries 1 "$verb" "$item" alice >/dev/null; done
}

# enospc_budget sets BUDGET, the byte budget of the ENOSPC episode: what
# the deploy and the first case write to the state journal of a server
# with no fault, plus N/2 times what one more start writes. Acknowledged
# writes are fsynced, so the file sizes hold them when read. It runs in
# this shell, not in a $(...), so errexit and the EXIT trap cover its
# server.
enospc_budget() {
  local first one
  DATA="$(mktemp -d)"
  "$BIN/bpmsd" -addr "$ADDR" -data "$DATA" -task-sla 200ms -user alice=clerk >"$LOG" 2>&1 &
  PID=$!
  wait_ready
  ctl deploy scripts/testdata/approval.json >/dev/null
  first_case calibration
  first=$(state_bytes "$DATA")
  ctl -retries 1 start approval amount=1 >/dev/null
  one=$(($(state_bytes "$DATA") - first))
  kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=
  rm -rf "$DATA"; DATA=
  if [ "$one" -le 0 ]; then
    echo "FAIL [calibration]: a start wrote $one state byte(s)" >&2
    exit 1
  fi
  BUDGET=$((first + N / 2 * one))
}

# fault_episode FAULT_SPEC EPISODE_NAME
# Runs the inject → fail-stop → SIGKILL → clean-restart → zero-lost
# cycle for one fault plan.
fault_episode() {
  local spec="$1" name="$2"
  DATA="$(mktemp -d)"
  echo "== [$name] bpmsd with injected fault: $spec"
  "$BIN/bpmsd" -addr "$ADDR" -data "$DATA" -metrics \
    -task-sla 200ms -fault "$spec" -user alice=clerk >"$LOG" 2>&1 &
  PID=$!
  wait_listening
  wait_ready

  ctl deploy scripts/testdata/approval.json >/dev/null
  first_case "$name"

  # Durable starts until the fault trips the shard. bpmsctl runs with
  # -retries 1: a start either acks durably or fails — no ambiguity
  # about what must survive.
  acked=1 tripped=
  for i in $(seq "$N"); do
    if ctl -retries 1 start approval "amount=$i" >/dev/null 2>&1; then
      acked=$((acked + 1))
    else
      tripped=1
      break
    fi
  done
  if [ -z "$tripped" ]; then
    echo "FAIL [$name]: fault never tripped ($acked starts acked)" >&2
    cat "$LOG" >&2
    exit 1
  fi
  echo "   $acked starts acked before fail-stop"

  # Degradation surface: a write answers 503 + shard_degraded +
  # Retry-After.
  resp="$BIN/resp.txt"
  status=$(curl -s -o "$resp" -w '%{http_code}' -D "$BIN/hdrs.txt" \
    -X POST "http://$ADDR/api/v1/instances" \
    -H 'Content-Type: application/json' -d '{"processId":"approval"}')
  if [ "$status" != "503" ] || ! grep -q '"code":"shard_degraded"' "$resp"; then
    echo "FAIL [$name]: degraded write answered $status $(cat "$resp")" >&2
    exit 1
  fi
  grep -qi '^Retry-After:' "$BIN/hdrs.txt" || {
    echo "FAIL [$name]: degraded 503 missing Retry-After" >&2
    cat "$BIN/hdrs.txt" >&2
    exit 1
  }
  # Reads still serve from the frozen state. The state may hold one
  # more instance than was acked: the transition that hit the fault
  # mutated memory before the failed fsync refused its ack.
  got=$(ctl ps | grep -c '"approval-' || true)
  if [ "$got" -lt "$acked" ]; then
    echo "FAIL [$name]: degraded reads show $got of $acked acked instances" >&2
    exit 1
  fi
  # Probes: /readyz refuses, /healthz lives, the gauge shows the shard.
  if curl -sf "http://$ADDR/readyz" >/dev/null 2>&1; then
    echo "FAIL [$name]: /readyz still 200 on a degraded system" >&2
    exit 1
  fi
  curl -sf "http://$ADDR/healthz" >/dev/null || {
    echo "FAIL [$name]: /healthz down on a degraded (but alive) system" >&2
    exit 1
  }
  # Scrape to a file: grep -q closing the pipe early would trip
  # pipefail on curl's write error. The first items fall due 200ms
  # after they were created, so rescrape until one has.
  for _ in $(seq 50); do
    curl -s "http://$ADDR/metrics" -o "$BIN/metrics.txt"
    [ "$(msum bpms_audit_violations_total "$BIN/metrics.txt")" -ge 1 ] && break
    sleep 0.1
  done
  grep -q '^bpms_shard_degraded{shard="0"} 1' "$BIN/metrics.txt" || {
    echo "FAIL [$name]: bpms_shard_degraded gauge not 1" >&2
    grep bpms_shard_degraded "$BIN/metrics.txt" >&2 || true
    exit 1
  }
  for fam in bpms_http_requests_total bpms_engine_transition_seconds_bucket \
    bpms_audit_violations_total; do
    check_nonzero "$fam" "$BIN/metrics.txt"
  done
  # Scrape the fault report (stats carries the injector counters)
  # before pulling the plug.
  curl -sf "http://$ADDR/api/v1/stats" -o "$FAULT_REPORT"
  grep -q '"faults"' "$FAULT_REPORT" || {
    echo "FAIL [$name]: stats missing injected-fault report" >&2
    exit 1
  }
  echo "   degraded surface OK (503 shard_degraded, reads serve, probes split)"

  echo "== [$name] SIGKILL and clean restart"
  kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=
  "$BIN/bpmsd" -addr "$ADDR" -data "$DATA" -user alice=clerk >"$LOG" 2>&1 &
  PID=$!
  wait_ready

  recovered=$(ctl ps | grep -c '"approval-' || true)
  if [ "$recovered" -lt "$acked" ]; then
    echo "FAIL [$name]: acked-but-lost! recovered $recovered of $acked acked instances" >&2
    cat "$LOG" >&2
    exit 1
  fi
  echo "OK [$name]: zero acked-but-lost ($recovered recovered >= $acked acked)"

  kill -TERM "$PID"
  for _ in $(seq 100); do kill -0 "$PID" 2>/dev/null || break; sleep 0.1; done
  wait "$PID" 2>/dev/null || true
  PID=
  rm -rf "$DATA"; DATA=
}

fault_episode "path=state;fsync-at=$((N / 2))" "fsync-fault"
enospc_budget
echo "== ENOSPC budget: $BUDGET state bytes (deploy, first case and $((N / 2)) starts)"
fault_episode "path=state;enospc-after=$BUDGET" "enospc"

echo "== chaos smoke OK — fault report in $FAULT_REPORT"
