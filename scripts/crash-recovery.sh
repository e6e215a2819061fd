#!/usr/bin/env bash
# Crash-recovery gate: prove that no acknowledged instance is lost
# when bpmsd is SIGKILLed (a -data dir always group-commits).
#
#  1. start bpmsd (SHARDS engine shards, each with its own
#     history journal) on a fresh data dir
#  2. deploy a user-task definition and start N instances via bpmsctl
#     (each `start` returns only after the durable WAL ack of the
#     instance's owner shard)
#  3. SIGKILL the daemon — no drain, no final fsync
#  4. restart on the same data dir and assert all N instances are
#     recovered and active (with SHARDS > 1 this exercises the
#     parallel per-shard recovery path and the instance-hash routing),
#     that the history journals recovered alongside the engine
#     journals (one per shard; each instance's audit trail replays
#     with its instance.started event in first position), and that
#     the N reissued work items landed back in the worklist — offered
#     to the clerk role's user
#  5. SIGTERM the second daemon and check the graceful-shutdown path
#
# SHARDS=4 N=16 ./scripts/crash-recovery.sh runs the sharded variant.
#
# SNAPSHOT_EVERY=8 ./scripts/crash-recovery.sh additionally runs the
# daemon with snapshots on and 4 KiB WAL segments, recovers through a
# snapshot + journal suffix, and asserts the per-shard WAL on-disk
# footprint stays bounded as instances keep starting (compaction after
# each snapshot must delete sealed segments below the snapshot index).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:18080}"
N="${N:-5}"
SHARDS="${SHARDS:-1}"
SNAPSHOT_EVERY="${SNAPSHOT_EVERY:-0}"
SNAP_FLAGS=()
if [ "$SNAPSHOT_EVERY" -gt 0 ]; then
  SNAP_FLAGS=(-snapshot-every "$SNAPSHOT_EVERY" -wal-segment-size 4096)
fi
BIN="$(mktemp -d)"
DATA="$(mktemp -d)"
LOG="$BIN/bpmsd.log"
cleanup() {
  if [ -n "${PID:-}" ]; then kill -9 "$PID" 2>/dev/null || true; fi
  rm -rf "$BIN" "$DATA"
}
trap cleanup EXIT

go build -o "$BIN/bpmsd" ./cmd/bpmsd
go build -o "$BIN/bpmsctl" ./cmd/bpmsctl
ctl() { "$BIN/bpmsctl" -server "http://$ADDR" "$@"; }

# /readyz answers 200 only once every shard has replayed and none is
# degraded — the recovery gate rides on the real readiness probe.
wait_ready() {
  for _ in $(seq 100); do
    if curl -sf "http://$ADDR/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "bpmsd did not become ready; log:" >&2
  cat "$LOG" >&2
  return 1
}

echo "== start bpmsd ($SHARDS shard(s), snapshot-every $SNAPSHOT_EVERY) on $DATA"
"$BIN/bpmsd" -addr "$ADDR" -data "$DATA" -shards "$SHARDS" ${SNAP_FLAGS[@]+"${SNAP_FLAGS[@]}"} -user alice=clerk >"$LOG" 2>&1 &
PID=$!
wait_ready

echo "== deploy definition and start $N instances (durable acks)"
ctl deploy scripts/testdata/approval.json >/dev/null
for i in $(seq "$N"); do
  ctl start approval "amount=$i" >/dev/null
done
started=$(ctl ps | grep -c '"approval-' || true)
[ "$started" -eq "$N" ] || { echo "started $started of $N" >&2; exit 1; }
# History is appended on the request's goroutine, but the state acks
# do not cover its journal. Give the WAL's batch tick a moment to put
# the audit tail on disk before we pull the plug.
sleep 0.5

echo "== SIGKILL bpmsd (pid $PID)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

echo "== restart on the same data dir"
"$BIN/bpmsd" -addr "$ADDR" -data "$DATA" -shards "$SHARDS" ${SNAP_FLAGS[@]+"${SNAP_FLAGS[@]}"} -user alice=clerk >"$LOG" 2>&1 &
PID=$!
wait_ready

recovered=$(ctl ps | grep -c '"approval-' || true)
if [ "$recovered" -ne "$N" ]; then
  echo "FAIL: recovered $recovered of $N acked instances" >&2
  ctl ps >&2 || true
  cat "$LOG" >&2
  exit 1
fi
# They must still be active (parked at the user task), not faulted.
active=$(ctl stats json | grep -o '"active": *[0-9]*' | grep -o '[0-9]*$' || echo 0)
if [ "$active" -ne "$N" ]; then
  echo "FAIL: $active of $N recovered instances active" >&2
  ctl stats json >&2 || true
  exit 1
fi
echo "OK: all $N acked instances recovered and active after SIGKILL"

# Worklist recovery: every recovered instance re-issues its parked
# work item into the in-memory worklist, offered to alice (the clerk),
# from whichever shard owns the instance.
reissued=$(ctl tasks alice | grep -o '"id": *"wi-[0-9]*"' | sort -u | wc -l)
if [ "$reissued" -ne "$N" ]; then
  echo "FAIL: $reissued of $N reissued work items on alice's worklist" >&2
  ctl tasks alice >&2 || true
  exit 1
fi
echo "OK: $reissued reissued work item(s) on alice's worklist"
# The history keeps one journal per shard: the history block's
# "stripes" (the only key of that name in the stats JSON) is SHARDS.
hist_stripes=$(ctl stats json | grep -o '"stripes": *[0-9]*' | head -1 | grep -o '[0-9]*$' || echo 0)
if [ "$hist_stripes" -ne "$SHARDS" ]; then
  echo "FAIL: stats report $hist_stripes history journals, want one per shard ($SHARDS)" >&2
  ctl stats json >&2 || true
  exit 1
fi

# History-journal recovery: every instance's audit trail must replay
# from its shard's history journal, ordered per instance (the
# instance.started event comes first).
hist_ok=0
for id in $(ctl ps | grep -o '"approval-[0-9]*"' | tr -d '"'); do
  trail=$(ctl history "$id")
  first_type=$(echo "$trail" | grep -o '"type": *"[^"]*"' | head -1 | sed 's/.*"type": *"//;s/"//')
  if [ "$first_type" != "instance.started" ]; then
    echo "FAIL: history of $id does not start with instance.started (got '$first_type')" >&2
    echo "$trail" >&2
    exit 1
  fi
  hist_ok=$((hist_ok + 1))
done
[ "$hist_ok" -eq "$N" ] || { echo "FAIL: history recovered for $hist_ok of $N instances" >&2; exit 1; }
events=$(ctl stats json | grep -o '"events": *[0-9]*' | head -1 | grep -o '[0-9]*$' || echo 0)
if [ "$events" -lt "$N" ]; then
  echo "FAIL: only $events audit events recovered for $N instances" >&2
  ctl stats json >&2 || true
  exit 1
fi
echo "OK: $hist_stripes history journal(s) recovered ($events events, per-instance order intact)"

if [ "$SNAPSHOT_EVERY" -gt 0 ]; then
  echo "== snapshot compaction: WAL footprint bounded under sustained starts"
  # Enough starts to cross the snapshot threshold many times over and
  # roll plenty of 4 KiB segments; without compaction the WAL would
  # grow past any fixed bound.
  EXTRA=40
  for i in $(seq "$EXTRA"); do
    ctl start approval "amount=$((100 + i))" >/dev/null
  done
  sleep 1 # snapshots run asynchronously off the append path
  snaps=$(find "$DATA" -name 'snap-*.snap' | wc -l)
  if [ "$snaps" -lt 1 ]; then
    echo "FAIL: no snapshot on disk after $EXTRA starts with -snapshot-every $SNAPSHOT_EVERY" >&2
    find "$DATA" -type f >&2
    exit 1
  fi
  # Per shard: everything below the snapshot index is compacted away,
  # so the WAL keeps at most the active segment plus the few sealed
  # ones appended since the last snapshot. 10 segments (40 KiB) is far
  # under what the uncompacted history of N+EXTRA instances occupies.
  for statedir in $(find "$DATA" -type d -name state); do
    segs=$(find "$statedir" -name 'wal-*.log' | wc -l)
    bytes=$(find "$statedir" -name 'wal-*.log' -exec cat {} + | wc -c)
    if [ "$segs" -gt 10 ]; then
      echo "FAIL: $statedir holds $segs WAL segments ($bytes bytes) after snapshots — compaction not bounding the WAL" >&2
      ls -l "$statedir" >&2
      exit 1
    fi
  done
  # The stats endpoint must expose the recovery/footprint telemetry
  # the snapshot path feeds.
  ctl stats json | grep -q '"recoverySeconds"' || { echo "FAIL: stats missing recoverySeconds" >&2; exit 1; }
  ctl stats json | grep -q '"diskBytes"' || { echo "FAIL: stats missing diskBytes" >&2; exit 1; }
  echo "OK: $snaps snapshot(s) on disk, per-shard WAL bounded, footprint telemetry exposed"
fi

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$PID"
for _ in $(seq 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
  echo "FAIL: bpmsd did not exit within 10s of SIGTERM" >&2
  cat "$LOG" >&2
  exit 1
fi
wait "$PID" 2>/dev/null || true
grep -q "shutdown complete" "$LOG" || {
  echo "FAIL: no shutdown summary in log" >&2
  cat "$LOG" >&2
  exit 1
}
echo "OK: graceful shutdown with summary:"
grep "shutdown complete" "$LOG"
