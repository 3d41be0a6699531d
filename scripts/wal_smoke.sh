#!/usr/bin/env bash
# End-to-end smoke for the write path: start a writable (-wal) treebenchd
# with the background compactor, commit update waves under concurrent
# query load, check the compacted store holds one image in the buffer
# pool, reboot it without the compactor, kill -9 the daemon
# mid-commit-storm, damage the WAL tail the way a torn write would, and
# reboot. The offline fsck (treebench-snap chain) must walk the damaged
# store without truncating it, recovery must replay the surviving commits,
# and the recovered database must render byte-identically to a clean
# daemon that committed the same number of waves with no crash — the
# head's state is a pure function of the commit count, and this script
# checks that holds across a kill -9.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${WAL_SMOKE_ADDR:-127.0.0.1:8661}
ADDR2=${WAL_SMOKE_ADDR2:-127.0.0.1:8662}
DB=(-providers 40 -avg 10 -clustering class)
Q='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10;'
PROBE=$'select count(*) from pa in Patients;\nselect pa.mrn, pa.age from pa in Patients where pa.mrn < 60;\nselect p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10;'

WORK=$(mktemp -d)
DPID=
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/treebenchd" ./cmd/treebenchd
go build -o "$WORK/oqlsh" ./cmd/oqlsh
go build -o "$WORK/treebench-snap" ./cmd/treebench-snap

commits() { # commits N: an oqlsh script of N .commit lines
  printf '.commit\n%.0s' $(seq 1 "$1")
}

wait_ready() { # logfile
  for _ in $(seq 1 600); do
    grep -q "serving" "$1" 2>/dev/null && return 0
    sleep 0.5
  done
  echo "wal-smoke: daemon did not become ready" >&2
  cat "$1" >&2
  exit 1
}

counter() { # counter NAME: NAME's value in the last .server dump
  awk -v k="$1" '$1 == k { print $2 }' "$WORK/server.txt"
}

# --- Phase 1: commits under concurrent query load, with the compactor. -----
"$WORK/treebenchd" -addr "$ADDR" "${DB[@]}" -sessions 4 -wal "$WORK/db" \
  -compact-every 4 > "$WORK/d1.log" 2>&1 &
DPID=$!
wait_ready "$WORK/d1.log"

# Four concurrent clients, each alternating three commits with three
# queries; a failed commit or query fails its client.
CLIENTS=()
for i in 1 2 3 4; do
  "$WORK/oqlsh" -coord "$ADDR" -e "$(printf '.commit\n%s\n' "$Q" "$Q" "$Q")" \
    > "$WORK/mixed$i.txt" 2>&1 &
  CLIENTS[$i]=$!
done
for i in 1 2 3 4; do
  wait "${CLIENTS[$i]}" || {
    echo "wal-smoke: mixed client $i failed:" >&2
    cat "$WORK/mixed$i.txt" >&2
    exit 1
  }
done
"$WORK/oqlsh" -coord "$ADDR" -e .server > "$WORK/mixed.txt"
grep -q '^Commits 12$' "$WORK/mixed.txt" && grep -q '^HeadVersion 12$' "$WORK/mixed.txt" || {
  echo "wal-smoke: mixed load did not commit cleanly:" >&2
  cat "$WORK/mixed.txt" >&2
  exit 1
}
echo "wal-smoke: 12 commits interleaved with queries, none failed, head v12"

# The compactor folds the chain once a second when it is 4 commits long.
# Once it has compacted and has nothing left to fold, read through the
# compacted base: the pool must hold one image of the store, with the
# replaced base's frames dropped, not one image per compaction.
END=$((SECONDS + 5))
while :; do
  "$WORK/oqlsh" -coord "$ADDR" -e .server > "$WORK/server.txt"
  [ "$(counter Compactions)" -ge 1 ] && [ $(($(counter HeadVersion) - $(counter BaseVersion))) -lt 4 ] && break
  [ "$SECONDS" -lt "$END" ] || break
  sleep 0.1
done
"$WORK/oqlsh" -coord "$ADDR" -e "$PROBE" > /dev/null
"$WORK/oqlsh" -coord "$ADDR" -e .server > "$WORK/server.txt"
[ "$(counter Compactions)" -ge 1 ] && [ "$(counter PoolDropped)" -gt 0 ] &&
  [ "$(counter PoolResidentPages)" -le "$(counter SnapshotPages)" ] || {
  echo "wal-smoke: the compacted store does not hold one image in the pool:" >&2
  cat "$WORK/server.txt" >&2
  exit 1
}
echo "wal-smoke: $(counter Compactions) compactions; $(counter PoolResidentPages) frames resident for a $(counter SnapshotPages)-page head, $(counter PoolDropped) dropped"

# Reboot without the compactor: a storm of tiny commits outruns one
# second, so a compaction could empty the log just before the kill below
# and leave no tail to tear. The reboot replays over the compacted base.
kill "$DPID" && wait "$DPID" 2>/dev/null || true
"$WORK/treebenchd" -addr "$ADDR" "${DB[@]}" -sessions 4 -wal "$WORK/db" \
  > "$WORK/d1b.log" 2>&1 &
DPID=$!
wait_ready "$WORK/d1b.log"
grep -q "head v12 over base" "$WORK/d1b.log" || {
  echo "wal-smoke: reboot over the compacted base lost the head:" >&2
  head -3 "$WORK/d1b.log" >&2
  exit 1
}

# --- Phase 2: kill -9 mid-commit-storm, then tear the WAL tail. ------------
"$WORK/oqlsh" -coord "$ADDR" -e "$(commits 50)" > /dev/null 2>&1 &
STORM1=$!
"$WORK/oqlsh" -coord "$ADDR" -e "$(commits 50)" > /dev/null 2>&1 &
STORM2=$!
sleep 1
kill -9 "$DPID" 2>/dev/null || true
wait "$DPID" 2>/dev/null || true
DPID=
wait "$STORM1" "$STORM2" 2>/dev/null || true

# Chop bytes off the WAL so the final record is torn even if the kill
# landed between appends — the on-disk state a crash mid-write leaves.
SIZE=$(wc -c < "$WORK/db/wal")
truncate -s $((SIZE - 5)) "$WORK/db/wal"

# The offline fsck must walk the damaged store read-only: commits listed,
# torn tail reported, nothing truncated.
"$WORK/treebench-snap" chain "$WORK/db" > "$WORK/fsck.txt"
grep -q "torn tail" "$WORK/fsck.txt" || {
  echo "wal-smoke: fsck did not report the torn tail:" >&2
  cat "$WORK/fsck.txt" >&2
  exit 1
}
[ "$(wc -c < "$WORK/db/wal")" -eq $((SIZE - 5)) ] || {
  echo "wal-smoke: read-only fsck modified the WAL" >&2
  exit 1
}
echo "wal-smoke: offline fsck reported the torn tail without truncating"

# --- Phase 3: reboot, recover, and diff against a clean run. ---------------
"$WORK/treebenchd" -addr "$ADDR" "${DB[@]}" -sessions 4 -wal "$WORK/db" \
  > "$WORK/d2.log" 2>&1 &
DPID=$!
wait_ready "$WORK/d2.log"
grep -q "torn tail truncated" "$WORK/d2.log" || {
  echo "wal-smoke: recovery did not truncate the torn tail:" >&2
  head -3 "$WORK/d2.log" >&2
  exit 1
}
HEAD=$(sed -n 's/.*head v\([0-9]*\) over base.*/\1/p' "$WORK/d2.log" | head -1)
[ -n "$HEAD" ] && [ "$HEAD" -gt 12 ] || {
  echo "wal-smoke: bad recovered head version '$HEAD'" >&2
  head -3 "$WORK/d2.log" >&2
  exit 1
}
echo "wal-smoke: rebooted, recovered to head v$HEAD"

"$WORK/oqlsh" -coord "$ADDR" -e "$PROBE" > "$WORK/recovered.txt"
kill "$DPID" && wait "$DPID" 2>/dev/null || true
DPID=

# Clean run: a fresh store, exactly HEAD commits, no crash. The recovered
# database must render byte-identically — commit count is all that matters.
"$WORK/treebenchd" -addr "$ADDR2" "${DB[@]}" -sessions 4 -wal "$WORK/db2" \
  > "$WORK/d3.log" 2>&1 &
DPID=$!
wait_ready "$WORK/d3.log"
"$WORK/oqlsh" -coord "$ADDR2" -e "$(commits "$HEAD")" > /dev/null
"$WORK/oqlsh" -coord "$ADDR2" -e "$PROBE" > "$WORK/clean.txt"
cmp "$WORK/recovered.txt" "$WORK/clean.txt"
echo "wal-smoke: recovered database is byte-identical to a clean $HEAD-commit run"

# The clean store's chain must also pass the fsck, with zero skips.
"$WORK/treebench-snap" chain "$WORK/db2" > /dev/null
kill "$DPID" && wait "$DPID" 2>/dev/null || true
DPID=
echo "wal-smoke: ok"
