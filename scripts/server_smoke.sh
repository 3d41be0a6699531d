#!/usr/bin/env bash
# End-to-end smoke for the query server: start treebenchd over a small
# database, check a remote query renders byte-identically to the local
# shell (cold and as a 2-session warm sequence), run a multi-client
# closed-loop load, drain on SIGTERM, and check a second daemon stops an
# over-budget statement at its deadline.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${SMOKE_ADDR:-127.0.0.1:8630}
TADDR=${SMOKE_TIMEOUT_ADDR:-127.0.0.1:8631}
DB=(-providers 40 -avg 10 -clustering class)
Q='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10;'
# A warm sequence (one statement per line for oqlsh): the second
# statement's numbers depend on what the first left in the session's
# caches.
WARMQ=$'select pa.mrn, pa.age from pa in Patients where pa.mrn < 50;\nselect count(*) from pa in Patients where pa.mrn < 50;'

WORK=$(mktemp -d)
DPID=
TPID=
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  [ -n "$TPID" ] && kill "$TPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/treebenchd" ./cmd/treebenchd
go build -o "$WORK/oqlload" ./cmd/oqlload
go build -o "$WORK/oqlsh" ./cmd/oqlsh

"$WORK/treebenchd" -addr "$ADDR" "${DB[@]}" -sessions 8 -v &
DPID=$!

# Remote vs local: byte-identical output is the server's core guarantee.
# (oqlsh -coord retries its dial while the daemon is still generating.)
"$WORK/oqlsh" -coord "$ADDR" -e "$Q" > "$WORK/remote.txt"
"$WORK/oqlsh" "${DB[@]}" -e "$Q" > "$WORK/local.txt"
cmp "$WORK/remote.txt" "$WORK/local.txt"
echo "smoke: remote output is byte-identical to oqlsh -e"

# Warm sequences: two concurrent server sessions each run the warm
# sequence on their own fork of the shared snapshot; both must render
# byte-identically to the local shell running the same sequence warm.
"$WORK/oqlsh" -coord "$ADDR" -warm -e "$WARMQ" > "$WORK/warm1.txt" &
W1=$!
"$WORK/oqlsh" -coord "$ADDR" -warm -e "$WARMQ" > "$WORK/warm2.txt"
wait "$W1"
"$WORK/oqlsh" "${DB[@]}" -warm -e "$WARMQ" > "$WORK/warmlocal.txt"
cmp "$WORK/warm1.txt" "$WORK/warmlocal.txt"
cmp "$WORK/warm2.txt" "$WORK/warmlocal.txt"
echo "smoke: 2-session warm sequence is byte-identical to oqlsh -warm -e"

# Multi-client closed loop: 8 sessions x 5 queries, throughput and
# percentiles on stdout, non-zero exit if any query failed.
"$WORK/oqlload" -addr "$ADDR" -c 8 -n 5 -e "$Q"

# A failing statement must fail the client.
if "$WORK/oqlsh" -coord "$ADDR" -e 'select x.y from x in Nowhere;' >/dev/null 2>&1; then
  echo "smoke: bad query did not fail oqlsh -coord" >&2
  exit 1
fi
echo "smoke: bad query fails the client, as it should"

# Graceful drain on SIGTERM.
kill -TERM "$DPID"
wait "$DPID"
DPID=
echo "smoke: drained cleanly"

# Deadlines on a real daemon: one slot, a 4 ms budget, and a statement
# whose cold run takes ~115 ms on a 2-CPU box, 20-30x the budget (NL over
# 400 000 randomly clustered patients). It must fail with the timeout, and
# the engine must have stopped at the deadline: a cheap query sent right
# after is served, where a stray execution would still hold the only slot
# and the cheap query would time out in the admission queue behind it.
TDB=(-providers 2000 -avg 200 -clustering random)
SLOW='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 1000000 and p.upin < 100000;'
"$WORK/treebenchd" -addr "$TADDR" "${TDB[@]}" -sessions 1 -qj 1 -query-timeout 4ms &
TPID=$!
if "$WORK/oqlsh" -coord "$TADDR" -strategy heuristic -e "$SLOW" >/dev/null 2>"$WORK/slow.err"; then
  echo "smoke: a statement far over its budget succeeded" >&2
  exit 1
fi
if ! grep -q "timeout" "$WORK/slow.err"; then
  echo "smoke: the over-budget statement failed without the timeout message:" >&2
  cat "$WORK/slow.err" >&2
  exit 1
fi
"$WORK/oqlsh" -coord "$TADDR" -e 'select count(*) from pa in Patients where pa.mrn < 2;' >/dev/null
echo "smoke: an over-budget statement times out and its slot is free at once"
kill -TERM "$TPID"
wait "$TPID"
TPID=
