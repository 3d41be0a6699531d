#!/usr/bin/env bash
# End-to-end smoke for the distributed layer: boot a 3-shard treebenchd
# cluster and a treebench-coord over one shared snapshot cache, check that
# distributed queries render byte-identically to the local shell, exercise
# the cluster stats view, and verify that killing a shard mid-run surfaces
# the typed shard error instead of a wrong answer.
set -euo pipefail

cd "$(dirname "$0")/.."

COORD=${DIST_SMOKE_COORD:-127.0.0.1:8639}
S0=${DIST_SMOKE_S0:-127.0.0.1:8640}
S1=${DIST_SMOKE_S1:-127.0.0.1:8641}
S2=${DIST_SMOKE_S2:-127.0.0.1:8642}
DB=(-providers 100 -avg 40 -clustering class)

# The statement mix covers every distributable operator class: full scans
# (plain, filtered, aggregated, ordered), an indexed selection (routed to
# one shard), and a cost-planned tree join.
QUERIES='select pa.mrn, pa.age from pa in Patients;
select pa.mrn, pa.age from pa in Patients where pa.age < 40;
select avg(pa.age), min(pa.age), max(pa.age) from pa in Patients;
select count(*) from pa in Patients;
select pa.mrn from pa in Patients where pa.age < 30 order by pa.age;
select pa.age from pa in Patients where pa.mrn < 500;
select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 3600 and p.upin < 90;'

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/treebenchd" ./cmd/treebenchd
go build -o "$WORK/treebench-coord" ./cmd/treebench-coord
go build -o "$WORK/oqlsh" ./cmd/oqlsh

wait_ready() { # log-file name
  for _ in $(seq 1 300); do
    grep -q "serving" "$1" 2>/dev/null && return 0
    sleep 0.2
  done
  echo "dist-smoke: $2 did not become ready" >&2
  cat "$1" >&2
  exit 1
}

# Shard 0 boots first and populates the shared snapshot cache; the other
# shards and the coordinator then warm-boot from the same content-addressed
# .tbsp — provisioning by hash, the subsystem's distribution story.
export TREEBENCH_SNAPSHOT_DIR="$WORK/snapcache"
"$WORK/treebenchd" -addr "$S0" "${DB[@]}" -shard 0/3 -sessions 4 > "$WORK/s0.log" 2>&1 &
PIDS+=($!)
wait_ready "$WORK/s0.log" "shard 0"
"$WORK/treebenchd" -addr "$S1" "${DB[@]}" -shard 1/3 -sessions 4 > "$WORK/s1.log" 2>&1 &
S1PID=$!
PIDS+=($S1PID)
"$WORK/treebenchd" -addr "$S2" "${DB[@]}" -shard 2/3 -sessions 4 > "$WORK/s2.log" 2>&1 &
PIDS+=($!)
wait_ready "$WORK/s1.log" "shard 1"
wait_ready "$WORK/s2.log" "shard 2"
"$WORK/treebench-coord" -addr "$COORD" -shards "$S0,$S1,$S2" "${DB[@]}" \
  > "$WORK/coord.log" 2>&1 &
PIDS+=($!)
wait_ready "$WORK/coord.log" "coordinator"

# Distributed vs local: byte-identical output is the subsystem's core
# guarantee (scatter-gather merges in shard-index order == chunk order).
"$WORK/oqlsh" -coord "$COORD" -e "$QUERIES" > "$WORK/cluster.txt"
"$WORK/oqlsh" "${DB[@]}" -e "$QUERIES" > "$WORK/local.txt"
cmp "$WORK/cluster.txt" "$WORK/local.txt"
echo "dist-smoke: 3-shard output is byte-identical to oqlsh -e"

# The heuristic strategy (NL fan-out) must survive distribution too.
NLQ='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 1000 and p.upin < 20;'
"$WORK/oqlsh" -coord "$COORD" -strategy heuristic -e "$NLQ" > "$WORK/cluster_nl.txt"
"$WORK/oqlsh" "${DB[@]}" -strategy heuristic -e "$NLQ" > "$WORK/local_nl.txt"
cmp "$WORK/cluster_nl.txt" "$WORK/local_nl.txt"
echo "dist-smoke: heuristic NL join is byte-identical too"

# Four concurrent clients through the coordinator, then the cluster view:
# the shard map and three per-shard stat blocks must render.
CQ='select count(*) from pa in Patients;'
CLIENTS=()
for _ in 1 2 3 4; do
  "$WORK/oqlsh" -coord "$COORD" -e "$CQ$CQ$CQ" > /dev/null 2>&1 &
  CLIENTS+=($!)
done
for p in "${CLIENTS[@]}"; do
  wait "$p" || { echo "dist-smoke: a concurrent client failed" >&2; exit 1; }
done
"$WORK/oqlsh" -coord "$COORD" -e .server > "$WORK/load.txt"
grep -q "shard map (3 shards" "$WORK/load.txt"
grep -q "shard 0 @ $S0" "$WORK/load.txt"
grep -q "shard 2 @ $S2" "$WORK/load.txt"
echo "dist-smoke: oqlsh .server reports the shard map and per-shard stats"

# Warm queries are not distributable; the coordinator must refuse, not
# guess.
if "$WORK/oqlsh" -coord "$COORD" -warm \
    -e 'select count(*) from pa in Patients' >/dev/null 2>"$WORK/warm.err"; then
  echo "dist-smoke: warm query did not fail against the coordinator" >&2
  exit 1
fi
grep -qi "warm" "$WORK/warm.err"
echo "dist-smoke: warm queries are refused with an explanation"

# Kill shard 1 mid-run: the next distributed query must fail with the typed
# shard error naming the shard — degraded, never wrong.
kill -KILL "$S1PID"
wait "$S1PID" 2>/dev/null || true
if "$WORK/oqlsh" -coord "$COORD" \
    -e 'select pa.mrn, pa.age from pa in Patients;' >/dev/null 2>"$WORK/down.err"; then
  echo "dist-smoke: query succeeded with a dead shard" >&2
  exit 1
fi
grep -q "shard" "$WORK/down.err"
echo "dist-smoke: dead shard surfaces as a typed shard error"

# The cluster view must now show shard 1 as down while the others report.
"$WORK/oqlsh" -coord "$COORD" -e .server > "$WORK/degraded.txt"
grep -q "shard 1 @ $S1: DOWN" "$WORK/degraded.txt"
echo "dist-smoke: cluster stats report the dead shard as DOWN"
