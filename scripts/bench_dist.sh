#!/usr/bin/env bash
# Measures what sharding buys in wall time: the identical cold PHJ tree
# query (50% children, 90% parents — heavy probe work, cost-planned PHJ at
# both bench shapes) through a treebench-coord over 1, 2, and 4 treebenchd
# shards, each shard pinned to -qj 1 so the only parallelism measured is the
# cluster's. All cluster sizes reuse one content-addressed snapshot cache,
# so only the first daemon ever generates data. Writes BENCH_dist.json with
# the wall seconds per cluster size and the 1→4 speedup, and fails if four
# shards buy less than MIN_SPEEDUP× (default 1.3) — enforced only on
# machines with at least four CPUs, since four shard processes cannot run
# concurrently on fewer; the rendered results are byte-identical at every
# cluster size by construction (TestDistributedDeterministic and
# dist_smoke.sh pin that separately).
#
#   BENCH_SHORT=1      use the short database (200×200 instead of 2000×100)
#   REPS=20            cold queries measured per cluster size (default 10)
#   MIN_SPEEDUP=1.5    gate to enforce (default 1.3)
#   BENCH_DIST_OUT=f   output path (default BENCH_dist.json)
source "$(dirname "$0")/lib_bench.sh"
bench_init dist

OUT=${BENCH_DIST_OUT:-BENCH_dist.json}
MIN_SPEEDUP=${MIN_SPEEDUP:-1.3}
REPS=${REPS:-10}
COORD=${BENCH_DIST_COORD:-127.0.0.1:8649}
PORT0=${BENCH_DIST_PORT0:-8650}

if [ "${BENCH_SHORT:-}" = "1" ]; then
  CONFIG="200x200"
  DB=(-providers 200 -avg 200 -clustering class)
  Q='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 20000 and p.upin < 180'
else
  CONFIG="2000x100"
  DB=(-providers 2000 -avg 100 -clustering class)
  Q='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100000 and p.upin < 1800'
fi

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

export TREEBENCH_SNAPSHOT_DIR=${TREEBENCH_SNAPSHOT_DIR:-$WORK/snapcache}

go build -o "$WORK/treebenchd" ./cmd/treebenchd
go build -o "$WORK/treebench-coord" ./cmd/treebench-coord
go build -o "$WORK/oqlload" ./cmd/oqlload
go build -o "$WORK/oqlsh" ./cmd/oqlsh

wait_ready() { # log-file name
  for _ in $(seq 1 600); do
    grep -q "serving" "$1" 2>/dev/null && return 0
    sleep 0.5
  done
  echo "bench-dist: $2 did not become ready" >&2
  cat "$1" >&2
  exit 1
}

stop_cluster() {
  for p in "${PIDS[@]:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  for p in "${PIDS[@]:-}"; do
    [ -n "$p" ] && wait "$p" 2>/dev/null || true
  done
  PIDS=()
}

# measure N  → wall seconds for REPS cold PHJ queries through an N-shard
# cluster, into the global WALL.
measure() {
  local n=$1 addrs="" i
  for i in $(seq 0 $((n - 1))); do
    local port=$((PORT0 + i)) addr
    addr="127.0.0.1:$port"
    [ -n "$addrs" ] && addrs="$addrs,"
    addrs="$addrs$addr"
    "$WORK/treebenchd" -addr "$addr" "${DB[@]}" -shard "$i/$n" -qj 1 -sessions 2 \
      > "$WORK/shard$i.log" 2>&1 &
    PIDS+=($!)
  done
  for i in $(seq 0 $((n - 1))); do
    wait_ready "$WORK/shard$i.log" "shard $i/$n"
  done
  "$WORK/treebench-coord" -addr "$COORD" -shards "$addrs" "${DB[@]}" \
    > "$WORK/coord$n.log" 2>&1 &
  PIDS+=($!)
  wait_ready "$WORK/coord$n.log" "coordinator ($n shards)"

  # The measured statement must actually be the cost-planned PHJ.
  "$WORK/oqlsh" -coord "$COORD" -e "$Q" > "$WORK/plan$n.txt"
  grep -q "via PHJ" "$WORK/plan$n.txt" || {
    echo "bench-dist: query not planned as PHJ at $CONFIG:" >&2
    head -1 "$WORK/plan$n.txt" >&2
    exit 1
  }

  "$WORK/oqlload" -addr "$COORD" -c 1 -n "$REPS" -e "$Q" > "$WORK/load$n.txt"
  WALL=$(awk '/in [0-9.]+s wall/ { for (i=1;i<=NF;i++) if ($i == "in") { sub(/s$/, "", $(i+1)); print $(i+1); exit } }' "$WORK/load$n.txt")
  if [ -z "$WALL" ]; then
    echo "bench-dist: could not parse oqlload wall time for $n shards" >&2
    cat "$WORK/load$n.txt" >&2
    exit 1
  fi
  stop_cluster
}

measure 1; W1=$WALL
measure 2; W2=$WALL
measure 4; W4=$WALL

SPEEDUP2=$(bench_ratio "$W1" "$W2")
SPEEDUP4=$(bench_ratio "$W1" "$W4")

bench_cpu_gate 4

bench_emit_json <<EOF
{
  "benchmark": "cold PHJ tree query, 50% children x 90% parents, class clustering, through treebench-coord",
  "config": "$CONFIG",
  "reps": $REPS,
  "shards_1_wall_s": $W1,
  "shards_2_wall_s": $W2,
  "shards_4_wall_s": $W4,
  "speedup_2": $SPEEDUP2,
  "speedup_4": $SPEEDUP4,
  "cpus": $CPUS,
  "min_speedup": $MIN_SPEEDUP,
  "gate_enforced": $ENFORCED
}
EOF
bench_note "1 shard ${W1}s, 2 shards ${W2}s (${SPEEDUP2}x), 4 shards ${W4}s (${SPEEDUP4}x) on ${CPUS} CPUs"

if [ "$ENFORCED" = true ]; then
  bench_gate_min "$SPEEDUP4" "$MIN_SPEEDUP" "4-shard speedup ${SPEEDUP4}x below required ${MIN_SPEEDUP}x"
else
  bench_note "${CPUS} CPUs < 4, speedup gate recorded but not enforced"
fi
