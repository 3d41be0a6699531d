#!/usr/bin/env bash
# Measures what the shared buffer pool buys and enforces the three cache
# gates, writing BENCH_cache.json:
#
#   1. warm-over-cold: repeated paper-scale work over one pool must run
#      >= MIN_WARM_SPEEDUP (default 2.0) faster once the pool is warm
#      than on the cold first pass;
#   2. readahead-over-none: a cold sequential scan with readahead must
#      beat -readahead=0 by >= MIN_RA_SPEEDUP (default 1.3), measured as
#      an in-process A/B (bench -versus alternates the two configs round
#      by round, so machine-speed drift hits both equally);
#   3. bounded memory: 8 concurrent sessions sweeping the whole image
#      through a pool smaller than it (RSS_POOL_MB) must end with RSS
#      BELOW the image size — the process never holds the file.
#
# Cold runs open the snapshot O_DIRECT (-direct) so a miss is a device
# read, not a copy out of the OS page cache. Gates 1 and 3 hold either
# way and are enforced everywhere; gate 2 measures device readahead and
# is enforced only where direct I/O actually engages (the driver prints
# direct=true/false) — a warm page cache serves 4 KB reads at memory
# speed and the syscall-amortization win alone hovers near the gate.
# No daemon can open O_DIRECT, so the same A/B is also run buffered and
# recorded (not gated) as readahead_speedup_buffered: that is the number
# a treebenchd over a warm page cache sees; readahead_speedup is the
# number a cold device would give.
# Byte-identity across all of these configs is pinned separately by
# TestPoolConfigEquivalence; here every run's result_crc is compared as
# a belt-and-suspenders check.
#
#   BENCH_SHORT=1         smaller database (400×250 instead of 1000×500)
#   MIN_WARM_SPEEDUP=3.0  warm/cold gate (default 2.0)
#   MIN_RA_SPEEDUP=1.5    readahead gate (default 1.3)
#   BENCH_CACHE_OUT=f     output path (default BENCH_cache.json)
source "$(dirname "$0")/lib_bench.sh"
bench_init cache

OUT=${BENCH_CACHE_OUT:-BENCH_cache.json}
MIN_WARM_SPEEDUP=${MIN_WARM_SPEEDUP:-2.0}
MIN_RA_SPEEDUP=${MIN_RA_SPEEDUP:-1.3}

# Two pool sizes on purpose: the warm and readahead gates measure a pool
# big enough to hold the page image (POOL_MB — a rescan under a too-small
# pool re-faults every page, 2Q's scan resistance notwithstanding, since
# a pure sequential sweep has no reuse to protect); the RSS gate measures
# the opposite regime, a pool deliberately SMALLER than the image
# (RSS_POOL_MB), where boundedness is the whole claim.
if [ "${BENCH_SHORT:-}" = "1" ]; then
  CONFIG="400x250"
  DB=(-providers 400 -avg 250)
  POOL_MB=64
  RSS_POOL_MB=8
else
  CONFIG="1000x500"
  DB=(-providers 1000 -avg 500)
  POOL_MB=256
  RSS_POOL_MB=64
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_cache.XXXXXX")
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

BIN="$WORK/treebench-snap"
go build -o "$BIN" ./cmd/treebench-snap

SNAP="$WORK/cache.tbsp"
bench_note "generating $CONFIG snapshot"
"$BIN" save "${DB[@]}" -clustering class -o "$SNAP" > /dev/null
PAGES=$(stat -c %s "$SNAP" 2>/dev/null || stat -f %z "$SNAP")
bench_note "snapshot $SNAP ($PAGES bytes)"

# --- gate 1: warm over cold ------------------------------------------
# One process, four rounds of the same sequential sweep: round 1 faults
# every page (cold), later rounds hit the pool. Warm cost is the minimum
# of the warm rounds (noise can only slow a round down).
RAW_WARM=$("$BIN" bench -file "$SNAP" -mode sweep -rounds 4 -direct \
  -bufpool-mb "$POOL_MB" -readahead 32)
echo "$RAW_WARM"
DIRECT=$(echo "$RAW_WARM" | awk -F= '/^direct=/ { print $2 }')
COLD_MS=$(echo "$RAW_WARM" | awk -F'wall_ms=' '/^round=1 /  { print $2 }')
WARM_MS=$(echo "$RAW_WARM" | awk -F'wall_ms=' '/^round=[^1] / { print $2 }' | sort -g | head -1)
CRC_WARM=$(echo "$RAW_WARM" | awk -F= '/^result_crc=/ { print $2 }')
bench_require "$COLD_MS" "could not parse cold round"
bench_require "$WARM_MS" "could not parse warm rounds"
WARM_SPEEDUP=$(bench_ratio "$COLD_MS" "$WARM_MS")

# --- gate 2: readahead over none -------------------------------------
RAW_RA=$("$BIN" bench -file "$SNAP" -mode sweep -rounds 3 -direct -versus \
  -bufpool-mb "$POOL_MB" -readahead 32)
echo "$RAW_RA"
RA_SPEEDUP=$(echo "$RAW_RA" | grep -o 'ra_speedup=[0-9.]*' | cut -d= -f2)
CRC_RA=$(echo "$RAW_RA" | awk -F= '/^result_crc=/ { print $2 }')
bench_require "$RA_SPEEDUP" "could not parse ra_speedup"

# The same A/B the way a daemon reads: buffered, over the OS page cache.
RAW_RA_BUF=$("$BIN" bench -file "$SNAP" -mode sweep -rounds 3 -versus \
  -bufpool-mb "$POOL_MB" -readahead 32)
echo "$RAW_RA_BUF"
RA_SPEEDUP_BUF=$(echo "$RAW_RA_BUF" | grep -o 'ra_speedup=[0-9.]*' | cut -d= -f2)
CRC_RA_BUF=$(echo "$RAW_RA_BUF" | awk -F= '/^result_crc=/ { print $2 }')
bench_require "$RA_SPEEDUP_BUF" "could not parse buffered ra_speedup"

# --- gate 3: 8-session RSS under a pool smaller than the image -------
RAW_POOL=$("$BIN" bench -file "$SNAP" -mode sweep -sessions 8 -rounds 1 \
  -bufpool-mb "$RSS_POOL_MB" -readahead 32)
echo "$RAW_POOL"
POOL_RSS=$(echo "$RAW_POOL" | awk '/^vm_rss_kb=/ { split($1, a, "="); print a[2] }')
CRC_POOL=$(echo "$RAW_POOL" | awk -F= '/^result_crc=/ { print $2 }')
bench_require "$POOL_RSS" "could not parse pooled RSS"
IMAGE_KB=$((PAGES / 1024))

# Every configuration must have produced identical results.
for crc in "$CRC_RA" "$CRC_RA_BUF" "$CRC_POOL"; do
  if [ "$crc" != "$CRC_WARM" ]; then
    bench_fail "result CRCs diverged across configs: $CRC_WARM vs $crc"
  fi
done

RA_ENFORCED=false
if [ "$DIRECT" = "true" ]; then
  RA_ENFORCED=true
fi

bench_emit_json <<EOF
{
  "benchmark": "sequential page sweep of a $CONFIG class-clustered snapshot under the shared buffer pool",
  "config": "$CONFIG",
  "snapshot_bytes": $PAGES,
  "pool_mb": $POOL_MB,
  "rss_pool_mb": $RSS_POOL_MB,
  "readahead_pages": 32,
  "direct_io": $DIRECT,
  "cold_ms": $COLD_MS,
  "warm_ms": $WARM_MS,
  "warm_speedup": $WARM_SPEEDUP,
  "readahead_speedup": $RA_SPEEDUP,
  "readahead_speedup_buffered": $RA_SPEEDUP_BUF,
  "rss_pool_kb": $POOL_RSS,
  "result_crc": "$CRC_WARM",
  "cpus": $CPUS,
  "min_warm_speedup": $MIN_WARM_SPEEDUP,
  "min_ra_speedup": $MIN_RA_SPEEDUP,
  "warm_gate_enforced": true,
  "ra_gate_enforced": $RA_ENFORCED,
  "rss_gate_enforced": true
}
EOF
bench_note "cold ${COLD_MS}ms, warm ${WARM_MS}ms (${WARM_SPEEDUP}x), readahead ${RA_SPEEDUP}x (direct=$DIRECT) / ${RA_SPEEDUP_BUF}x buffered, RSS ${POOL_RSS}kB over a ${RSS_POOL_MB}MB pool vs ${IMAGE_KB}kB image (${CPUS} CPUs)"

bench_gate_min "$WARM_SPEEDUP" "$MIN_WARM_SPEEDUP" \
  "warm speedup ${WARM_SPEEDUP}x below required ${MIN_WARM_SPEEDUP}x"
if [ "$RA_ENFORCED" = true ]; then
  bench_gate_min "$RA_SPEEDUP" "$MIN_RA_SPEEDUP" \
    "readahead speedup ${RA_SPEEDUP}x below required ${MIN_RA_SPEEDUP}x"
else
  bench_note "direct I/O unavailable, readahead gate recorded but not enforced"
fi
bench_gate_max "$POOL_RSS" "$IMAGE_KB" \
  "RSS ${POOL_RSS}kB over a ${RSS_POOL_MB}MB pool not below the ${IMAGE_KB}kB image"
bench_note "gates passed (warm ${WARM_SPEEDUP}x>=${MIN_WARM_SPEEDUP}x, readahead ${RA_SPEEDUP}x, RSS ${POOL_RSS}<${IMAGE_KB}kB)"
