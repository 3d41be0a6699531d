#!/usr/bin/env bash
# End-to-end smoke for the persistent snapshot store: save a snapshot,
# verify it, prove a flipped byte is caught as a checksum failure, reload
# the intact file, and boot treebenchd twice over one snapshot directory —
# the second boot must come from cache and answer byte-identically.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${SNAP_SMOKE_ADDR:-127.0.0.1:8631}
DB=(-providers 40 -avg 10 -clustering class)
Q='select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10;'

WORK=$(mktemp -d)
DPID=
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/treebench-snap" ./cmd/treebench-snap
go build -o "$WORK/treebenchd" ./cmd/treebenchd
go build -o "$WORK/oqlsh" ./cmd/oqlsh

# Save, then verify every section checksum.
"$WORK/treebench-snap" save -providers 40 -avg 10 -clustering class -o "$WORK/db.tbsp"
"$WORK/treebench-snap" verify "$WORK/db.tbsp"
echo "snap-smoke: save + verify ok"

# Flip one byte in the middle of a copy: verify must fail with a checksum
# error naming a section, and load must refuse it too.
cp "$WORK/db.tbsp" "$WORK/corrupt.tbsp"
SIZE=$(wc -c < "$WORK/corrupt.tbsp")
OFF=$((SIZE / 2))
BYTE=$(dd if="$WORK/corrupt.tbsp" bs=1 skip="$OFF" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\x%02x' $(( (BYTE + 1) % 256 )))" |
  dd of="$WORK/corrupt.tbsp" bs=1 seek="$OFF" conv=notrunc 2>/dev/null
if "$WORK/treebench-snap" verify "$WORK/corrupt.tbsp" > "$WORK/verify.txt" 2>&1; then
  echo "snap-smoke: corrupted snapshot passed verify" >&2
  exit 1
fi
grep -qi "checksum" "$WORK/verify.txt" || {
  echo "snap-smoke: corruption not reported as a checksum failure:" >&2
  cat "$WORK/verify.txt" >&2
  exit 1
}
if "$WORK/treebench-snap" load "$WORK/corrupt.tbsp" >/dev/null 2>&1; then
  echo "snap-smoke: corrupted snapshot loaded" >&2
  exit 1
fi
echo "snap-smoke: flipped byte at offset $OFF caught by checksum"

# The intact file still loads and serves a probe query.
"$WORK/treebench-snap" load "$WORK/db.tbsp" > "$WORK/load-btree.txt"
cat "$WORK/load-btree.txt"
echo "snap-smoke: intact snapshot reloads and answers queries"

# Per-backend saves: verify and ls must name the backend, and a reloaded
# LSM snapshot must answer the probe query byte-identically to the B+-tree
# default (only the load line's page count may differ). The greps read
# all of their input (no -q): under pipefail, a grep that quits at its
# first match can fail the pipeline with SIGPIPE on the writer's next line.
"$WORK/treebench-snap" save "${DB[@]}" -index-backend lsm -o "$WORK/lsm.tbsp"
"$WORK/treebench-snap" verify "$WORK/lsm.tbsp" | grep "backend lsm" >/dev/null || {
  echo "snap-smoke: verify does not name the lsm backend" >&2
  exit 1
}
"$WORK/treebench-snap" ls -dir "$WORK" | grep '^db ' | grep 'btree' >/dev/null || {
  echo "snap-smoke: ls does not show the backend column" >&2
  exit 1
}
"$WORK/treebench-snap" load "$WORK/lsm.tbsp" > "$WORK/load-lsm.txt"
cmp <(tail -n +2 "$WORK/load-btree.txt") <(tail -n +2 "$WORK/load-lsm.txt")
if ! "$WORK/treebench-snap" save "${DB[@]}" -index-backend bogus -o "$WORK/bogus.tbsp" 2>"$WORK/bogus.txt"; then
  grep -q "btree" "$WORK/bogus.txt" || {
    echo "snap-smoke: unknown-backend error does not hint at valid kinds" >&2
    exit 1
  }
else
  echo "snap-smoke: unknown index backend accepted" >&2
  exit 1
fi
echo "snap-smoke: lsm snapshot round-trips with byte-identical answers"

# Warm boot: boot 1 populates the snapshot dir (source "generated"),
# boot 2 must report source "cache" and answer byte-identically.
boot() { # boot <out-prefix> <want-source>
  "$WORK/treebenchd" -addr "$ADDR" "${DB[@]}" -snapshot-dir "$WORK/cache" -sessions 2 &
  DPID=$!
  "$WORK/oqlsh" -coord "$ADDR" -e "$Q" > "$WORK/$1.txt"
  "$WORK/oqlsh" -coord "$ADDR" -e .server > "$WORK/$1-stats.txt"
  grep -q "^SnapshotSource $2" "$WORK/$1-stats.txt" || {
    echo "snap-smoke: boot $1: wanted snapshot source $2, got:" >&2
    grep "^SnapshotSource" "$WORK/$1-stats.txt" >&2 || true
    exit 1
  }
  kill -TERM "$DPID"
  wait "$DPID"
  DPID=
}
boot first generated
boot second cache
cmp "$WORK/first.txt" "$WORK/second.txt"
echo "snap-smoke: second boot served from cache, byte-identical answers"
