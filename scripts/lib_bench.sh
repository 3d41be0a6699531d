# Shared helpers for the scripts/bench_*.sh family. Every benchmark
# script follows the same shape — strict mode, repo-root cwd, CPU count
# detection, awk ratio arithmetic, a BENCH_*.json artifact, and one or
# more speedup gates that fail the script — so the shape lives here once.
#
# Usage (first lines of a bench script):
#
#   source "$(dirname "$0")/lib_bench.sh"
#   bench_init cache          # name used in every message: "bench-cache: ..."
#
# Provided:
#   bench_init NAME           strict mode, cd to repo root, $CPUS, $BENCH_NAME
#   bench_note MSG...         progress line prefixed "bench-NAME:"
#   bench_fail MSG...         error line to stderr, exit 1
#   bench_require VAL MSG...  bench_fail unless VAL is non-empty
#   bench_ratio A B [FMT]     print A/B formatted (default %.2f)
#   bench_gate_min VAL MIN MSG...  bench_fail unless VAL >= MIN (numeric)
#   bench_gate_max VAL MAX MSG...  bench_fail unless VAL <  MAX (numeric)
#   bench_emit_json           write stdin to $OUT and note it
#
# Gates compare with awk so 1.30 vs 1.3 and scientific notation behave;
# shell integer comparison would not.

bench_init() {
  set -euo pipefail
  BENCH_NAME=$1
  cd "$(dirname "$0")/.."
  CPUS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
}

bench_note() { echo "bench-${BENCH_NAME}: $*"; }

bench_fail() {
  echo "bench-${BENCH_NAME}: $*" >&2
  exit 1
}

bench_require() {
  local val=$1
  shift
  [ -n "$val" ] || bench_fail "$@"
}

bench_ratio() {
  awk -v a="$1" -v b="$2" -v fmt="${3:-%.2f}" 'BEGIN { printf fmt, a / b }'
}

bench_gate_min() {
  local val=$1 min=$2
  shift 2
  awk -v v="$val" -v m="$min" 'BEGIN { exit !(v + 0 >= m + 0) }' || bench_fail "$@"
}

bench_gate_max() {
  local val=$1 max=$2
  shift 2
  awk -v v="$val" -v m="$max" 'BEGIN { exit !(v + 0 < m + 0) }' || bench_fail "$@"
}

bench_emit_json() {
  cat > "$OUT"
  bench_note "wrote $OUT"
}
