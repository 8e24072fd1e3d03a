#!/usr/bin/env bash
# Perf snapshot: run the root bench_test.go suite at a fixed -benchtime,
# COUNT times, record name -> median ns/op, allocs/op (plus the ns/op range)
# into BENCH_<date>.json via cmd/benchdiff, and gate against the most recent
# committed snapshot (allocs/op strictly; ns/op only when BENCH_NS_RATIO is
# set, since short benchtimes are noisy).
#
# Usage: scripts/bench.sh [-benchtime 100x]
#   BENCHTIME=10x scripts/bench.sh     # or via env
#   COUNT=3 scripts/bench.sh           # median of 3 runs per benchmark
#   BENCH_NS_RATIO=1.5 scripts/bench.sh  # also gate ns/op at 1.5x
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
COUNT="${COUNT:-1}"
if [ "${1:-}" = "-benchtime" ] && [ -n "${2:-}" ]; then
  BENCHTIME="$2"
fi

out="BENCH_$(date +%F).json"
prev="$(ls BENCH_*.json 2>/dev/null | grep -vx "$out" | sort | tail -1 || true)"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "==> go test -bench . -benchmem -benchtime $BENCHTIME -count $COUNT"
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . |
  tee "$tmp"

echo "==> benchdiff -out $out"
go run ./cmd/benchdiff -out "$out" "$tmp"

if [ -n "$prev" ]; then
  echo "==> benchdiff $prev vs $out"
  go run ./cmd/benchdiff -old "$prev" -new "$out" \
    ${BENCH_NS_RATIO:+-max-ns-ratio "$BENCH_NS_RATIO"}
else
  echo "==> no previous BENCH_*.json; $out is the new baseline"
fi
