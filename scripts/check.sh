#!/usr/bin/env bash
# Tier-2 gate: everything CI runs. Tier-1 (go build && go test) is a subset;
# this adds gofmt, the race detector, go vet, TrioSim's own determinism
# analyzers (triosimvet), and the double-run replay-digest check.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l (any unformatted file fails the gate)"
unformatted="$(gofmt -l .)"
[[ -z "$unformatted" ]] ||
  { echo "gofmt -l lists files that need gofmt -w:"; echo "$unformatted"; exit 1; }

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> perfbench module (go vet + go test; its own module, so ./... above skips it)"
# perfbench builds against the timeline, task and serving APIs; vet and test
# it here so an API change that breaks the benchmark fails CI.
(cd perfbench && go vet ./... && go test ./...)

echo "==> race hammer (sweep pool + monitor + faults + trace cache + serving + server, repeated runs)"
go test -race -count=2 ./internal/sweep/... ./internal/monitor/... \
  ./internal/faults/... ./internal/tracecache/... ./internal/serving/... \
  ./internal/server/...

echo "==> triosimvet (static determinism + concurrency-safety analyzers, baseline-gated)"
# Gate on findings NOT in the committed baseline (new violations only); the
# committed lint.baseline.json is empty, so today this is "tree must be
# clean". TRIOSIMVET_JSON_OUT, when set (CI), captures the machine-readable
# new-findings list as a build artifact.
if [[ -n "${TRIOSIMVET_JSON_OUT:-}" ]]; then
  go run ./cmd/triosimvet -baseline lint.baseline.json -json ./... \
    >"$TRIOSIMVET_JSON_OUT" || { cat "$TRIOSIMVET_JSON_OUT"; exit 1; }
else
  go run ./cmd/triosimvet -baseline lint.baseline.json ./...
fi

echo "==> triosimvet -replay (double-run event-digest check + fault injection + serving)"
go run ./cmd/triosimvet -replay -replay-faults -replay-serving

echo "==> triosimvet -cache-smoke (trace-cache hit counters + digest identity)"
go run ./cmd/triosimvet -cache-smoke

echo "==> telemetry smoke (-metrics-out + RunReport schema validation)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/triosim -model resnet50 -platform P2 -parallelism ddp \
  -trace-batch 32 -metrics-out "$tmpdir/report.json" >/dev/null
go run ./cmd/triosimvet -report "$tmpdir/report.json"

echo "==> serving smoke (-serve-sim + RunReport schema validation)"
go run ./cmd/triosim -serve-sim -model gpt2 -platform P1 -serve-requests 24 \
  -serve-rate 200 -serve-seed 7 -metrics-out "$tmpdir/serving.json" >/dev/null
go run ./cmd/triosimvet -report "$tmpdir/serving.json"

echo "==> span-trace smoke (-trace-out Chrome JSON + trace-event schema validation)"
# TRIOSIM_TRACE_OUT, when set (CI), keeps the exported trace as a build
# artifact next to the triosimvet findings.
trace_out="${TRIOSIM_TRACE_OUT:-$tmpdir/trace.json}"
go run ./cmd/triosim -model resnet18 -platform P1 -parallelism ddp \
  -trace-batch 32 -trace-out "$trace_out" >/dev/null
go run ./cmd/triosimvet -trace-check "$trace_out"

echo "==> timeline-html smoke (faulted DDP run: one breakdown row per lane, faults lane, critical outline)"
go run ./cmd/triosim -model resnet18 -platform P2 -parallelism ddp \
  -trace-batch 32 -fault-seed 7 -timeline-html "$tmpdir/timeline.html" >/dev/null
lanes="$(grep -c '^<text class="lane-label"' "$tmpdir/timeline.html" || true)"
rows="$(grep -c '^<tr><td>' "$tmpdir/timeline.html" || true)"
outlined="$(grep -c 'stroke="#222"' "$tmpdir/timeline.html" || true)"
(( lanes > 0 && rows == lanes )) ||
  { echo "timeline-html smoke: $rows breakdown rows for $lanes lanes"; exit 1; }
grep -q '^<text class="lane-label"[^>]*>faults</text>' "$tmpdir/timeline.html" ||
  { echo "timeline-html smoke: no faults lane"; exit 1; }
(( outlined >= 1 )) ||
  { echo "timeline-html smoke: no critical-path rect outlined"; exit 1; }

echo "==> serving span-trace smoke (-serve-sim -trace-out + trace-event schema validation)"
go run ./cmd/triosim -serve-sim -model gpt2 -platform P1 -serve-requests 24 \
  -serve-rate 200 -serve-seed 7 -trace-out "$tmpdir/serving-trace.json" >/dev/null
go run ./cmd/triosimvet -trace-check "$tmpdir/serving-trace.json"

echo "==> triosimd smoke (daemon + load harness + coalescing + CLI byte-identity gate)"
go build -o "$tmpdir/triosimd" ./cmd/triosimd
go build -o "$tmpdir/triosimload" ./cmd/triosimload
# Reference report from the one-shot CLI: -deterministic skips wall-clock
# stamps, so the daemon-served report of the same spec must match it
# byte-for-byte (the coalescing substitution guarantee, docs/SERVER.md).
go run ./cmd/triosim -model resnet18 -platform P1 -parallelism ddp \
  -trace-batch 32 -global-batch 64 -deterministic \
  -metrics-out "$tmpdir/ref-report.json" >/dev/null
cat >"$tmpdir/gate-request.json" <<'JSON'
{"run":{"model":"resnet18","platform":"P1","parallelism":"ddp","trace_batch":32,"global_batch":64}}
JSON
run_daemon_load() { # $1 daemon binary, $2 requests, $3 concurrency
  local addr_file daemon_pid addr
  addr_file="$(mktemp "$tmpdir/addr.XXXXXX")"
  : >"$addr_file"
  "$1" -addr 127.0.0.1:0 -addr-file "$addr_file" &
  daemon_pid=$!
  for _ in $(seq 100); do [[ -s "$addr_file" ]] && break; sleep 0.1; done
  addr="$(cat "$addr_file")"
  [[ -n "$addr" ]] || { echo "daemon never wrote its address"; exit 1; }
  "$tmpdir/triosimload" -addr "$addr" \
    -requests "$2" -concurrency "$3" -distinct 3 -wait-ready 10s \
    -require-coalesce -gate-request "$tmpdir/gate-request.json" \
    -gate-report "$tmpdir/ref-report.json"
  kill -TERM "$daemon_pid"
  wait "$daemon_pid"
}
run_daemon_load "$tmpdir/triosimd" 1000 1000

echo "==> triosimd race smoke (race-built daemon under concurrent load)"
go build -race -o "$tmpdir/triosimd-race" ./cmd/triosimd
run_daemon_load "$tmpdir/triosimd-race" 200 200

echo "==> scale smoke (1,024-GPU DP×TP×PP step: double-run replay identity, wall-clock budget)"
# A 128-machine rail fat-tree running llama32-1b under DP=16 × TP=8 × PP=8,
# simulated twice: the event digests must be byte-identical (the replay
# guarantee at cluster scale), and both runs together must fit a wall-clock
# budget — the 10k-GPU "single-digit seconds" claim, scaled to CI.
scale_start=$SECONDS
cat >"$tmpdir/scale.json" <<'JSON'
{
  "model": "llama32-1b", "platform": "P3", "parallelism": "dp+tp+pp",
  "trace_batch": 16, "global_batch": 1024, "num_gpus": 1024,
  "tp_ranks": 8, "pp_stages": 8, "chunks": 4, "fuse_compute": true,
  "topology": {"kind": "rail-fat-tree", "machines": 128,
    "gpus_per_machine": 8, "nvlink_gbps": 300, "link_bandwidth_gbps": 50,
    "fabric_gbps": 100, "link_latency_us": 2, "host_bandwidth_gbps": 20,
    "host_latency_us": 5}
}
JSON
run_scale() { # $1 report out; prints the event digest
  go run ./cmd/triosim -config "$tmpdir/scale.json" -deterministic \
    -metrics-out "$1" | awk '/event digest/ {print $3}'
}
d1="$(run_scale "$tmpdir/scale-report.json")"
d2="$(run_scale "$tmpdir/scale-report2.json")"
[[ -n "$d1" && "$d1" == "$d2" ]] ||
  { echo "scale smoke: replay digests differ: $d1 vs $d2"; exit 1; }
(( SECONDS - scale_start <= 120 )) ||
  { echo "scale smoke: $((SECONDS - scale_start))s exceeds the 120s budget"; exit 1; }
step="$(grep -o '"per_iteration_sec": *[0-9.eE+-]*' "$tmpdir/scale-report.json" |
  head -1 | awk '{print $2}')"
echo "    digest $d1, step ${step}s, $((SECONDS - scale_start))s wall"

echo "==> bench smoke + benchdiff gate (allocs/op vs committed BENCH_*.json)"
go test -run '^$' -bench . -benchmem -benchtime 1x . >"$tmpdir/bench.txt"
go run ./cmd/benchdiff -out "$tmpdir/bench.json" "$tmpdir/bench.txt"
baseline="$(ls BENCH_*.json | sort | tail -1)"
go run ./cmd/benchdiff -old "$baseline" -new "$tmpdir/bench.json"

echo "==> all checks passed"
