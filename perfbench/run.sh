#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout, for example:
#
#   bash perfbench/run.sh --workload cluster-step --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build and module caches, temporary
# files, its own settings and counters) stays under .bench_build in the
# checkout, and the build never touches the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
