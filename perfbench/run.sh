#!/usr/bin/env bash
# Builds qxmapd and the benchmark program from source, then runs one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build caches, binaries, stores and traces
# all go to .bench_build/ under the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/qxmapd" ./cmd/qxmapd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -qxmapd "$out/bin/qxmapd" -out "$out" "$@"
