#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --report 5 --seconds 15     # steadiness report
#
# Run it from the root of a checkout. Every build product, the Go build
# cache and the benchmark's scratch state stay under .bench_build/ in the
# checkout (or under $CARGO_TARGET_DIR when that is set).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a vca checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --state "$out" "$@"
