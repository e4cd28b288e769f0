#!/usr/bin/env bash
# Builds the benchmark binary from source and runs one workload.
#
# Usage, from the repository root:
#   bash benchmark/run.sh --workload certify-n6 --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache) and scratch stores live under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchmark: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/benchmark" && go build -trimpath -o "$out/bncgbench" .)

exec "$out/bncgbench" --workdir "$out/work" "$@"
