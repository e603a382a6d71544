#!/usr/bin/env bash
# Builds matchd and the benchmark (perfbench) from the checkout this script
# sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false GOTELEMETRY=off

go build -o "$out/matchd" ./cmd/matchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -matchd "$out/matchd" -work "$out/work" "$@"
