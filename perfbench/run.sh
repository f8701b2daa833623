#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
