#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#   bash perfbench/run.sh --workload contig-rma --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache go to .bench_build/ at the root
# of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
