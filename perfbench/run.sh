#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one workload.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-grids --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands under .bench_build/perfbench
# in the checkout: the Go build cache, the binary, and the traced run's
# Chrome trace and layer report.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
