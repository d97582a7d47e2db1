#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash benchmark/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare -base runs/base -head runs/head
#
# Build outputs, Go's caches and configuration, and the benchmark's
# temporary files all live under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gotmp" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/gotmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C benchmark -o "$out/spef-bench" .
exec "$out/spef-bench" "$@"
