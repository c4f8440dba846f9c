#!/usr/bin/env bash
# Builds the benchmark command from this checkout's sources and runs it.
# Run from the repository root; arguments pass through (see --help):
#   bash benchmark/run.sh --workload campus --seed 1 --seconds 30 --trace 0
# Everything it writes (Go build cache, temporary files, the go command's
# telemetry, the binary, spans, fingerprints) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly
(cd "$(dirname "$0")" && go build -o "$out/zhuge-benchmark" .) >&2
exec "$out/zhuge-benchmark" -root "$root" -out "$out" "$@"
