#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash qosbench/run.sh --workload quick-artifacts --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry, and per-run state (digests, spans, results) go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
state=${CARGO_TARGET_DIR:-.bench_build}
case $state in
/*) ;;
*) state="$root/$state" ;;
esac
mkdir -p "$state/tmp"

export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state/tmp" \
	XDG_CONFIG_HOME="$state/config" GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/qosbench" && go build -o "$state/qosbench" .)
exec "$state/qosbench" -root "$root" -state "$state" "$@"
