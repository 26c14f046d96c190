#!/usr/bin/env bash
# Builds metadns and the end-to-end replay benchmark from the checkout in
# the current directory, then runs one measurement. Every argument passes
# through to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload broot-paced --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run files all stay under
# .bench_build/e2ebench in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/metadns" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of an ldplayer checkout" >&2
	exit 2
fi

work="$root/.bench_build/e2ebench"
mkdir -p "$work/gocache" "$work/gomodcache" "$work/tmp" "$work/config" "$work/bin"
# The go command's cache, temporary files and user configuration (which
# holds its telemetry counters) all stay inside the checkout.
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$work/bin/metadns" ./cmd/metadns
go -C e2ebench build -o "$work/bin/e2ebench" .
exec "$work/bin/e2ebench" -work "$work" -metadns "$work/bin/metadns" "$@"
