#!/usr/bin/env bash
# Builds the NoCDN page-view benchmark from this checkout and runs it.
#
#   bash nocdnbench/run.sh --workload view-warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything it builds and writes stays under
# the build directory ($CARGO_TARGET_DIR if set, else .bench_build), Go's
# build cache included. The last line of output is the JSON result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/config" "$build/tmp" "$build/work"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/nocdnbench" && go build -o "$build/nocdnbench" .) >&2
exec "$build/nocdnbench" -root "$root" -work "$build/work" "$@"
