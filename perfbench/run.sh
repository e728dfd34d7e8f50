#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (see main.go for the flags). Run from the checkout root:
#
#   bash perfbench/run.sh --workload warm-sweep --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, otherwise .bench_build): the Go build cache,
# the binary, and the per-run reports and traces.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home"
export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The commit is recorded in each run's host line; outside a git checkout it
# reads "unknown".
export BENCH_COMMIT=${BENCH_COMMIT:-$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
