#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's home (its config and telemetry
# files), the binary and the run's scratch files all stay inside
# .bench_build under the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
