#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the current checkout
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload ensemble-expander --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary build files, the go command's config
# directory and the binary stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR/gocache" "$CARGO_TARGET_DIR/gotmp"
build=$(cd "$CARGO_TARGET_DIR" && pwd) # the go command wants absolute cache paths
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps telemetry counters in the user config directory;
# point that into the build area too.
export XDG_CONFIG_HOME="$build/config"
go -C perfbench build -buildvcs=false -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
