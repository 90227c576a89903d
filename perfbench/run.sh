#!/usr/bin/env bash
# Builds the lacc benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sweep64 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout (the Go build cache included), so the checkout is the only
# place the benchmark writes.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
# The go command keeps its cache, module cache and telemetry counters under
# the output directory.
(
	export GOCACHE="$out/go/cache" GOPATH="$out/go/path" XDG_CONFIG_HOME="$out/go/config"
	export GOTOOLCHAIN=local GOWORK=off
	cd "$root/perfbench" && go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" -root "$root" -out "$out" "$@"
