#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
#
# Everything the go command writes (build cache, temporaries, the binary)
# goes under .bench_build/ at the root, so a run touches nothing outside the
# checkout. Outside a full checkout the build fails and so does this script.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
