#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Every flag is passed through to the benchmark binary (see
# bench/README.md). Go's build cache, temporary files and the built
# binaries stay under .bench_build/ in the repository, so a run reads and
# writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C bench -o "$out/sabrebench" .
exec "$out/sabrebench" -root "$root" "$@"
