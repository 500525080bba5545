#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload mesh-loaded --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write goes under .bench_build/ in that root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
