#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload warm-api --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build in
# the checkout: the Go build cache, temporary files, binaries, the
# daemons' data directories and the trace spans. The directory carries
# a .gitignore of its own, so git never lists it.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/bin"
echo '*' > "$work/.gitignore"

export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOMODCACHE="$work/gomodcache"
export XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

go -C "$root/bench/e2e" build -o "$work/bin/e2e" .
exec "$work/bin/e2e" -root "$root" -work "$work" "$@"
