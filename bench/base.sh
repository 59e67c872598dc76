#!/usr/bin/env bash
# Benchmarks the gated benchmarks at a base commit and in this working
# tree on this host, alternating the two, so the regression gate
# compares runs made on one machine in the same stretch of time rather
# than a block of base runs against a later block of change runs. From
# the root of a checkout:
#
#   bash bench/base.sh [base-out [current-out]]
#
# The outputs default to bench-base.txt and bench-current.txt;
# `make bench-check` runs the script, locally and in CI, and then
# compares the two files. BENCH_BASE names the base commit (default
# HEAD^, the parent); BENCH_COUNT sets the number of rounds (default
# 5). Each side's gated packages are compiled once into test binaries
# (go test -c). Every round then runs each package's two binaries once
# (-test.count 1), the base first in even rounds and the change first
# in odd ones, so a slow or fast window of the host lands on both
# sides. Each binary runs from its own package directory with go
# test's default 10-minute timeout, as go test would run it. The base
# is exported into a temporary directory with git archive, so the
# working tree is never touched. The benchmark pattern and packages
# come from this checkout's Makefile: a gated benchmark that does not
# exist at the base prints no lines and shows up as NEW in the
# comparison, and a package that does not exist there is skipped.
set -euo pipefail

base_out="${1:-bench-base.txt}"
cur_out="${2:-bench-current.txt}"
ref="${BENCH_BASE:-HEAD^}"
rounds="${BENCH_COUNT:-5}"
go="${GO:-go}"
base="$(git rev-parse --verify --quiet "$ref^{commit}")" || {
	echo "bench/base.sh: base commit $ref not found; fetch it (a shallow clone lacks history) or set BENCH_BASE" >&2
	exit 1
}
gate="$(make -s print-bench-gate)"
read -r -a pkgs <<<"$(make -s print-bench-pkgs)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/bin"
git archive "$base" | tar -x -C "$tmp/base"

# build compiles each gated package under root into
# $tmp/bin/<side>-<index>.test; a package root lacks builds nothing.
build() {
	local side="$1" root="$2" i
	for i in "${!pkgs[@]}"; do
		if [ -d "$root/${pkgs[i]}" ]; then
			(cd "$root" && "$go" test -c -o "$tmp/bin/$side-$i.test" "${pkgs[i]}")
		fi
	done
}

# run benchmarks package i once with one side's binary, from the
# package's directory under root, appending the results to out.
run() {
	local side="$1" i="$2" root="$3" out="$4"
	local bin="$tmp/bin/$side-$i.test"
	if [ -x "$bin" ]; then
		(cd "$root/${pkgs[i]}" && "$bin" -test.run '^$' -test.bench "$gate" -test.count 1 \
			-test.benchtime 0.3s -test.benchmem -test.timeout 10m) | tee -a "$out"
	fi
}

echo "bench/base.sh: building $ref ($base) and the working tree" >&2
build base "$tmp/base"
build current "$PWD"
: >"$base_out"
: >"$cur_out"
for ((r = 0; r < rounds; r++)); do
	echo "bench/base.sh: round $((r + 1)) of $rounds" >&2
	for i in "${!pkgs[@]}"; do
		if ((r % 2 == 0)); then
			run base "$i" "$tmp/base" "$base_out"
			run current "$i" "$PWD" "$cur_out"
		else
			run current "$i" "$PWD" "$cur_out"
			run base "$i" "$tmp/base" "$base_out"
		fi
	done
done
