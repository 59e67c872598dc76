#!/usr/bin/env bash
# Benchmarks the gated benchmarks at a base commit on this host, so the
# regression gate compares two runs on one machine rather than a run
# against numbers recorded elsewhere. From the root of a checkout:
#
#   bash bench/base.sh [out]        # out defaults to bench-base.txt
#
# `make bench-check` runs it first, locally and in CI. BENCH_BASE names
# the base commit (default HEAD^, the parent); BENCH_COUNT sets -count
# (default 5). The base is checked out into a temporary git worktree,
# so the working tree is never touched. The benchmark pattern and
# packages come from this checkout's Makefile: a gated benchmark that
# does not exist at the base prints no lines and shows up as NEW in the
# comparison, and a package that does not exist there is skipped.
set -euo pipefail

out="${1:-bench-base.txt}"
ref="${BENCH_BASE:-HEAD^}"
base="$(git rev-parse --verify --quiet "$ref^{commit}")" || {
	echo "bench/base.sh: base commit $ref not found; fetch it (a shallow clone lacks history) or set BENCH_BASE" >&2
	exit 1
}
gate="$(make -s print-bench-gate)"
tree="$(mktemp -d)"
trap 'git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"' EXIT
git worktree add --quiet --detach "$tree" "$base"
pkgs=()
for p in $(make -s print-bench-pkgs); do
	if [ -d "$tree/$p" ]; then
		pkgs+=("$p")
	fi
done
echo "bench/base.sh: benchmarking $ref ($base)" >&2
(cd "$tree" && "${GO:-go}" test -bench "$gate" -count "${BENCH_COUNT:-5}" -benchtime 0.3s \
	-benchmem -run '^$' "${pkgs[@]}") | tee "$out"
