# Local dev and CI run the same commands: .github/workflows/ci.yml
# invokes these targets.

GO ?= go

# Recipes pipe benchmark output through tee; without pipefail a
# failing `go test` would exit 0 through the pipe and the regression
# gate would compare partial output.
SHELL := /bin/bash -o pipefail

# The benchmarks gating CI regressions (DESIGN.md §4). bench-check
# runs them at a base commit and on the working tree, alternating the
# two on the same host, and fails on >20% median ns/op regression or
# >25% median B/op / allocs/op regression (the gated runs use
# -benchmem so allocation regressions cannot hide behind wall-clock
# noise).
BENCH_GATE = BenchmarkCheckSQLParallel|BenchmarkRuleDispatch|BenchmarkProfileParallel|BenchmarkProfileMemoized|BenchmarkFingerprintMemoized|BenchmarkRegistryReuse|BenchmarkQueryOnlyWorkload|BenchmarkColdParse|BenchmarkBatchCoalesced|BenchmarkDaemonServe|BenchmarkSpillScan|BenchmarkFixtureIngest|BenchmarkCheckpoint
BENCH_COUNT ?= 5

# Packages holding gated benchmarks: the root pipeline benchmarks, the
# daemon's end-to-end serving benchmark and the WAL checkpoint.
BENCH_PKGS = . ./cmd/sqlcheckd ./internal/storage/wal

.PHONY: build test test-full bench bench-check bench-e2e-check bounded-rss print-bench-gate print-bench-pkgs profile-cpu profile-heap docs-check lint loc ci

# The single source of truth for the gated-benchmark pattern:
# bench/base.sh reads it from this Makefile, not the base commit's,
# which may predate newer gate benchmarks.
print-bench-gate:
	@echo '$(BENCH_GATE)'

print-bench-pkgs:
	@echo '$(BENCH_PKGS)'

build:
	$(GO) build ./...

# -short skips the wall-clock-factor experiment tests, which are
# load-sensitive and would flake on shared CI runners; test-full
# includes them for quiet machines.
test:
	$(GO) test -race -short ./...

test-full:
	$(GO) test -race ./...

# Full benchmark suite (regenerates every paper artifact; see
# DESIGN.md §4).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Compare the gated benchmarks of the working tree against BENCH_BASE
# (default: the parent commit): bench/base.sh runs BENCH_COUNT rounds
# on this same host, each running both sides once in alternating
# order, into bench-base.txt and bench-current.txt; fails on >20%
# median regression or a missing gated benchmark. CI's
# bench-regression job sets BENCH_BASE to the pull request's base.
BENCH_BASE ?= HEAD^
# BENCH_JSON names the machine-readable medians artifact benchcmp
# writes alongside the comparison; CI uploads it so perf history diffs
# across PRs without re-parsing bench text. A change that records its
# medians in the repository's performance ledger writes
# BENCH_JSON=bench/BENCH_<n>.json instead.
BENCH_JSON ?= bench-current.json
bench-check:
	BENCH_BASE='$(BENCH_BASE)' BENCH_COUNT='$(BENCH_COUNT)' GO='$(GO)' bash bench/base.sh bench-base.txt bench-current.txt
	$(GO) run ./cmd/benchcmp -baseline bench-base.txt -current bench-current.txt \
		-max-regression 20 -max-mem-regression 25 -json $(BENCH_JSON) \
		-require 'CheckSQLParallel,RuleDispatch,ProfileParallel,ProfileMemoized,FingerprintMemoized/cold,FingerprintMemoized/warm,RegistryReuse,QueryOnlyWorkload,ColdParse,BatchCoalesced/coalesced,BatchCoalesced/uncoalesced,DaemonServe,SpillScan/resident,SpillScan/hot,FixtureIngest,Checkpoint'

# The larger-than-RAM capacity gate (see bounded_rss_test.go): ~128
# MiB of fixture tenants registered durably through a 16 MiB
# page-cache budget and checkpointed, under a GOMEMLIMIT well below
# the fixture total, asserting peak RSS stays bounded and every report
# matches the all-resident baseline.
bounded-rss:
	SQLCHECK_BOUNDED_RSS=1 GOMEMLIMIT=96MiB $(GO) test -run TestBoundedRSSLargerThanRAMRegistry -v .

# CPU profile of the data-analysis phase (the system's hot path):
# runs BenchmarkProfileParallel under -cpuprofile and leaves
# bench/cpu.pprof (plus the test binary pprof needs to symbolize it)
# for `go tool pprof bench/profile-cpu.test bench/cpu.pprof`. CI
# uploads both as an artifact next to the bench comparison.
profile-cpu:
	$(GO) test -bench BenchmarkProfileParallel -benchtime 1s -run '^$$' \
		-cpuprofile bench/cpu.pprof -o bench/profile-cpu.test .

# Heap profile of the cold single-statement path (the allocation
# budget the zero-alloc lexing work defends): runs BenchmarkColdParse
# under -memprofile and leaves bench/heap.pprof for
# `go tool pprof -sample_index=alloc_objects bench/profile-heap.test
# bench/heap.pprof`. CI uploads both as an artifact.
profile-heap:
	$(GO) test -bench BenchmarkColdParse -benchtime 1s -run '^$$' \
		-memprofile bench/heap.pprof -o bench/profile-heap.test .

# Fail if README.md or DESIGN.md reference exported identifiers or
# Prometheus metric names that no longer exist in the source — docs
# examples rot silently otherwise (see cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck README.md DESIGN.md

# The end-to-end benchmark is its own module (bench/e2e/go.mod) that
# imports internal packages, and the root `go build ./...` never
# compiles it: vet and test it here so an internal refactor cannot
# break the benchmark without a check noticing.
bench-e2e-check:
	$(GO) -C bench/e2e vet ./...
	$(GO) -C bench/e2e test -short ./...

# The non-test Go line count the ROADMAP tracks and CHANGES.md records:
# .go files outside bench/ and hidden directories, _test.go excluded.
loc:
	@find . \( -path './.*' -o -path ./bench \) -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

ci: build lint docs-check test bench-e2e-check
