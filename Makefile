# Development targets; CI runs the same commands (.github/workflows/ci.yml).

# bash + pipefail: the bench targets pipe `go test` through tee, and a
# failing benchmark run must fail the target instead of archiving a
# truncated BENCH_<sha>.json as if it succeeded.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
BENCH_SHA ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

# Packages that define benchmarks, derived from the sources so a new
# benchmark file lands in the series by existing: hardcoding the list
# here once silently dropped whole packages from BENCH_<sha>.json.
BENCH_PKGS = $(shell grep -rl --include='*_test.go' 'func Benchmark' . | xargs -n1 dirname | sort -u)

# The hot-path series tracked across PRs (bench-hotpath, bench-json,
# and the committed BENCH_baseline.json regression gate).
BENCH_HOTPATH_RE = BenchmarkSamplingEstimatePlan|BenchmarkHashJoinKeys|BenchmarkSamplingValidation|BenchmarkReoptimizeOTT|BenchmarkReoptimizeMultiSeed|BenchmarkWorkloadCache|BenchmarkSessionWorkloadParallel|BenchmarkWorkloadScheduler|BenchmarkExecutorJoinRows|BenchmarkReoptdHTTP|BenchmarkTemplateWorkload|BenchmarkValidationLargeSample|BenchmarkVecKernels|BenchmarkJoinTable|BenchmarkIndexedRangeScan|BenchmarkOptimizeRounds|BenchmarkValidateRounds|BenchmarkCompact|BenchmarkWeightedChainJoin|BenchmarkCatalogBuild|BenchmarkExplain|BenchmarkPrepareQuery

.PHONY: all vet build test race loc check lint chaos fuzz-smoke examples serve-smoke bench bench-smoke bench-hotpath bench-json bench-compare bench-baseline

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector — the gate for what
# concurrent requests share: the validation caches, the admission gate
# and the columns' lazily built sorted permutations, which a secondary
# index, ANALYZE and range lookups read, and a full-ratio sample reads
# off its table. (A validation itself runs on its caller's goroutine and
# shares nothing else while it runs.)
race:
	$(GO) test -race ./...

# loc prints the non-test Go lines outside bench/ and outside testdata/
# (the analyzers' fixtures are test inputs), the line count each change's
# notes quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l

# examples builds the example programs and the cmds as an explicit,
# separately reported CI step: `go build ./...` in `check` covers them
# too, but a dedicated step makes example drift against the public API
# fail visibly under its own name instead of inside the module build.
examples:
	$(GO) build ./examples/... ./cmd/...

# check is the tier-1 gate: vet, build, full test suite.
check: vet build test

# lint is the contract gate: gofmt, go vet and the repo's own analyzer
# suite (cmd/reoptvet; DESIGN.md §8). It fails on any file gofmt would
# rewrite. reoptvet enforces the written contracts — deterministic map
# iteration, goroutine panic containment, cache hygiene on error paths,
# budget-vs-ctx discipline, and the sentinel error taxonomy — and fails
# on any finding or bare //reoptvet:ignore.
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/reoptvet ./...

# chaos runs the failure-isolation suite under the race detector at
# constrained parallelism (the CI shape): the fault-injection harness,
# the executor/sampling/core budget-and-panic tests (sampling's check
# that a failing plan leaves its neighbours in one validation call as
# they are alone), the Session chaos tests
# — injected panics, starvation memory budgets, admission shedding and
# close-under-load against one shared Session — and the reoptd daemon
# chaos tests (cross-tenant fault isolation, handler-boundary panics,
# kill-and-restart recovery), all with in-test goroutine-leak
# assertions.
chaos: vet
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/faultinject
	GOMAXPROCS=2 $(GO) test -race -count=1 \
		-run 'TestChaos|TestPanic|TestMemoryBudget|TestMemBudget' \
		. ./internal/executor ./internal/sampling ./internal/core ./internal/server

# fuzz-smoke fuzzes, beyond the seed corpora plain `go test` already
# runs, the sub-result compaction (FuzzCompact: compacted counts and
# weights against the uncompressed rows), the sorted sample index
# (FuzzIndexedSelection: IndexRows against the scan kernel, and a point
# range against the secondary index's Lookup), the
# secondary index (FuzzIndexLookup: Lookup and NumDistinct against a
# directory filed row by row, across kinds and appends), the SQL
# parser (FuzzParse: no panic, query xor error, String round trip) and
# the reoptd request decoders (FuzzRequestBodies: no 500 or panic, every
# error a structured body of a known kind, every answer within seconds)
# and re-costing (FuzzRecostMatchesPlanner: Recost reproduces the
# planner's estimates node by node under random Δ merges), and the
# numeric order (FuzzNumericOrder: Compare antisymmetric and transitive,
# Equal, Compare == 0 and Key agreeing, over ints, floats, strings and
# NULL), 10 seconds each — about 95 seconds for the target, builds
# included.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCompact$$' -fuzztime 10s ./internal/executor
	$(GO) test -run '^$$' -fuzz '^FuzzIndexedSelection$$' -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzIndexLookup$$' -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz '^FuzzRequestBodies$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzRecostMatchesPlanner$$' -fuzztime 10s ./internal/optimizer
	$(GO) test -run '^$$' -fuzz '^FuzzNumericOrder$$' -fuzztime 10s ./internal/rel

# serve-smoke builds cmd/reoptd and drives a real daemon process across
# its lifecycle: readiness, one reoptimize, an over-quota burst that
# must shed at least one 429 with a Retry-After hint, then SIGTERM and
# a clean (exit 0) drain within the grace period.
serve-smoke:
	mkdir -p bin
	$(GO) build -o bin/reoptd ./cmd/reoptd
	$(GO) run ./cmd/servesmoke -bin bin/reoptd

# bench-smoke runs every benchmark for a single iteration — a cheap
# compile-and-execute pass that CI uses to keep the harness green.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x $(BENCH_PKGS)

# bench-hotpath measures the re-optimization hot path with allocation
# counts (the series tracked across PRs), over the same derived package
# list as bench-json so no series benchmark can silently drop out.
bench-hotpath:
	$(GO) test -run xxx -bench '$(BENCH_HOTPATH_RE)' -benchtime 2s -benchmem $(BENCH_PKGS)

# bench runs everything and archives the numbers as machine-readable
# JSON (ns/op, B/op, allocs/op per benchmark) named after the commit,
# so the perf trajectory is diffable across PRs.
bench:
	$(GO) test -run xxx -bench . -benchmem ./... | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -sha $(BENCH_SHA) -out BENCH_$(BENCH_SHA).json

# bench-json is the CI variant: the hot-path series only (fast enough
# for every push), over the derived benchmark packages, archived as
# BENCH_<sha>.json and uploaded as a workflow artifact. 2s benchtime:
# the regression gate compares these numbers against the committed
# baseline, and 1s runs carry too much scheduler/turbo noise.
bench-json:
	$(GO) test -run xxx -bench '$(BENCH_HOTPATH_RE)' -benchtime 2s -benchmem $(BENCH_PKGS) | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -sha $(BENCH_SHA) -out BENCH_$(BENCH_SHA).json

# bench-compare regenerates the hot-path series and fails on a >25%
# ns/op regression against the committed baseline (or on a benchmark
# silently dropping out of the series). CI runs it with GOMAXPROCS>=2;
# the verdict lines land in BENCH_compare.txt for the artifact upload.
bench-compare: bench-json
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -against BENCH_$(BENCH_SHA).json -max-regress 25 | tee BENCH_compare.txt

# bench-baseline refreshes the committed baseline from a fresh run.
# Regenerate (on the CI runner class, GOMAXPROCS>=2) whenever the
# series changes shape or the runner hardware shifts, and commit the
# result.
bench-baseline: bench-json
	cp BENCH_$(BENCH_SHA).json BENCH_baseline.json
	@echo "bench-baseline: wrote BENCH_baseline.json — commit it"
