GO ?= go
GOFMT ?= gofmt

# check is the tier-1 gate: everything builds (cmd/ included), vets
# clean, every Go file is gofmt-clean, and the full test suite passes
# under the race detector. That suite includes the sortsynthd service
# tests, the refutation rule (no-program only from a proof: the proved
# optima, each in-repo one re-proved, or a certifying search), the
# pinned cache-key hashes, and the objective properties: the
# fastest pick never model-costs more than the shortest pick, objectives
# mint distinct cache keys, and pre-v3 kernel stores are rejected with a
# "re-bake" message. On top of it: the cross-backend conformance
# harness reports zero divergences, the baked-universe gate proves a
# miniature bake identical to live synthesis, its refutations below
# proved optima, and serveable with zero searches, every fuzz target
# survives a short -race fuzzing budget, the generated sorting library
# passes its generate → vet → build →
# differential gate, the enum and sortgen rows of the committed
# BENCH_*.json files are re-measured without -race as throughput
# regression gates, and the cross-architecture gate vets and tests the
# packing, table, cache, sortgen, universe, backend and root packages under GOARCH=386
# (including the pinned mini-bake content ID and the service's pinned
# cache keys).
.PHONY: check
check: build vet fmt-check race conformance bake-check cross-arch fuzz-smoke sortgen-check bench-compare sortgen-compare

# cross-arch is the same-answer-on-every-host gate: vet the whole tree
# and run the short tests of the packages whose results depend on word
# size (packing, hashing, distance tables, cache keys, HybridSort, the
# baked universe) under GOARCH=386, at GOMAXPROCS 1 and 2. 386's 32-bit
# int exercises the size assumptions, TestBakeMiniContentID checks that
# the mini bake hashes to the same content ID as on amd64,
# TestCacheKeyGolden that the keys sortsynthd builds hash as on amd64,
# the backend tests that slack budgets answer the known optimum, and the
# root package's tests that the public API answers the registry's enum
# kernel byte for byte.
# An x86-64 Linux kernel runs 386 binaries natively.
.PHONY: cross-arch
cross-arch:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test -short -count=1 -cpu 1,2 ./internal/state ./internal/tables ./internal/kcache ./internal/sortgen ./internal/universe ./internal/backend .
	GOARCH=386 $(GO) test -short -count=1 -cpu 1,2 -run '^TestCacheKeyGolden$$' ./internal/service

# conformance runs the differential + metamorphic harness: 200 random
# specs (n ≤ 3) judged across all registered backends against enum
# ground truth, plus the metamorphic invariants. Deterministic in -seed;
# exits nonzero on any divergence and writes results/conformance.txt.
.PHONY: conformance
conformance:
	$(GO) run ./cmd/experiments -table=conformance

# bake-check is the precomputed-universe gate: bake a miniature universe
# (enum, n=2..3, budgets L*±2, dupsafe variants), verify every record's
# checksum, byte-compare every baked record against a fresh live
# synthesis, fail on any negative record at or above its set's proved
# optimum (or for a set with none), judge the store with the
# conformance harness against independent ground truth, and serve a
# baked spec from a mounted sortsynthd with zero searches started.
# Exits nonzero on any divergence; writes results/bakecheck.txt.
.PHONY: bake-check
bake-check:
	$(GO) run ./cmd/experiments -table=bakecheck

# Native Go fuzz targets with committed seed corpora under testdata/.
# fuzz-smoke gives each target FUZZTIME (default 30s) under -race; the
# full fuzz target raises that to 5m per target.
FUZZTIME ?= 30s

.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -race -run='^$$' -fuzz='^FuzzParseProgram$$' -fuzztime=$(FUZZTIME) ./internal/isa
	$(GO) test -race -run='^$$' -fuzz='^FuzzCanonicalize$$' -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -race -run='^$$' -fuzz='^FuzzHashKey$$' -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -race -run='^$$' -fuzz='^FuzzApplyDistVsStep$$' -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -race -run='^$$' -fuzz='^FuzzPairBound$$' -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -race -run='^$$' -fuzz='^FuzzErasedBound$$' -fuzztime=$(FUZZTIME) ./internal/state
	$(GO) test -race -run='^$$' -fuzz='^FuzzFlatTable$$' -fuzztime=$(FUZZTIME) ./internal/enum
	$(GO) test -race -run='^$$' -fuzz='^FuzzVerifySorts$$' -fuzztime=$(FUZZTIME) ./internal/verify
	$(GO) test -race -run='^$$' -fuzz='^FuzzSortgenVsSlicesSort$$' -fuzztime=$(FUZZTIME) ./internal/sortgen
	$(GO) test -race -run='^$$' -fuzz='^FuzzThroughput$$' -fuzztime=$(FUZZTIME) ./internal/uarch

# sortgen-check is the generated-library gate: emit sorters for
# n = 6, 13, 32 into a throwaway module, go vet + go build them, run the
# compiled differential harness against slices.Sort over five input
# distributions, check that the committed zleaves.go matches a fresh
# `genkernels -leaves`, and re-run the in-process plan differential and
# every hybrid test (differential, directed pattern, exhaustive small-n,
# 0-1 leaf certification).
.PHONY: sortgen-check
sortgen-check:
	$(GO) test -count=1 -run '^TestEmittedModule$$|^TestPlanDifferential$$|^TestLeavesSourceMatchesZleaves$$|^TestHybrid' ./internal/sortgen

.PHONY: fuzz
fuzz: FUZZTIME = 5m
fuzz: fuzz-smoke

.PHONY: build
build:
	$(GO) build ./...

# vet also vets perfbench: it is its own module, so the root ./... never
# compiles it, and an API change it imports would otherwise surface only
# when the benchmark runs.
.PHONY: vet
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

# fmt-check fails if any Go file outside the benchmark's build directory
# is not gofmt-clean. Generated files are included: cmd/genkernels
# gofmts what it writes.
.PHONY: fmt-check
fmt-check:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# bench runs the kernel microbenchmarks plus the synthesis-throughput
# benchmark (n=3 and n=4, best configuration), which writes
# backend-labelled measurements to BENCH_enum.json at the repository root, and the
# shortest-vs-fastest objective latency rows, which land in the same
# file (each table preserves the other's half on rewrite).
.PHONY: bench
bench: bench-kernels bench-enum bench-objective

.PHONY: bench-objective
bench-objective:
	$(GO) run ./cmd/experiments -table=objective

.PHONY: bench-kernels
bench-kernels:
	$(GO) test -bench=. -benchtime=100ms -run=^$$ .

.PHONY: bench-enum
bench-enum:
	$(GO) run ./cmd/experiments -table=enumbench

# bench-compare re-runs the enum measurements of the committed
# BENCH_enum.json (same best-of-N as the baseline, no race detector)
# and fails if any row's wall clock regressed by more than 20%.
# Regenerate the baseline with `make bench-enum` when a slowdown is
# intentional.
.PHONY: bench-compare
bench-compare:
	$(GO) run ./cmd/experiments -table=benchcompare

# bench-sortgen benchmarks the generated sorting library (hybrid and
# composed fixed-n sorters) against slices.Sort / sort.Slice / sort.Ints
# over five distributions and writes BENCH_sortgen.json; it fails unless
# the hybrid beats slices.Sort on 500k random ints.
.PHONY: bench-sortgen
bench-sortgen:
	$(GO) run ./cmd/experiments -table=sortgen

# sortgen-compare re-measures the sortgen rows of the committed
# BENCH_sortgen.json and fails on a >35% wall-clock regression (whole-
# list sorts are noisier than search wall times) or if the hybrid stops
# beating slices.Sort at 500k random. Regenerate the baseline with
# `make bench-sortgen` when a slowdown is intentional.
.PHONY: sortgen-compare
sortgen-compare:
	$(GO) run ./cmd/experiments -table=sortgencompare
