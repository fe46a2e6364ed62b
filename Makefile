GO ?= go
GOFMT ?= gofmt

.PHONY: all build test race race-concurrency vet ci bench bench-refloop fuzz fuzz-stream fuzz-smoke cover alloc-gate serve-smoke stream-smoke bench-smoke

# Coverage ratchet: global statement coverage must not fall below this floor
# (current coverage minus a 1% buffer). Raise it as coverage grows.
COVER_FLOOR ?= 90.7

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l walks the whole tree, bench/ included; any file it prints fails.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy packages (spatial index,
# graph construction, parallel primitives and the streaming ingest
# subsystem), run twice to vary interleavings. The second line exercises the
# serve-side ingest worker, which only appends deltas: concurrent predicts
# against delta-snapshot hot swaps, and concurrent fits of one name against
# its ingest registration.
race-concurrency:
	$(GO) test -race -count=2 ./internal/spatial/... ./internal/graph/... ./internal/parallel/... ./stream/...
	$(GO) test -race -count=2 -run 'TestIngest|TestRegistryRollForward' ./serve/

# Allocation-regression gate: the warm PCG/CG solve path (pooled workspace
# + held destination), the serving predict hot path (the model's batch core
# and the server's uncached predict step: admission, evaluation, cache
# scatter and put), and the streaming warm label-refresh path must stay at
# exactly zero heap allocations per op.
alloc-gate:
	$(GO) test -run 'TestZeroAllocSolve' -v ./internal/sparse/ ./internal/precond/
	$(GO) test -run 'TestZeroAlloc' -v ./internal/core/ ./serve/ ./stream/

# The gate run by CI's test job; the fuzz-smoke and coverage jobs run their
# targets separately.
ci: vet build race alloc-gate

# Full fuzz campaign for the public Fit pipeline (interrupt any time; new
# crashers land in testdata/fuzz/FuzzFit/).
FUZZTIME ?= 5m
fuzz:
	$(GO) test -run xxx -fuzz FuzzFit -fuzztime $(FUZZTIME) .

# Full fuzz campaign for the streaming equivalence contract: random edit
# scripts (insert / delete / relabel / refresh / compact) asserted bitwise
# against a from-scratch fit; crashers land in
# stream/testdata/fuzz/FuzzStreamEquivalence/.
fuzz-stream:
	$(GO) test -run xxx -fuzz FuzzStreamEquivalence -fuzztime $(FUZZTIME) ./stream/

# Short deterministic-budget fuzz pass for CI: replays the checked-in
# corpora (including the pinned streaming crashers) and fuzzes briefly,
# including the sparse assembly (COO → CSR, transpose), the edge-list
# parser, the KD-tree against brute force, the KD-tree k-NN and radius
# graphs against the distance-matrix build (byte for byte) and a complete
# Gaussian graph's matrix storage against its CSR, the coverage decision
# without the graph against the built graph's components, the health
# probe against the dense eigensolver, the request-body decoder against
# encoding/json, the predict, ingest and fit handlers (no 5xx, typed 4xx
# envelopes, one score per point), snapshot deltas (ModelSnapshot.ApplyDelta
# against Model.ApplyDelta and a fresh NewModel) and the panel Cholesky
# against the column loop, bit for bit. Each budgeted pass caps the
# minimization of a new input at 1s, so the budget goes to executions
# rather than to shrinking one interesting input.
fuzz-smoke:
	$(GO) test -run FuzzFit .
	$(GO) test -run xxx -fuzz FuzzFit -fuzztime 15s -fuzzminimizetime 1s .
	$(GO) test -run FuzzStreamEquivalence ./stream/
	$(GO) test -run xxx -fuzz FuzzStreamEquivalence -fuzztime 15s -fuzzminimizetime 1s ./stream/
	$(GO) test -run xxx -fuzz '^FuzzCOOToCSR$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sparse/
	$(GO) test -run xxx -fuzz '^FuzzReadEdgeList$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/graph/
	$(GO) test -run xxx -fuzz '^FuzzKNNGraph$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/graph/
	$(GO) test -run xxx -fuzz '^FuzzCoverage$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/graph/
	$(GO) test -run xxx -fuzz '^FuzzKDTreeKNN$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/spatial/
	$(GO) test -run xxx -fuzz '^FuzzProbeHealth$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run xxx -fuzz '^FuzzDecodeBody$$' -fuzztime 10s -fuzzminimizetime 1s ./serve/
	$(GO) test -run xxx -fuzz '^FuzzServeHandlers$$' -fuzztime 10s -fuzzminimizetime 1s ./serve/
	$(GO) test -run xxx -fuzz '^FuzzApplyDelta$$' -fuzztime 10s -fuzzminimizetime 1s ./serve/
	$(GO) test -run xxx -fuzz '^FuzzCholesky$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/mat/

# Global statement coverage with the ratcheted floor check.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out -coverpkg=./... ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% fell below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

# Worker-parameterized microbenchmarks of the parallel compute layer, the
# KD-tree k-NN build of the bench/ fit workload's points, the radius build
# of the bench/ ingest workload's points, that workload's streaming fit
# snapshotted both ways (Fit then Snapshot, and HardSnapshot, which decides
# coverage without the graph or the solve, also with every 50th point
# labeled so the decision's search runs), one bench/ predict workload
# model's COIL fit snapshotted both ways (Fit then Snapshot with its
# complete graph kept as a matrix and its hard system factored dense, and
# HardSnapshot without that graph),
# an 8-point anchor append onto the ingest workload's served predictor (2k
# and 20k anchors), and the hard solve of the fit workload's problem under
# each CG preconditioner (Jacobi, the default, and IC(0) after RCM).
bench:
	$(GO) test -run xxx -bench '^(BenchmarkPairwiseDist2|BenchmarkBuildKNN|BenchmarkBuildKNNKDTree|BenchmarkBuildRadius|BenchmarkStreamFit|BenchmarkCOILFit|BenchmarkNWAppendAnchors|BenchmarkCGMulVec|BenchmarkHardPrecond)$$' -benchmem .

# Builds the bench/ binary as bench/run.sh does (its -h run only prints the
# usage) and prints the address of main.refLoop, the host-speed reference
# loop, with its offset mod 64. The loop's speed depends on its alignment,
# so a comparison of two builds reports both offsets: with BASE=<rev> it
# also builds <rev> the same way from a git archive copy in a temporary
# directory, prints that offset too and says whether the two match.
bench-refloop:
	@bash bench/run.sh -h >/dev/null 2>&1
	@refloop() { $(GO) tool nm "$$1" | awk '$$3 == "main.refLoop" { print $$1 }'; }; \
	addr=$$(refloop .bench_build/bench); \
	if [ -z "$$addr" ]; then echo "main.refLoop not found in .bench_build/bench"; exit 1; fi; \
	echo "main.refLoop 0x$$addr, offset $$((0x$$addr % 64)) mod 64"; \
	if [ -n "$(BASE)" ]; then \
		tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		git archive "$(BASE)" | tar -x -C "$$tmp" || exit 1; \
		(cd "$$tmp" && bash bench/run.sh -h >/dev/null 2>&1); \
		base=$$(refloop "$$tmp/.bench_build/bench"); \
		if [ -z "$$base" ]; then echo "main.refLoop not found in the $(BASE) build"; exit 1; fi; \
		echo "$(BASE): main.refLoop 0x$$base, offset $$((0x$$base % 64)) mod 64"; \
		if [ $$((0x$$addr % 64)) -eq $$((0x$$base % 64)) ]; then echo "offsets match"; \
		else echo "offsets differ: a normalized comparison of these builds is skewed"; fi; \
	fi

# End-to-end smoke of the serving subsystem: boots sslserve on a free port,
# fits a model over HTTP, runs concurrent multi-point predicts, checks
# /readyz, and drains on the SIGTERM path.
serve-smoke:
	$(GO) test -count=1 -run TestServeSmoke -v ./cmd/sslserve/

# End-to-end smoke of the streaming ingest subsystem: the refresher's
# rungs in internal/core (the in-place labeled-insert rung checked bitwise
# against a rebuild), the incremental equivalence, escalation-ladder and
# in-place-versus-rebuild tests in stream/ (an isolated insert failing the
# refresh without the refit that would fail the same way), the delta
# snapshot roll-forward math, the HTTP /v1/ingest path, which is
# delta-only (fit with "stream": true, labeled ingests appended in arrival
# order as one delta per batch, version bump, cache invalidation,
# backpressure, admission refusing unlabeled and wrong-dimension points,
# the worker's refit and close lifecycle, concurrent fits of one name),
# the solve-free snapshot path of labeled-anchor hard fits against the
# Fit path (TestIngestHardSnapshot*: statuses, Info and predictions bit
# for bit, roll-forward, the all-anchors refusal), and the registry
# hot-swap-under-load test.
stream-smoke:
	$(GO) test -count=1 -run 'TestRefresher' -v ./internal/core/
	$(GO) test -count=1 -run 'TestStream|TestZeroAllocStream' -v ./stream/
	$(GO) test -count=1 -run 'TestIngest|TestModelApplyDelta|TestRegistryRollForward' -v ./serve/

# Smoke of the repository benchmark harness (bench/, its own module): runs
# every workload at tiny size, untraced and traced, and checks each declared
# metric is printed and every sampled answer is correct. Leaves no files.
bench-smoke:
	cd bench && $(GO) test -count=1 ./...
