GO ?= go

.PHONY: all build test race race-concurrency vet ci bench fuzz fuzz-stream fuzz-smoke cover alloc-gate serve-smoke cluster-smoke distributed-smoke largen-smoke stream-smoke bench-smoke

# Coverage ratchet: global statement coverage must not fall below this floor
# (current coverage minus a 1% buffer). Raise it as coverage grows.
COVER_FLOOR ?= 88.7

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy packages (spatial indexes,
# graph construction, parallel primitives, the distributed cluster layer
# with its fault-injection harness, the approximate engine's worker paths,
# and the streaming ingest subsystem), run twice to vary interleavings.
# The second line exercises the serve-side ingest worker: concurrent
# predicts against delta-snapshot hot swaps.
race-concurrency:
	$(GO) test -race -count=2 ./internal/spatial/... ./internal/graph/... ./internal/parallel/... ./internal/cluster/... ./internal/approx/... ./stream/...
	$(GO) test -race -count=2 -run 'TestIngest|TestRegistryRollForward' ./serve/

# Allocation-regression gate: the warm PCG/CG solve path (pooled workspace
# + held destination), the serving predict hot path (the model's batch core
# and the server's uncached predict step: admission, evaluation, cache
# scatter and put), the steady-state distributed PCG iteration (pooled
# message and vector buffers), the approximate engine's warm certificate
# evaluation, and the streaming warm label-refresh path must stay at
# exactly zero heap allocations per op.
alloc-gate:
	$(GO) test -run 'TestZeroAllocSolve' -v ./internal/sparse/ ./internal/precond/
	$(GO) test -run 'TestZeroAlloc' -v ./internal/core/ ./serve/ ./internal/cluster/ ./internal/approx/ ./stream/

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
# parser, the KD-tree against brute force and the health probe against the
# dense eigensolver.
fuzz-smoke:
	$(GO) test -run FuzzFit .
	$(GO) test -run xxx -fuzz FuzzFit -fuzztime 15s .
	$(GO) test -run FuzzStreamEquivalence ./stream/
	$(GO) test -run xxx -fuzz FuzzStreamEquivalence -fuzztime 15s ./stream/
	$(GO) test -run xxx -fuzz '^FuzzCOOToCSR$$' -fuzztime 10s ./internal/sparse/
	$(GO) test -run xxx -fuzz '^FuzzReadEdgeList$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run xxx -fuzz '^FuzzKDTreeKNN$$' -fuzztime 10s ./internal/spatial/
	$(GO) test -run xxx -fuzz '^FuzzProbeHealth$$' -fuzztime 10s ./internal/core/

# Global statement coverage with the ratcheted floor check.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out -coverpkg=./... ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% fell below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

# Worker-parameterized microbenchmarks of the parallel compute layer.
bench:
	$(GO) test -run xxx -bench 'BenchmarkPairwiseDist2|BenchmarkBuildKNN|BenchmarkCGMulVec' -benchmem .

# End-to-end check that the approximate large-n engine's certificate is
# sound: fits n = 10k and 40k planar points both exactly and with
# WithApprox, and fails if the certified sup-norm bound ever falls below the
# measured error against the exact fit.
largen-smoke:
	$(GO) test -count=1 -run TestApproxCertificateDominatesLargeN -v .

# End-to-end smoke of the serving subsystem: boots sslserve on a free port,
# fits a model over HTTP, runs concurrent multi-point predicts, checks
# /readyz, and drains on the SIGTERM path.
serve-smoke:
	$(GO) test -count=1 -run TestServeSmoke -v ./cmd/sslserve/

# End-to-end smoke of the distributed subsystem: the determinism and
# fault-injection harnesses plus the replicated-fleet boot path (sslserve
# -replicas 3 over HTTP) and the public cluster API surface.
cluster-smoke:
	$(GO) test -count=1 -run 'TestSolvePCG|TestCrash|TestSlow|TestDropped|TestDuplicate|TestAllWorkersCrash' -v ./internal/cluster/...
	$(GO) test -count=1 -run TestFleetSmoke -v ./cmd/sslserve/
	$(GO) test -count=1 -run 'TestFitWithClusterShards|TestFitDistributedTCPFleet|TestClusterRecovery|TestClusterFailureTyped' -v .

# End-to-end smoke of the streaming ingest subsystem: the incremental
# equivalence and escalation-ladder tests in stream/, the delta snapshot
# roll-forward math, the HTTP /v1/ingest path (fit with "stream": true,
# ingest, version bump, cache invalidation, backpressure), and the
# registry hot-swap-under-load test.
stream-smoke:
	$(GO) test -count=1 -run 'TestStream|TestZeroAllocStream' -v ./stream/
	$(GO) test -count=1 -run 'TestIngest|TestModelApplyDelta|TestRegistryRollForward' -v ./serve/

# Runs the distributed example end to end: in-process and TCP fleets solving
# the same problem, bitwise-identical across shard counts and transports.
distributed-smoke:
	$(GO) run ./examples/distributed

# Smoke of the repository benchmark harness (bench/, its own module): runs
# every workload at tiny size, untraced and traced, and checks each declared
# metric is printed and every sampled answer is correct. Leaves no files.
bench-smoke:
	cd bench && $(GO) test -count=1 ./...
