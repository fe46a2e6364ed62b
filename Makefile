GO ?= go

.PHONY: all build test race race-concurrency vet ci bench perfbench serve-bench cluster-bench largen-bench stream-bench fuzz fuzz-stream fuzz-smoke cover alloc-gate serve-smoke cluster-smoke distributed-smoke largen-smoke stream-smoke bench-smoke

# Coverage ratchet: global statement coverage must not fall below this floor
# (current coverage minus a 1% buffer). Raise it as coverage grows.
COVER_FLOOR ?= 83.5

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
# corpora (including the pinned streaming crashers) and fuzzes briefly.
fuzz-smoke:
	$(GO) test -run FuzzFit .
	$(GO) test -run xxx -fuzz FuzzFit -fuzztime 15s .
	$(GO) test -run FuzzStreamEquivalence ./stream/
	$(GO) test -run xxx -fuzz FuzzStreamEquivalence -fuzztime 15s ./stream/

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

# Times the parallel layer against the pre-parallel serial baselines and
# records the comparison under results/.
perfbench:
	$(GO) run ./cmd/perfbench -out results/BENCH_parallel.json
	$(GO) run ./cmd/perfbench -suite spatial -out results/BENCH_spatial.json
	$(GO) run ./cmd/perfbench -suite robust -out results/BENCH_robust.json
	$(GO) run ./cmd/perfbench -suite serve -out results/BENCH_serve.json
	$(GO) run ./cmd/perfbench -suite cluster -repeats 1 -out results/BENCH_cluster.json

# Refreshes just the serving-path load test (cache off and on over
# 1/4/16/64 clients) after hot-path changes.
serve-bench:
	$(GO) run ./cmd/perfbench -suite serve -out results/BENCH_serve.json

# Refreshes just the distributed suite: the n=1M sharded fit over 4 local
# TCP workers (bitwise-asserted across shard counts 1/2/4/8) plus predict
# load through the 3-replica consistent-hash router.
cluster-bench:
	$(GO) run ./cmd/perfbench -suite cluster -repeats 1 -out results/BENCH_cluster.json

# Refreshes the approximate large-n suite: bound-vs-actual at exact-comparable
# sizes (the suite aborts if the certified bound ever falls below the measured
# error) plus the headline n=5M single-machine fit+serve.
largen-bench:
	$(GO) run ./cmd/perfbench -suite largen -repeats 1 -out results/BENCH_largen.json

# Refreshes the streaming suite: the real-time 1k points/sec trickle with
# p50/p99 label-to-servable staleness, plus the incremental-refresh vs
# full-refit comparison (bitwise-asserted on every scenario).
stream-bench:
	$(GO) run ./cmd/perfbench -suite stream -stsecs 5 -out results/BENCH_stream.json

# CI-sized largen run: same pipeline and bound assertion, small enough for a
# shared runner (no 5M headline case; lcmp ladder only).
largen-smoke:
	$(GO) run ./cmd/perfbench -suite largen -ln 0 -lcmp 40000 -llab 200 -lknn 8 -repeats 1 -out /tmp/BENCH_largen_smoke.json

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
