# Build, verify and benchmark targets for the otfair reproduction.
#
# `make verify` is the tier-1 gate (vet + build + full tests).
# `make bench` regenerates the four paper-artefact benchmarks with their
# fixed seeds and writes machine-readable BENCH_$(BENCH_N).json; pass
# BASELINE=BENCH_1.json to annotate each entry with its speedup.

GO      ?= go
BENCH_N ?= 1
# The four paper artefacts (Table I, Figure 3, Figure 4, Table II); each
# uses a fixed experiment seed so runs are comparable across machines.
ARTEFACTS = BenchmarkTable1$$|BenchmarkFigure3$$|BenchmarkFigure4$$|BenchmarkTable2$$
# Serving-layer throughput (records/sec): the alias-table engine
# (parallel and serial), the fairserved HTTP round trip, the engine bound
# to a blind (s-unlabelled) calibration, and the batched QDA posterior
# kernel under the blind path.
THROUGHPUT = BenchmarkRepairThroughput|BenchmarkServeRepairHTTP$$|BenchmarkBlindRepairThroughput|BenchmarkBlindPosteriorBatch$$
# Joint (multivariate) design and repair: the separable-vs-dense pair at
# NQ=16, d=2 reads as the Kronecker-factorization speedup, and the NQ=20,
# d=3 (8 000-state) pair certifies the scale the dense path cannot touch.
JOINT = BenchmarkJointDesign$$|BenchmarkJointDesignDense$$|BenchmarkJointRepair$$|BenchmarkJointDesign3D$$|BenchmarkJointRepair3D$$
BASELINE ?=
BASEFLAG = $(if $(BASELINE),-baseline $(BASELINE),)

.PHONY: build verify verify-ci test vet lint race soak drift-scenario feed-scenario bench bench-micro bench-check serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# otfairlint: the repo's own analyzer suite (mapiter, nondetsource,
# metriclabel, hookrecv, naninput — see DESIGN.md "Enforced invariants").
# Stdlib-only, builds with the module, exits nonzero on any finding or on
# a malformed //otfair: escape directive.
lint:
	$(GO) run ./cmd/otfairlint ./...

# Tier-1 verify line (see ROADMAP.md).
verify: vet build test

# CI verify: the tier-1 gate plus the invariant lint suite, plus a
# known-vulnerability scan when govulncheck is available (never a hard
# dependency — offline and minimal toolchains still get the full tier-1
# result).
verify-ci: verify lint
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

# Race-certify the concurrent paths (parallel Sinkhorn sweeps, design cache,
# parallel repair, metric fan-out, plan store, serving layer, and the shared
# chunked-shard runner with its slow adversarial sink).
race:
	$(GO) test -race ./internal/ot/ ./internal/core/ ./internal/vec/ \
		./internal/fairmetrics/ ./internal/planstore/ ./internal/repairsvc/ \
		./internal/shardrun/ ./internal/joint/

# Boot fairserved against synthetic data, repair through the full HTTP
# round trip, and check byte-equivalence with the library path plus the E
# metric improvement.
serve-smoke:
	$(GO) run ./cmd/fairserved -smoke

# Deterministic fault-injection soak, under the race detector: a seeded
# injector schedules shard panics, shard delays and store read faults
# while a concurrent client mix (both engines, both wire formats, tiny
# deadlines, mid-stream hangups) drives one gated server. Every 2xx must
# be byte-identical to an unfaulted serve; every failure must carry a
# typed status; no goroutine or spool file may survive. Scale the load
# with SOAK_REQUESTS (default 64).
SOAK_REQUESTS ?= 64
soak:
	OTFAIR_SOAK_REQUESTS=$(SOAK_REQUESTS) $(GO) test -race -count=1 \
		-run 'TestSoak$$|TestMidStreamDisconnect$$' -v ./internal/repairsvc/

# The long-horizon drift-loop scenario, under the race detector: seeded
# drift injected into served traffic must drive alarm → auto-refit →
# canary → atomic ref swap → drift-score recovery, with every transition
# visible in /metrics and every 2xx byte-identical to a loop-disabled
# server answering the same requests.
drift-scenario:
	$(GO) test -race -count=1 -run 'TestDrift' -v ./internal/repairsvc/
	$(GO) test -race -count=1 -v ./internal/driftwatch/

# The research-feed outage scenario, under the race detector: an upstream
# that 500s must degrade every refit to refit_failed and open the breaker
# on its deterministic seeded backoff; on recovery the single half-open
# probe closes it and the queued swap lands; an unchanged set (ETag 304 /
# matching fingerprint) then skips as refit_skipped_stale — with every
# 2xx byte-identical to a loop-disabled server and zero goroutine growth.
# Also runs the staging-endpoint auth matrix, the CAS-retry race test and
# the researchfeed unit suite (retry schedule, breaker lifecycle, sources,
# fault points, validation).
feed-scenario:
	$(GO) test -race -count=1 -run 'TestFeed|TestDriftRefitFromStagedSource|TestResearchStaging|TestCASRefRetry' -v ./internal/repairsvc/
	$(GO) test -race -count=1 -v ./internal/researchfeed/

# The artefact benches run whole-experiment iterations (~0.5 s/op), so two
# are enough; the throughput benches are ~10 ms/op and need more iterations
# for stable records/sec — especially the blind/labelled ratio the blind
# serving work is tracked by. Each run lands in its own spool first so a
# failing bench fails the target instead of being swallowed by the pipe;
# benchjson then parses the concatenation.
bench:
	@set -e; A=$$(mktemp); T=$$(mktemp); J=$$(mktemp); trap 'rm -f "$$A" "$$T" "$$J"' EXIT; \
	$(GO) test -run '^$$' -bench '$(ARTEFACTS)' -benchtime 2x -count 1 . > "$$A"; \
	$(GO) test -run '^$$' -bench '$(THROUGHPUT)' -benchtime 20x -count 1 . > "$$T"; \
	$(GO) test -run '^$$' -bench '$(JOINT)' -benchtime 3x -count 1 . > "$$J"; \
	cat "$$A" "$$T" "$$J" | $(GO) run ./cmd/benchjson $(BASEFLAG) > BENCH_$(BENCH_N).json
	@cat BENCH_$(BENCH_N).json

# Compile and briefly run the repository benchmark (perfbench/, declared
# by BENCHMARK.json) on each of its four workloads. perfbench is a nested
# module built against this one through a replace directive, so
# `go build ./...` never compiles it and an engine API change could break
# it unnoticed. Fails when perfbench exits non-zero — e.g. on a result
# that reports "correct": false. About 50 s including the build.
BENCH_WORKLOADS = repair_csv repair_blind_ndjson design_fresh design_repeat
bench-check:
	@set -e; for w in $(BENCH_WORKLOADS); do \
		echo "bench-check: $$w"; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2; \
	done

# Stage-level micro-benchmarks (design, repair, solvers, metric, kernels).
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkDesign$$|BenchmarkRepairTable$$|BenchmarkSolvers|BenchmarkEMetric$$' -benchtime 10x .
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/vec/
