# Build, verify and benchmark targets for the otfair reproduction.
#
# `make verify` is the tier-1 gate (vet + build + full tests).
# `make bench` regenerates the four paper-artefact benchmarks with their
# fixed seeds and writes machine-readable BENCH_$(BENCH_N).json; pass
# BASELINE=BENCH_1.json to annotate each entry with its speedup.

GO      ?= go
BENCH_N ?= 1
# Repeats per benchmark; cmd/benchjson folds them into a median with
# min/max, so every BENCH_*.json entry carries its spread.
BENCH_COUNT ?= 5
# The four paper artefacts (Table I, Figure 3, Figure 4, Table II); each
# uses a fixed experiment seed so runs are comparable across machines.
ARTEFACTS = BenchmarkTable1$$|BenchmarkFigure3$$|BenchmarkFigure4$$|BenchmarkTable2$$
# Serving-layer throughput (records/sec): the alias-table engine
# (parallel and serial), the fairserved HTTP round trip (labelled CSV, and
# blind NDJSON through a calibration), the engine bound to a blind
# (s-unlabelled) calibration, and the batched QDA posterior kernel under
# the blind path.
THROUGHPUT = BenchmarkRepairThroughput|BenchmarkServeRepairHTTP$$|BenchmarkServeRepairHTTPBlindNDJSON$$|BenchmarkBlindRepairThroughput|BenchmarkBlindPosteriorBatch$$
# Joint (multivariate) design and repair at NQ=16, d=2, and the NQ=20,
# d=3 (8 000-state) pair that certifies the scale a dense kernel cannot
# touch. The dense oracle's own bench lives with its tests in
# internal/joint and is not part of the trajectory.
JOINT = BenchmarkJointDesign$$|BenchmarkJointRepair$$|BenchmarkJointDesign3D$$|BenchmarkJointRepair3D$$
BASELINE ?=
BASEFLAG = $(if $(BASELINE),-baseline $(BASELINE),)

.PHONY: build verify verify-ci test vet lint race fuzz soak drift-scenario feed-scenario bench bench-micro bench-check serve-smoke loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# otfairlint: the repo's own analyzer suite (mapiter, nondetsource,
# metriclabel, hookrecv, naninput — see DESIGN.md "Enforced invariants").
# Stdlib-only, builds with the module, exits nonzero on any finding or on
# a malformed //otfair: escape directive. Also fails when gofmt would
# rewrite any tracked .go file (perfbench's .bench_build/ cache excluded).
lint:
	@unformatted=$$(git ls-files '*.go' | grep -v '^\.bench_build/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
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

# Race-certify the whole module: every package's tests under the race
# detector. CI's verify job runs this target, so there is one definition
# of the race run.
race:
	$(GO) test -race ./...

# Fuzz every Fuzz* target in the module for FUZZTIME each (go test runs
# one fuzz target per invocation, so the targets are found by name). Plain
# `go test` already replays each target's seeds under testdata/fuzz/; this
# adds FUZZTIME of new inputs per target and fails on the first finding,
# which go test writes back under testdata/fuzz/ as a new seed.
FUZZTIME ?= 10s
fuzz:
	@set -e; for d in $$(grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for f in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$d/*_test.go | cut -c6-); do \
			echo "fuzz: $$d $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$d; \
		done; \
	done

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
# serving work is tracked by. They run at GOMAXPROCS 1 and 2 (cmd/benchjson
# keys each entry by both), so multicore speedup is a measured pair. Each run lands in its own spool first so a
# failing bench fails the target instead of being swallowed by the pipe;
# benchjson then parses the concatenation.
bench:
	@set -e; A=$$(mktemp); T=$$(mktemp); J=$$(mktemp); trap 'rm -f "$$A" "$$T" "$$J"' EXIT; \
	$(GO) test -run '^$$' -bench '$(ARTEFACTS)' -benchtime 2x -count $(BENCH_COUNT) . > "$$A"; \
	$(GO) test -run '^$$' -bench '$(THROUGHPUT)' -benchtime 20x -count $(BENCH_COUNT) -cpu 1,2 . > "$$T"; \
	$(GO) test -run '^$$' -bench '$(JOINT)' -benchtime 3x -count $(BENCH_COUNT) . > "$$J"; \
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

# Non-test Go lines tracked outside perfbench/: the size number each change
# reports next to its bench deltas (ROADMAP.md). Counts committed or staged
# files only. `make loc BASE=<rev>` prints the count at <rev>, the count at
# HEAD and the delta between them, both read from commits.
BASE ?=
LOC_PATHSPEC = -- '*.go' ':(exclude)perfbench/' ':(exclude)*_test.go'
loc:
ifeq ($(BASE),)
	@git ls-files '*.go' | grep -v '^perfbench/' | grep -v '_test\.go$$' | xargs cat | wc -l
else
	@git rev-parse -q --verify '$(BASE)^{commit}' >/dev/null || { echo "loc: unknown revision $(BASE)" >&2; exit 1; }; \
	count() { git grep -c '' "$$1" $(LOC_PATHSPEC) | awk -F: '{ n += $$NF } END { print n + 0 }'; }; \
	base=$$(count '$(BASE)'); head=$$(count HEAD); \
	printf '%s: %d\nHEAD: %d\ndelta: %+d\n' '$(BASE)' "$$base" "$$head" "$$((head - base))"
endif

# Stage-level micro-benchmarks (design, repair, solvers, metric, the
# canonical plan encoder and the alias-slot sampler build on perfbench's
# two plan shapes, kernels, and the decimal parser under both /v1/repair
# decoders against strconv), the repeated-design layer: POST /v1/plans
# through the handler over four cached research sets, with allocations,
# the CSV decode layer alone: a 10 000-record /v1/repair body through
# CSVStream and a 2 000-record research set through ReadResearchColumns,
# the serial (workers=1) HTTP round trip, and the drift monitor's
# per-record tap.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkDesign$$|BenchmarkRepairTable$$|BenchmarkSolvers|BenchmarkEMetric$$|BenchmarkPlanSerialization|BenchmarkPlanSamplerBuild' -benchtime 10x .
	$(GO) test -run '^$$' -bench 'BenchmarkPlansPostRepeat$$' -benchtime 1000x .
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/vec/
	$(GO) test -run '^$$' -bench 'BenchmarkParse$$' -benchtime 1000000x ./internal/atof/
	$(GO) test -run '^$$' -bench 'BenchmarkCSVStream$$|BenchmarkReadResearchColumns$$' -benchtime 200x ./internal/dataset/
	$(GO) test -run '^$$' -bench 'BenchmarkServeRepairHTTPSerial$$' -benchtime 50x .
	$(GO) test -run '^$$' -bench 'BenchmarkMonitorObserve$$' -benchtime 1000000x ./internal/monitor/
