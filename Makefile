# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-diff bench-progress bench-scale figures figures-paper chaos fuzz fuzz-smoke snapshot-diff observe-diff service-soak vet fmt clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The full suite under the race detector (what CI runs).
race:
	$(GO) test -race ./...

cover:
	$(GO) test -short -cover ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Packages whose benchmarks form the regression-gated tier. Concatenated
# multi-package transcripts parse fine (benchjson tracks pkg: headers).
BENCH_PKGS = ./internal/telemetry/ ./internal/scenario/ ./internal/radio/

# Capture a machine-readable benchmark baseline (telemetry on/off pair and
# the radio-medium microbenchmarks included) for before/after comparisons.
# The scale tier's 2000-node lazy-decay point rides along so the baseline
# records its events/run — cheap under elision, and it arms the bench-diff
# event gate for that tier.
bench-json:
	( $(GO) test -bench=. -benchmem $(BENCH_PKGS) && \
	  DFTMSN_SCALE_BENCH=1 $(GO) test -bench='BenchmarkRunLarge2000Idle$$' \
			-benchmem -benchtime=3x ./internal/scenario/ ) \
		| $(GO) run ./cmd/benchjson > BENCH_baseline.json

# Diff the same tier against a base revision run on this host (median ns/op,
# base and head alternating; see cmd/benchjson/pair.sh) and against the committed
# baseline (allocs/op, B/op, events/run); exits nonzero on a >25% ns/op,
# allocs/op or B/op regression, or a >10% events/run growth. BENCH_BASE
# overrides the base revision, BENCH_ROUNDS the number of pairs.
BENCH_BASE ?=
bench-diff:
	GO=$(GO) BENCH_PKGS="$(BENCH_PKGS)" bash cmd/benchjson/pair.sh $(BENCH_BASE)

# The observability overhead gate: the kernel progress probe (OnProgress
# armed, default throttle) must cost less than 1% ns/op over the unobserved
# baseline. One test binary runs 16 processes of one 2 s benchmark each,
# 8 per arm in ABBA order, so neither arm always runs first or on the
# warmer host; benchjson compares the two arms' medians.
bench-progress:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -c -o "$$tmp/scenario.test" ./internal/scenario/; \
	for i in 1 2 3 4 5 6 7 8; do \
		if [ $$((i % 2)) -eq 1 ]; then arms="NoTelemetry Progress"; else arms="Progress NoTelemetry"; fi; \
		for arm in $$arms; do \
			(cd internal/scenario && "$$tmp/scenario.test" -test.run '^$$' \
				-test.bench "BenchmarkRun$$arm\$$" -test.benchtime 2s); \
		done; \
	done > "$$tmp/out"; \
	$(GO) run ./cmd/benchjson \
		-speedup-slow BenchmarkRunProgress \
		-speedup-fast BenchmarkRunNoTelemetry -speedup-max 1.01 < "$$tmp/out"

# The gated scale tier: 500- and 2000-node runs with two control arms —
# spatial index vs linear scan (>=5x ns/op edge) and lazy vs eager decay on
# the low-duty-cycle idle point (>=1.5x ns/op and >=5x fewer fired events).
# One transcript, asserted twice. Too slow for the CI bench smoke, hence
# the env guard.
bench-scale:
	DFTMSN_SCALE_BENCH=1 $(GO) test -bench=BenchmarkRunLarge -benchtime=3x \
			./internal/scenario/ > bench-scale.out
	$(GO) run ./cmd/benchjson \
			-speedup-slow BenchmarkRunLarge2000Linear \
			-speedup-fast BenchmarkRunLarge2000 -speedup-min 5 \
		< bench-scale.out
	$(GO) run ./cmd/benchjson \
			-speedup-slow BenchmarkRunLarge2000IdleEager \
			-speedup-fast BenchmarkRunLarge2000Idle \
			-speedup-min 1.5 -speedup-events-min 5 \
		< bench-scale.out
	@rm -f bench-scale.out

# Regenerate every table/figure at reduced scale (~30 min on one core).
figures:
	$(GO) run ./cmd/figures -fig all -scale quick

# The paper's full 25000 s x 3 seeds Figure 2 (slow).
figures-paper:
	$(GO) run ./cmd/figures -fig fig2 -scale paper

# Invariant-armed chaos campaign: randomized fault plans over many seeds,
# failing seeds shrunk to a minimal reproducer. CHAOS_RUNS bounds it.
CHAOS_RUNS ?= 200
chaos:
	$(GO) run ./cmd/dftchaos -runs $(CHAOS_RUNS)

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/snapshot/
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=30s ./internal/service/
	$(GO) test -fuzz=FuzzSSEDecode -fuzztime=30s ./internal/telemetry/

# A quick fuzz pass over every fuzz target (what CI's smoke job runs).
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoadConfig -fuzztime=10s ./internal/scenario/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/snapshot/
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=10s ./internal/service/
	$(GO) test -fuzz=FuzzSSEDecode -fuzztime=10s ./internal/telemetry/
	$(GO) test -fuzz=FuzzLazyDecayParity -fuzztime=10s ./internal/routing/

# The snapshot/fork/restore differential gate under the race detector: all
# three arms bit-identical on Result and telemetry across the 12-config
# matrix, plus the RNG rewind edge cases.
snapshot-diff:
	$(GO) test -race -run 'TestSnapshotDifferential|TestPeriodicCheckpointsDontPerturb|TestCheckpoint' ./internal/scenario/

# The observability differential gate under the race detector: an observed
# run (progress probe firing at every kernel stride, StreamTee in the
# recorder chain, readers starting and stopping ReadAt/WaitAt paging
# mid-run) must be bit-identical to an unobserved one across the 12-config
# matrix, and the /stream endpoint must replay/resume with no gaps and no
# duplicates.
observe-diff:
	$(GO) test -race \
			-run 'TestObservedRunMatchesUnobserved|TestStreamReadersMidRunNoPerturb|TestStreamEndpointReplayAndResume' \
			./internal/scenario/ ./internal/service/

# The dftserve crash soak under the race detector: build the daemon, kill
# -9 it mid-campaign, restart on the same journal, and require verdicts
# bit-identical to an uninterrupted server's (plus a cache hit on resubmit).
service-soak:
	DFTMSN_SOAK=1 $(GO) test -race -run TestServiceSoak -timeout 20m -count=1 ./cmd/dftserve/

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

clean:
	$(GO) clean ./...
