# Development targets for the mpsnap repository.

GO ?= go

.PHONY: all build build-examples test test-race test-short test-recovery test-cluster test-engines test-churn cover bench bench-core bench-smoke fuzz fuzz-wire fuzz-wal fuzz-engines fuzz-monitor explore experiments chaos soak-churn vet fmt-check loc clean

all: vet test

build:
	$(GO) build ./...

# Compile every example program (build-only smoke; they are interactive or
# long-running, so CI never executes them).
build-examples:
	@for d in examples/*/; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null "./$$d" || exit 1; \
	done

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Go line counts, non-test and test, outside perfbench/ and .bench_build/.
# CI prints them on every run so each change's net LOC is on record; the
# target reports only and gates nothing.
LOC_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' -not -path './.git/*'
loc:
	@echo "non-test Go lines: $$($(LOC_FILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines:     $$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Crash-recovery matrix under the race detector: WAL replay, restart and
# rejoin under chaos on both the sim and chan backends, plus the WAL's
# crash-point suite and the pruned-log differential oracle.
test-recovery:
	$(GO) test -race -count=1 -run 'Restart|Recover|Replay|Writer|CrashPoint|Prune|NoteVouch|Differential' ./internal/chaos/ ./internal/wal/ ./internal/core/

# Sharded-cluster matrix under the race detector: routing, shard-map
# races, and validated cross-shard cuts on the sim and chan backends
# (TestRunChanSeeds covers 4 seeds with per-shard fault schedules), plus
# whole-shard crash+recover and whole-shard partition episodes.
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/mux/
	$(GO) run ./cmd/asocluster -backend sim,chan -seed 7 -duration 1s -shards 3 -shard-crash 1
	$(GO) run ./cmd/asocluster -backend sim,chan -seed 9 -duration 1s -shards 2 -shard-partition 0

# Engine matrix under the race detector: the registry smoke across every
# registered engine, the eqaso/acr/fastsnap differential corpus, and the
# challenger chaos matrix (4 seeds × sim + chan with the default fault
# mix).
test-engines:
	$(GO) test -race -count=1 ./internal/engine/
	$(GO) test -race -count=1 -run 'TestChallengerEngines|TestRunEngines' ./internal/chaos/ ./internal/bench/

# Coverage profile across all packages plus a per-function summary; the
# total line is the number CI reports.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# One benchmark iteration per target; see bench_output.txt conventions.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Data-structure micro-benchmarks: the reference map engine (ValueSet)
# vs the history-independent value log on Add/CountLE/ViewLE/EQ setup.
bench-core:
	$(GO) test ./internal/core -bench . -benchmem -run '^$$'

# Quick service-layer throughput sweep (batched vs serialized clients)
# plus the wire-vs-gob codec micro-benchmark; writes the machine-readable
# points to BENCH_throughput.json and BENCH_codec.json.
bench-smoke:
	$(GO) run ./cmd/asobench -e throughput -quick -json BENCH_throughput.json
	$(GO) run ./cmd/asobench -e codec -json BENCH_codec.json
	$(GO) run ./cmd/asobench -e latency -quick -json BENCH_latency.json
	$(GO) run ./cmd/asobench -e hotpath -quick -check -json BENCH_hotpath.json
	$(GO) run ./cmd/asobench -e recovery -quick -check -json BENCH_recovery.json
	$(GO) run ./cmd/asobench -e cluster -quick -check -json BENCH_cluster.json
	$(GO) run ./cmd/asobench -e engines -quick -check -json BENCH_engines.json

# Wall-clock saturation smoke on the real TCP loopback stack: a reduced
# loadgen sweep plus the tuned-vs-legacy transport bake-off; -check fails
# the build unless the tuned path reaches >= 1.5x legacy ops/s at the
# bake-off client count. The committed BENCH_wallclock.json comes from
# the unreduced run (`go run ./cmd/asobench -e wallclock -json ... -check`).
bench-wallclock:
	$(GO) run ./cmd/asobench -e wallclock -quick -check -json BENCH_wallclock_smoke.json

# Churn matrix under the race detector: the streaming monitor's unit,
# equivalence, and injected-violation suites, the churn schedule property
# tests, then a short churn CLI matrix — eqaso, acr, fastsnap × 2 seeds
# on the sim and chan backends with the monitor armed.
test-churn:
	$(GO) test -race -count=1 ./internal/monitor/
	$(GO) test -race -count=1 -run 'TestChurn|TestGenerateChurn' ./internal/chaos/
	@for eng in eqaso acr fastsnap; do \
		for seed in 1 2; do \
			$(GO) run ./cmd/asochaos -backend sim,chan -engine $$eng -seed $$seed -duration 2s -churn || exit 1; \
		done; \
	done

# Randomized conformance fuzzing across all algorithms (bounded batch).
fuzz:
	$(GO) run ./cmd/asofuzz -count 5000

# Native Go fuzzing of the checker against brute force (30s).
fuzz-checker:
	$(GO) test -fuzz=FuzzCheckerAgainstBruteForce -fuzztime=30s ./internal/history/

# Wire codec fuzzing: canonical round trips + mutated-frame decodes, via
# both the asofuzz soak driver and the native fuzz engines.
fuzz-wire:
	$(GO) run ./cmd/asofuzz -wire -count 5000 -seed 1
	$(GO) test -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire/

# WAL replay fuzzing: arbitrary byte images must never panic and must
# recover exactly the longest intact record prefix.
fuzz-wal:
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/wal/

# Monitor window fuzzing: random op tapes (the history fuzz corpus shape,
# restart markers included) streamed through the online monitor must
# produce zero violations whenever the offline checker accepts the tape.
fuzz-monitor:
	$(GO) test -fuzz=FuzzMonitorWindow -fuzztime=30s -run '^$$' ./internal/monitor/

# Differential engine fuzzing: random sequential op schedules run on
# EQ-ASO vs the acr and fastsnap challengers, every scan compared
# pointwise against the reference and the trivial oracle.
fuzz-engines:
	$(GO) test -fuzz=FuzzEngineEquivalence -fuzztime=30s -run '^$$' ./internal/engine/

# Bounded-exhaustive schedule exploration of the core algorithms.
explore:
	$(GO) run ./cmd/asoexplore -alg eqaso -depth 6
	$(GO) run ./cmd/asoexplore -alg oneshot -depth 6

# Regenerate every table/figure of EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/asobench

# Seeded chaos run (crashes, partitions, loss, delay spikes) with
# end-to-end linearizability checking, on both the simulator and a TCP
# loopback cluster. Override: make chaos SEED=7
SEED ?= 42
chaos:
	$(GO) run ./cmd/asochaos -seed $(SEED) -duration 5s

# Long churn soak on the simulator: rolling restarts, membership flaps,
# lagging links, and an adversarial bursty workload across the atomic
# engine matrix, with the streaming monitor armed and first-violation
# trace dumps landing in traces/. Override: make soak-churn SOAK_DURATION=10m
SOAK_DURATION ?= 60s
soak-churn:
	@mkdir -p traces
	@for eng in eqaso acr fastsnap; do \
		$(GO) run ./cmd/asochaos -backend sim -engine $$eng -seed $(SEED) -duration $(SOAK_DURATION) -churn -trace-dir traces || exit 1; \
	done

clean:
	$(GO) clean ./...
