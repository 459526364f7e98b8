GO ?= go

.PHONY: build test check fmt-check race bench-check bench-record bench-parallel trace-demo fuzz-smoke invariants invariants-long lint-metrics soak cluster-chaos cluster-chaos-long

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-PR gate (run it before every pull request; CI runs the
# same thing): formatting, vet, the metrics-docs cross-check, plus the full
# test suite under the race detector. The race run covers the
# internal/parallel worker pool, the session-resilience chaos suites and every
# experiment driver fanning units across it.
check: fmt-check lint-metrics
	$(GO) vet ./...
	$(GO) test -race ./...

# fmt-check fails when any Go file is not gofmt-clean, naming the files.
fmt-check:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# lint-metrics cross-checks the harp_* metrics registered in code against
# the table in OBSERVABILITY.md, both directions. See OBSERVABILITY.md.
lint-metrics:
	./scripts/lint-metrics.sh

race:
	$(GO) test -race ./...

# invariants runs the correctness harness (see CORRECTNESS.md): the exact
# MMKP oracle differential tests against the Lagrangian and greedy solvers,
# and the full-run invariant suites over simulated chaos runs and random
# Manager operation sequences. Failures print a shrunk counterexample and a
# one-line repro; set HARP_CHECK_ARTIFACTS to also write it to a file.
invariants:
	$(GO) test -race -count=1 \
		-run 'TestDifferential|TestBugCrop|TestOracle|TestShrink|TestCheckTimeline|TestSimInvariants|TestSimJournalMatchesPushedInvariant|TestSimTimelineIsolation|TestManagerInvariants|TestRegisterRollback|TestManagerSameSeed|TestCacheChurnNeverStale|TestCacheTransparentInSimulation' \
		./internal/check/ ./internal/alloc/ ./internal/core/ ./harpsim/

# invariants-long is the nightly sweep: the same harness over an order of
# magnitude more seeded scenarios (20000 differential seeds per solver).
invariants-long:
	HARP_CHECK_LONG=1 $(MAKE) invariants

# soak runs the overload suite plus the long overload soak (see
# RESILIENCE.md, "Overload and the degradation ladder"): minutes of virtual
# time under dense solver stalls, store outages and client churn, under the
# race detector. CI runs this nightly; locally it finishes in seconds
# (virtual clock).
soak:
	HARP_SOAK=1 $(GO) test -race -count=1 -v -run 'TestOverload' ./harpsim/

# cluster-chaos runs the fleet failover suites (see RESILIENCE.md, "Fleet
# failover and session migration") under the race detector: machine kills,
# coordinator kills, kill-during-migration, per-tick fleet invariants and
# byte-identical same-seed journals. CI runs this on every push.
cluster-chaos:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestCluster|TestCheckFleet|TestReconnectFollowsAddressProvider' \
		./harpsim/ ./internal/check/ ./harp/

# cluster-chaos-long is the nightly multi-seed sweep: 10 seeds of combined
# machine-kill + coordinator-kill chaos with journals written to
# HARP_CLUSTER_JOURNAL_DIR (uploaded as CI artifacts on failure).
cluster-chaos-long:
	HARP_CLUSTER_LONG=1 $(GO) test -race -count=1 -v -run 'TestClusterMultiSeedSweep' ./harpsim/

# fuzz-smoke briefly runs each wire-protocol and durable-state fuzzer —
# enough to catch framing regressions on every push without a dedicated
# fuzzing farm.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzWrite$$' -fuzztime 10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzWAL$$' -fuzztime 10s ./internal/store/

# bench-check runs the repository benchmark (BENCHMARK.json, benchmark/README.md)
# for three seconds per workload. It is a correctness gate, not a timing
# verdict: the run exits non-zero when an operation fails or an output check
# (the activation checks, the sampled check.CheckAllocations over the standing
# decisions, the energy_x guards) is violated. Builds into .bench_build/.
bench-check:
	bash benchmark/run.sh --seconds 3

# bench-record appends this checkout's benchmark numbers — every workload at
# seed 1, the contract's 20 s — to the committed bench-history.jsonl, one
# line per workload. Run it for every change that claims or risks a
# performance difference, and commit the lines with the change.
bench-record:
	bash scripts/bench-record.sh

# bench-parallel compares the sequential and fanned-out Fig. 6 runs; on a
# multi-core host the parallel variant should be several times faster with
# bit-identical metrics.
bench-parallel:
	$(GO) test -bench 'BenchmarkFigure6(Sequential|Parallel)$$' -benchtime 1x -run '^$$' .

# trace-demo runs the Fig. 1 applications under HARP and leaves behind a
# sample Chrome trace (open harp.trace.json in https://ui.perfetto.dev) and
# the matching per-epoch decision journal. See OBSERVABILITY.md.
trace-demo:
	$(GO) run ./cmd/harp-sim run -platform intel -apps ep.C,mg.C \
		-policy harp-offline -trace harp.trace.json -journal harp.journal.jsonl
