GO ?= go

.PHONY: build test check fmt-check race bench-check bench-smoke bench-record bench-parallel trace-demo fuzz-smoke invariants invariants-long lint-api lint-metrics lint-test-gates size soak cluster-chaos cluster-chaos-long

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-PR gate (run it before every pull request; CI runs the
# same thing): formatting, vet, the API reader check, the metrics-docs
# cross-check, the check that every test a gate names still exists, plus the
# full test suite under the race detector. The race run covers the
# internal/parallel worker pool, the session-resilience chaos suites and every
# experiment driver fanning units across it.
check: fmt-check lint-api lint-metrics lint-test-gates
	$(GO) vet ./...
	$(GO) test -race ./...

# fmt-check fails when any Go file is not gofmt-clean, naming the files.
fmt-check:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# lint-api runs the API reader check (api_test.go, also part of go test
# ./...): every exported identifier, exported method and struct field of an
# internal/ package has a reader among the module's non-test files, unless
# apiAllow names why not, every backticked Go name in the prose resolves, and
# every *.md file a Go file, script, this Makefile, a CI workflow or a
# top-level document names exists.
lint-api:
	$(GO) test -count=1 -run 'TestAPIReaders|TestCheckAPIRules|TestDocumentReferences' ./

# size prints non-test Go, test Go and prose lines per directory at BASE and
# in the working tree, with the delta (scripts/size.sh). Every CHANGES.md
# entry states its three totals: make size BASE=<parent commit>.
size:
	./scripts/size.sh $(BASE)

# lint-metrics cross-checks the harp_* metrics registered in code against
# the table in OPERATIONS.md, both directions, requires a reader (a test,
# health check, status field, harpctl view or benchmark) for every family,
# and checks every harp_* name in the top-level prose. See OPERATIONS.md.
lint-metrics:
	./scripts/lint-metrics.sh

# lint-test-gates fails when an alternative in the -run list of invariants,
# cluster-chaos, cluster-chaos-long, soak or CI's kill -9 step matches no test
# (go test -list), so renaming a gated test cannot silently drop it.
lint-test-gates:
	./scripts/lint-test-gates.sh

race:
	$(GO) test -race ./...

# invariants runs the correctness harness (see DESIGN.md §6): the exact
# MMKP oracle differential tests against the Lagrangian and greedy solvers,
# the incremental solver's delta contract and its positional pins against
# the map-keyed reference merge, the merge fed by the Manager's edit against
# the one fed by an edit derived from IDs, that edit against a plain ID map
# and every edit the Manager hands out against the IDs it last solved,
# improve, rescue and the grouped λ loop
# against their plain reference searches, solves on shared tables against
# the same solves on cloned ones, the table's memoised front against the
# usable front in solver order, the candidate lists kept across solves
# against freshly built ones and the allocation regime of a retable solve,
# placement against the cursor it replaced and its
# stickiness, ring order and placement invariant, the polynomial's
# prediction, the lazily fitted predicted table, the configuration-space walk,
# the explorer's choices on it and the simulator's step with reused buffers
# and skipped re-placements against their references, the store's upload
# merge against the Upsert loop, the full-run invariant suites over
# simulated chaos and churn runs and random Manager operation sequences, the
# check that no table or decision vector is written once handed out, and the
# pinned decision-journal digests of the paper's Fig. 6 scenarios and of the
# simulated fleet, and the pinned digests of the quick paper record. Failures
# print a shrunk counterexample and a one-line repro; set HARP_CHECK_ARTIFACTS
# to also write it to a file.
invariants:
	$(GO) test -race -count=1 \
		-run 'TestDifferential|TestBugCrop|TestOracle|TestShrink|TestCheckTimeline|TestSimInvariants|TestSimJournalMatchesPushedInvariant|TestSimTimelineIsolation|TestManagerInvariants|TestRegisterRollback|TestSolverFailuresDegradeTheEpoch|TestManagerSameSeed|TestCacheChurnNeverStale|TestCacheTransparentInSimulation|TestChangedCoversTrueDiff|TestImproveMatchesScan|TestFitGridIsFirstFit|TestRescueMatchesScan|TestRescueSubtreeSizes|TestGroupedLambdaMatchesScan|TestPositionalPinsMatchMapPins|TestEditMatchesDerivedAlignment|TestManagerEditsMatchIDWalk|TestCheckPlacement|TestPlacementStaysPut|TestMergeKeepsPositionZero|TestCoAllocationRingIdleFirst|TestTableSharingIsInvisible|TestParetoPointsIsUsableFront|TestSolverListsReusedOnlyForSameFacts|TestRetableSolveAllocRegime|TestDeltaEpochsMatchFullSolution|TestChurnOracleVerification|TestPaperJournalDigests|TestClusterJournalDigests|TestPolynomialPredictMatchesReference|TestPredictedTableMatchesEagerFit|TestStepMatchesReference|TestWalkMatchesEnumeration|TestNextMatchesReference|TestHandedOutTablesNeverChange|TestReplayedUploadsMatchUpsertLoop|TestQuickRecordDigests' \
		./internal/check/ ./internal/alloc/ ./internal/core/ ./harpsim/ ./internal/regress/ ./internal/explore/ ./internal/sim/ ./internal/platform/ ./internal/store/ ./internal/opoint/ ./internal/experiments/

# invariants-long is the nightly sweep: the same harness over an order of
# magnitude more seeded scenarios (20000 differential seeds per solver).
invariants-long:
	HARP_CHECK_LONG=1 $(MAKE) invariants

# soak runs the overload suite plus the long overload soak (see
# OPERATIONS.md, "Overload and the degradation ladder"): minutes of virtual
# time under dense solver stalls, store outages and client churn, under the
# race detector. CI runs this nightly; locally it finishes in seconds
# (virtual clock).
soak:
	HARP_SOAK=1 $(GO) test -race -count=1 -v -run 'TestOverload' ./harpsim/

# cluster-chaos runs the fleet failover suites (see OPERATIONS.md, "Fleet
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
# enough to catch framing regressions, and any drift of the codec's fast
# paths from encoding/json, on every push without a dedicated fuzzing farm —
# the runtime Pareto front's fuzzer against the generic scan, and the
# description loader's single-pass decoder against json.Decoder.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzWrite$$' -fuzztime 10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOperatingPoints$$' -fuzztime 10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzWAL$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzRuntimeFront$$' -fuzztime 10s ./internal/opoint/
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/opoint/

# bench-check runs the repository benchmark (BENCHMARK.json, benchmark/README.md)
# for three seconds per workload. It is a correctness gate, not a timing
# verdict: the run exits non-zero when an operation fails or an output check
# (the activation checks, the sampled check.CheckAllocations over the standing
# decisions, the energy_x guards) is violated. It then gates the tick: a
# traced three-second churn-10k run fails when more than 1 % of its ticks take
# over 50 ms, or when the metric is missing (scripts/tick-gate.sh). Builds
# into .bench_build/.
bench-check:
	bash benchmark/run.sh --seconds 3
	./scripts/tick-gate.sh

# bench-smoke runs every benchmark of the allocator, the operating-point
# table and the Manager once. It is no timing verdict: it runs the regime
# assertions the benchmarks make with b.Fatal (a warm source where a warm
# start is expected, no stamped solve served from the cache, zero allocations
# on a cache hit, a merge where a merge is expected, no degraded tick, …),
# which no test runs otherwise. A few seconds.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/alloc ./internal/opoint ./internal/core

# bench-record appends this checkout's benchmark numbers — every workload
# three times at seed 1, the contract's 20 s — to the committed
# bench-history.jsonl, one line per workload with each metric's median, min
# and max. Run it for every change that claims or risks a
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
# the matching per-epoch decision journal. See OPERATIONS.md.
trace-demo:
	$(GO) run ./cmd/harp-sim run -platform intel -apps ep.C,mg.C \
		-policy harp-offline -trace harp.trace.json -journal harp.journal.jsonl
