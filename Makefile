GO ?= go
COVER_PROFILE ?= cover.out

.PHONY: build test bench bench-all benchmark loc loc-check reach reach-check race vet ci serve cover cover-check trace-check fuzz-smoke calibration-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench times the poll path (ConcurrentPoll), the tick path (ParallelTick,
# MPL 1/4/16 × worker counts) and the shared scan (SharedScan, 1/2/4/8
# members, solo vs folded); the *SteadyStateAllocs tests in internal/sched pin
# the last two at 0 allocs/op. OwnerWakeup prices the owner's cost of three
# quanta at depth 1000 as three one-quantum Advance calls (observe and publish
# per tick) and as one three-quantum Advance (one observe and publish per step,
# as every ticker wake-up does): the layer saving behind the live clock rate,
# in seconds instead of `make benchmark`'s five minutes. QueueAwareEstimate prices the largest piece of such a wake-up,
# the §2.3 queue-aware estimate pass, against the event-stepped oracle it
# replaced (r64/q936 = backlog_submit's depth, r8/q40 = a lightly queued tier).
# ScanKernel times scan_share's query shape (a filtered COUNT/SUM over a 120k-row
# lineitem) through Runner.Step alone: ns/U of the compiled expressions and the
# operators, with no scheduler or service around them. OverviewBody prices one
# GET /queries reply (the body POST /advance answers with too) beside 10 and
# 1,000 terminated queries: each finished view is encoded once and copied after,
# so the two rows read alike; TestOverviewSteadyStateAllocs pins their bytes.
bench:
	$(GO) test -run '^$$' -bench ConcurrentPoll -benchmem ./internal/service/
	$(GO) test -run '^$$' -bench OverviewBody -benchmem ./internal/service/
	$(GO) test -run '^$$' -bench OwnerWakeup -benchmem ./internal/service/
	$(GO) test -run '^$$' -bench QueueAwareEstimate -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench ParallelTick -benchmem ./internal/sched/
	$(GO) test -run '^$$' -bench SharedScan -benchmem ./internal/sched/
	$(GO) test -run '^$$' -bench ScanKernel -benchmem ./internal/engine/exec/

bench-all:
	$(GO) test -bench=. -benchmem ./...

# benchmark is the repository's one benchmark (BENCHMARK.json, benchmark/):
# four serving-tier workloads, end-to-end metrics and a per-layer budget.
# About five minutes on two cores; benchmark/README.md explains the output.
benchmark:
	$(GO) run ./benchmark

# loc prints the size ROADMAP aim 2 tracks: lines of non-test Go outside
# benchmark/. A PR that deletes a parallel path reports this before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# loc-check is the size ratchet: `make loc` must not exceed the count committed
# in LOC_BASELINE. Lower the number whenever a PR shrinks the tree; raise it
# only with a sentence in CHANGES.md saying what the added lines bought.
loc-check:
	@loc=$$($(MAKE) -s --no-print-directory loc); base=$$(cat LOC_BASELINE); \
	echo "size: $$loc lines of non-test Go outside benchmark/ (baseline $$base)"; \
	[ "$$loc" -le "$$base" ] || \
		{ echo "make loc = $$loc exceeds LOC_BASELINE = $$base: shrink the change, or raise the baseline and say in CHANGES.md what the lines bought"; exit 1; }

# reach prints the non-test functions outside benchmark/ that no binary
# enters: scripts/reach.sh builds every command, example and ./benchmark with
# -cover, runs a fixed driver set (the examples, mqpi-bench -sim and the
# battery with -csv and -json, cmd/mqpi-shell/testdata/session.sql, four
# mqpi-serve HTTP sessions on loopback ports from 18471, each benchmark
# workload traced) and lists what no driver reached, with line counts and a
# total. About a minute on two cores; the run is kept in reach-out/.
reach:
	@GO=$(GO) sh scripts/reach.sh

# reach-check is the reachability ratchet: the unreached total `make reach`
# prints must not exceed the line count committed in REACH_BASELINE. Lower the
# number when a PR deletes unreached code or drives more of it; raise it only
# with a sentence in CHANGES.md saying why the new code has no driver. SHORT=1
# skips it.
reach-check:
ifeq ($(SHORT),1)
	@echo "SHORT=1: skipping reach-check"
else
	@REACH_DIR=reach-out GO=$(GO) sh scripts/reach.sh > /dev/null || exit 1; \
	got=$$(sed -n 's/^reach: [0-9]* functions (\([0-9]*\) lines).*/\1/p' reach-out/report.txt); \
	base=$$(cat REACH_BASELINE); \
	echo "reach-check: $$got unreached lines outside benchmark/ (baseline $$base; the list is in reach-out/report.txt)"; \
	[ -n "$$got" ] && [ "$$got" -le "$$base" ] || \
		{ echo "reach-check: the unreached total exceeds REACH_BASELINE: delete the unreached code, drive it from scripts/reach.sh, or raise the baseline and say why in CHANGES.md"; exit 1; }
endif

# vet is the static gate: go vet, and a tree gofmt has nothing to say about.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l names unformatted files:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

serve:
	$(GO) run ./cmd/mqpi-serve -demo

# ci is the gate: static checks, a clean build, and the full suite under the
# race detector (load-bearing now that the experiment harness spawns worker
# goroutines and the serving layer runs a live ticker against concurrent
# clients). The service/sched/serve packages are named explicitly so a future
# split of `race` cannot silently drop them from under the detector.
ci: vet build race
	$(GO) test -race ./internal/service/... ./internal/sched/... ./internal/cluster/... ./cmd/mqpi-serve/...
	# Three-phase tick determinism: the differential + stress suite must hold
	# on one core and on several, since goroutine interleaving (and therefore
	# any illegal cross-runner ordering dependence) differs between the two.
	# -count=1: GOMAXPROCS is not in the test cache key, so without it the
	# second run would silently replay the first run's cached verdict.
	# The live-clock test rides the one-core line: there the owner and its
	# clients share a core, which is where a clock falls behind first. The
	# read-path stress test rides the several-core line: there its 32 pollers
	# run beside the owner, which is where a lock a scrape holds would stall it.
	# So does the overview readers' test: there its 8 readers extend the one
	# stored finished section at once.
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestParallelTick|TestEventsDeterministicAcrossWorkers|TestLiveClockKeepsWallRate' ./internal/sched/ ./internal/service/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestParallelTick|TestEventsDeterministicAcrossWorkers|TestReadPathStressRace|TestOverviewReadersRace' ./internal/sched/ ./internal/service/
	# The simulator package, whole (no name regex to go stale): every matrix —
	# one shard and three, fold on and off, each estimator mode — must hold
	# its invariants and stay byte-identical at workers 1/2/4 on one core and
	# on several.
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/sim/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/sim/
	$(MAKE) cover-check
	$(MAKE) loc-check
	$(MAKE) trace-check
	$(MAKE) reach-check
	# The allocation ratchet: the zero-allocation steady-state tick, solo and
	# folded, and an overview reply whose bytes do not grow with the
	# terminated history. They skip under -race (the detector allocates), so
	# they get a line of their own without it.
	$(GO) test -count=1 -run 'SteadyStateAllocs' ./internal/sched/ ./internal/service/
	$(MAKE) calibration-smoke
	$(MAKE) fuzz-smoke

# cover prints the per-package coverage table and the repo-wide total.
cover:
	$(GO) test -count=1 -cover ./internal/...
	@$(GO) test -count=1 -coverprofile=$(COVER_PROFILE) ./internal/... > /dev/null
	@$(GO) tool cover -func=$(COVER_PROFILE) | tail -1

# cover-check is the ratchet: total statement coverage across ./internal/...
# must not drop below the floor committed in COVERAGE_BASELINE. Raise the
# floor when coverage durably improves; never lower it to make ci pass.
cover-check:
	@$(GO) test -count=1 -coverprofile=$(COVER_PROFILE) ./internal/... > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat COVERAGE_BASELINE); \
	echo "coverage: $$total% of statements (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) }' || \
		{ echo "coverage $$total% fell below the committed baseline $$floor%"; exit 1; }

# trace-check is the byte-identity fence on the simulator: the stdout of
# `mqpi-bench -sim` over seeds 1-32 (every action and event of each run; the
# summaries go to stderr) must hash to the sha256 committed in TRACE_SHA256, at
# -workers 1 and at -workers 4. A PR that claims "same behaviour" leaves the
# file alone; one that means to move a trace regenerates it and says why.
# On a mismatch the failing run's trace is kept as sim-trace.txt, ready to diff
# against the same loop run at the parent commit. SHORT=1 skips it.
trace-check:
ifeq ($(SHORT),1)
	@echo "SHORT=1: skipping trace-check"
else
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/mqpi-bench" ./cmd/mqpi-bench || exit 1; \
	want=$$(cat TRACE_SHA256); \
	for w in 1 4; do \
		for s in $$(seq 1 32); do \
			"$$dir/mqpi-bench" -sim -seed $$s -workers $$w 2>/dev/null || exit 1; \
		done > "$$dir/trace"; \
		got=$$(sha256sum < "$$dir/trace" | cut -d' ' -f1); \
		if [ "$$got" != "$$want" ]; then \
			cp "$$dir/trace" sim-trace.txt; \
			echo "trace-check: -sim seeds 1-32 at -workers $$w hash to $$got ($$(wc -l < "$$dir/trace") lines); TRACE_SHA256 says $$want"; \
			echo "trace-check: the failing trace is in $(CURDIR)/sim-trace.txt"; \
			exit 1; \
		fi; \
	done; \
	echo "trace-check: -sim seeds 1-32 match TRACE_SHA256 at -workers 1 and 4"
endif

# calibration-smoke drives the calibrated estimate plane end to end through the
# real CLI: the seven-scenario calibration battery must run clean on a reduced
# dataset. The 80% coverage acceptance floor itself is asserted by
# TestRunCalibrationCoverage (under `race` above); this smoke keeps the
# mqpi-bench flag/figure wiring from rotting. SHORT=1 skips it.
calibration-smoke:
ifeq ($(SHORT),1)
	@echo "SHORT=1: skipping calibration smoke"
else
	$(GO) run ./cmd/mqpi-bench -exp calibration -lineitem 30000 -seed 5
endif

# fuzz-smoke gives each native fuzz target a short budget on every ci run, so
# the harnesses can't rot and the checked-in corpora keep replaying. SHORT=1
# skips it (the corpora still run as plain tests under `race` above).
# FuzzReplay's seeds are whole checkpoints and logs of a few KB: minimizing
# each new input would take the default minute, longer than the budget, so
# it gets one second.
fuzz-smoke:
ifeq ($(SHORT),1)
	@echo "SHORT=1: skipping fuzz smoke"
else
	$(GO) test -run '^$$' -fuzz FuzzSim -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/engine/sql
	$(GO) test -run '^$$' -fuzz FuzzQueueProfile -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 10s -fuzzminimizetime 1s ./internal/engine
endif
