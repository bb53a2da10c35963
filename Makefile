GO ?= go

.PHONY: build vet fmt lint lintguard test race bench-scale bench-stream bench-soak bench-recovery bench-fanout microbench precomputeguard scaleguard streamguard soakguard recoveryguard fanoutguard fmaguard benchtest fuzz check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offending files) when any tracked Go file is not
# gofmt-clean; it never rewrites.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# lint runs the project's own static analyzer (cmd/optimus-lint): wallclock,
# globalrand, maprange, lockedescape, panicpath, lockorder, goroutinejoin,
# unlockpath, timeprop. Exit is non-zero on any finding, including unused
# //optimus:allow directives. The binary prints a whole-repo wall-time note
# to stderr (packages checked/loaded + elapsed); the memoized source
# importer keeps stdlib type-checking a one-time cost per run.
lint:
	$(GO) run ./cmd/optimus-lint ./...

# lintguard is the machine gate for make check / CI: the same whole-repo
# run with the JSON reporter, archived as optimus-lint.json. Any
# un-suppressed finding fails the gate and the report names it.
lintguard:
	@$(GO) run ./cmd/optimus-lint -json ./... > optimus-lint.json || { \
		echo "lintguard: findings (see optimus-lint.json):"; \
		cat optimus-lint.json; \
		exit 1; \
	}

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-scale runs the simulator hot-path scaling benchmark (1M-request
# trace, serial/scan vs indexed, plus the constant-memory streaming section:
# group-parallel streaming replay at 10M requests) and leaves
# BENCH_sim_scale.json in the repo root.
bench-scale:
	$(GO) run ./cmd/optimus-bench -stream scale

# bench-stream replays >= 10M requests through the streaming engine under a
# hard peak-heap ceiling (sampled via runtime.MemStats); on failure the test
# prints the heaviest allocation sites from the runtime alloc profile.
bench-stream:
	$(GO) test -run '^TestStreamCeiling$$' -v ./internal/experiments -stream-ceiling=true

# bench-soak runs the chaos-soak experiment (baseline vs resilient under
# mixed hard/gray faults) and leaves BENCH_soak.json in the repo root.
bench-soak:
	$(GO) run ./cmd/optimus-bench soak

# bench-recovery runs the supervised-recovery sweep and leaves
# BENCH_recovery.json in the repo root.
bench-recovery:
	$(GO) run ./cmd/optimus-bench recovery

# bench-fanout runs the burst fan-out experiment (fan-out off, one wave of
# seed donations, and the same under seed crashes) and leaves
# BENCH_fanout.json in the repo root.
bench-fanout:
	$(GO) run ./cmd/optimus-bench fanout

# microbench runs the Go testing.B microbenchmarks of the root package.
microbench:
	$(GO) test -bench=. -benchmem .

# precomputeguard checks that the parallel registration warm-up is not
# slower than one worker on ≥4 cores; the -bench smoke keeps the precompute
# benchmarks compiling and running.
precomputeguard:
	$(GO) test -run 'TestParallelPrecomputeNotSlower' -bench 'BenchmarkPrecompute' -benchtime=1x ./internal/planner

# scaleguard validates the checked-in BENCH_sim_scale.json (indexed replay
# must not be slower than the scan baseline, and its records must equal the
# scan baseline's) and replays a small-N scale smoke end to end.
scaleguard:
	$(GO) test -run 'TestScale' ./internal/experiments

# streamguard validates the streaming section of BENCH_sim_scale.json
# (10M+-request point, allocs/req at or below the indexed path, peak heap
# within 1.5x of the 10x-smaller baseline, streaming==materialized) and
# replays a streaming smoke end to end. The group-parallel stream == serial
# oracle lives in internal/simulate (TestRunGroupsMatchSerial and the race
# step in CI).
streamguard:
	$(GO) test -run 'TestStream' ./internal/experiments

# soakguard validates the checked-in BENCH_soak.json (byte-identical
# same-seed reruns, resilient hit ratio ≥ the bounded-retry baseline's) and
# replays a quick chaos-soak smoke end to end.
soakguard:
	$(GO) test -run 'TestSoak' ./internal/experiments

# recoveryguard validates the checked-in BENCH_recovery.json (supervised
# mean latency and MTTR beat the base configuration at the top fault rate).
recoveryguard:
	$(GO) test -run 'TestRecoveryArtifact' ./internal/experiments

# fanoutguard validates the checked-in BENCH_fanout.json against the fan-out
# acceptance gate (mean latency below fan-out off with and without seed
# crashes, re-parenting and 16 warm replicas under seed crashes with goodput
# held, double-run byte-identity) and replays the burst experiment as a smoke.
fanoutguard:
	$(GO) test -run 'TestFanout' ./internal/experiments

# fmaguard cross-compiles the library packages for arm64, ppc64le, s390x and
# riscv64 with -gcflags=-S and fails on any fused multiply-add instruction,
# naming its source line: a fused x*y + z rounds once instead of twice, so
# seeded outputs would differ from amd64's.
fmaguard:
	$(GO) test -run '^TestNoFusedMultiplyAdd$$' -v . -fma-guard=true

# benchtest runs the repo benchmark's own tests (TestBenchmarkQuick and its
# replay-determinism checks). The benchmark is a nested Go module, so the
# root `go test ./...` never reaches it.
benchtest:
	cd benchmark && $(GO) test ./...

# fuzz runs a short native-fuzzing smoke over the plan executor (whole and
# truncated planner output), the lint-directive parser, the call-graph
# builder, the Azure-trace CSV reader, and the routing cross-check (indexed vs
# scanning router, with health and crash/outage faults on one fuzz bit).
fuzz:
	$(GO) test -fuzz='^FuzzPlanApply$$' -fuzztime=10s -run '^$$' ./internal/planner
	$(GO) test -fuzz='^FuzzPlanTruncated$$' -fuzztime=10s -run '^$$' ./internal/planner
	$(GO) test -fuzz='^FuzzDirectiveParse$$' -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz='^FuzzCallGraph$$' -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz='^FuzzAzureCSV$$' -fuzztime=10s -run '^$$' ./internal/workload
	$(GO) test -fuzz='^FuzzRouteCrossCheck$$' -fuzztime=10s -run '^$$' ./internal/simulate

# check is the pre-merge gate: formatting, static analysis (go vet plus the
# project linter with its JSON gate), a full build, the test suite under the
# race detector (the gateway stress test needs it), the benchmark
# regression guards, and the repo benchmark's own tests.
check: fmt vet lintguard build race precomputeguard scaleguard streamguard soakguard recoveryguard fanoutguard fmaguard benchtest
