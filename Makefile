GO ?= go

.PHONY: build vet fmt lint lintguard test race bench bench-scale bench-stream bench-soak bench-recovery bench-fanout bench-gateway microbench benchguard scaleguard streamguard soakguard recoveryguard fanoutguard gatewayguard fuzz check

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

# bench runs the reproducible benchmark baseline harness and leaves
# BENCH_planner.json + BENCH_sim.json in the repo root.
bench:
	$(GO) run ./cmd/optimus-bench bench

# bench-scale runs the simulator hot-path scaling benchmark (1M-request
# trace, serial/scan vs indexed, plus the constant-memory streaming section
# at 10M requests and windowed vs serial streaming replay) and leaves
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

# bench-fanout runs the burst fan-out-tree experiment (pipelined waves vs
# independent transforms, zero-fault and donor-crash pairs) and leaves
# BENCH_fanout.json in the repo root.
bench-fanout:
	$(GO) run ./cmd/optimus-bench fanout

# bench-gateway runs the multi-gateway control-plane experiment (aggregate
# throughput at 1/2/4/8 gateways, shared-vs-isolated plan cache with a
# mid-trace drain) and leaves BENCH_gateway.json in the repo root.
bench-gateway:
	$(GO) run ./cmd/optimus-bench gateway

# microbench runs the Go testing.B microbenchmarks of the root package.
microbench:
	$(GO) test -bench=. -benchmem .

# benchguard is the benchmark regression gate: the bench harness must emit
# complete BENCH_*.json artifacts, parallel precompute must match serial
# byte-for-byte, and (on multicore) must not be slower; the -bench smoke
# keeps the precompute benchmarks compiling and running.
benchguard:
	$(GO) test -run 'TestBench' -bench 'BenchmarkPrecompute' -benchtime=1x ./internal/experiments

# scaleguard validates the checked-in BENCH_sim_scale.json (indexed replay
# must not be slower than the scan baseline, and its records must equal the
# scan baseline's) and replays a small-N scale smoke end to end.
scaleguard:
	$(GO) test -run 'TestScale' ./internal/experiments

# streamguard validates the streaming section of BENCH_sim_scale.json
# (10M+-request point, allocs/req at or below the indexed path, peak heap
# within 1.5x of the 10x-smaller baseline, streaming==materialized and
# windowed==serial equalities) and replays a streaming smoke end to end.
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
# acceptance gate (time-to-16-warm below the independent baseline,
# re-parenting under donor crashes with goodput held, double-run
# byte-identity) and replays the burst experiment as a smoke.
fanoutguard:
	$(GO) test -run 'TestFanout' ./internal/experiments

# gatewayguard validates the checked-in BENCH_gateway.json against the
# multi-gateway acceptance gate (≥2x aggregate simulated throughput at 4
# gateways, shared plan-cache hit ratio at or above isolated with no more
# pairs planned, double-run byte-identity) and replays a quick smoke.
gatewayguard:
	$(GO) test -run 'TestGateway' ./internal/experiments

# fuzz runs a short native-fuzzing smoke over the plan executor, the
# lint-directive parser, the call-graph builder, and the Azure-trace CSV
# reader.
fuzz:
	$(GO) test -fuzz='^FuzzPlanApply$$' -fuzztime=10s -run '^$$' ./internal/planner
	$(GO) test -fuzz='^FuzzDirectiveParse$$' -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz='^FuzzCallGraph$$' -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz='^FuzzAzureCSV$$' -fuzztime=10s -run '^$$' ./internal/workload

# check is the pre-merge gate: formatting, static analysis (go vet plus the
# project linter with its JSON gate), a full build, the test suite under the
# race detector (the gateway stress test needs it), and the benchmark
# regression guards.
check: fmt vet lintguard build race benchguard scaleguard streamguard soakguard recoveryguard fanoutguard gatewayguard
