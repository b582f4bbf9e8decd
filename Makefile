DATE := $(shell date +%Y%m%d)
# Newest committed benchmark snapshot ('b'-suffixed re-records sort after
# their base date).
BASELINE := $(lastword $(sort $(wildcard BENCH_*.json)))

.PHONY: check test bench bench-scale benchdiff perfcheck validate-analytic fuzz soak chaos cluster-soak loadtest obs profile

# Shard-scaling budgets enforced by benchdiff -scale: 4-shard stepping must
# be at least 2x faster than serial on the 16x16 mesh (the recorded figure
# is ~3x on 4+ cores) and noticeably faster on 32x32. benchdiff skips these
# loudly when the run's GOMAXPROCS is under -scale-min-procs (default 4),
# so a laptop or throttled CI runner cannot fail the gate on physics.
SCALE_GATES := \
	-scale 'BenchmarkNetworkStep16x16Shards4/BenchmarkNetworkStep16x16Shards1<=0.5' \
	-scale 'BenchmarkNetworkStep32x32Shards4/BenchmarkNetworkStep32x32Shards1<=0.6'

# LAYER_BENCH names the per-layer microbenches of a simulated cycle outside
# the NoC: rng draws, trace generation, SIMT issue, L1/MSHR and DRAM/MC.
# They are gated absolutely like the 6x6 NoC benches.
LAYER_BENCH := Uint64|Float64|Geometric|GeomSample|GeneratorNext|CoreTick|CacheAccess|MSHRLookupFill|DRAMTick|ControllerTick

# GATE_MATCH selects the benchmarks under the absolute (baseline-vs-fresh)
# ns/op check. The big-mesh shard series is deliberately NOT in it: those
# runs are ~0.5-3 ms/op, so min-of-3 folds few iterations and absolute
# numbers swing >15% with shared-machine load between sessions — they are
# gated by the within-run SCALE_GATES ratios instead, where both sides see
# the same machine conditions. The short 6x6 NetworkStep benches cover the
# same stepping code paths for absolute regressions.
GATE_MATCH := 'NetworkStep(Baseline|ARI|Faulty|Event|Scan)|SimulatorStep|AnalyticSuite|GateRoute|HistogramObserve|$(LAYER_BENCH)'

# BENCH_PKGS and BENCH_MATCH are the packages and benchmarks make bench
# records and make benchdiff re-runs.
BENCH_PKGS := ./internal/noc ./internal/analytic ./internal/cluster ./internal/obs \
	./internal/rng ./internal/trace ./internal/gpu ./internal/cache ./internal/mem .
BENCH_MATCH := 'NetworkStep|SimulatorStep|AnalyticSuite|GateRoute|HistogramObserve|$(LAYER_BENCH)'

# check is the full gate: build everything, vet, and run all tests with the
# race detector (covers the equivalence, golden, property, and race suites).
check:
	go build ./...
	go vet ./...
	go test -race ./...

test:
	go test ./...

# bench records the NoC stepping benchmarks (event-driven vs scan reference),
# the per-layer microbenches and the end-to-end simulator benchmarks into a
# dated JSON snapshot (its "procs" field is the GOMAXPROCS it ran under).
# -count=3 stores every repetition; benchdiff folds them to the per-name
# minimum, so the committed baseline uses the same min-of-N protocol as the
# gate's fresh run.
bench:
	go test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_MATCH) -benchmem -count=3 \
		| tee /dev/stderr | go run ./cmd/benchjson > BENCH_$(DATE).json

# bench-scale runs only the shard-scaling benchmark series (16x16 and
# 32x32 meshes at 1/2/4/8 shards) and applies the scaling-ratio gate —
# fast feedback on parallel stepping without the full bench suite. Only
# the within-run ratios are asserted (-match '^$' disables the absolute
# check; see GATE_MATCH above for why big-mesh absolutes are not gated).
bench-scale:
	go test ./internal/noc -run '^$$' -bench 'NetworkStep(16x16|32x32)Shards' -benchmem -benchtime 0.5s -count=3 \
		| tee /dev/stderr | go run ./cmd/benchjson \
		| go run ./cmd/benchdiff -baseline $(BASELINE) -match '^$$' $(SCALE_GATES)

# benchdiff is the benchmark regression gate: re-run the BENCH_MATCH
# benchmarks and fail when any GATE_MATCH ns/op regresses more than 15%
# against the newest committed BENCH_*.json snapshot, or when shard scaling
# goes flat (SCALE_GATES above). -count=3 with min-of-N folding in
# benchdiff keeps the gate robust to scheduling noise on shared CI
# machines.
benchdiff:
	go test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_MATCH) -benchmem -benchtime 0.5s -count=3 \
		| tee /dev/stderr | go run ./cmd/benchjson \
		| go run ./cmd/benchdiff -baseline $(BASELINE) -match $(GATE_MATCH) $(SCALE_GATES)

# perfcheck runs the repository benchmark's correctness gate: one short pass
# of each perfbench workload, failing unless every pass reproduces the
# recorded SHA-256 digests ("correct":true). It catches a change that alters
# simulated results before the benchmark itself would.
perfcheck:
	@for w in bfs-ada fig11-matrix serve-mix; do \
		out=$$(bash perfbench/run.sh --workload $$w --seconds 1) || { echo "perfcheck: $$w failed" >&2; exit 1; }; \
		echo "$$out" | tail -n 1; \
		if echo "$$out" | grep -q '"correct":false'; then echo "perfcheck: $$w is not correct" >&2; exit 1; fi; \
	done

# validate-analytic is the physics drift oracle (DESIGN.md §12): re-run the
# analytical estimator against the cycle-accurate simulator over the full
# benchmark suite x validation schemes and fail when any per-workload error
# drifts outside the recorded bands (internal/analytic/testdata/
# error_bands.json). Both sides are deterministic, so a drift means the
# simulator's physics or the model changed; re-record deliberately with
#   go test ./internal/analytic -run TestErrorBands -analytic-record
validate-analytic:
	go test ./internal/analytic -run TestErrorBands -analytic-full -count=1 -v

# soak runs the fault-injection robustness suites under -race: seeded NoC
# fault schedules across schemes with invariants checked throughout, the
# watchdog deadlock/starvation detectors, and deterministic replay under
# faults (DESIGN.md §8).
soak:
	go test -race -count=1 ./internal/fault
	go test -race -count=1 ./internal/core -run 'Watchdog|Fault|RunChecked|Truncated'

# chaos runs the layered fault-recovery soaks under -race (DESIGN.md §13):
# every stall kind combined with flit-corruption bursts and permanent link
# deaths, checking zero undetected corruption (every corrupted packet is
# CRC-caught, NACKed and retransmitted), serial-vs-sharded byte-identity of
# the recovering fabric, and the ariserve kill/restart soak with chaos
# faults active — byte-identical results across the restart with no
# completed job re-executed.
chaos:
	go test -race -count=1 ./internal/fault -run 'Chaos'
	go test -race -count=1 ./internal/serve -run 'ChaosKillRestart' -timeout 10m

# cluster-soak runs the cluster-wide chaos soak under -race (DESIGN.md §14):
# three journalled ariserve replicas behind an arigate front door, replicas
# holding an admitted job hard-killed and restarted mid-flight while chaos
# faults (corruption bursts + link deaths) are active inside every
# simulation. Invariants: every job answered byte-identically to an
# uninterrupted run, zero lost jobs, zero re-runs of completed jobs (a
# post-soak resubmission sweep is served entirely from journals — locally
# or via cross-replica peer fetch), and at least one gateway failover. The cluster unit suites (ring
# properties, breaker, gateway routing) and the arigate lifecycle smoke run
# alongside.
cluster-soak:
	go test -race -count=1 ./internal/cluster ./cmd/arigate -timeout 15m

# loadtest runs the serving robustness suites under -race: overload (shed
# requests answer 429 + Retry-After and the retrying client still completes
# every job), graceful drain (in-flight jobs finish, goroutine count returns
# to baseline), the kill/restart soak (byte-identical results, no completed
# job re-executed), and the ariserve lifecycle smoke tests (DESIGN.md §9).
loadtest:
	go test -race -count=1 ./internal/serve/... ./cmd/ariserve
	go test -race -count=1 ./internal/exp -run 'Journal|Retr|JobKey'

# obs runs the observability suites under vet + -race: registry/collector
# semantics (incl. the allocation-free sampling guard), the Chrome-trace
# schema fixture, the instrumented-vs-plain byte-identity lock, the
# per-class NetStats counters, the decomposition + SLO-figure goldens and
# their `ariexp -fig decompose|slo` CLI path, the
# /metrics, /debug/nocstate and pprof endpoint tests (DESIGN.md §10), the
# distributed-tracing suites (trace continuation, failover propagation,
# traced-vs-plain byte identity; DESIGN.md §15), and the 2-replica traced
# cluster smoke: one gateway-routed job must export a single schema-valid
# Chrome trace spanning gateway, replica and NoC packets.
obs:
	go vet ./internal/obs ./internal/serve/... ./internal/noc ./internal/exp
	go test -race -count=1 ./internal/obs ./internal/stats
	go test -race -count=1 ./internal/noc -run 'NetStats|VAGrant|Tracer'
	go test -race -count=1 ./internal/exp -run 'Decompose|SLOFigure'
	go test -race -count=1 ./cmd/ariexp -run 'Decompose|SLO'
	go test -race -count=1 ./internal/serve -run 'Metrics|NoCState|Pprof|Observability|Trace|ByteIdentical|DebugEndpoints'
	go test -race -count=1 ./internal/cluster -run 'Trace|RetryAfter|Rollup|ClusterMetrics'

# profile captures CPU and heap profiles of a representative simulation via
# arisim's -cpuprofile/-memprofile flags; inspect with `go tool pprof`.
profile:
	go run ./cmd/arisim -bench bfs -scheme Ada-ARI -cycles 20000 -warmup 4000 \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof cpu.pprof)"

# fuzz replays the committed corpora and then fuzzes each target briefly.
fuzz:
	go test ./internal/core -run FuzzConfigValidate -fuzz FuzzConfigValidate -fuzztime 15s
	go test ./internal/trace -run FuzzKernelValidate -fuzz FuzzKernelValidate -fuzztime 15s
	go test ./internal/analytic -run FuzzEstimatorProperties -fuzz FuzzEstimatorProperties -fuzztime 15s
