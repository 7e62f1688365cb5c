GO ?= go

# Seed for `make chaos`; override to explore other fault streams:
#   make chaos LMBENCH_CHAOS_SEED=99
LMBENCH_CHAOS_SEED ?= 1

.PHONY: all build fmt vet test race chaos chaos-net verify bench bench-smoke serve-smoke fleet-smoke store-smoke cache-smoke sweep-smoke calibrate-smoke fuzz-smoke profile

# Benchmarks recorded in BENCH_pr3.json: the Figure-1 sweep plus the
# memory-heavy tables (the simulator hot paths), and the simmem
# micro-benchmarks underneath them.
BENCH_PATTERN ?= Figure1MemoryLatency|Table2MemoryBandwidth|Table5FileReread|Table6CacheParams|Table10ContextSwitch
BENCH_MICRO   ?= LoadL1Hit|LoadFullyAssocHit|ChaseDRAM$$|ChaseDRAMSteady|StreamReadResident|StreamReadSteady
BENCH_COUNT   ?= 5

all: verify

build:
	$(GO) build ./...

# fmt fails when any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The scheduler, timing harness, fault-injection wrapper, wire-chaos
# injector, fleet coordinator, observability layer and results store
# are the concurrency-sensitive packages; run them (including the
# journal, resume, chaos, worker-kill, metrics-scrape, ingest,
# HTTP-cache, drain and chaos-transport suites) under the race
# detector.
race:
	$(GO) test -race ./internal/core/... ./internal/timing/... ./internal/faults/... ./internal/netfaults/... ./internal/obs/... ./internal/fleet/... ./internal/store/... ./internal/unitcache/... ./internal/calibrate/...

# chaos runs the fault-injection scheduler suite on its own, race-
# enabled and verbose, with a fixed seed for reproducible streams.
chaos:
	LMBENCH_CHAOS_SEED=$(LMBENCH_CHAOS_SEED) $(GO) test -race -v -run 'TestChaos' ./internal/faults/

# chaos-net is the distributed-layer failure drill: every publish goes
# through a deterministic lossy proxy (>=10% frame fault rate), the
# store daemon is kill -9'd mid-ingest and restarted on the same
# address, and two identical publishes must still dedupe onto one run
# byte-identical to the committed golden database with a clean scrub.
chaos-net:
	GO="$(GO)" ./scripts/chaos_smoke.sh

# bench measures the hot-path benchmarks ($(BENCH_COUNT) runs each; the
# text logs feed benchstat directly) and condenses them into
# BENCH_pr3.json. Set BENCH_BASELINE to a saved bench_after.txt from a
# baseline tree to include before/after speedups.
#
# The unit-cache evaluation benchmark then runs twice against one cache
# directory — cold (the cache is wiped before every iteration) and warm
# — and benchjson condenses the pair into BENCH_pr8.json, where
# "speedup" is warm-over-cold.
#
# The sweep-planning benchmark also runs twice — exhaustive, then
# adaptive — and benchjson condenses the pair into BENCH_pr9.json,
# where "speedup" is exhaustive-over-adaptive wall time and
# "point_reduction" is the measured-grid-point ratio.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) . | tee bench_after.txt
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem -count $(BENCH_COUNT) ./internal/simmem/ | tee -a bench_after.txt
	$(GO) run ./cmd/benchjson -after bench_after.txt $(if $(BENCH_BASELINE),-before $(BENCH_BASELINE)) -out BENCH_pr3.json
	rm -rf bench_cache_dir
	LMBENCH_UNIT_CACHE_DIR=$$PWD/bench_cache_dir LMBENCH_UNIT_CACHE_COLD=1 \
		$(GO) test -run '^$$' -bench EvaluationUnitCache -count $(BENCH_COUNT) . | tee bench_cache_cold.txt
	LMBENCH_UNIT_CACHE_DIR=$$PWD/bench_cache_dir \
		$(GO) test -run '^$$' -bench EvaluationUnitCache -count $(BENCH_COUNT) . | tee bench_cache_warm.txt
	$(GO) run ./cmd/benchjson -before bench_cache_cold.txt -after bench_cache_warm.txt -out BENCH_pr8.json
	rm -rf bench_cache_dir
	LMBENCH_SWEEP_MODE=exhaustive \
		$(GO) test -run '^$$' -bench Figure1SweepPlanning -count $(BENCH_COUNT) . | tee bench_sweep_exhaustive.txt
	LMBENCH_SWEEP_MODE=adaptive \
		$(GO) test -run '^$$' -bench Figure1SweepPlanning -count $(BENCH_COUNT) . | tee bench_sweep_adaptive.txt
	$(GO) run ./cmd/benchjson -before bench_sweep_exhaustive.txt -after bench_sweep_adaptive.txt -out BENCH_pr9.json

# bench-smoke proves every recorded benchmark still runs (one
# iteration each); part of verify so a refactor cannot silently break
# the measurement harness.
bench-smoke:
	$(GO) test -run '^$$' -bench Figure1MemoryLatency -benchtime 1x . > /dev/null
	LMBENCH_SWEEP_MODE=adaptive \
		$(GO) test -run '^$$' -bench Figure1SweepPlanning -benchtime 1x . > /dev/null
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchtime 1x ./internal/simmem/ > /dev/null
	$(GO) test -run '^$$' -bench CalibrateDRAM -benchtime 1x ./internal/machines/ > /dev/null

# serve-smoke boots a short real run with `-serve` and proves all
# three HTTP endpoints answer while the run is live; part of verify so
# the observability wiring in cmd/lmbench cannot silently rot.
serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

# fleet-smoke is the CLI drill for remote fleet execution: it boots two
# `lmbench -fleet-listen` daemons, runs a short evaluation across both
# with -fleet-connect, kill -9s one daemon after the first unit lands,
# and proves the database is byte-identical to the serial run; part of
# verify so the daemon wiring and redispatch cannot silently rot.
fleet-smoke:
	GO="$(GO)" ./scripts/fleet_smoke.sh

# store-smoke boots a results-store daemon, publishes the same short
# run twice, and proves the service end to end: both publishes dedupe
# onto one content-addressed run, the comparison table
# revalidates to 304, and identical runs report no regressions; part of
# verify so the ingestion wire protocol and the HTTP cache discipline
# cannot silently rot.
store-smoke:
	GO="$(GO)" ./scripts/store_smoke.sh

# cache-smoke proves incremental evaluation through the CLI: a cold
# run fills the unit cache, a warm run executes zero units yet emits a
# byte-identical database, and widening the experiment set recomputes
# only the new units; part of verify so the cache can never silently
# serve stale or divergent results.
cache-smoke:
	GO="$(GO)" ./scripts/cache_smoke.sh

# sweep-smoke proves adaptive sweep planning through the CLI: real
# point savings on the memory sweeps, byte-identical results across
# shard counts, and refusal of the compositions that would corrupt
# planning (chaos faults, cross-mode journal resume); part of verify
# so the planner's wiring cannot silently rot.
sweep-smoke:
	GO="$(GO)" ./scripts/sweep_smoke.sh

# calibrate-smoke proves the machine catalog and the calibrator
# through the CLI: a -profile file run is byte-identical to the
# compiled-in profile's run, and a perturbed profile fitted against a
# measured target database recovers a profile that reproduces the
# target; part of verify so the declarative-profile and calibration
# wiring cannot silently rot.
calibrate-smoke:
	GO="$(GO)" ./scripts/calibrate_smoke.sh

# fuzz-smoke runs each results-codec and store corrupt-shard fuzz
# target briefly over its seed corpus — a CI-sized slice of
# `go test -fuzz`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 2s ./internal/results/
	$(GO) test -run '^$$' -fuzz '^FuzzEntryRoundTrip$$' -fuzztime 2s ./internal/results/
	$(GO) test -run '^$$' -fuzz '^FuzzManifestShard$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzObjectShard$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzIngestStream$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzScrub$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzFragment$$' -fuzztime 2s ./internal/unitcache/
	$(GO) test -run '^$$' -fuzz '^FuzzProfileDecode$$' -fuzztime 2s ./internal/machines/

# profile captures pprof CPU and heap profiles of a representative
# simulated run; inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/lmbench -machine 'Linux/i686' -quiet -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof"

# verify is the tier-1 gate: everything must build, be gofmt-clean, vet clean, pass
# tests, the concurrent scheduler, wire-chaos injector, fleet
# coordinator, observability layer, results store and unit cache must
# be race-clean, the bench harness must run, the -serve endpoints must
# answer during a live run, a remote daemon fleet must produce
# serial-identical bytes through a daemon kill, the results service must
# ingest/serve/revalidate end to end, a warm cached run must be
# byte-identical while executing nothing, the adaptive sweep planner
# must save points and refuse unsafe compositions, the profile
# catalog and calibrator must round-trip and converge, the codecs, scrub
# and cache fragments must survive a fuzz smoke, and the distributed
# layer must converge through wire chaos and a mid-ingest kill.
verify: build fmt vet test race bench-smoke serve-smoke fleet-smoke store-smoke cache-smoke sweep-smoke calibrate-smoke fuzz-smoke chaos-net
