GO ?= go

.PHONY: all build test race vet lint lint-bench lint-fix-audit fuzz-smoke bench bench-check trace-smoke metrics-baseline metrics-compare ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Domain-specific crypto-invariant analyzers; see internal/lint and the
# "Static analysis & invariants" sections of README.md / DESIGN.md.
lint:
	$(GO) run ./cmd/secmemlint ./...

# Wall-time of a full-repository lint run (load + typecheck + every
# analyzer); every iteration asserts the 5s budget, guarding against the
# suite becoming too slow to keep in the default CI path.
lint-bench:
	$(GO) test -run='^$$' -bench=BenchmarkLintRepo -benchtime=3x ./internal/lint

# Every "//secmemlint:ignore" suppression with file:line, analyzers, and
# the mandatory reason — the reviewable allowlist of deliberate exceptions.
lint-fix-audit:
	$(GO) run ./cmd/secmemlint -suppressions ./...

# Short native-fuzz passes over the attack surfaces that parse free-form
# input (the lint annotation grammar) and the two differential oracles:
# the table-driven GF(2^128) multiply vs the bit-serial reference, and the
# set-associative cache vs a map-plus-list LRU model (every return value,
# eviction and statistic). One -fuzz target per `go test` invocation, as
# the tool requires.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCollectIgnores -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzSecretAnnotation -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzMulTable -fuzztime=10s ./internal/gf128
	$(GO) test -run='^$$' -fuzz=FuzzCacheOracle -fuzztime=10s ./internal/cache

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Fingerprint check of the benchmark in bench/: one untimed rep of each
# workload at seed 2. Every rep's simulated statistics are checked against
# bench/reference.json, and the last output line reports "correct":true
# only if all of them matched, so a host-speed change that moves a
# simulated number fails here. About 35 s on a 2-core host once built.
BENCH_WORKLOADS = resident chase functional campaign
bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		last=$$(bash bench/run.sh --workload $$w --seed 2 --seconds 0 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in \
		*'"correct":true'*) ;; \
		*) echo "bench-check: $$w does not match bench/reference.json"; exit 1 ;; \
		esac; \
	done; \
	echo "bench-check: ok"

# End-to-end observability smoke: run a tiny instrumented simulation with
# time-series sampling, check the metrics/trace/timeseries artifact shape
# with secmemobs -validate (including the sampled counter tracks the trace
# must carry: monotone timestamps, value args, the named tracks present),
# and confirm a repeated run is byte-identical (determinism is part of the
# contract).
SMOKE_DIR = /tmp/secmem-trace-smoke
WANT_TRACKS = bus.util,ctl.fills,ctrcache.hitrate,dram.util,merkle.fetches
trace-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -sample 1000 \
		-metrics $(SMOKE_DIR)/m1.json -trace $(SMOKE_DIR)/t1.json \
		-timeseries $(SMOKE_DIR)/ts1.json -timeseriescsv $(SMOKE_DIR)/ts1.csv
	$(GO) run ./cmd/secmemobs -metrics $(SMOKE_DIR)/m1.json -trace $(SMOKE_DIR)/t1.json \
		-validate -wanttracks $(WANT_TRACKS)
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -sample 1000 \
		-metrics $(SMOKE_DIR)/m2.json -trace $(SMOKE_DIR)/t2.json \
		-timeseries $(SMOKE_DIR)/ts2.json -timeseriescsv $(SMOKE_DIR)/ts2.csv >/dev/null
	cmp $(SMOKE_DIR)/m1.json $(SMOKE_DIR)/m2.json
	cmp $(SMOKE_DIR)/t1.json $(SMOKE_DIR)/t2.json
	cmp $(SMOKE_DIR)/ts1.json $(SMOKE_DIR)/ts2.json
	cmp $(SMOKE_DIR)/ts1.csv $(SMOKE_DIR)/ts2.csv
	@echo "trace-smoke: ok (valid shape, counter tracks present, deterministic output)"

# Metrics regression gate: BENCH_metrics.json is the committed observability
# baseline for the canonical smoke run (swim, 200k instructions, default
# scheme). metrics-compare reruns it and fails if any counter, gauge, or
# histogram drifted beyond METRICS_TOL — the observability analogue of the
# golden-output tests, catching silent instrumentation regressions.
# Regenerate the baseline with metrics-baseline after a deliberate model or
# instrumentation change, and say why in the commit message.
METRICS_TOL ?= 0.02
metrics-baseline:
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -metrics BENCH_metrics.json >/dev/null
	@echo "metrics-baseline: wrote BENCH_metrics.json"

metrics-compare:
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -metrics $(SMOKE_DIR)-fresh.json >/dev/null
	$(GO) run ./cmd/secmemobs -compare -tol $(METRICS_TOL) BENCH_metrics.json $(SMOKE_DIR)-fresh.json

ci: build vet lint test race fuzz-smoke trace-smoke metrics-compare bench-check
