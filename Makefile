GO ?= go

.PHONY: all build test race goroutine-audit vet lint lint-bench lint-fix-audit escape-audit escape-audit-check fuzz-smoke bench bench-speed bench-compare bench-check trace-smoke metrics-baseline metrics-compare serve-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Dump every `go` statement in the repository with the termination signal
# the goroutinelife analyzer recognized, and assert none is signal-less.
# The one allowed exception is the serve-until-process-exit HTTP server in
# cmd/secmemsim, which carries a reviewed //secmemlint:ignore; any other
# signal=none line is a goroutine that could outlive its work.
goroutine-audit:
	@out=$$($(GO) run ./cmd/secmemlint -dump-goroutines ./...); \
	echo "$$out"; \
	bad=$$(echo "$$out" | grep -v '^cmd/secmemsim/main.go:' | grep 'signal=none' || true); \
	if [ -n "$$bad" ]; then \
		echo "goroutine-audit: goroutine(s) without a recognized termination signal:"; \
		echo "$$bad"; exit 1; \
	fi; \
	echo "goroutine-audit: ok"

vet:
	$(GO) vet ./...

# Domain-specific crypto-invariant analyzers; see internal/lint and the
# "Static analysis & invariants" sections of README.md / DESIGN.md.
lint:
	$(GO) run ./cmd/secmemlint ./...

# Wall-time of a full-repository lint run (load + typecheck + call graph +
# interprocedural summary fixpoint + all fourteen analyzers); every iteration
# asserts the 5s budget, guarding against the suite becoming too slow to
# keep in the default CI path.
lint-bench:
	$(GO) test -run='^$$' -bench=BenchmarkLintRepo -benchtime=3x ./internal/lint

# Every "//secmemlint:ignore" suppression with file:line, analyzers, and
# the mandatory reason — the reviewable allowlist of deliberate exceptions.
lint-fix-audit:
	$(GO) run ./cmd/secmemlint -suppressions ./...

# Cross-check hotpathalloc's lexical zero-allocation verdicts against the
# compiler's escape analysis: regenerate ESCAPE.json from `go build
# -gcflags=-m` mapped onto the //secmemlint:hotpath closure. Commit the
# diff after a deliberate hot-path change; escape-audit-check (CI) fails
# when the committed artifact is stale or an unsanctioned escape appears.
escape-audit:
	$(GO) run ./cmd/escapeaudit

escape-audit-check:
	$(GO) run ./cmd/escapeaudit -check

# Short native-fuzz passes over the attack surfaces that parse free-form
# input (the lint annotation grammar) and the differential crypto oracle
# (table-driven GF(2^128) multiply vs the bit-serial reference). One -fuzz
# target per `go test` invocation, as the tool requires.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCollectIgnores -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzSecretAnnotation -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzHotpathAnnotation -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzMulTable -fuzztime=10s ./internal/gf128

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Raw-speed artifact: crypto-kernel ns/op (fast path and its oracle) and the
# computed speedups, written to BENCH_speed.json. Compare two artifacts
# (e.g. before/after a kernel change) with bench-compare; kernels slower by
# more than TOL fail. End-to-end wall time and throughput, with their
# spread, come from `bash bench/run.sh`.
bench-speed:
	$(GO) run ./cmd/benchspeed -out BENCH_speed.json

OLD ?= BENCH_speed.json
NEW ?= BENCH_speed.new.json
TOL ?= 0.25
bench-compare:
	$(GO) run ./cmd/benchspeed -compare -tol $(TOL) $(OLD) $(NEW)

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

# Live-exposition smoke: serve a short run on an ephemeral port, scrape
# /metrics mid-run (Prometheus text with secmem_ series), then fetch the
# trace once the run completes. Exercises the publish-don't-share path end
# to end over real HTTP.
SERVE_DIR = /tmp/secmem-serve-smoke
serve-smoke:
	rm -rf $(SERVE_DIR) && mkdir -p $(SERVE_DIR)
	$(GO) build -o $(SERVE_DIR)/secmemsim ./cmd/secmemsim
	@set -e; \
	$(SERVE_DIR)/secmemsim -bench swim -instr 500000 -sample 1000 \
		-serve 127.0.0.1:0 -servefor 8s > $(SERVE_DIR)/out.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^serving observability on http://\([^ ]*\) .*#\1#p' $(SERVE_DIR)/out.log); \
		if [ -n "$$addr" ]; then break; fi; \
		sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then echo "serve-smoke: server never announced its address"; cat $(SERVE_DIR)/out.log; exit 1; fi; \
	curl -fsS "http://$$addr/metrics" > $(SERVE_DIR)/metrics.txt; \
	grep -q '^secmem_' $(SERVE_DIR)/metrics.txt; \
	curl -fsS "http://$$addr/timeseries.json" > $(SERVE_DIR)/ts.json; \
	grep -q '"series"' $(SERVE_DIR)/ts.json; \
	ok=""; \
	for i in $$(seq 1 100); do \
		if curl -fsS "http://$$addr/trace.json" > $(SERVE_DIR)/trace.json 2>/dev/null; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	if [ -z "$$ok" ]; then echo "serve-smoke: /trace.json never became available"; cat $(SERVE_DIR)/out.log; exit 1; fi; \
	grep -q '"traceEvents"' $(SERVE_DIR)/trace.json; \
	curl -fsS "http://$$addr/debug/pprof/cmdline" > /dev/null; \
	kill $$pid 2>/dev/null || true; \
	echo "serve-smoke: ok (live /metrics, /timeseries.json, /trace.json, pprof)"

ci: build vet lint goroutine-audit escape-audit-check test race fuzz-smoke trace-smoke metrics-compare serve-smoke bench-check
