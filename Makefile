GO ?= go

## BENCH_BASELINE: the committed benchmark baseline that bench-json writes
## and bench-diff compares against. Defaults to the newest BENCH_*.json in
## the repo root; falls back to a date-stamped name when none exists yet.
## Override per-invocation: `make bench-diff BENCH_BASELINE=BENCH_old.json`.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
ifeq ($(BENCH_BASELINE),)
BENCH_BASELINE = BENCH_$(shell date +%Y-%m-%d).json
endif

## STATICCHECK_VERSION: the pinned honnef.co/go/tools release `make
## staticcheck` expects. The target runs the binary when it is on PATH and
## prints a skip note otherwise (the CI image does not ship it and the
## build must not fetch dependencies).
STATICCHECK_VERSION ?= 2025.1

.PHONY: ci build vet test race bench-test bench bench-smoke bench-json bench-diff bench-diff-smoke slo examples-smoke cover cover-baseline chaos staticcheck incident fleetobs fleetobs-smoke flowpipe flowpipe-smoke

## ci: the full tier-1 verify path — vet, build, tests, then the race
## detector over every package (the register bus, clock and telemetry
## recorder are exercised cross-goroutine by design), plus one iteration
## of the core throughput benchmark so datapath regressions that only
## break under -bench are caught here. The slo target gates the paper's
## reaction-latency and false-alarm budgets, and bench-diff-smoke compares
## datapath throughput against the committed baseline in tolerant mode so
## the whole chain fits a CI smoke budget. examples-smoke keeps the
## executable documentation honest, and cover enforces the coverage
## ratchet against COVERAGE_BASELINE. fleetobs-smoke runs the fleet
## telemetry drill at small scale and fails on journal drops, a
## reconciliation mismatch, or a malformed / over-budget metrics scrape.
## flowpipe-smoke proves the pipelined flowgraph scheduler bit-identical to
## the synchronous reference on the host datapath before measuring it.
## bench-test runs the benchmark module's own tests, which `go test ./...`
## cannot reach.
ci: vet staticcheck build test race bench-test bench-smoke slo bench-diff-smoke fleetobs-smoke flowpipe-smoke examples-smoke cover

## staticcheck: zero-findings lint gate, pinned to $(STATICCHECK_VERSION).
## Skips with a note when the binary is absent (no network fetches in CI).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck: $$(staticcheck -version 2>/dev/null)"; \
		staticcheck ./...; \
	else \
		echo "staticcheck: binary not installed; skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench-test: the tests of the benchmark in bench/, a Go module of its
## own: its statistics, a short run of every workload and, through
## TestWorkloadsSmoke, agreement between the traced per-layer replays and
## the untraced program (drift in internal/iperf or internal/experiments
## breaks it).
bench-test:
	cd bench && $(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem

## bench-smoke: compile-and-run sanity for the benchmark harness — one
## iteration of the core datapath benchmarks, no timing claims.
bench-smoke:
	$(GO) test -run='^$$' -bench='CorePerSample|CoreDatapath' -benchtime=1x .

## bench-json: write the machine-readable benchmark baseline
## ($(BENCH_BASELINE)). Refuses to overwrite an existing baseline or to
## record one from a dirty working tree unless FORCE=1 is set — a baseline
## must correspond to a commit, or bench-diff compares against nothing
## reproducible.
bench-json:
	@if [ -z "$(FORCE)" ] && ! git diff --quiet HEAD 2>/dev/null; then \
		echo "bench-json: working tree is dirty; commit first or set FORCE=1" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/experiments -bench-json $(BENCH_BASELINE) $(if $(FORCE),-force)

## bench-diff: measure the current tree and fail on regression against the
## baseline — full mode: 300 ms throughput windows with a 0.60 ratio floor
## plus exact re-verification of every seeded figure in the baseline.
bench-diff:
	$(GO) run ./cmd/experiments -bench-diff $(BENCH_BASELINE)

## bench-diff-smoke: the tolerant variant used by `make ci` — short
## throughput windows and a loose ratio floor (catches order-of-magnitude
## datapath regressions without false-failing on loaded machines), no
## figure re-runs.
bench-diff-smoke:
	$(GO) run ./cmd/experiments -bench-diff $(BENCH_BASELINE) -tolerant

## slo: evaluate the paper-derived service-level budgets (reaction p99
## within Ten_det + Tinit + front-end group delay, late-jam fraction,
## false-alarm rate, journal drops) on seeded runs; violations exit 1.
slo:
	$(GO) run ./cmd/experiments -run slo

## chaos: run the fault-injection campaign sweep (control + every fault
## class at severities 1..3) against the datapath invariant catalog; any
## broken invariant, or any blemish on the zero-fault control row, exits 1.
chaos:
	$(GO) run ./cmd/experiments -run chaos

## fleetobs: the fleet observability drill — 256 concurrent cells through
## the sharded aggregation plane; verifies bit-for-bit reconciliation of
## every cell against its own recorder, zero journal drops, a lint-clean
## cardinality-bounded scrape, and writes the JSONL fleet ledger
## (fleet_ledger.jsonl, byte-stable per seed modulo wall_ms).
fleetobs:
	$(GO) run ./cmd/experiments -run fleetobs

## fleetobs-smoke: the CI-sized variant — 24 cells, same acceptance checks
## (reconciliation, zero drops, well-formed scrape), no ledger file.
fleetobs-smoke:
	$(GO) run ./cmd/experiments -run fleetobs -fleet-cells 24 -fleet-out ""

## flowpipe: the flowgraph scheduler comparison (EXPERIMENTS.md E20) —
## proves the backpressured pipeline runtime bit-identical to the
## synchronous reference on the host datapath at every chunk size, then
## reports both schedulers' Msps and the ring stall counters. Paper-scale
## streams via FULL=1.
flowpipe:
	$(GO) run ./cmd/experiments -run flowpipe $(if $(FULL),-full)

## flowpipe-smoke: the CI-sized variant — same bit-exactness gate on the
## default (reduced) stream budget; any scheduler divergence exits 1.
flowpipe-smoke:
	$(GO) run ./cmd/experiments -run flowpipe

## incident: the flight-recorder drill (EXPERIMENTS.md E16) — replay a
## seeded SLO breach through the breach→dump path twice and require the
## two incident dumps to be byte-identical; the dump lands in
## incident_dump.json.
incident:
	$(GO) run ./cmd/experiments -run incident

## examples-smoke: run every example program end to end and require a clean
## exit — the examples are executable documentation and must not rot.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

## cover: the coverage ratchet. Measures statement coverage across
## ./internal/... and fails if the total drops more than half a point below
## the committed COVERAGE_BASELINE. When coverage genuinely improves,
## re-record the floor: `make cover-baseline`.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	baseline=$$(cat COVERAGE_BASELINE); \
	echo "cover: total $$total% (baseline $$baseline%, tolerance 0.5pt)"; \
	awk -v t=$$total -v b=$$baseline 'BEGIN { exit !(t+0.5 >= b) }' || { \
		echo "cover: coverage regressed more than 0.5pt below the $$baseline% baseline" >&2; \
		exit 1; \
	}

## cover-baseline: re-record the coverage floor from the current tree.
cover-baseline:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }' > COVERAGE_BASELINE
	@echo "cover-baseline: $$(cat COVERAGE_BASELINE)% recorded"
