GO ?= go

## STATICCHECK_VERSION: the pinned honnef.co/go/tools release `make
## staticcheck` expects. The target runs the binary when it is on PATH and
## prints a skip note otherwise (the CI image does not ship it and the
## build must not fetch dependencies).
STATICCHECK_VERSION ?= 2025.1

.PHONY: ci build cross vet test race fuzz-smoke bench-test bench bench-smoke bench-pairs full-check overhead slo examples-smoke cover cover-baseline chaos staticcheck incident fleetobs fleetobs-smoke unlinked

## ci: the full tier-1 verify path — vet, build, tests, then the race
## detector over every package (the register bus, clock and telemetry
## recorder are exercised cross-goroutine by design), plus one iteration
## of the core throughput benchmark so datapath regressions that only
## break under -bench are caught here. The slo target gates the paper's
## reaction-latency and false-alarm budgets, and overhead bounds the cost
## of live telemetry on quiet blocks. Every seeded figure is pinned
## by the golden in `go test ./...` (internal/experiments/testdata/
## figures.golden). Throughput across commits is judged by the benchmark
## in bench/. examples-smoke keeps the executable documentation honest,
## and cover enforces the coverage ratchet against COVERAGE_BASELINE.
## fleetobs-smoke runs the fleet telemetry drill at small scale and fails
## on journal drops, a reconciliation mismatch, or a malformed /
## over-budget metrics scrape.
## bench-test runs the benchmark module's own tests, which `go test ./...`
## cannot reach. unlinked fails on a function no binary links. fuzz-smoke
## fuzzes the block datapath, the WGN generator, the resampler and the
## sign-bit slicer against their references briefly. cross builds and vets the other-architecture paths.
ci: vet staticcheck build cross test race fuzz-smoke bench-test bench-smoke slo overhead fleetobs-smoke examples-smoke cover unlinked

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

## cross: build everything for arm64 and vet the four packages with amd64
## assembly, so their Go fallbacks (popcnt_other.go, wgn_other.go,
## resample_other.go, sign_other.go) compile and vet too. It needs no arm64
## toolchain beyond the Go one.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/xcorr ./internal/jammer ./internal/dsp ./internal/fixed

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz-smoke: 5 s of fuzzing on each differential target of the block
## datapath: the correlator's packed kernel, per sample and as two blocks
## at a fuzzed split, against the scalar Reference (FuzzPackedVsReference),
## the core's block path against its per-sample path (FuzzProcessBlock),
## and the WGN burst generator's fill, on each of its loops, against its
## per-sample sample() (FuzzWGNFill), and the receive front end's two
## kernels on raw float bits: the resampler, each loop against the other and
## the sliding reference (FuzzResampler), and the sign-bit slicer, each loop
## against Quantize (FuzzSignBits). An input that breaks one is written to
## the package's testdata/fuzz and fails the run. Each new interesting
## input is minimized once (-fuzzminimizetime=1x) on the targets whose
## default minimization, on a fresh fuzz cache, held off new executions for
## most of the 5 s; FuzzWGNFill ran at full rate without it.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzPackedVsReference$$' -fuzztime=5s -fuzzminimizetime=1x ./internal/xcorr
	$(GO) test -run='^$$' -fuzz='^FuzzProcessBlock$$' -fuzztime=5s -fuzzminimizetime=1x ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzWGNFill$$' -fuzztime=5s ./internal/jammer
	$(GO) test -run='^$$' -fuzz='^FuzzResampler$$' -fuzztime=5s -fuzzminimizetime=1x ./internal/dsp
	$(GO) test -run='^$$' -fuzz='^FuzzSignBits$$' -fuzztime=5s -fuzzminimizetime=1x ./internal/fixed

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
## iteration of the core datapath benchmarks, of the correlator's block
## kernel on each of its loops, of the victim receiver's hard and soft
## benchmarks, of the channel-noise and resampler kernels every figure
## shares and of the sign-bit slicer, no timing claims.
bench-smoke:
	$(GO) test -run='^$$' -bench='CorePerSample|CoreDatapath' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkProcessPacked$$' -benchtime=1x ./internal/xcorr
	$(GO) test -run='^$$' -bench='RxFrame|Demodulate' -benchtime=1x ./internal/wifi
	$(GO) test -run='^$$' -bench='^(BenchmarkResampler|BenchmarkNoiseAddTo)$$' -benchtime=1x ./internal/dsp
	$(GO) test -run='^$$' -bench='^BenchmarkSignBits$$' -benchtime=1x ./internal/fixed

## bench-pairs: judge a performance change with the repository benchmark
## in alternating pairs against a parent revision (scripts/benchpairs.sh):
## per run the calibrated and wall-clock throughput and cal_ms, per side
## the calibration loop's address. The defaults compare the working tree
## with HEAD; e.g. `make bench-pairs BENCH_PARENT=HEAD~1 BENCH_SEED=11-20`
## runs pair i at seed 10+i.
BENCH_PARENT ?= HEAD
BENCH_PAIRS ?= 10
BENCH_WORKLOAD ?= link-reactive
BENCH_SEED ?= 1
bench-pairs:
	bash scripts/benchpairs.sh $(BENCH_PARENT) $(BENCH_PAIRS) $(BENCH_WORKLOAD) $(BENCH_SEED)

## full-check: the paper-scale figure check (scripts/fullcheck.sh), not
## part of ci: each section of experiments.Figures() alone at -full
## -parallel 1, the sha256 of its record lines against the digest committed
## in cmd/experiments/testdata/full.sha256, with each section's wall-clock.
## A mismatch exits 1; after an intended figure change, re-record the
## digests with `bash scripts/fullcheck.sh -update`.
full-check:
	bash scripts/fullcheck.sh

## unlinked: the dead-code gate (scripts/unlinked.go): every main and
## bench/ built with inlining off, their text symbols diffed against the
## functions declared in the root package and internal/. It exits 1 on a
## function no binary links that is not on the script's allowlist (where
## each one that stays carries its reason), or on a stale allowlist entry.
unlinked:
	$(GO) run scripts/unlinked.go

## overhead: the telemetry-overhead gate — the block datapath with the
## live recorder attached and the fleet plane snapshotting against a bare
## core, 5 interleaved pairs of 300 ms windows; a median above 3% exits 1.
## Its input detects and triggers nothing: it times the quiet-span path,
## not an engagement.
overhead:
	$(GO) run ./cmd/experiments -run overhead

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

## incident: the flight-recorder drill (EXPERIMENTS.md E16) — replay a
## seeded SLO breach through the breach→dump path twice and require the
## two incident dumps to be byte-identical; the dump lands in
## incident_dump.json.
incident:
	$(GO) run ./cmd/experiments -run incident

## examples-smoke: run every example program end to end and require a clean
## exit and stdout equal to its committed examples/<name>/stdout.golden —
## the examples are executable documentation and must not rot. After an
## intended output change, regenerate the goldens with
## `for d in examples/*/; do go run ./$d > ${d}stdout.golden; done`.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		out=$$($(GO) run ./$$d); \
		printf '%s\n' "$$out" | diff -u $${d}stdout.golden -; \
	done

## cover: the coverage ratchet. Measures statement coverage across
## ./internal/... and ./cmd/... (the experiments command and the jamlab
## console) and fails if the total drops more than half a point below the
## committed COVERAGE_BASELINE. When coverage genuinely improves, re-record
## the floor: `make cover-baseline`.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/... ./cmd/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	baseline=$$(cat COVERAGE_BASELINE); \
	echo "cover: total $$total% (baseline $$baseline%, tolerance 0.5pt)"; \
	awk -v t=$$total -v b=$$baseline 'BEGIN { exit !(t+0.5 >= b) }' || { \
		echo "cover: coverage regressed more than 0.5pt below the $$baseline% baseline" >&2; \
		exit 1; \
	}

## cover-baseline: re-record the coverage floor from the current tree.
cover-baseline:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/... ./cmd/...
	@$(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }' > COVERAGE_BASELINE
	@echo "cover-baseline: $$(cat COVERAGE_BASELINE)% recorded"
