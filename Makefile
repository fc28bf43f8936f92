GO ?= go

.PHONY: all build fmt vet test race bench bench-compare lint fuzz-smoke fuzz golden profiles perfbench check clean

all: check

build:
	$(GO) build ./...

# fmt fails when any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs nvlint, the simulator-aware static analyzer (see DESIGN.md §8 and
# §13): determinism, hot-path allocation-freedom, exit-reason exhaustiveness,
# nopanic, and the v2 pipeline contract (cachegen). -unused-directives keeps
# the suppression inventory honest: a //nvlint comment that no longer
# suppresses anything fails the gate. VERBOSE=1 also prints the hot-path call chains and every
# suppressed finding with its justification.
lint:
	$(GO) run ./cmd/nvlint -unused-directives $(if $(VERBOSE),-v,)

# bench runs the harness and hot-path benchmarks: Figure 7 sequential vs
# parallel pool, the allocation-free nested Execute path in both plan modes,
# and the warm workload driver (BenchmarkRunFor, reported in ns/txn). It then regenerates BENCH_10.json, the committed machine-readable
# artifact (per-figure modeled cycles and overheads plus ns/op and allocs/op
# for the pipeline's hot paths, uncached vs replayed).
bench:
	$(GO) test -run='^$$' -bench='BenchmarkFigure7|BenchmarkExecuteNested|BenchmarkExecute/|BenchmarkRunFor' -benchmem ./internal/experiment/ ./internal/hyper/ ./internal/workload/
	$(GO) run ./cmd/nvperf -o BENCH_10.json

# bench-compare re-collects the artifact and gates it against the committed
# BENCH_10.json: Table 3 and delivery-storm cycles must match exactly,
# steady-state replay must stay allocation-free and >= 5x faster than the
# uncached recursion on the L3 forward and L3 timer-delivery paths, and no
# hot-path benchmark may regress more than 20% ns/op.
bench-compare:
	$(GO) run ./cmd/nvperf -compare BENCH_10.json

# FUZZ_TARGETS are the native fuzz targets in internal/check; go test allows
# only one -fuzz per invocation, so fuzz-smoke loops. FUZZTIME=100x bounds
# each target to 100 new inputs beyond the seed corpus — a mutation smoke
# pass, not a campaign; use `make fuzz FUZZTIME=30s` for a real one.
FUZZ_TARGETS := FuzzHistogram FuzzLAPIC FuzzMergeChain FuzzConfigSpace FuzzRestoreSnapshot FuzzStackCell
FUZZTIME ?= 100x

fuzz-smoke fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/check/ -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# golden regenerates the committed experiment fixtures (Table 3, Figures
# 7-10, the per-stage breakdown) in place. Only for deliberate model changes:
# `make check` diffs every fixture byte-for-byte via TestGoldenMatrix, so an
# accidental regeneration fails the gate as a diff in git, not silently.
golden:
	NVSIM_UPDATE_GOLDEN=1 $(GO) test ./internal/experiment/ -run TestGoldenMatrix -count=1

# profiles runs the calibration-profile sweep (internal/profile): every
# registered testbed profile is anchor-validated against live measurement,
# run through the internal/check invariant sweep across the evaluation
# configurations, and held to the paper's metamorphic properties (exit
# multiplication, the DVH reduction) — proving the engine's claims are
# profile-independent while the absolute cycles shift.
profiles:
	$(GO) test ./internal/profile/ -count=1

# perfbench vets and tests the end-to-end benchmark module. It is a separate
# module in an underscore directory, so `go build ./...` and `go test ./...`
# skip it; without this target a mem or experiment API removal could break
# the benchmark unseen. It builds against the parent module through a
# replace directive and needs no network.
perfbench:
	cd _perfbench && $(GO) vet ./... && $(GO) test ./...

# check is the full gate: everything must build, be gofmt-clean, vet clean, lint clean
# under nvlint, pass the test suite under the race detector (the parallel
# harness runs Worlds on multiple goroutines, so -race is part of tier 1,
# not an extra), survive a fuzz smoke pass over the invariant-checker
# targets, hold the committed benchmark baseline (bench-compare), and pass
# the per-profile calibration sweep (profiles), and keep the end-to-end
# benchmark module building (perfbench).
check: build fmt vet lint race fuzz-smoke bench-compare profiles perfbench

clean:
	$(GO) clean ./...
