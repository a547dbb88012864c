# Standard development targets. `make ci` is the gate every change must
# pass; it runs scripts/ci.sh, the one list of CI gates (fmt, build, vet,
# lint, the race-detector suite, fuzz, repro, benchmark gates, api-check,
# fleetcheck, learncheck, loadcheck, size), where each gate is defined
# once. The gate
# targets below delegate to it; the rest are development helpers.

GO ?= go
export GO

# Report path for bench-compact, bench-learn and loadcheck; empty means
# the gate checks without refreshing a committed report.
OUT ?=

.PHONY: all fmt build vet qosvet lint test race repro bench bench-smoke bench-compact bench-learn fuzz api api-check loadcheck fleetcheck learncheck size ci

all: ci

fmt build vet lint race repro bench-smoke api-check fleetcheck learncheck size:
	scripts/ci.sh $@

# qosvet is the project-specific invariant suite (internal/lint):
# determinism, Q15 saturation, obs naming, error wrapping, lock order,
# goroutine lifecycles. `make lint` runs it over the tree through the
# standard vet driver, so diagnostics carry file:line and the run is
# cached per package.
bin/qosvet: $(wildcard internal/lint/*.go cmd/qosvet/*.go) go.mod
	$(GO) build -o bin/qosvet ./cmd/qosvet

qosvet: bin/qosvet

test:
	$(GO) test ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Compacted Q15 kernel vs the pointer-walking reference: fails if the
# kernel is not faster. `make bench-compact OUT=BENCH_compact_retrieval.json`
# refreshes the committed report.
#
# Live-mutation read-path gate: fails if enabling learning slows reads
# beyond noise. `make bench-learn OUT=BENCH_learn_churn.json` refreshes
# the committed report.
#
# End-to-end qosd/qosload smoke. `make loadcheck OUT=.` refreshes the
# committed BENCH_qosd_*.json reports.
bench-compact bench-learn loadcheck:
	scripts/ci.sh $@ $(OUT)

# Fuzz pass over every decoder, FUZZTIME per target (the fuzz gate in
# scripts/ci.sh, which `make ci` runs at 5s); lengthen it for a real hunt.
FUZZTIME ?= 30s
fuzz:
	scripts/ci.sh fuzz $(FUZZTIME)

# Regenerate the committed API-surface snapshot after a deliberate
# exported-surface change; api-check is the CI half that fails on drift.
api:
	$(GO) doc -all . > api.txt

ci:
	scripts/ci.sh
