# Standard development targets. `make ci` is the gate every change must
# pass; it runs scripts/ci.sh, the one list of CI gates (build, vet,
# lint, the race-detector suite, benchmark gates, api-check, fleetcheck,
# learncheck, loadcheck). The targets below run single gates by hand.

GO ?= go

.PHONY: all build vet qosvet lint test race bench bench-smoke bench-compact bench-learn fuzz api api-check loadcheck fleetcheck learncheck ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# qosvet is the project-specific invariant suite (internal/lint):
# determinism, Q15 saturation, obs naming, error wrapping, lock order,
# goroutine lifecycles. bin/qosvet is a real file target so lint reuses
# the cached binary when neither the analyzers nor the driver changed;
# lint runs it through the standard vet driver so diagnostics carry
# file:line and the run is cached per package.
bin/qosvet: $(wildcard internal/lint/*.go cmd/qosvet/*.go) go.mod
	$(GO) build -o bin/qosvet ./cmd/qosvet

qosvet: bin/qosvet

lint: bin/qosvet
	$(GO) vet -vettool=$(CURDIR)/bin/qosvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# One iteration of every benchmark in the repo: catches benchmark code
# rot without paying for real measurements. Part of the CI gate.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Compacted-vs-uncompacted retrieval gate: measures both kernels at
# paper scale and fails if the block-compacted path is slower than the
# pointer-walking baseline. `make bench-compact OUT=BENCH_compact_retrieval.json`
# refreshes the committed report.
bench-compact:
	QOS_BENCH_COMPACT=1 QOS_BENCH_OUT=$(OUT) $(GO) test -run TestCompactRetrievalSpeedup -count=1 -v .

# Live-mutation read-path gate: measures the batched read path frozen
# vs with the epoch-snapshot layer enabled (idle and under churn) and
# fails if enabling learning slows reads beyond noise.
# `make bench-learn OUT=BENCH_learn_churn.json` refreshes the report.
bench-learn:
	QOS_BENCH_LEARN=1 QOS_BENCH_OUT=$(OUT) $(GO) test -run TestServeLearnReadPathNoRegression -count=1 -v .

# Short fuzz pass over the decoder; lengthen FUZZTIME for a real hunt.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/cbjson/ -run xxx -fuzz FuzzDecodeCaseBase -fuzztime $(FUZZTIME)

# Regenerate the committed API-surface snapshot after a deliberate
# exported-surface change; api-check is the CI half that fails on drift.
api:
	$(GO) doc -all . > api.txt

api-check:
	$(GO) doc -all . | diff -u api.txt -

# End-to-end qosd/qosload smoke: boots the daemon, runs both bench
# scenarios, checks the BENCH_qosd_*.json schema, replays for identical
# outcome hashes, and SIGTERM-drains cleanly. `make loadcheck OUT=.`
# refreshes the committed reports.
OUT ?=
loadcheck:
	scripts/loadcheck.sh $(OUT)

# Multi-tenant isolation gate: the seeded noisy-neighbor scenario (one
# tenant flooding at ~10× its class budget during a scoped fault storm)
# must leave the degraded tenant's recovery bit-identical to the
# no-neighbor baseline, and the journal hash must match the pinned
# golden (internal/fleet).
fleetcheck:
	$(GO) test -run 'TestFleetNoisyNeighborIsolation|TestFleetCheckGolden|TestFleetReplayBitIdentical' -count=1 ./internal/fleet/

# Live case-base mutation gate (DESIGN.md §14): the pinned E21 epoch
# journal replays bit-identically at any shard count, incremental commits
# match the full rebuild they replaced, retiring a tokenized variant
# never serves a stale bypass, and the churn-under-load stress passes
# under the race detector.
learncheck:
	$(GO) test -run 'TestLearnChurnGoldenReplay|TestLearnChurnShardInvariance' -count=1 ./internal/experiments/
	$(GO) test -race -run TestBuildMatchesFullRebuild -count=1 ./internal/learn/
	$(GO) test -race -run 'TestReplayShardInvariant|TestRetireInvalidatesBypassTokens|TestSwapMatchesFromScratchRebuild|TestLearnChurnRaceStress|TestAllocateNeverAheadOfManager' -count=1 ./internal/serve/

ci:
	scripts/ci.sh
