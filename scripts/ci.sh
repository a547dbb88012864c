#!/bin/sh
# CI gate: build, vet, the qosvet invariant suite, the full test suite
# under the race detector, the retrieval allocation guard, the
# observability golden tests, a one-iteration benchmark smoke pass, the
# benchmark, API, fleet, learn and load gates. This is the one gate
# list: `make ci` runs this script, and it needs nothing but the go tool
# and a POSIX shell.
set -eux

go build ./...
go vet ./...
# qosvet: the project invariant suite (internal/lint) run through the
# standard vet driver, before the race pass — deadlocks and goroutine
# leaks are exactly what -race can't see. Gates determinism
# (wall-clock/map-order), Q15 saturation, obs metric conventions, error
# wrapping, the declared lock hierarchy (locklint, cross-package via
# vetx facts), goroutine lifecycle discipline (leaklint), and stale
# //qosvet:ignore directives (audit mode).
go build -o bin/qosvet ./cmd/qosvet
go vet -vettool="$(pwd)/bin/qosvet" ./...
go test -race ./...
# Allocation guard: a warmed float-engine Retrieve allocates nothing.
# The race detector's instrumentation allocates, so the -race pass skips
# it and it runs here without -race.
go test -run TestEngineRetrieveZeroAllocs -count=1 ./internal/retrieval/
# Observability goldens: deterministic counters and bit-exact replay.
go test -run 'TestObs' ./internal/experiments/
# Every benchmark must still compile and survive one iteration.
go test -run xxx -bench . -benchtime 1x ./...
# Block-compacted retrieval must not be slower than the pointer-walking
# baseline (PR 7 gate; the committed BENCH_compact_retrieval.json is
# refreshed deliberately with `make bench-compact OUT=...`).
QOS_BENCH_COMPACT=1 go test -run TestCompactRetrievalSpeedup -count=1 .
# Enabling the live-mutation layer must not slow the batched read path
# beyond noise (PR 9 gate; the committed BENCH_learn_churn.json is
# refreshed deliberately with `make bench-learn OUT=...`).
QOS_BENCH_LEARN=1 go test -run TestServeLearnReadPathNoRegression -count=1 .
# API-surface gate: the exported facade must match the committed
# snapshot. Regenerate deliberately with `make api` after an intended
# surface change.
go doc -all . | diff -u api.txt - || {
	echo "api.txt is stale: exported API changed; run 'make api' and commit" >&2
	exit 1
}
# Multi-tenant isolation gate: the noisy-neighbor scenario must leave
# the degraded tenant's recovery identical to the no-neighbor baseline
# and reproduce the pinned fleet journal hash (mirrors `make fleetcheck`).
go test -run 'TestFleetNoisyNeighborIsolation|TestFleetCheckGolden|TestFleetReplayBitIdentical' -count=1 ./internal/fleet/
# Live case-base mutation gate (mirrors `make learncheck`): the pinned
# E21 epoch journal replays bit-identically at any shard count,
# incremental commits match the full rebuild they replaced (trees,
# changed counts, errors), retiring a tokenized variant never serves a
# stale bypass, the churn stress passes under the race detector, and
# Allocate never holds candidates from an epoch newer than the manager's.
go test -run 'TestLearnChurnGoldenReplay|TestLearnChurnShardInvariance' -count=1 ./internal/experiments/
go test -race -run TestBuildMatchesFullRebuild -count=1 ./internal/learn/
go test -race -run 'TestReplayShardInvariant|TestRetireInvalidatesBypassTokens|TestSwapMatchesFromScratchRebuild|TestLearnChurnRaceStress|TestAllocateNeverAheadOfManager' -count=1 ./internal/serve/
# qosd/qosload end-to-end smoke: scenario reports validate against the
# wire schema, lockstep replay is outcome-identical, SIGTERM drains
# cleanly. Writes its reports to a temp dir (the committed
# BENCH_qosd_*.json are refreshed deliberately with loadcheck.sh .).
scripts/loadcheck.sh
