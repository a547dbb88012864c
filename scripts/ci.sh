#!/bin/sh
# CI gate: gofmt, build, vet, the qosvet invariant suite, the unused-code
# gate, the full test suite under the race detector, a short fuzz pass over every decoder, the
# allocation guards, the observability golden tests, the bit-identical
# experiment output, a one-iteration benchmark smoke pass, the
# benchmark, API, fleet, learn and load gates, and a size report. This is the one gate list, and
# each gate is defined once, as a function below.
#
#	scripts/ci.sh                    run every gate, in order
#	scripts/ci.sh <gate> [OUT]       run one gate
#
# The Makefile targets of the same names delegate here. bench-compact,
# bench-learn and loadcheck take an optional output path for the report
# they refresh; fuzz takes an optional per-target fuzz time. It needs
# nothing but the go tool (or $GO), gofmt and a POSIX shell, and git
# for the fmt gate and the size report.
set -eux

GO=${GO:-go}
GATES="fmt build vet lint deadcode race fuzz allocs obs repro bench-smoke bench-compact bench-learn api-check fleetcheck learncheck loadcheck size"

# abspath prints $1 made absolute against the working directory, or
# nothing when $1 is empty: go test runs in the package directory, so a
# relative report path must not be handed to it as is.
abspath() {
	case ${1-} in
	'' | /*) printf '%s' "${1-}" ;;
	*) printf '%s/%s' "$(pwd)" "$1" ;;
	esac
}

# Formatting: gofmt must list no tracked .go file, fixtures included.
gate_fmt() {
	unformatted=$(git ls-files '*.go' | xargs gofmt -l)
	if [ -n "$unformatted" ]; then
		echo "gofmt -l lists files that need formatting (run gofmt -w on them):" >&2
		echo "$unformatted" >&2
		exit 1
	fi
}

gate_build() { $GO build ./...; }

gate_vet() { $GO vet ./...; }

# qosvet: the project invariant suite (internal/lint) run through the
# standard vet driver, before the race pass — deadlocks and goroutine
# leaks are exactly what -race can't see. Gates determinism
# (wall-clock/map-order), Q15 saturation, obs metric conventions, error
# wrapping, the declared lock hierarchy (locklint, cross-package via
# vetx facts), goroutine lifecycle discipline (leaklint), and stale
# //qosvet:ignore directives (audit mode).
gate_lint() {
	$GO build -o bin/qosvet ./cmd/qosvet
	$GO vet -vettool="$(pwd)/bin/qosvet" ./...
}

# Unused code: every package-level func, method, type, var and const
# under internal/ must be used by non-test code of this module or of the
# perfbench module, directly or through other used code, unless it
# carries a //qosvet:keep <reason> (internal/lint/deadcode_test.go; the
# fixture test shows the gate failing on seeded dead code and on stale
# or reasonless keeps).
gate_deadcode() { $GO test -run '^TestDeadcode' -count=1 -v ./internal/lint/; }

gate_race() { $GO test -race ./...; }

# Decoder fuzzing: each target, named package:Fuzz function, fuzzes for
# the given time (default 5s), one target per go test run because go
# test fuzzes one target at a time. `make fuzz FUZZTIME=10m` hunts longer.
# Minimization is off (-fuzzminimizetime 0): shrinking the inputs that
# grow from a large seed would otherwise eat a short budget. A crasher
# still fails the run and is still written, unshrunk, to testdata/fuzz.
FUZZ_TARGETS="cbjson:FuzzDecodeCaseBase wire:FuzzDecodeAllocRequest
	wire:FuzzDecodeObserveRequest wire:FuzzDecodeMutationBodies"
gate_fuzz() {
	for t in $FUZZ_TARGETS; do
		$GO test "./internal/${t%%:*}/" -run xxx -fuzz "^${t#*:}\$" -fuzztime "${1:-5s}" -fuzzminimizetime 0
	done
}

# Allocation guards: a warmed float-engine Retrieve allocates nothing,
# a clock tick's walks allocate no more late in a 20k-step run than
# early, and the service's Retrieve, Allocate+Release and RetrieveBatch
# stay at their pinned allocation counts. The race detector's
# instrumentation allocates, so the -race pass skips these checks and
# they run here without -race.
gate_allocs() {
	$GO test -run TestEngineRetrieveZeroAllocs -count=1 ./internal/retrieval/
	$GO test -run TestTickWorkBoundedByHistory -count=1 ./internal/rtsys/
	$GO test -run TestServiceAllocsPinned -count=1 ./internal/serve/
}

# Observability goldens: deterministic counters and bit-exact replay.
gate_obs() { $GO test -run 'TestObs' ./internal/experiments/; }

# Bit-identical results: every experiment's output (E1–E21 and the
# named sweeps) must match the committed REPRO_OUTPUT.txt byte for byte.
# After an intended result change, regenerate it with
# `go run ./cmd/repro > REPRO_OUTPUT.txt` and commit.
gate_repro() { $GO run ./cmd/repro | diff -u REPRO_OUTPUT.txt -; }

# Every benchmark must still compile and survive one iteration.
gate_bench_smoke() { $GO test -run xxx -bench . -benchtime 1x ./...; }

# The compacted Q15 kernel (retrieval.FixedEngine) must be faster than
# the pointer-walking reference it replaced. With an output path it
# refreshes the report: `make bench-compact OUT=BENCH_compact_retrieval.json`.
gate_bench_compact() {
	QOS_BENCH_COMPACT=1 QOS_BENCH_OUT="$(abspath "${1-}")" \
		$GO test -run TestCompactRetrievalSpeedup -count=1 -v ./internal/retrieval/
}

# Enabling the live-mutation layer must not slow the batched read path
# beyond noise. With an output path it refreshes the report:
# `make bench-learn OUT=BENCH_learn_churn.json`.
gate_bench_learn() {
	QOS_BENCH_LEARN=1 QOS_BENCH_OUT="$(abspath "${1-}")" \
		$GO test -run TestServeLearnReadPathNoRegression -count=1 -v .
}

# API-surface gate: the exported facade must match the committed
# snapshot. Regenerate deliberately with `make api` after an intended
# surface change.
gate_api_check() {
	$GO doc -all . | diff -u api.txt - || {
		echo "api.txt is stale: exported API changed; run 'make api' and commit" >&2
		exit 1
	}
}

# Multi-tenant isolation gate: the noisy-neighbor scenario must leave
# the degraded tenant's recovery identical to the no-neighbor baseline
# and reproduce the pinned fleet journal hash (internal/fleet).
gate_fleetcheck() {
	$GO test -run 'TestFleetNoisyNeighborIsolation|TestFleetCheckGolden|TestFleetReplayBitIdentical' -count=1 ./internal/fleet/
}

# Live case-base mutation gate (DESIGN.md §14): the pinned E21 epoch
# journal replays bit-identically at any shard count, incremental
# commits match the full rebuild they replaced (trees, changed counts,
# errors), retiring a tokenized variant never serves a stale bypass, the
# churn stress passes under the race detector, Allocate never holds
# candidates from an epoch newer than the manager's, and inline hits and
# misses answer from the epoch before or after a swap while concurrent
# misses share the epoch's engine through commits and re-instrumenting.
gate_learncheck() {
	$GO test -run 'TestLearnChurnGoldenReplay|TestLearnChurnShardInvariance' -count=1 ./internal/experiments/
	$GO test -race -run TestBuildMatchesFullRebuild -count=1 ./internal/learn/
	$GO test -race -run 'TestReplayShardInvariant|TestRetireInvalidatesBypassTokens|TestSwapMatchesFromScratchRebuild|TestLearnChurnRaceStress|TestAllocateNeverAheadOfManager|TestInlineHitsAcrossEpochSwap|TestConcurrentInlineMisses' -count=1 ./internal/serve/
}

# qosd/qosload end-to-end smoke: scenario reports validate against the
# wire schema, lockstep replay is outcome-identical, SIGTERM drains
# cleanly. Without an output directory it writes its reports to a temp
# dir; `make loadcheck OUT=.` refreshes the committed BENCH_qosd_*.json.
gate_loadcheck() { scripts/loadcheck.sh "$@"; }

# Size report, never a failure: the non-test Go line count (tracked .go
# files outside perfbench/) and the api.txt line count, the two figures
# a change records in CHANGES.md.
gate_size() {
	echo "non-test Go lines: $(git ls-files '*.go' | grep -v -e '^perfbench/' -e '_test\.go$' | xargs cat | wc -l)"
	echo "api.txt lines: $(wc -l <api.txt)"
}

run() {
	case " $GATES " in
	*" $1 "*) ;;
	*)
		echo "ci.sh: unknown gate '$1' (gates: $GATES)" >&2
		exit 2
		;;
	esac
	fn=gate_$(printf '%s' "$1" | tr - _)
	shift
	"$fn" "$@"
}

if [ $# -eq 0 ]; then
	for g in $GATES; do
		run "$g"
	done
else
	run "$@"
fi
