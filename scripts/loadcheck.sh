#!/bin/sh
# loadcheck: the qosd/qosload end-to-end smoke. Builds both binaries,
# boots a lockstep daemon on a loopback port, runs the two committed
# bench scenarios (zipf hotkey and uniform client mixes), validates the
# emitted BENCH_qosd_*.json against the wire schema, reruns the uniform
# mix ten times longer and requires its p50 to stay within 1.5x (a
# daemon must not slow down with age), replays the zipf
# schedule against a FRESH daemon and requires identical outcome hashes
# (the determinism acceptance check), and finally SIGTERMs a daemon
# with traffic behind it and requires a clean drain (exit 0).
#
# Usage: scripts/loadcheck.sh [outdir]
#   outdir defaults to a temp dir; pass "." to refresh the committed
#   BENCH_qosd_*.json reports at the repo root.
set -eu

PORT="${QOSD_PORT:-7351}"
ADDR="127.0.0.1:$PORT"
URL="http://$ADDR"
OUT="${1:-$(mktemp -d)}"
mkdir -p "$OUT"
# Scratch artifacts (daemon log, replay + drain-probe reports) never go
# to $OUT, so `scripts/loadcheck.sh .` refreshes exactly the two
# committed reports and nothing else.
TMP="$(mktemp -d)"
REQS=600
SEED=1
# Tight admission so the zipf hot client actually sheds: the schedule
# arrives at 2000 req/s of sim time against a 500/s per-client refill.
DAEMON_FLAGS="-lockstep -rate 500 -burst 50"

go build -o bin/qosd ./cmd/qosd
go build -o bin/qosload ./cmd/qosload

DPID=""
# The trap removes the scratch directory but never $OUT, which may be
# the repo root or a directory the caller keeps.
cleanup() {
	[ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

boot() {
	./bin/qosd -addr "$ADDR" $DAEMON_FLAGS >"$TMP/qosd.log" 2>&1 &
	DPID=$!
}

stop() {
	kill -TERM "$DPID"
	wait "$DPID" # a failed drain exits non-zero and fails the script
	DPID=""
}

run_scenario() { # $1 = scenario name, $2 = output file
	./bin/qosload -addr "$URL" -scenario "$1" -mode lockstep \
		-seed "$SEED" -requests "$REQS" -out "$2"
	./bin/qosload -validate "$2"
}

# Scenario runs: each against a fresh daemon so reports are reproducible.
boot
run_scenario zipf "$OUT/BENCH_qosd_zipf.json"
stop

boot
run_scenario uniform "$OUT/BENCH_qosd_uniform.json"
stop

# Age acceptance: a daemon must not slow down as its history grows. The
# uniform scenario at ten times the length, against a fresh daemon, must
# keep its p50 within 1.5x of the short run's. The report goes to $TMP:
# the committed reports stay at $REQS requests.
LONG_REQS=$((REQS * 10))
boot
./bin/qosload -addr "$URL" -scenario uniform -mode lockstep \
	-seed "$SEED" -requests "$LONG_REQS" -out "$TMP/BENCH_qosd_uniform_long.json"
stop
p50() { sed -n 's/.*"p50": *\([0-9.]*\).*/\1/p' "$1" | head -n 1; }
SHORT_P50="$(p50 "$OUT/BENCH_qosd_uniform.json")"
LONG_P50="$(p50 "$TMP/BENCH_qosd_uniform_long.json")"
echo "loadcheck: uniform p50 ${SHORT_P50}us at $REQS requests, ${LONG_P50}us at $LONG_REQS"
awk -v s="$SHORT_P50" -v l="$LONG_P50" 'BEGIN { exit !(l <= 1.5 * s) }' || {
	echo "loadcheck: uniform p50 grew more than 1.5x between $REQS and $LONG_REQS requests" >&2
	exit 1
}

# Determinism acceptance: replaying the same seed against a fresh
# daemon must yield the exact same per-request outcomes (latency aside).
boot
run_scenario zipf "$TMP/BENCH_qosd_zipf_replay.json"
stop
./bin/qosload -compare "$OUT/BENCH_qosd_zipf.json,$TMP/BENCH_qosd_zipf_replay.json"

# Churn determinism: the same zipf schedule with a 20% mutation mix
# interleaved (-churn) against a learning daemon must also replay to
# identical per-request outcomes — fold-point commits are part of the
# deterministic pipeline, not a source of divergence. Reports go to
# $TMP: churn runs are a gate, not a committed artifact.
run_churn() { # $1 = output file
	./bin/qosload -addr "$URL" -scenario zipf -mode lockstep \
		-seed "$SEED" -requests "$REQS" -churn 20 -out "$1"
	./bin/qosload -validate "$1"
}
DAEMON_FLAGS="$DAEMON_FLAGS -learn -learn-fold 32"
boot
run_churn "$TMP/BENCH_qosd_churn.json"
stop
boot
run_churn "$TMP/BENCH_qosd_churn_replay.json"
stop
./bin/qosload -compare "$TMP/BENCH_qosd_churn.json,$TMP/BENCH_qosd_churn_replay.json"
DAEMON_FLAGS="-lockstep -rate 500 -burst 50"

# Drain acceptance: SIGTERM with traffic just behind it must exit 0
# within the drain deadline (stop() already asserts the exit status),
# and the daemon must log its final metrics snapshot.
boot
./bin/qosload -addr "$URL" -scenario uniform -mode lockstep \
	-seed 2 -requests 100 -out "$TMP/BENCH_qosd_drain_probe.json"
stop
grep -q "final metrics snapshot" "$TMP/qosd.log" || {
	echo "loadcheck: drain did not write the final metrics snapshot" >&2
	exit 1
}

echo "loadcheck: ok (reports in $OUT)"
