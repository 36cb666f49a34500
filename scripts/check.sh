#!/bin/sh
# Extended verification gate: everything the tier-1 gate runs, plus go vet,
# the race detector, and the repository's own static analyzers (cmd/lint).
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || {
	echo "check: FAIL: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
}

# The race run covers the load-bearing regressions, each once:
# TestGoldenDeterminism (shared caches and the grid scheduler give a
# schedule-independent sweep), TestSearchModeEquivalence (a remote search,
# one sentence per round trip, returns the in-process Result), the
# Conformance and Chaos tests of internal/remote (mirror execution, retries
# on a fresh session, local-only degradation) and TestBackendEquivalence
# (the grid over the wire). They are not re-run with their own -run: a new
# flag misses the test cache, so each would execute twice.
echo "==> go test -race ./..."
go test -race ./...

# The race run skips the //go:build !race files, whose tests measure
# allocation and would count the race instrumentation's own: the
# AllocsPerRun zero-allocation tests in internal/kernel and internal/core,
# and internal/eval's bound on the hinted GPT-4o grid. Run them without it.
echo "==> go test -run '^TestAlloc' ./internal/..."
go test -run '^TestAlloc' ./internal/...

# sweepbench/ (the benchmark of record) is its own module, so the root
# ./... never compiles it. Vet and test it here: a change that removes an
# API the benchmark calls then fails this gate, not the benchmark run.
echo "==> (cd sweepbench && go vet ./... && go test ./...)"
(cd sweepbench && go vet ./... && go test ./...)

echo "==> go run ./cmd/lint ./..."
go run ./cmd/lint ./...

# Backend equivalence at full scale. The in-process schedule is held to the
# committed seed-2025 oracle by TestExperimentsMatchOracle, which the race
# run above includes. The remote backend under an enabled fault schedule
# (every site firing) and the proof store must print the same tables byte
# for byte. Stats go to stderr; stdout is the comparable artifact.
oracle=sweepbench/testdata/tables-seed2025.txt
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The chaos schedules. Every site a schedule names must fire, or the
# equivalence it buys is vacuous. Rates apply per request, and the wire
# sends one request per sentence; the rates give each site ~10 or more
# expected hits per run, so a zero means a broken site, not bad luck.
# In the warm-store leg only the mirror re-searches reach the wire, about
# 1/25 of the storeless leg's traffic, so its rates are higher.
chaos='drop-conn=0.00025,stall=0.00003,corrupt-answer=0.0001,partial-write=0.0001'
warmchaos='drop-conn=0.001,stall=0.001,corrupt-answer=0.0005,partial-write=0.0005'

# check_chaos_leg LEG SPEC fails unless LEG's stderr shows a nonzero
# wire-checks count and a nonzero hit count for every site named in SPEC. A
# leg whose documents all ran local-only prints the same tables, so without
# the first test a wire that checked nothing would pass every cmp below.
check_chaos_leg() {
	checks=$(sed -n 's/^backend: wire-checks=\([0-9]*\) .*$/\1/p' "$tmp/$1.err")
	[ "${checks:-0}" -gt 0 ] || {
		cat "$tmp/$1.err" >&2
		echo "check: FAIL: chaos leg $1 checked nothing on the wire (wire-checks=${checks:-missing})" >&2
		exit 1
	}
	line=$(grep '^backend: fault hits ' "$tmp/$1.err") || {
		echo "check: FAIL: chaos leg $1 printed no fault-hits line" >&2
		exit 1
	}
	for site in $(echo "$2" | tr ',' ' '); do
		site=${site%%=*}
		case " ${line#backend: fault hits } " in
		*" $site=0 "*)
			echo "check: FAIL: chaos leg $1: fault site $site never fired ($line)" >&2
			exit 1
			;;
		*" $site="*) ;;
		*)
			echo "check: FAIL: chaos leg $1: no hit count for fault site $site ($line)" >&2
			exit 1
			;;
		esac
	done
	echo "check: chaos leg $1: wire-checks=$checks; ${line#backend: }"
}

# store_stat LEG FIELD prints the number FIELD holds in LEG's cache-stats
# line (empty when the line or the field is missing).
store_stat() {
	sed -n 's/^{"event":"cache-stats".*"'"$2"'":\([0-9]*\).*$/\1/p' "$tmp/$1.err"
}

# check_store_stats LEG KIND fails unless LEG's cache-stats line shows that
# the store did its part. A populate leg must record every outcome that
# missed and drop none. A warm leg must miss nothing, hit, and agree on
# every mirror check. Live searches print the same tables, so without this
# a store that silently stopped serving would pass every cmp below.
check_store_stats() {
	hits=$(store_stat "$1" outcome_hits)
	misses=$(store_stat "$1" outcome_misses)
	recorded=$(store_stat "$1" recorded)
	dropped=$(store_stat "$1" dropped)
	checks=$(store_stat "$1" mirror_checks)
	mismatches=$(store_stat "$1" mirror_mismatches)
	stats="hits=$hits misses=$misses recorded=$recorded dropped=$dropped mirror_checks=$checks mirror_mismatches=$mismatches"
	if [ "$2" = populate ]; then
		[ "${misses:-0}" -gt 0 ] && [ "$recorded" = "$misses" ] && [ "$dropped" = 0 ]
	else
		[ "$misses" = 0 ] && [ "${hits:-0}" -gt 0 ] && [ "$mismatches" = 0 ]
	fi || {
		cat "$tmp/$1.err" >&2
		echo "check: FAIL: store leg $1 ($2): $stats" >&2
		exit 1
	}
	echo "check: store leg $1: $stats"
}

echo "==> experiments -backend=remote (chaos schedule)"
go run ./cmd/experiments -seed 2025 -backend=remote -wire-timeout 150ms \
	-faults "$chaos" >"$tmp/chaos.out" 2>"$tmp/chaos.err" || {
	cat "$tmp/chaos.err" >&2
	exit 1
}
check_chaos_leg chaos "$chaos"

# Persistent proof cache: a cold populate, a warm re-run answering from the
# store, and a warm run under wire chaos must all print the oracle's bytes —
# the warm path changes latency, never tables — and every run's mirror
# sample cross-checks persisted records against live recomputation (a
# mismatch exits nonzero). Each leg keeps its stderr, and its cache-stats
# line must show the store was used.
echo "==> experiments -proof-cache (cold populate)"
go run ./cmd/experiments -seed 2025 -proof-cache "$tmp/pcache" \
	>"$tmp/pcache-cold.out" 2>"$tmp/pcache-cold.err" || {
	cat "$tmp/pcache-cold.err" >&2
	exit 1
}
check_store_stats pcache-cold populate
echo "==> experiments -proof-cache (warm re-run)"
go run ./cmd/experiments -seed 2025 -proof-cache "$tmp/pcache" \
	>"$tmp/pcache-warm.out" 2>"$tmp/pcache-warm.err" || {
	cat "$tmp/pcache-warm.err" >&2
	exit 1
}
check_store_stats pcache-warm warm
echo "==> experiments -proof-cache + remote chaos (warm store, faulted wire)"
go run ./cmd/experiments -seed 2025 -proof-cache "$tmp/pcache" \
	-backend=remote -wire-timeout 150ms -faults "$warmchaos" \
	>"$tmp/pcache-chaos.out" 2>"$tmp/pcache-chaos.err" || {
	cat "$tmp/pcache-chaos.err" >&2
	exit 1
}
check_store_stats pcache-chaos warm
check_chaos_leg pcache-chaos "$warmchaos"
for leg in chaos pcache-cold pcache-warm pcache-chaos; do
	cmp "$oracle" "$tmp/$leg.out" || {
		echo "check: FAIL: leg $leg tables differ from $oracle" >&2
		exit 1
	}
done
echo "check: backend equivalence holds (oracle = remote+chaos = proof-cache cold/warm/chaos)"

echo "check: all gates passed"
