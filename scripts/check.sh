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

echo "==> go test -race ./..."
go test -race ./...

# sweepbench/ (the benchmark of record) is its own module, so the root
# ./... never compiles it. Vet and test it here: a change that removes an
# API the benchmark calls then fails this gate, not the benchmark run.
echo "==> (cd sweepbench && go vet ./... && go test ./...)"
(cd sweepbench && go vet ./... && go test ./...)

# The golden determinism test is the load-bearing regression for the
# performance layer (shared caches + grid scheduler); run it explicitly
# under the race detector so a green gate always implies a racing-free,
# schedule-independent sweep even if the package list above changes.
echo "==> go test -race -run TestGoldenDeterminism ./internal/eval"
go test -race -run 'TestGoldenDeterminism$' ./internal/eval

# The search-mode equivalence test is the load-bearing regression for the
# search's execution strategies: batched wire execution must produce the
# exact Result the lazy in-process search produces, under the race
# detector.
echo "==> go test -race -run TestSearchModeEquivalence ./internal/core"
go test -race -run 'TestSearchModeEquivalence$' ./internal/core

# The conformance + chaos suite is the load-bearing regression for the
# remote backend (mirror execution, retries on a fresh session, local-only
# degradation): run the wire conformance and chaos tests explicitly under
# the race detector, plus the grid-level backend equivalence test.
echo "==> go test -race -run 'Conformance|Chaos' ./internal/remote"
go test -race -run 'Conformance|Chaos' ./internal/remote

echo "==> go test -race -run TestBackendEquivalence ./internal/eval"
go test -race -run 'TestBackendEquivalence$' ./internal/eval

echo "==> go run ./cmd/lint ./..."
go run ./cmd/lint ./...

# The typed tier alone, pinned against the ratchet baseline: any hot-path
# allocation, kernel mutation, atomic/plain mix, or dropped error that is
# not already frozen in lint_baseline.json fails the gate.
echo "==> go run ./cmd/lint -family typed -baseline lint_baseline.json ./..."
go run ./cmd/lint -family typed -baseline lint_baseline.json ./...

# The allocs/op ratchet: the frozen hot-path-allocation debt may only
# shrink. 296 is the count since the remote backend's session pool and
# circuit breaker (and the closure that built them) were deleted; a change
# that pushes it back up must instead fix the allocation it introduced.
hotdebt=$(grep -c '"analyzer": "hotpathalloc"' lint_baseline.json || true)
[ "$hotdebt" -le 296 ] || {
	echo "check: FAIL: hotpathalloc baseline grew to $hotdebt entries (ratchet: <= 296)" >&2
	exit 1
}
echo "check: hotpathalloc baseline at $hotdebt entries (ratchet: <= 296)"

# Backend equivalence at full scale: the complete experiment sweep must
# print byte-identical tables through the in-process backend, the remote
# backend under an enabled fault schedule (every site firing), and the
# proof store. Stats go to stderr; stdout is the comparable artifact.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The chaos schedules. Every site a schedule names must fire, or the
# equivalence it buys is vacuous. The rates give each site ~10 or more
# expected hits per run, so a zero means a broken site, not bad luck.
# In the warm-store leg only the mirror re-searches reach the wire, about
# 1/25 of the storeless leg's traffic, so its rates are higher.
chaos='drop-conn=0.0005,stall=0.00006,corrupt-answer=0.0002,partial-write=0.0002'
warmchaos='drop-conn=0.002,stall=0.002,corrupt-answer=0.001,partial-write=0.001'

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

echo "==> experiments -all -backend=inprocess"
go run ./cmd/experiments -all -seed 2025 >"$tmp/inprocess.out"
echo "==> experiments -all -backend=remote (chaos schedule, batched wire)"
go run ./cmd/experiments -all -seed 2025 -backend=remote -wire-timeout 150ms \
	-faults "$chaos" >"$tmp/chaos.out" 2>"$tmp/chaos.err" || {
	cat "$tmp/chaos.err" >&2
	exit 1
}
check_chaos_leg chaos "$chaos"

# Persistent proof cache: a cold populate, a warm re-run answering from the
# store, and a warm run under wire chaos must all print the same bytes as the
# storeless baseline — the warm path changes latency, never tables — and
# every run's mirror sample cross-checks persisted records against live
# recomputation (a mismatch exits nonzero). Each leg keeps its stderr, and
# its cache-stats line must show the store was used.
echo "==> experiments -all -proof-cache (cold populate)"
go run ./cmd/experiments -all -seed 2025 -proof-cache "$tmp/pcache" \
	>"$tmp/pcache-cold.out" 2>"$tmp/pcache-cold.err" || {
	cat "$tmp/pcache-cold.err" >&2
	exit 1
}
check_store_stats pcache-cold populate
echo "==> experiments -all -proof-cache (warm re-run)"
go run ./cmd/experiments -all -seed 2025 -proof-cache "$tmp/pcache" \
	>"$tmp/pcache-warm.out" 2>"$tmp/pcache-warm.err" || {
	cat "$tmp/pcache-warm.err" >&2
	exit 1
}
check_store_stats pcache-warm warm
echo "==> experiments -all -proof-cache + remote chaos (warm store, faulted wire)"
go run ./cmd/experiments -all -seed 2025 -proof-cache "$tmp/pcache" \
	-backend=remote -wire-timeout 150ms -faults "$warmchaos" \
	>"$tmp/pcache-chaos.out" 2>"$tmp/pcache-chaos.err" || {
	cat "$tmp/pcache-chaos.err" >&2
	exit 1
}
check_store_stats pcache-chaos warm
check_chaos_leg pcache-chaos "$warmchaos"
cmp "$tmp/inprocess.out" "$tmp/chaos.out" || {
	echo "check: FAIL: fault-injected backend tables differ from in-process" >&2
	exit 1
}
for leg in pcache-cold pcache-warm pcache-chaos; do
	cmp "$tmp/inprocess.out" "$tmp/$leg.out" || {
		echo "check: FAIL: proof-cache leg $leg tables differ from storeless baseline" >&2
		exit 1
	}
done
echo "check: backend equivalence holds (in-process = remote-batched+chaos = proof-cache cold/warm/chaos)"

echo "check: all gates passed"
