#!/bin/sh
# Extended verification gate: everything the tier-1 gate runs, under the
# race detector, plus the allocation tests the race run skips and the full
# binary sweeps. The checks that need no other flags are tier-1 tests and
# have no step of their own here: go vet ./..., gofmt and a run of every
# examples/*/ (the root package's TestVetGofmtAndExamples), the Go
# analyzers of internal/analysis over the type-checked module, tests
# included (TestRepoLintClean), and corpus.Corpus.Lint over the embedded
# corpus (TestEmbeddedCorpusLintClean).
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

# The race run covers the load-bearing regressions, each once:
# TestGoldenDeterminism (shared caches and the grid scheduler give a
# schedule-independent sweep), TestSearchModeEquivalence (a search through
# a document that offers only Try returns the default search's Result),
# internal/protocol's TestWireMatchesTryTactic (recorded Try calls replayed
# on checkerd sessions, one sentence per round trip, answer what
# checker.TryTactic answers; a proxy lagging each Applied key is caught)
# and the root package's TestSweepbenchVetAndTest (sweepbench/, the
# benchmark of record, is its own module, which ./... never compiles; that
# test vets and tests it, so a change to an API the benchmark names fails
# here) and TestVetGofmtAndExamples. They are not re-run with their own -run: a new
# flag misses the test cache, so each would execute twice.
echo "==> go test -race ./..."
go test -race ./...

# The race run skips the //go:build !race files, whose tests measure
# allocation and would count the race instrumentation's own: the
# AllocsPerRun zero-allocation tests in internal/kernel and internal/model
# (a warm Propose) and internal/eval's bound on the hinted GPT-4o grid. Run
# them without it.
echo "==> go test -run '^TestAlloc' ./internal/..."
go test -run '^TestAlloc' ./internal/...

# Proof-store equivalence at full scale. The in-process schedule is held to
# the committed seed-2025 oracle by TestExperimentsMatchOracle, which the
# race run above includes. A cold proof-store populate and a warm re-run
# must print the same tables byte for byte. Stats go to stderr; stdout is
# the comparable artifact.
oracle=sweepbench/testdata/tables-seed2025.txt
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

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

# Persistent proof cache: a cold populate and a warm re-run answering from
# the store must both print the oracle's bytes — the warm path changes
# latency, never tables — and every run's mirror sample cross-checks
# persisted records against live recomputation (a mismatch exits nonzero).
# Each leg keeps its stderr, and its cache-stats line must show the store
# was used.
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
for leg in pcache-cold pcache-warm; do
	cmp "$oracle" "$tmp/$leg.out" || {
		echo "check: FAIL: leg $leg tables differ from $oracle" >&2
		exit 1
	}
done
echo "check: proof-store equivalence holds (oracle = proof-cache cold = proof-cache warm)"

echo "check: all gates passed"
