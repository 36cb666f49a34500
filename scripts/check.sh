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

echo "==> go test -race ./..."
go test -race ./...

# The golden determinism test is the load-bearing regression for the
# performance layer (shared caches + grid scheduler); run it explicitly
# under the race detector so a green gate always implies a racing-free,
# schedule-independent sweep even if the package list above changes.
echo "==> go test -race -run TestGoldenDeterminism ./internal/eval"
go test -race -run 'TestGoldenDeterminism$' ./internal/eval

# The search-mode equivalence test is the load-bearing regression for the
# intra-search parallelism layer (worker-pool expansion, cross-search Try
# memoization, batched wire execution): every mode must produce the exact
# Result the serial search produces, under the race detector.
echo "==> go test -race -run TestSearchModeEquivalence ./internal/core"
go test -race -run 'TestSearchModeEquivalence$' ./internal/core

# The conformance + chaos suite is the load-bearing regression for the
# remote backend (mirror execution, retry/resurrection, breaker): run the
# wire conformance and chaos-determinism tests explicitly under the race
# detector, plus the grid-level backend equivalence test.
echo "==> go test -race -run 'Conformance|Chaos|Breaker' ./internal/remote"
go test -race -run 'Conformance|Chaos|Breaker' ./internal/remote

echo "==> go test -race -run TestBackendEquivalence ./internal/eval"
go test -race -run 'TestBackendEquivalence$' ./internal/eval

# The distributed-sweep suite is the load-bearing regression for the
# coordinator (work-stealing shards, health quarantine, straggler
# re-dispatch, stranded fallback): the grid sharded over a worker fleet —
# healthy, chaotic, or fully dead — must merge to the single-process
# outcomes exactly, under the race detector.
echo "==> go test -race -run 'TestDistributed|TestStranded' ./internal/sweep"
go test -race -run 'TestDistributed|TestStranded' ./internal/sweep

echo "==> go run ./cmd/lint ./..."
go run ./cmd/lint ./...

# The typed tier alone, pinned against the ratchet baseline: any hot-path
# allocation, kernel mutation, atomic/plain mix, or dropped error that is
# not already frozen in lint_baseline.json fails the gate.
echo "==> go run ./cmd/lint -family typed -baseline lint_baseline.json ./..."
go run ./cmd/lint -family typed -baseline lint_baseline.json ./...

# The allocs/op ratchet: the frozen hot-path-allocation debt may only
# shrink. 298 is the count since inversion stopped copying its name set
# per rule; a PR that pushes it back up must instead fix the allocation
# it introduced.
hotdebt=$(grep -c '"analyzer": "hotpathalloc"' lint_baseline.json || true)
[ "$hotdebt" -le 298 ] || {
	echo "check: FAIL: hotpathalloc baseline grew to $hotdebt entries (ratchet: <= 298)" >&2
	exit 1
}
echo "check: hotpathalloc baseline at $hotdebt entries (ratchet: <= 298)"

# Backend equivalence at full scale: the complete experiment sweep must
# print byte-identical tables through the in-process backend, the remote
# wire backend on a clean network, and the remote backend under an enabled
# fault schedule (every site firing). Stats go to stderr; stdout is the
# comparable artifact.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
echo "==> experiments -all -backend=inprocess"
go run ./cmd/experiments -all -seed 2025 >"$tmp/inprocess.out"
echo "==> experiments -all -backend=inprocess (parallel expansion + Try cache)"
go run ./cmd/experiments -all -seed 2025 -search-parallelism=8 -try-cache \
	>"$tmp/parallel.out"
echo "==> experiments -all -backend=remote (clean network, lockstep wire)"
go run ./cmd/experiments -all -seed 2025 -backend=remote -wire-timeout 150ms \
	-wire-batch=false >"$tmp/remote.out"
echo "==> experiments -all -intern=false (hash-consing disabled)"
go run ./cmd/experiments -all -seed 2025 -intern=false >"$tmp/nointern.out"
echo "==> experiments -all -search-arena=false (scratch arenas disabled)"
go run ./cmd/experiments -all -seed 2025 -search-arena=false >"$tmp/noarena.out"
echo "==> experiments -all -backend=remote (chaos schedule, batched wire)"
go run ./cmd/experiments -all -seed 2025 -backend=remote -wire-timeout 150ms \
	-faults 'drop-conn=0.0005,stall=0.00002,corrupt-answer=0.0002,partial-write=0.0002' \
	>"$tmp/chaos.out"
echo "==> experiments -all -workers 4 (distributed sweep, clean fleet)"
go run ./cmd/experiments -all -seed 2025 -workers 4 -wire-timeout 150ms \
	>"$tmp/distributed.out"
echo "==> experiments -all -workers 4 (distributed sweep, fleet chaos: kills + stalls + wire faults)"
go run ./cmd/experiments -all -seed 2025 -workers 4 -wire-timeout 150ms \
	-straggler 100ms \
	-faults 'worker-kill=0.005,worker-stall=0.01,drop-conn=0.002,corrupt-answer=0.0002' \
	>"$tmp/distchaos.out"
# Persistent proof cache: a cold populate, a warm re-run answering from the
# store, and a second warm pass with the store mounted read-only must all
# print the same bytes as the storeless baseline — the warm path changes
# latency, never tables — and every run's mirror sample cross-checks
# persisted records against live recomputation (a mismatch exits nonzero).
echo "==> experiments -all -proof-cache (cold populate)"
go run ./cmd/experiments -all -seed 2025 -try-cache -proof-cache "$tmp/pcache" \
	>"$tmp/pcache-cold.out"
echo "==> experiments -all -proof-cache (warm re-run)"
go run ./cmd/experiments -all -seed 2025 -try-cache -proof-cache "$tmp/pcache" \
	>"$tmp/pcache-warm.out"
echo "==> experiments -all -proof-cache-readonly (second warm pass)"
go run ./cmd/experiments -all -seed 2025 -try-cache -proof-cache "$tmp/pcache" \
	-proof-cache-readonly >"$tmp/pcache-warm2.out"
echo "==> experiments -all -proof-cache + remote chaos (warm store, faulted wire)"
go run ./cmd/experiments -all -seed 2025 -try-cache -proof-cache "$tmp/pcache" \
	-backend=remote -wire-timeout 150ms \
	-faults 'drop-conn=0.0005,stall=0.00002,corrupt-answer=0.0002,partial-write=0.0002' \
	>"$tmp/pcache-chaos.out"
cmp "$tmp/inprocess.out" "$tmp/parallel.out" || {
	echo "check: FAIL: parallel/cached search tables differ from serial" >&2
	exit 1
}
cmp "$tmp/inprocess.out" "$tmp/remote.out" || {
	echo "check: FAIL: remote backend tables differ from in-process" >&2
	exit 1
}
cmp "$tmp/inprocess.out" "$tmp/chaos.out" || {
	echo "check: FAIL: fault-injected backend tables differ from in-process" >&2
	exit 1
}
cmp "$tmp/inprocess.out" "$tmp/nointern.out" || {
	echo "check: FAIL: tables differ with hash-consing disabled" >&2
	exit 1
}
cmp "$tmp/inprocess.out" "$tmp/noarena.out" || {
	echo "check: FAIL: tables differ with scratch arenas disabled" >&2
	exit 1
}
cmp "$tmp/inprocess.out" "$tmp/distributed.out" || {
	echo "check: FAIL: distributed sweep tables differ from in-process" >&2
	exit 1
}
cmp "$tmp/inprocess.out" "$tmp/distchaos.out" || {
	echo "check: FAIL: distributed sweep tables differ under fleet chaos" >&2
	exit 1
}
for leg in pcache-cold pcache-warm pcache-warm2 pcache-chaos; do
	cmp "$tmp/inprocess.out" "$tmp/$leg.out" || {
		echo "check: FAIL: proof-cache leg $leg tables differ from storeless baseline" >&2
		exit 1
	}
done
echo "check: backend equivalence holds (serial = parallel+cached = remote-lockstep = remote-batched+chaos = intern-off = arena-off = distributed = distributed+chaos = proof-cache cold/warm/warm-ro/chaos)"

echo "check: all gates passed"
