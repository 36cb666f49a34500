package core

import (
	"sync"

	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
)

// tryShards is the shard count of TryCache. Contention is per-candidate
// (one Get and at most one Put per tactic execution), so a modest power of
// two keeps grid workers off each other's locks.
const tryShards = 64

// stateKey is the strict identity of a parent proof state: the state's
// 128-bit StrictKey, a combine over the kernel's stored structural hashes of
// every goal's variable names and types, hypothesis names and formulas, and
// conclusion. It deliberately does NOT reuse the alpha-insensitive
// fingerprint identity — tactics observe real names ("destruct H0.", the
// fresh names intro picks), so two fingerprint-equal states can react
// differently to the same sentence. Keying on the strict identity makes a
// cache hit sound: the cached Step is the Step this Try would have produced.
//
// The hash is seed-free and deterministic (no per-process maphash seeding),
// so the — never observed, ~2^-128 — collision failure mode is at least
// deterministic run to run.
type stateKey [2]uint64

// tryKey identifies one memoized execution: environment identity, strict
// parent-state key, tactic sentence. The environment enters by pointer —
// restricted environments are built once per run and immutable, so pointer
// identity is exact (two structurally equal envs at different addresses
// cost a miss, never a wrong hit).
type tryKey struct {
	env      *kernel.Env
	state    stateKey
	sentence string
}

type tryShard struct {
	mu                    sync.Mutex
	m                     map[tryKey]checker.Step
	hits, misses, evicted int64
}

// TryCache memoizes tactic executions across the searches that share it:
// (env identity, parent state, sentence) → checker.Step. Vanilla and hint
// settings, neighboring theorems, and ablation variants re-explore heavily
// overlapping state spaces, so the grid shares one TryCache the way it
// shares prompt.Cache.
//
// Soundness: TryTactic is a pure function of (parent, sentence) — the
// timeout is fuel-based, not wall-clock — and states are immutable, so a
// cached Step is byte-for-byte the Step a fresh execution would produce.
// Invalidation: none needed within a run (envs and states never mutate);
// the cache's lifetime is one grid run, so there is nothing to invalidate
// across runs either. Eviction (sized caches only) is therefore also
// harmless to outputs: a dropped entry costs a recompute that produces the
// identical Step.
type TryCache struct {
	shards [tryShards]tryShard
	// shardCap bounds entries per shard (0: unbounded). When a full shard
	// admits a new entry, one arbitrary resident entry is dropped.
	shardCap int
}

// NewTryCache builds an empty, unbounded cache.
func NewTryCache() *TryCache { return NewTryCacheSized(0) }

// NewTryCacheSized builds a cache bounded at roughly four times `hint`
// resident entries (a workload estimate, e.g. from grid dimensions and
// observed hit rates), keeping a misestimate from growing without limit.
// The hint bounds; it does not pre-size: most sweeps resolve far below the
// worst-case estimate (searches stop at proved/stuck long before the query
// limit — the newSeen insight), and eagerly allocating worst-case buckets
// costs more in live heap scanned every GC cycle than growth rehashing
// ever does. hint <= 0 means unbounded.
func NewTryCacheSized(hint int) *TryCache {
	c := &TryCache{}
	per := 16
	if hint > 0 {
		if p := hint / tryShards; p > per {
			per = p
		}
		c.shardCap = 4 * per
	}
	for i := range c.shards {
		c.shards[i].m = make(map[tryKey]checker.Step, 16)
	}
	return c
}

func (c *TryCache) shard(k tryKey) *tryShard {
	return &c.shards[k.state[0]&(tryShards-1)]
}

// Get returns the memoized Step for (env, sk, sentence).
func (c *TryCache) Get(env *kernel.Env, sk stateKey, sentence string) (checker.Step, bool) {
	k := tryKey{env: env, state: sk, sentence: sentence}
	s := c.shard(k)
	s.mu.Lock()
	step, ok := s.m[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return step, ok
}

// Put stores the Step. Successor-state identity memos need no warming here:
// they are atomic and fill lazily in whichever search touches them first.
func (c *TryCache) Put(env *kernel.Env, sk stateKey, sentence string, step checker.Step) {
	k := tryKey{env: env, state: sk, sentence: sentence}
	s := c.shard(k)
	s.mu.Lock()
	if _, exists := s.m[k]; !exists && c.shardCap > 0 && len(s.m) >= c.shardCap {
		for victim := range s.m {
			delete(s.m, victim)
			s.evicted++
			break
		}
	}
	s.m[k] = step
	s.mu.Unlock()
}

// Stats reports lookups served from the cache, entries evicted by the
// capacity bound, and resident entries, for logs and benchmarks.
func (c *TryCache) Stats() (hits, misses, evicted, entries int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evicted += s.evicted
		entries += int64(len(s.m))
		s.mu.Unlock()
	}
	return hits, misses, evicted, entries
}
