// Package faultpoint is the deterministic fault-injection layer for the
// remote checking path. Fault sites are compiled in always — the production
// code asks "should this site fire?" at every pass — but a site is inert
// unless a Plan enables it, so the zero configuration has no behavioural
// effect beyond a nil check.
//
// The package is built around three rules:
//
//  1. The site registry is closed. Every site is a package-level Site
//     constant listed in Sites(); Fire panics on anything else, and the
//     `faultpoint` analyzer in internal/analysis rejects call sites that
//     name a site outside the registry. A chaos schedule can therefore be
//     audited by reading one file.
//
//  2. Schedules are seeded. An Injector draws from its own rand.Rand,
//     derived from (plan seed, injector id), so a chaos run is replayable:
//     the same plan, ids, and call sequence fire the same faults.
//
//  3. Observability is built in. Injectors count fires per site, and a Plan
//     aggregates them, so a chaos test can assert that the schedule it asked
//     for actually happened (a suite that passes because no fault fired is
//     vacuous).
package faultpoint

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Site names one fault-injection site. The constants below are the entire
// registry; Fire panics on any other value.
type Site string

// The fault-site registry. Each site models one failure mode of the wire
// between the search and a remote checker:
//
//	DropConn      the connection dies before a request is written
//	Stall         the peer stops answering until the read deadline fires
//	CorruptAnswer the answer arrives with flipped bytes
//	PartialWrite  the connection dies mid-request, after a partial write
const (
	DropConn      Site = "drop-conn"
	Stall         Site = "stall"
	CorruptAnswer Site = "corrupt-answer"
	PartialWrite  Site = "partial-write"
)

// Sites returns the full registry in a fixed order.
func Sites() []Site {
	return []Site{DropConn, Stall, CorruptAnswer, PartialWrite}
}

var registered = func() map[Site]bool {
	m := make(map[Site]bool, len(Sites()))
	for _, s := range Sites() {
		m[s] = true
	}
	return m
}()

// Plan is an enabled fault schedule: a per-site firing rate plus the seed
// all injectors derive from. A nil *Plan is the inert schedule.
type Plan struct {
	seed  int64
	rates map[Site]float64

	mu   sync.Mutex
	hits map[Site]int
}

// ParsePlan parses a schedule spec of the form
//
//	site=rate,site=rate,...
//
// e.g. "drop-conn=0.05,stall=0.02", where rate is a firing probability in
// [0,1]. An empty spec returns the inert nil plan. Unknown sites and rates
// outside [0,1] are errors.
func ParsePlan(seed int64, spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	rates := map[Site]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faultpoint: bad schedule entry %q (want site=rate)", part)
		}
		site := Site(strings.TrimSpace(name))
		if !registered[site] {
			return nil, fmt.Errorf("faultpoint: unknown site %q (registry: %v)", name, Sites())
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("faultpoint: bad rate for %s: %v", site, err)
		}
		if rate < 0 || rate > 1 {
			return nil, fmt.Errorf("faultpoint: rate for %s out of [0,1]: %v", site, rate)
		}
		rates[site] = rate
	}
	if len(rates) == 0 {
		return nil, nil
	}
	return &Plan{seed: seed, rates: rates, hits: map[Site]int{}}, nil
}

// String renders the plan back to spec form (sites in registry order), or
// "" for the inert plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range Sites() {
		rate, ok := p.rates[s]
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", s, rate)
	}
	return b.String()
}

// Injector returns the deterministic injector for one unit of fault scope —
// conventionally one connection — identified by id. The injector's RNG is
// derived from (plan seed, id), so the same plan and id replay the same
// fault sequence regardless of what other injectors do. Safe to call
// concurrently; each injector must then be used from one goroutine, which
// is exactly the one-connection-one-goroutine discipline of the client.
// The inert plan returns the inert (nil) injector.
func (p *Plan) Injector(id int64) *Injector {
	if p == nil {
		return nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", p.seed, id)
	return &Injector{
		plan: p,
		rng:  rand.New(rand.NewSource(int64(h.Sum64()))),
		hits: map[Site]int{},
	}
}

// Hits reports how many times the site fired across all injectors of the
// plan. Nil-safe (always 0 on the inert plan).
func (p *Plan) Hits(site Site) int {
	mustBeRegistered(site)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[site]
}

// TotalHits reports the total number of fired faults across all sites.
func (p *Plan) TotalHits() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.hits {
		n += c
	}
	return n
}

// Injector decides, per fault site, whether the fault fires at this pass.
// The nil injector is inert.
type Injector struct {
	plan *Plan
	rng  *rand.Rand
	hits map[Site]int
}

// Fire reports whether the named site fires now, consuming one RNG draw
// when the site is enabled. Panics on a site outside the registry — the
// registry is closed, and an unknown name is a programming error the
// `faultpoint` lint also catches statically.
func (in *Injector) Fire(site Site) bool {
	mustBeRegistered(site)
	if in == nil {
		return false
	}
	rate, ok := in.plan.rates[site]
	if !ok || rate == 0 {
		return false
	}
	if in.rng.Float64() >= rate {
		return false
	}
	in.hits[site]++
	in.plan.mu.Lock()
	in.plan.hits[site]++
	in.plan.mu.Unlock()
	return true
}

// Hits reports how many times the site fired on this injector.
func (in *Injector) Hits(site Site) int {
	mustBeRegistered(site)
	if in == nil {
		return 0
	}
	return in.hits[site]
}

func mustBeRegistered(site Site) {
	if !registered[site] {
		panic(fmt.Sprintf("faultpoint: site %q is not in the registry %v", site, Sites()))
	}
}
