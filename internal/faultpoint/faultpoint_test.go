package faultpoint

import (
	"strings"
	"testing"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	in := p.Injector(0)
	for i := 0; i < 100; i++ {
		for _, s := range Sites() {
			if in.Fire(s) {
				t.Fatal("inert injector fired")
			}
		}
	}
	if p.Hits(DropConn) != 0 || p.TotalHits() != 0 || in.Hits(Stall) != 0 {
		t.Fatal("inert plan counted hits")
	}
	if p.String() != "" {
		t.Fatalf("inert plan renders %q", p.String())
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan(1, "drop-conn=0.5, stall=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "drop-conn=0.5,stall=0.25" {
		t.Fatalf("round-trip %q", got)
	}
	if p2, err := ParsePlan(1, ""); err != nil || p2 != nil {
		t.Fatalf("empty spec: %v %v", p2, err)
	}
	for _, bad := range []string{"nope=0.5", "drop-conn", "drop-conn=x", "drop-conn=1.5", "drop-conn=-0.1"} {
		if _, err := ParsePlan(1, bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if _, err := ParsePlan(1, "nope=0.5"); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Errorf("unknown-site error should name the registry: %v", err)
	}
}

// The same (seed, id) must replay the same fault sequence; a different id
// must be independent of it.
func TestInjectorDeterminism(t *testing.T) {
	seq := func(seed, id int64) []bool {
		p, err := ParsePlan(seed, "drop-conn=0.3,corrupt-answer=0.3")
		if err != nil {
			t.Fatal(err)
		}
		in := p.Injector(id)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.Fire(DropConn), in.Fire(CorruptAnswer))
		}
		return out
	}
	a, b := seq(7, 3), seq(7, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d", i)
		}
	}
	c := seq(7, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different injector ids produced identical schedules")
	}
}

func TestRatesAndCounters(t *testing.T) {
	p, err := ParsePlan(42, "stall=1,drop-conn=0")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Injector(1)
	for i := 0; i < 10; i++ {
		if !in.Fire(Stall) {
			t.Fatal("rate-1 site did not fire")
		}
		if in.Fire(DropConn) || in.Fire(PartialWrite) {
			t.Fatal("disabled site fired")
		}
	}
	if in.Hits(Stall) != 10 || p.Hits(Stall) != 10 {
		t.Fatalf("stall hits %d/%d", in.Hits(Stall), p.Hits(Stall))
	}
	// Plan-level counters aggregate across injectors.
	in2 := p.Injector(2)
	in2.Fire(Stall)
	if p.Hits(Stall) != 11 || p.TotalHits() != 11 {
		t.Fatalf("aggregate hits %d", p.Hits(Stall))
	}
}

func TestUnregisteredSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fire on an unregistered site did not panic")
		}
	}()
	p, _ := ParsePlan(1, "stall=1")
	p.Injector(0).Fire(Site{})
}
