package kernel

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// refFreeVars is the map walk FreeNames replaced, kept as its reference:
// quantifier binders are tracked in a bound set, and terms contribute
// Term.Vars, which excludes match-pattern binders.
func refFreeVars(f *Form) map[string]bool {
	out := map[string]bool{}
	refAddFreeVars(f, out, map[string]bool{})
	return out
}

func refAddFreeVars(f *Form, out, bound map[string]bool) {
	if f == nil {
		return
	}
	addTerm := func(t *Term) {
		for v := range t.Vars() {
			if !bound[v] {
				out[v] = true
			}
		}
	}
	switch f.Kind {
	case FEq:
		addTerm(f.T1)
		addTerm(f.T2)
	case FPred:
		for _, a := range f.Args {
			addTerm(a)
		}
	case FNot:
		refAddFreeVars(f.L, out, bound)
	case FAnd, FOr, FImpl, FIff:
		refAddFreeVars(f.L, out, bound)
		refAddFreeVars(f.R, out, bound)
	case FForall, FExists:
		was := bound[f.Binder]
		bound[f.Binder] = true
		refAddFreeVars(f.Body, out, bound)
		bound[f.Binder] = was
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// bindingGenTerm extends internGenTerm with matches whose patterns bind
// names from the generators' variable pool, so pattern binders shadow free
// occurrences and one another.
func bindingGenTerm(rng *rand.Rand, depth int) *Term {
	if depth <= 0 || rng.Intn(3) != 0 {
		return internGenTerm(rng, depth)
	}
	x := func() *Term { return V(fmt.Sprintf("x%d", rng.Intn(4))) }
	cases := []MatchCase{
		{Pat: A("O"), RHS: bindingGenTerm(rng, depth-1)},
		{Pat: A("S", x()), RHS: bindingGenTerm(rng, depth-1)},
	}
	if rng.Intn(2) == 0 {
		cases = []MatchCase{{Pat: A("pair", x(), x()), RHS: bindingGenTerm(rng, depth-1)}}
	}
	return NewMatch(bindingGenTerm(rng, depth-1), cases)
}

// bindingGenForm extends internGenForm with atoms over bindingGenTerm and
// extra quantifiers over the same pool.
func bindingGenForm(rng *rand.Rand, depth int) *Form {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return Pred("P", bindingGenTerm(rng, 3), bindingGenTerm(rng, 2))
		}
		return internGenForm(rng, 0)
	}
	x := fmt.Sprintf("x%d", rng.Intn(4))
	switch rng.Intn(5) {
	case 0:
		return Forall(x, Ty("nat"), bindingGenForm(rng, depth-1))
	case 1:
		return Exists(x, Ty("nat"), Iff(bindingGenForm(rng, depth-1), bindingGenForm(rng, depth-1)))
	case 2:
		return Or(bindingGenForm(rng, depth-1), Not(bindingGenForm(rng, depth-1)))
	case 3:
		return Eq(bindingGenTerm(rng, depth+1), bindingGenTerm(rng, depth))
	default:
		return internGenForm(rng, depth)
	}
}

// TestFreeNamesMatchesMapWalk checks the memoized free names, FreeVars,
// HasFreeVar and AppendFree against the reference walk on random formulas with
// quantifiers, shadowing and match-pattern binders.
func TestFreeNamesMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	probe := []string{"x0", "x1", "x2", "x3", "p", "y"}
	for i := 0; i < 3000; i++ {
		f := bindingGenForm(rng, 1+rng.Intn(4))
		want := refFreeVars(f)
		got := f.FreeNames()
		if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("%s: FreeNames %q is not a sorted set", f, got)
		}
		if wantNames := sortedKeys(want); !slices.Equal(got, wantNames) {
			t.Fatalf("%s: FreeNames %q, want %q", f, got, wantNames)
		}
		if !slices.Equal(f.FreeNames(), got) {
			t.Fatalf("%s: FreeNames changed on a second call", f)
		}
		occ := f.AppendFree(nil)
		slices.Sort(occ)
		if occ = slices.Compact(occ); !slices.Equal(occ, got) {
			t.Fatalf("%s: AppendFree lists %q, FreeNames %q", f, occ, got)
		}
		if fv := f.FreeVars(); !maps.Equal(fv, want) {
			t.Fatalf("%s: FreeVars %v, want %v", f, fv, want)
		}
		for _, x := range probe {
			if f.HasFreeVar(x) != want[x] {
				t.Fatalf("%s: HasFreeVar(%s) = %v, want %v", f, x, !want[x], want[x])
			}
		}
	}
}

// TestFreeNamesConcurrentFill fills the memos of fresh formulas from several
// goroutines at once: every caller must read the reference set (run under
// -race, this also checks the fill publishes safely).
func TestFreeNamesConcurrentFill(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var forms []*Form
	for i := 0; i < 200; i++ {
		// A name no other test uses keeps every memo unfilled.
		u := V("fill" + strconv.Itoa(i))
		forms = append(forms, And(Pred("Q", u), bindingGenForm(rng, 3)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range forms {
				want := sortedKeys(refFreeVars(f))
				if got := f.FreeNames(); !slices.Equal(got, want) {
					errs <- fmt.Sprintf("%s: FreeNames %q, want %q", f, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestAppendFreeIsLeftToRight pins the order AppendFree lists free
// occurrences in, which rejections rely on to name the leftmost stray
// identifier: left to right with repeats, skipping match-pattern and
// quantifier binders.
func TestAppendFreeIsLeftToRight(t *testing.T) {
	tm := A("plus", V("k"), A("plus", V("dd"), A("plus", V("aa"), V("dd"))))
	if got, want := tm.AppendFree(nil), []string{"k", "dd", "aa", "dd"}; !slices.Equal(got, want) {
		t.Fatalf("term: AppendFree = %q, want %q", got, want)
	}
	m := NewMatch(V("k"), []MatchCase{{Pat: A("S", V("zz")), RHS: A("plus", V("zz"), V("cc"))}})
	if got, want := m.AppendFree(nil), []string{"k", "cc"}; !slices.Equal(got, want) {
		t.Fatalf("match: AppendFree = %q, want %q (zz is a pattern binder)", got, want)
	}
	f := And(Forall("zz", Ty("nat"), Eq(V("zz"), m)), Pred("P", V("bb"), V("aa")))
	if got, want := f.AppendFree(nil), []string{"k", "cc", "bb", "aa"}; !slices.Equal(got, want) {
		t.Fatalf("formula: AppendFree = %q, want %q", got, want)
	}
}

// refFreshName is the FreshName that concatenated each candidate string,
// kept as its reference.
func refFreshName(base string, used map[string]bool) string {
	if base == "" {
		base = "x"
	}
	if !used[base] {
		used[base] = true
		return base
	}
	stem := strings.TrimRight(base, "0123456789")
	start := 0
	if stem == "" {
		stem = "x"
	} else if stem != base {
		if n, err := strconv.Atoi(base[len(stem):]); err == nil {
			start = n + 1
		}
	}
	for i := start; ; i++ {
		cand := stem + strconv.Itoa(i)
		if !used[cand] {
			used[cand] = true
			return cand
		}
	}
}

// TestFreshNameMatchesReference draws random bases and used-sets crowded
// with their numbered variants and checks FreshName picks the reference's
// name and leaves the same set behind.
func TestFreshNameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bases := []string{"", "x", "H", "n", "n1", "IHn", "x9", "123", "m10", "l'", "averyveryverylongbasenamethatexceedsthebuffer7"}
	for i := 0; i < 5000; i++ {
		used := map[string]bool{}
		for j := rng.Intn(12); j > 0; j-- {
			b := bases[rng.Intn(len(bases))]
			stem := strings.TrimRight(b, "0123456789")
			if stem == "" {
				stem = "x"
			}
			switch rng.Intn(3) {
			case 0:
				used[b] = true
			default:
				used[stem+strconv.Itoa(rng.Intn(14))] = true
			}
		}
		base := bases[rng.Intn(len(bases))]
		want := maps.Clone(used)
		wantName := refFreshName(base, want)
		if got := FreshName(base, used); got != wantName || !maps.Equal(used, want) {
			t.Fatalf("FreshName(%q) = %q, want %q (used %v, want %v)", base, got, wantName, used, want)
		}
	}
}
