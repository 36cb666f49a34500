package tactic

import (
	"fmt"
	"maps"
	"slices"

	"llmfscq/internal/kernel"
)

// refInstantiateAll is instantiateAll with one substitution walk per
// binder, kept as its reference.
func refInstantiateAll(stmt *kernel.Form, mc *kernel.MetaCounter) []instantiated {
	var out []instantiated
	inst := instantiated{flex: map[string]bool{}}
	f := stmt
	for {
		switch f.Kind {
		case kernel.FForall:
			if f.BType.IsType() {
				f = f.Body
				continue
			}
			m := mc.Fresh(f.Binder)
			inst.flex[m] = true
			inst.metas = append(inst.metas, m)
			f = f.Body.Subst1(f.Binder, kernel.V(m))
		case kernel.FImpl:
			snap := inst
			snap.concl = f
			snap.prems = append([]*kernel.Form(nil), inst.prems...)
			out = append(out, snap)
			inst.prems = append(inst.prems, f.L)
			f = f.R
		case kernel.FNot:
			snap := inst
			snap.concl = f
			snap.prems = append([]*kernel.Form(nil), inst.prems...)
			out = append(out, snap)
			inst.prems = append(inst.prems, f.L)
			f = kernel.False()
		default:
			inst.concl = f
			out = append(out, inst)
			return out
		}
	}
}

// CheckInstantiation compares instantiateAll with the per-binder walk on
// stmt, and instantiate with the walk's last instantiation, all three
// counters having already issued skip metavariables: every premise boundary
// must carry the same metavariables and flex set, and pointer-equal
// premises and conclusion, and each counter must be left where the
// reference's is.
func CheckInstantiation(stmt *kernel.Form, skip int) error {
	var mc, one, ref kernel.MetaCounter
	for i := 0; i < skip; i++ {
		mc.Fresh("z")
		one.Fresh("z")
		ref.Fresh("z")
	}
	got, want := instantiateAll(stmt, &mc, new(kernel.Scratch)), refInstantiateAll(stmt, &ref)
	if len(got) != len(want) {
		return fmt.Errorf("%d instantiations, want %d", len(got), len(want))
	}
	for i := range got {
		if err := sameInstantiation(got[i], want[i]); err != nil {
			return fmt.Errorf("instantiation %d: %v", i, err)
		}
	}
	if err := sameInstantiation(instantiate(stmt, &one, nil, map[string]bool{}, instantiated{}), want[len(want)-1]); err != nil {
		return fmt.Errorf("instantiate: %v", err)
	}
	fw := ref.Fresh("z")
	if fg := mc.Fresh("z"); fg != fw {
		return fmt.Errorf("counter left at %s, want %s", fg, fw)
	}
	if fo := one.Fresh("z"); fo != fw {
		return fmt.Errorf("instantiate left its counter at %s, want %s", fo, fw)
	}
	return nil
}

func sameInstantiation(g, w instantiated) error {
	switch {
	case !slices.Equal(g.metas, w.metas):
		return fmt.Errorf("metas %v, want %v", g.metas, w.metas)
	case !maps.Equal(g.flex, w.flex):
		return fmt.Errorf("flex %v, want %v", g.flex, w.flex)
	case g.concl != w.concl:
		return fmt.Errorf("conclusion %s, want %s", g.concl, w.concl)
	case !slices.Equal(g.prems, w.prems):
		return fmt.Errorf("premises %v, want %v", g.prems, w.prems)
	}
	return nil
}

// CheckLia runs omega and its reference, refLia, on g and returns the
// reference's outcome class ("proved", "not linear" or "fails"), with an
// error when omega's class differs.
func CheckLia(g *Goal) (string, error) {
	_, err := tacLia(nil, g)
	_, ref := refLia(nil, g)
	got, want := liaClass(err), liaClass(ref)
	if got != want {
		return want, fmt.Errorf("omega: %s, reference: %s", got, want)
	}
	return want, nil
}

func liaClass(err error) string {
	switch err {
	case nil:
		return "proved"
	case errNotLinear:
		return "not linear"
	case errLiaFails:
		return "fails"
	}
	return err.Error()
}
