package remote

import (
	"fmt"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/kernel"
)

func renderStep(step checker.Step) string {
	line := fmt.Sprintf("%v goals=%d proved=%v", step.Status, step.NumGoals, step.Proved)
	if step.Status == checker.Applied {
		return line + " fp=" + step.State.Fingerprint()
	}
	return line + " err=" + step.Err.Error()
}

// runScriptBatched drives one document in the same best-first shape as
// runScript, but submits each node's probes (sibling "simpl." plus the
// scripted tactic) as one TryBatch call — the expansion-shaped workload the
// search engine sends when the backend advertises batching. The rendered
// lines are directly comparable to runScript's.
func runScriptBatched(t testing.TB, be checker.Backend, env *kernel.Env, lemma string, script []string) []string {
	t.Helper()
	lem, ok := env.Lemmas[lemma]
	if !ok {
		t.Fatalf("unknown lemma %s", lemma)
	}
	doc, err := be.NewDoc(env, lem.Stmt, lemma)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	bd, ok := doc.(checker.BatchDoc)
	if !ok {
		t.Fatalf("remote backend returned a %T without TryBatch", doc)
	}
	parent := doc.Root()
	var path []string
	var lines []string
	for _, tac := range script {
		var sentences []string
		if !parent.Done() {
			sentences = append(sentences, "simpl.")
		}
		sentences = append(sentences, tac)
		steps := bd.TryBatch(parent, path, sentences)
		for _, s := range steps {
			lines = append(lines, renderStep(s))
		}
		step := steps[len(steps)-1]
		if step.Status == checker.Applied {
			parent = step.State
			path = append(path, tac)
		}
	}
	return lines
}

// TestBatchedBackendDocShape: remote documents offer checker.BatchDoc, so
// the search engine cross-checks a whole expansion in one round trip.
func TestBatchedBackendDocShape(t *testing.T) {
	env, addr := startCheckerd(t)
	lem := env.Lemmas["app_nil_r"]
	doc, err := New(addr, fastTimeout).NewDoc(env, lem.Stmt, "app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	if _, ok := doc.(checker.BatchDoc); !ok {
		t.Fatalf("document %T does not offer checker.BatchDoc", doc)
	}
}

// TestBatchedBackendConformance: the batched wire path reports step streams
// byte-identical to the in-process backend, with every sentence of every
// batch cross-checked clean.
func TestBatchedBackendConformance(t *testing.T) {
	env, addr := startCheckerd(t)
	for _, ps := range proofScripts {
		local := runScript(t, checker.InProcess{}, env, ps.lemma, ps.script)

		be := New(addr, fastTimeout)
		batched := runScriptBatched(t, be, env, ps.lemma, ps.script)
		if len(batched) != len(local) {
			t.Fatalf("%s: %d batched probes, %d local", ps.lemma, len(batched), len(local))
		}
		for i := range local {
			if batched[i] != local[i] {
				t.Fatalf("%s probe %d:\nbatched %s\nlocal   %s", ps.lemma, i, batched[i], local[i])
			}
		}
		// WireChecks is credited per sentence, not per round trip.
		if got, want := be.Stats.WireChecks.Load(), int64(len(local)); got != want {
			t.Fatalf("%s: %d wire checks, want %d (batch not fully cross-checked)", ps.lemma, got, want)
		}
		if n := be.Stats.Mismatches.Load(); n != 0 {
			t.Fatalf("%s: %d wire/mirror mismatches", ps.lemma, n)
		}
		if n := be.Stats.Degraded.Load() + be.Stats.LocalDocs.Load(); n != 0 {
			t.Fatalf("%s: backend fell back to local (%d) on a clean network", ps.lemma, n)
		}
	}
}

// TestBatchedChaosDeterminism: the chaos property holds on the batched
// path too — every fault schedule leaves the batched step stream identical
// to the fault-free in-process stream. Batches are retry-safe because the
// server restores the tip after every batch, so a replayed batch is
// idempotent.
func TestBatchedChaosDeterminism(t *testing.T) {
	env, addr := startCheckerd(t)
	for _, spec := range chaosPlans {
		plan, err := faultpoint.ParsePlan(2025, spec)
		if err != nil {
			t.Fatal(err)
		}
		be := New(addr, fastTimeout)
		be.Plan = plan
		for _, ps := range proofScripts {
			clean := runScript(t, checker.InProcess{}, env, ps.lemma, ps.script)
			chaotic := runScriptBatched(t, be, env, ps.lemma, ps.script)
			for i := range clean {
				if chaotic[i] != clean[i] {
					t.Fatalf("%s under %q, probe %d:\nchaos %s\nclean %s", ps.lemma, spec, i, chaotic[i], clean[i])
				}
			}
		}
		if plan.TotalHits() == 0 {
			t.Fatalf("under %q: no fault fired — chaos run was vacuous", spec)
		}
		if n := be.Stats.Mismatches.Load(); n != 0 {
			t.Fatalf("under %q: %d injected faults misclassified as semantic mismatches", spec, n)
		}
	}
}

// TestBatchedChaosRecoveryCounters: retries on fresh sessions run for
// batched round trips exactly as for single-sentence ones.
func TestBatchedChaosRecoveryCounters(t *testing.T) {
	env, addr := startCheckerd(t)
	plan, err := faultpoint.ParsePlan(7, "drop-conn=0.15,corrupt-answer=0.1")
	if err != nil {
		t.Fatal(err)
	}
	be := New(addr, fastTimeout)
	be.Plan = plan
	for round := 0; round < 3; round++ {
		for _, ps := range proofScripts {
			clean := runScript(t, checker.InProcess{}, env, ps.lemma, ps.script)
			chaotic := runScriptBatched(t, be, env, ps.lemma, ps.script)
			for i := range clean {
				if chaotic[i] != clean[i] {
					t.Fatalf("%s probe %d diverged under chaos", ps.lemma, i)
				}
			}
		}
	}
	if be.Stats.Retries.Load() == 0 {
		t.Fatalf("recovery machinery untouched: %s (plan hits %d)", be.Stats.Snapshot(), plan.TotalHits())
	}
	if n := be.Stats.Mismatches.Load(); n != 0 {
		t.Fatalf("%d semantic mismatches under pure transport faults", n)
	}
}
