package remote

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/kernel"
	"llmfscq/internal/protocol"
	"llmfscq/internal/sexp"
)

// startCheckerd runs an in-process checkerd on a loopback port.
func startCheckerd(t testing.TB) (env *kernel.Env, addr string) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	srv := protocol.NewServer(c.Env)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return c.Env, addr
}

// proofScripts are the conformance workloads: full proofs plus deliberate
// rejections, so every answer shape crosses the wire.
var proofScripts = []struct {
	lemma  string
	script []string
}{
	{"app_nil_r", []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}},
	{"plus_n_O", []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."}},
	{"plus_n_O", []string{"induction n.", "rewrite nope.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."}},
}

// TestWireAnswerBytesMatchLocalSession asserts wire-level conformance at
// the strongest granularity: the raw answer lines the server emits are
// byte-identical to lines rendered from an in-process checker.Session
// executing the same script.
func TestWireAnswerBytesMatchLocalSession(t *testing.T) {
	env, addr := startCheckerd(t)
	for _, ps := range proofScripts {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		roundTripRaw := func(req *sexp.Node) string {
			t.Helper()
			if err := protocol.WriteMsg(conn, req); err != nil {
				t.Fatal(err)
			}
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			return line
		}

		sess, err := checker.NewSessionNamed(env, ps.lemma)
		if err != nil {
			t.Fatal(err)
		}
		got := roundTripRaw(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Lemma"), sexp.Sym(ps.lemma))))
		want := protocol.Answer(1, sexp.L(sexp.Sym("DocCreated"), sexp.Str(sess.Stmt().String()))).String() + "\n"
		if got != want {
			t.Fatalf("%s NewDoc:\n got %q\nwant %q", ps.lemma, got, want)
		}
		for i, tac := range ps.script {
			got := roundTripRaw(sexp.L(sexp.Sym("Exec"), sexp.Str(tac)))
			res := sess.Exec(tac)
			key := sess.Tip().FingerprintKey()
			fp := sexp.L(sexp.Sym("Fp"), sexp.Sym(fmt.Sprintf("%016x%016x", key[0], key[1])))
			var payload *sexp.Node
			switch {
			case res.Status == checker.Applied && sess.Proved():
				payload = sexp.L(sexp.Sym("Proved"), fp)
			case res.Status == checker.Applied:
				payload = sexp.L(sexp.Sym("Applied"), sexp.L(sexp.Sym("Goals"), sexp.Int(res.NumGoals)), fp)
			case res.Status == checker.Timeout:
				payload = sexp.L(sexp.Sym("Timeout"))
			default:
				payload = sexp.L(sexp.Sym("Rejected"), sexp.Str(res.Err.Error()))
			}
			want := protocol.Answer(i+2, payload).String() + "\n"
			if got != want {
				t.Fatalf("%s step %d (%q):\n got %q\nwant %q", ps.lemma, i, tac, got, want)
			}
		}
		conn.Close()
	}
}

// renderStep renders one step as a line, the unit the conformance tests
// compare across backends.
func renderStep(step checker.Step) string {
	line := fmt.Sprintf("%v goals=%d proved=%v", step.Status, step.NumGoals, step.Proved)
	if step.Status == checker.Applied {
		return line + fmt.Sprintf(" key=%x", step.State.FingerprintKey())
	}
	return line + " err=" + step.Err.Error()
}

// runScript drives one document in a best-first shape: at every node it
// probes a sibling candidate ("simpl.") before the scripted tactic, which
// exercises the remote session's cancel-and-replay alignment, then follows
// the scripted tactic only where it applies. Every step is rendered by
// renderStep.
func runScript(t testing.TB, be checker.Backend, env *kernel.Env, lemma string, script []string) []string {
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
	parent := doc.Root()
	var path []string
	var lines []string
	for _, tac := range script {
		if !parent.Done() {
			lines = append(lines, renderStep(doc.Try(parent, path, "simpl.")))
		}
		step := doc.Try(parent, path, tac)
		lines = append(lines, renderStep(step))
		if step.Status == checker.Applied {
			parent = step.State
			path = append(path, tac)
		}
	}
	return lines
}

// fastTimeout keeps chaos tests quick: an injected stall blocks for twice
// this request budget.
const fastTimeout = 150 * time.Millisecond

// TestBackendConformance: the remote backend's step stream is
// byte-identical to the in-process backend's, and every wire execution
// cross-checked clean (zero mismatches over a fully exercised wire).
func TestBackendConformance(t *testing.T) {
	env, addr := startCheckerd(t)
	for _, ps := range proofScripts {
		local := runScript(t, checker.InProcess{}, env, ps.lemma, ps.script)

		be := New(addr, fastTimeout)
		remote := runScript(t, be, env, ps.lemma, ps.script)
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("%s probe %d:\nremote %s\nlocal  %s", ps.lemma, i, remote[i], local[i])
			}
		}
		if got, want := be.Stats.WireChecks.Load(), int64(len(local)); got != want {
			t.Fatalf("%s: %d wire checks, want %d (wire not exercised)", ps.lemma, got, want)
		}
		if n := be.Stats.Mismatches.Load(); n != 0 {
			t.Fatalf("%s: %d wire/mirror mismatches", ps.lemma, n)
		}
		if n := be.Stats.Degraded.Load() + be.Stats.LocalDocs.Load(); n != 0 {
			t.Fatalf("%s: backend fell back to local (%d) on a clean network", ps.lemma, n)
		}
	}
}

// chaosPlans are the fault schedules the chaos suite runs under. Rates are
// chosen so that with the fixed seeds faults demonstrably fire while
// documents still make wire progress between them.
var chaosPlans = []string{
	"drop-conn=0.08",
	"stall=0.08",
	"corrupt-answer=0.08",
	"partial-write=0.08",
	"drop-conn=0.05,stall=0.05,corrupt-answer=0.05,partial-write=0.05",
}

// TestChaosDeterminism is the headline property: under every fault
// schedule the step stream stays byte-identical to the fault-free run,
// faults demonstrably fired, and no divergence was charged as semantic.
func TestChaosDeterminism(t *testing.T) {
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
			chaotic := runScript(t, be, env, ps.lemma, ps.script)
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

// TestChaosRecoveryCounters: a moderately hostile schedule forces retries
// on fresh sessions to actually run.
func TestChaosRecoveryCounters(t *testing.T) {
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
			chaotic := runScript(t, be, env, ps.lemma, ps.script)
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

// TestChaosTotalFailureDegrades: with the wire fully poisoned every
// document opens local-only, and results are still correct.
func TestChaosTotalFailureDegrades(t *testing.T) {
	env, addr := startCheckerd(t)
	plan, err := faultpoint.ParsePlan(3, "drop-conn=1")
	if err != nil {
		t.Fatal(err)
	}
	be := New(addr, fastTimeout)
	be.Plan = plan
	docs := 0
	for round := 0; round < 5; round++ {
		for _, ps := range proofScripts[:2] {
			clean := runScript(t, checker.InProcess{}, env, ps.lemma, ps.script)
			chaotic := runScript(t, be, env, ps.lemma, ps.script)
			docs++
			for i := range clean {
				if chaotic[i] != clean[i] {
					t.Fatalf("round %d %s probe %d diverged with wire down", round, ps.lemma, i)
				}
			}
		}
	}
	if n := be.Stats.LocalDocs.Load(); n != int64(docs) {
		t.Fatalf("%d of %d documents ran local-only with the wire fully down: %s", n, docs, be.Stats.Snapshot())
	}
	if n := be.Stats.WireChecks.Load(); n != 0 {
		t.Fatalf("%d wire checks passed with drop-conn=1", n)
	}
}

// TestChaosWireResumesAfterOutage: once a total outage ends, documents
// opened afterwards use the wire again. Nothing remembers the outage.
func TestChaosWireResumesAfterOutage(t *testing.T) {
	env, addr := startCheckerd(t)
	plan, err := faultpoint.ParsePlan(3, "drop-conn=1")
	if err != nil {
		t.Fatal(err)
	}
	be := New(addr, fastTimeout)
	be.Plan = plan
	for round := 0; round < 4; round++ {
		runScript(t, be, env, "app_nil_r", proofScripts[0].script)
	}
	if n := be.Stats.LocalDocs.Load(); n != 4 || be.Stats.WireChecks.Load() != 0 {
		t.Fatalf("outage left the wire in use: %s", be.Stats.Snapshot())
	}
	// The outage ends.
	be.Plan = nil
	lines := runScript(t, be, env, "app_nil_r", proofScripts[0].script)
	if got, want := be.Stats.WireChecks.Load(), int64(len(lines)); got != want {
		t.Fatalf("%d wire checks after the outage, want %d: %s", got, want, be.Stats.Snapshot())
	}
	if n := be.Stats.LocalDocs.Load(); n != 4 {
		t.Fatalf("document opened after the outage ran local-only: %s", be.Stats.Snapshot())
	}
}
