package protocol

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/sexp"
	"llmfscq/internal/tactic"
)

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
	env := testCorpus(t).Env
	_, addr := startServer(t)
	for _, ps := range proofScripts {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		roundTripRaw := func(req *sexp.Node) string {
			t.Helper()
			if err := WriteMsg(conn, req); err != nil {
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
		want := Answer(1, sexp.L(sexp.Sym("DocCreated"), sexp.Str(sess.Stmt().String()))).String() + "\n"
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
			want := Answer(i+2, payload).String() + "\n"
			if got != want {
				t.Fatalf("%s step %d (%q):\n got %q\nwant %q", ps.lemma, i, tac, got, want)
			}
		}
		conn.Close()
	}
}

// recordedQuery is one query of a recorded search: the state the model was
// asked at, its path from the root, and the candidates the search ran
// there, the model's first Width.
type recordedQuery struct {
	state     *tactic.State
	path      []string
	sentences []string
}

// recordedSearch is one search's queries, in order.
type recordedSearch struct {
	lemma   string
	queries []recordedQuery
}

// wireSearches are the recorded searches: the hinted GPT-4o search at seed
// 2025 of a theorem it proves and of four it runs out of fuel on (the
// fuelouts of internal/model's recorded searches), as the sweep runs them.
var wireSearches = []struct {
	theorem string
	status  core.Status
}{
	{"app_nil_r", core.Proved},
	{"mult_plus_distr_r", core.Fuelout},
	{"eqb_false_cases", core.Fuelout},
	{"split_assoc", core.Fuelout},
	{"replay_dead_write", core.Fuelout},
}

// recordSearches runs wireSearches through eval.Runner and records each
// query the search makes, by wrapping the Propose it hands the search.
func recordSearches(t testing.TB) []recordedSearch {
	t.Helper()
	c := testCorpus(t)
	r := eval.NewRunner(c, 2025)
	var queries []recordedQuery
	r.Search = func(cfg core.Config) core.Result {
		propose, width := cfg.Propose, cfg.WithDefaults().Width
		cfg.Propose = func(st *tactic.State, path []string) []model.Candidate {
			cands := propose(st, path)
			q := recordedQuery{state: st, path: slices.Clone(path)}
			for _, cand := range cands[:min(len(cands), width)] {
				q.sentences = append(q.sentences, cand.Tactic)
			}
			queries = append(queries, q)
			return cands
		}
		return core.BestFirst(cfg)
	}
	var out []recordedSearch
	for _, ws := range wireSearches {
		th, ok := c.TheoremNamed(ws.theorem)
		if !ok {
			t.Fatalf("no theorem %s", ws.theorem)
		}
		queries = nil
		if o := r.RunTheorem(model.GPT4o, prompt.Hint, th); o.Status != ws.status {
			t.Fatalf("%s: the hinted GPT-4o search is %s, want %s", ws.theorem, o.Status, ws.status)
		}
		out = append(out, recordedSearch{lemma: ws.theorem, queries: queries})
	}
	return out
}

// verdict is what one Try reports, reduced to what the wire carries: the
// state becomes its key, and only a rejection carries its message.
type verdict struct {
	status  checker.Status
	proved  bool
	goals   int
	key     [2]uint64
	message string
}

func wireVerdict(res ExecResult) verdict {
	return verdict{res.Status, res.Proved, res.NumGoals, res.Key, res.Message}
}

func localVerdict(step checker.Step) verdict {
	v := verdict{status: step.Status, proved: step.Proved, goals: step.NumGoals}
	switch step.Status {
	case checker.Applied:
		v.key = step.State.FingerprintKey()
	case checker.Rejected:
		v.message = step.Err.Error()
	}
	return v
}

// replay runs every recorded Try over the wire at addr, each search on one
// session: Cancel to the common prefix of the session's script and the
// Try's path, Exec the rest of the path, then Exec the sentence. It
// returns the number of Trys and those whose answer differs from
// checker.TryTactic at the recorded state (a path sentence the wire does
// not apply counts too), with the first such difference described.
func replay(t *testing.T, addr string, searches []recordedSearch) (tries, mismatches int, first string) {
	t.Helper()
	for _, s := range searches {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.NewDocLemma(s.lemma); err != nil {
			t.Fatal(err)
		}
		var script []string // the sentences the session has executed
		for _, q := range s.queries {
			for _, sentence := range q.sentences {
				tries++
				aligned := true
				p := 0
				for p < len(script) && p < len(q.path) && script[p] == q.path[p] {
					p++
				}
				if p < len(script) {
					if err := cl.Cancel(p); err != nil {
						t.Fatal(err)
					}
					script = script[:p]
				}
				for _, tac := range q.path[p:] {
					res, err := cl.Exec(tac)
					if err != nil {
						t.Fatal(err)
					}
					if res.Status != checker.Applied {
						aligned = false
						break
					}
					script = append(script, tac)
				}
				res, err := cl.Exec(sentence)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status == checker.Applied {
					script = append(script, sentence)
				}
				got, want := wireVerdict(res), localVerdict(checker.TryTactic(q.state, sentence))
				if !aligned || got != want {
					if mismatches == 0 {
						first = fmt.Sprintf("%s at %q, %q: wire %+v (path replayed: %v), TryTactic %+v", s.lemma, q.path, sentence, got, aligned, want)
					}
					mismatches++
				}
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return tries, mismatches, first
}

// startKeyLaggingProxy relays connections to the server at upstream, one
// at a time, and plants a server bug on the way back: every Applied
// answer's (Fp key) after a connection's first is replaced by the key of
// the Applied answer before it, as a server that reports the parent's
// state would answer.
func startKeyLaggingProxy(t *testing.T, upstream string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			relayLaggingKeys(conn, upstream)
		}
	}()
	return ln.Addr().String()
}

// relayLaggingKeys relays one connection until either side hangs up. The
// client's end of the outcome is what the test judges, so the relay's own
// errors only end it.
func relayLaggingKeys(conn net.Conn, upstream string) {
	up, err := net.Dial("tcp", upstream)
	if err != nil {
		conn.Close()
		return
	}
	requests := make(chan struct{})
	go func() {
		defer close(requests)
		_, _ = io.Copy(up, conn)
	}()
	r := bufio.NewReader(up)
	var prev *sexp.Node
	for {
		ans, err := ReadMsg(r)
		if err != nil {
			break
		}
		if p := ans.Nth(2); p.Head() == "Applied" && len(p.List) == 3 {
			fp := p.List[2]
			if prev != nil {
				p.List[2] = prev
			}
			prev = fp
		}
		if WriteMsg(conn, ans) != nil {
			break
		}
	}
	conn.Close()
	up.Close()
	<-requests
}

// TestWireMatchesTryTactic holds the wire to the search's checker sentence
// by sentence: every Try of the recorded searches, replayed on a checkerd
// session, answers what checker.TryTactic answers at the recorded state:
// status, proved flag, goal count, state key and rejection message. The
// same replay through a proxy that reports each Applied answer with the
// previous one's key must count mismatches, or the comparison is blind.
func TestWireMatchesTryTactic(t *testing.T) {
	searches := recordSearches(t)
	_, addr := startServer(t)

	tries, mismatches, first := replay(t, addr, searches)
	if tries < 2000 {
		t.Errorf("replayed %d Trys; the recorded searches should make over 2,000", tries)
	}
	if mismatches != 0 {
		t.Errorf("%d of %d Trys differ over the wire; first: %s", mismatches, tries, first)
	}
	t.Logf("clean server: %d Trys, %d mismatches", tries, mismatches)

	_, lagged, _ := replay(t, startKeyLaggingProxy(t, addr), searches)
	if lagged == 0 {
		t.Errorf("a server answering with the previous Applied key passed all %d Trys", tries)
	}
	t.Logf("key-lagging proxy: %d mismatches", lagged)
}
