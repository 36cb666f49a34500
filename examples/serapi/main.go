// Serapi: driving the proof checker over the wire protocol.
//
// Starts the checker daemon in-process (the same server cmd/checkerd runs),
// connects as a client, and interactively proves a corpus lemma with
// Exec/Cancel — the S-expression workflow the paper builds on Coq's STM +
// SerAPI. Every client error is fatal, and so is a final script other than
// the real proof, so the example doubles as a smoke test of the wire.
//
//	go run ./examples/serapi
package main

import (
	"fmt"
	"log"
	"strings"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/protocol"
)

func main() {
	log.SetFlags(0)
	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	srv := protocol.NewServer(c)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("checkerd listening on %s\n\n", addr)

	cl, err := protocol.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	stmt, err := cl.NewDocLemma("plus_n_O")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("> (NewDoc (Lemma plus_n_O))\n  statement: %s\n\n", stmt)

	exec := func(tac string) protocol.ExecResult {
		res, err := cl.Exec(tac)
		if err != nil {
			log.Fatalf("%q: %v", tac, err)
		}
		switch {
		case res.Proved:
			fmt.Printf("> (Exec %q)\n  Proved!\n", tac)
		case res.Status == checker.Applied:
			fmt.Printf("> (Exec %q)\n  applied, %d goal(s) remain\n", tac, res.NumGoals)
		default:
			fmt.Printf("> (Exec %q)\n  %s: %s\n", tac, res.Status, res.Message)
		}
		return res
	}

	// A tactic the checker rejects leaves the document as it was.
	if res := exec("reflexivity."); res.Status != checker.Rejected {
		log.Fatalf("reflexivity. on the open statement: %s, want Rejected", res.Status)
	}
	// A wrong first attempt that applies: case analysis gives no induction
	// hypothesis for the successor case. Cancel rolls it back.
	if res := exec("destruct n."); res.Status != checker.Applied {
		log.Fatalf("destruct n.: %s %s", res.Status, res.Message)
	}
	if err := cl.Cancel(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("> (Cancel 0)\n  back to the statement\n\n")

	// The real proof.
	script := []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."}
	for _, tac := range script {
		if res := exec(tac); res.Status != checker.Applied {
			log.Fatalf("%q: %s %s", tac, res.Status, res.Message)
		}
	}

	proof, err := cl.Script()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal script: %s\n", proof)
	if want := strings.Join(script, " "); proof != want {
		log.Fatalf("final script %q, want %q", proof, want)
	}
}
