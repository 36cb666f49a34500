// Command checkerd serves the proof-checking wire protocol (the SerAPI
// substitute) over TCP against the embedded corpus environment. Clients
// open one proof document per connection and drive it one sentence per
// request, with Exec/Cancel.
//
// Example session (one S-expression per line):
//
//	(NewDoc (Lemma app_nil_r))
//	(Exec "induction l.")
//	(Query Goals)
//	(Cancel 0)
//	(Quit)
//
// checkerd has no shutdown protocol: a signal ends it through Go's default
// exit, and its open sessions end with it. A client sees that as a lost
// wire: the remote backend runs its open documents on the local mirror
// alone, so results do not change.
package main

import (
	"flag"
	"fmt"
	"log"

	"llmfscq/internal/corpus"
	"llmfscq/internal/protocol"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:4711", "listen address")
	maxConns := flag.Int("max-conns", protocol.DefaultMaxConns, "maximum concurrently served sessions; further dials wait in the listen backlog")
	flag.Parse()

	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	srv := protocol.NewServer(c)
	srv.MaxConns = *maxConns
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("checkerd: serving %d lemmas on %s (max %d sessions)\n", len(c.Env.Lemmas), bound, *maxConns)
	if err := srv.Serve(); err != nil {
		log.Fatalf("serve: %v", err)
	}
}
