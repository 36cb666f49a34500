package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
	"llmfscq/internal/sexp"
	"llmfscq/internal/syntax"
)

// DefaultMaxConns bounds concurrently served connections when Server.
// MaxConns is unset. Further dials queue in the listener backlog instead of
// spawning unbounded handler goroutines.
const DefaultMaxConns = 64

// Server serves the proof-checker protocol over TCP. Each connection holds
// one session (one open proof document at a time).
type Server struct {
	Env *kernel.Env
	// MaxConns caps concurrently served connections (<=0: DefaultMaxConns).
	MaxConns int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server over an environment (typically the loaded
// corpus environment).
func NewServer(env *kernel.Env) *Server { return &Server{Env: env, conns: map[net.Conn]bool{}} }

// Listen binds the address and returns the chosen address (useful with
// ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	if s.conns == nil {
		s.conns = map[net.Conn]bool{}
	}
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// Serve accepts connections until the listener closes, holding at most
// MaxConns sessions open at once. Returns nil after Close or Shutdown.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("protocol: server not listening")
	}
	max := s.MaxConns
	if max <= 0 {
		max = DefaultMaxConns
	}
	// Acquire the slot before accepting: at capacity the server stops
	// pulling from the backlog rather than accepting sessions it cannot
	// serve.
	sem := make(chan struct{}, max)
	for {
		sem <- struct{}{}
		conn, err := ln.Accept()
		if err != nil {
			<-sem
			if s.isClosed() {
				return nil
			}
			return err
		}
		if !s.track(conn) { // shut down between Accept and track
			//lint:ignore errdrop teardown of a never-tracked connection during shutdown; nothing to report to
			conn.Close()
			<-sem
			return nil
		}
		s.wg.Add(1)
		go func(c net.Conn) {
			defer func() {
				s.untrack(c)
				s.wg.Done()
				<-sem
			}()
			s.handle(c)
		}(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]bool{}
	}
	s.conns[conn] = true
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// eachConn applies f to every live connection under the lock.
func (s *Server) eachConn(f func(net.Conn)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		f(c)
	}
}

// Close stops the listener immediately. Open sessions keep running; use
// Shutdown to drain them. Idempotent: later calls (including via Kill after
// a Shutdown) are no-ops.
func (s *Server) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil && !wasClosed {
		return ln.Close()
	}
	return nil
}

// Kill terminates the server abruptly: the listener and every open session
// connection close immediately, with no drain and no in-flight answers.
// cmd/checkerd calls it on a second SIGINT/SIGTERM, when an operator gives
// up on the Shutdown drain. Clients observe a reset mid-request, exactly as
// they would from a dead process.
func (s *Server) Kill() error {
	err := s.Close()
	//lint:ignore errdrop abrupt termination is the point; the sessions being killed have nothing to report
	s.eachConn(func(c net.Conn) { _ = c.Close() })
	return err
}

// Shutdown stops accepting and drains open sessions: every session may
// finish its in-flight request, and a read deadline at now+grace unblocks
// handlers waiting on clients that never quit. Sessions still open when the
// grace expires are force-closed. Returns the listener close error, if any.
func (s *Server) Shutdown(grace time.Duration) error {
	err := s.Close()
	deadline := time.Now().Add(grace)
	//lint:ignore errdrop best-effort unblocking during grace drain; the force-close below is the backstop
	s.eachConn(func(c net.Conn) { _ = c.SetReadDeadline(deadline) })

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace + 250*time.Millisecond):
		//lint:ignore errdrop force-close of sessions that outlived the grace period; their handlers are being abandoned
		s.eachConn(func(c net.Conn) { _ = c.Close() })
		<-done
	}
	return err
}

// session is the per-connection protocol state: at most one open proof
// document. dispatch is pure with respect to the connection, which makes
// the request interpreter fuzzable without sockets (FuzzParseRequest).
type session struct {
	env *kernel.Env
	doc *checker.Session
}

func errPayload(msg string) *sexp.Node {
	return sexp.L(sexp.Sym("Error"), sexp.Str(msg))
}

// fpField renders the (Fp "...") field of Applied/Proved payloads.
func fpField(doc *checker.Session) *sexp.Node {
	return sexp.L(sexp.Sym("Fp"), sexp.Str(doc.Fingerprint()))
}

// execReply classifies a checker.Result into the wire payload.
func (s *session) execReply(res checker.Result) *sexp.Node {
	switch res.Status {
	case checker.Applied:
		if s.doc.Proved() {
			return sexp.L(sexp.Sym("Proved"), fpField(s.doc))
		}
		return sexp.L(sexp.Sym("Applied"),
			sexp.L(sexp.Sym("Goals"), sexp.Int(res.NumGoals)), fpField(s.doc))
	case checker.Timeout:
		return sexp.L(sexp.Sym("Timeout"))
	default:
		return sexp.L(sexp.Sym("Rejected"), sexp.Str(res.Err.Error()))
	}
}

// dispatch interprets one request, returning the answer payload and whether
// the session ends (Quit).
func (s *session) dispatch(msg *sexp.Node) (payload *sexp.Node, quit bool) {
	switch msg.Head() {
	case "Quit":
		return sexp.L(sexp.Sym("Bye")), true
	case "NewDoc":
		return s.newDoc(msg.Nth(1)), false
	case "Add":
		if s.doc == nil {
			return errPayload("no open document"), false
		}
		arg := msg.Nth(1)
		if arg == nil {
			return errPayload("Add expects a tactic string"), false
		}
		if err := s.doc.Add(arg.Atom); err != nil {
			return sexp.L(sexp.Sym("Rejected"), sexp.Str(err.Error())), false
		}
		return sexp.L(sexp.Sym("Added"), sexp.Int(s.doc.Queued())), false
	case "Exec":
		if s.doc == nil {
			return errPayload("no open document"), false
		}
		arg := msg.Nth(1)
		var res checker.Result
		if arg == nil {
			// Bare Exec drains the Add queue, STM style.
			res = s.doc.ExecQueued()
		} else {
			res = s.doc.Exec(arg.Atom)
		}
		return s.execReply(res), false
	case "ExecBatch":
		return s.execBatch(msg), false
	case "Cancel":
		if s.doc == nil {
			return errPayload("no open document"), false
		}
		n, err := msg.Nth(1).AsInt()
		if err != nil {
			return errPayload("Cancel expects an integer"), false
		}
		if err := s.doc.Cancel(n); err != nil {
			return errPayload(err.Error()), false
		}
		return sexp.L(sexp.Sym("Cancelled"), sexp.Int(s.doc.Len())), false
	case "Query":
		if s.doc == nil {
			return errPayload("no open document"), false
		}
		switch {
		case msg.Nth(1).IsSym("Goals"):
			return sexp.L(sexp.Sym("Goals"), sexp.Str(s.doc.Goals())), false
		case msg.Nth(1).IsSym("Fingerprint"):
			return sexp.L(sexp.Sym("Fingerprint"), sexp.Str(s.doc.Fingerprint())), false
		case msg.Nth(1).IsSym("Script"):
			return sexp.L(sexp.Sym("Script"), sexp.Str(strings.Join(s.doc.Script(), " "))), false
		default:
			return errPayload("unknown query"), false
		}
	default:
		return errPayload("unknown command " + msg.Head()), false
	}
}

// execBatch executes every sentence of an (ExecBatch "t1." "t2." ...)
// request against the current tip: after an Applied sentence the document
// is cancelled back, so each sentence sees the same parent state and the
// tip is unchanged when the batch answer goes out. A malformed batch (no
// sentences, a non-string argument, more than MaxBatch sentences) gets one
// in-band Error answer for the whole batch and leaves the tip untouched.
func (s *session) execBatch(msg *sexp.Node) *sexp.Node {
	if s.doc == nil {
		return errPayload("no open document")
	}
	n := len(msg.List) - 1
	if n < 1 {
		return errPayload("ExecBatch expects at least one tactic string")
	}
	if n > MaxBatch {
		return errPayload(fmt.Sprintf("ExecBatch of %d sentences exceeds the limit of %d", n, MaxBatch))
	}
	for i := 1; i <= n; i++ {
		if arg := msg.Nth(i); arg == nil || arg.IsList {
			return errPayload("ExecBatch expects tactic strings")
		}
	}
	base := s.doc.Len()
	out := make([]*sexp.Node, 0, n+1)
	out = append(out, sexp.Sym("Batch"))
	for i := 1; i <= n; i++ {
		res := s.doc.Exec(msg.Nth(i).Atom)
		// execReply reads the post-execution tip (Proved, Fingerprint), so
		// the rollback happens after the payload is rendered.
		out = append(out, s.execReply(res))
		if res.Status == checker.Applied {
			if err := s.doc.Cancel(base); err != nil {
				return errPayload(err.Error())
			}
		}
	}
	return sexp.L(out...)
}

func (s *session) newDoc(spec *sexp.Node) *sexp.Node {
	switch spec.Head() {
	case "Lemma":
		arg := spec.Nth(1)
		if arg == nil {
			return errPayload("Lemma expects a name")
		}
		name := arg.Atom
		lem, ok := s.env.Lemmas[name]
		if !ok {
			return errPayload("unknown lemma " + name)
		}
		s.doc = checker.NewSession(s.env.Before(name), lem.Stmt)
		return sexp.L(sexp.Sym("DocCreated"), sexp.Str(lem.Stmt.String()))
	case "Stmt":
		arg := spec.Nth(1)
		if arg == nil {
			return errPayload("Stmt expects a statement string")
		}
		p, err := syntax.NewParserString(arg.Atom)
		if err != nil {
			return errPayload(err.Error())
		}
		raw, err := p.ParseForm()
		if err != nil {
			return errPayload(err.Error())
		}
		stmt, err := syntax.ResolveForm(s.env, raw, map[string]bool{})
		if err != nil {
			return errPayload(err.Error())
		}
		s.doc = checker.NewSession(s.env, stmt)
		return sexp.L(sexp.Sym("DocCreated"), sexp.Str(stmt.String()))
	default:
		return errPayload("NewDoc expects (Lemma name) or (Stmt text)")
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	sess := &session{env: s.Env}
	seq := 0
	for {
		msg, err := ReadMsg(r)
		if err != nil {
			// A line that was read but does not parse gets an in-band error
			// answer; the session survives. I/O errors (EOF, deadline,
			// reset) end it.
			if errors.Is(err, ErrBadMessage) || errors.Is(err, ErrLineTooLong) {
				seq++
				if werr := WriteMsg(conn, ErrorAnswer(seq, err.Error())); werr != nil {
					return
				}
				continue
			}
			return
		}
		seq++
		payload, quit := sess.dispatch(msg)
		if err := WriteMsg(conn, Answer(seq, payload)); err != nil {
			return
		}
		if quit {
			return
		}
	}
}
