package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/sexp"
	"llmfscq/internal/syntax"
)

// DefaultMaxConns bounds concurrently served connections when Server.
// MaxConns is unset. Further dials queue in the listener backlog instead of
// spawning unbounded handler goroutines.
const DefaultMaxConns = 64

// Server serves the proof-checker protocol over TCP. Each connection holds
// one session (one open proof document at a time). Call Listen, then Serve;
// Close stops the listener.
type Server struct {
	Corpus *corpus.Corpus
	// MaxConns caps concurrently served connections (<=0: DefaultMaxConns).
	MaxConns int

	ln net.Listener
}

// NewServer builds a server over a loaded corpus.
func NewServer(c *corpus.Corpus) *Server { return &Server{Corpus: c} }

// Listen binds the address and returns the chosen address (useful with
// ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until the listener closes, holding at most
// MaxConns sessions open at once. Returns nil after Close.
func (s *Server) Serve() error {
	if s.ln == nil {
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
		conn, err := s.ln.Accept()
		if err != nil {
			<-sem
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func(c net.Conn) {
			defer func() { <-sem }()
			s.handle(c)
		}(conn)
	}
}

// Close stops the listener, so Serve returns. Open sessions keep running
// until their clients quit or hang up, or the process exits.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

// session is the per-connection protocol state: at most one open proof
// document. dispatch is pure with respect to the connection, which makes
// the request interpreter fuzzable without sockets (FuzzParseRequest).
type session struct {
	corpus *corpus.Corpus
	doc    *checker.Session
}

func errPayload(msg string) *sexp.Node {
	return sexp.L(sexp.Sym("Error"), sexp.Str(msg))
}

// fpField renders the (Fp key) field of Applied/Proved payloads.
func fpField(doc *checker.Session) *sexp.Node {
	return sexp.L(sexp.Sym("Fp"), sexp.Sym(formatKey(doc.Tip().FingerprintKey())))
}

// execReply classifies a checker.Step into the wire payload.
func (s *session) execReply(res checker.Step) *sexp.Node {
	switch res.Status {
	case checker.Applied:
		if res.Proved {
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
		var res checker.Step
		if arg == nil {
			// Bare Exec drains the Add queue, STM style.
			res = s.doc.ExecQueued()
		} else {
			res = s.doc.Exec(arg.Atom)
		}
		return s.execReply(res), false
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
		case msg.Nth(1).IsSym("Script"):
			return sexp.L(sexp.Sym("Script"), sexp.Str(strings.Join(s.doc.Script(), " "))), false
		default:
			return errPayload("unknown query"), false
		}
	default:
		return errPayload("unknown command " + msg.Head()), false
	}
}

func (s *session) newDoc(spec *sexp.Node) *sexp.Node {
	switch spec.Head() {
	case "Lemma":
		arg := spec.Nth(1)
		if arg == nil {
			return errPayload("Lemma expects a name")
		}
		name := arg.Atom
		lem, ok := s.corpus.Env.Lemmas[name]
		if !ok {
			return errPayload("unknown lemma " + name)
		}
		// The lemma is proved where it was declared: neither it nor any
		// later lemma is visible.
		s.doc = checker.NewSession(s.corpus.EnvBefore(name), lem.Stmt)
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
		stmt, err := syntax.ResolveForm(s.corpus.Env, raw, map[string]bool{})
		if err != nil {
			return errPayload(err.Error())
		}
		// A statement must be closed, as corpus.Load and Coq require.
		if free := stmt.FreeNames(); len(free) > 0 {
			return errPayload(fmt.Sprintf("unbound identifiers %v", free))
		}
		s.doc = checker.NewSession(s.corpus.Env, stmt)
		return sexp.L(sexp.Sym("DocCreated"), sexp.Str(stmt.String()))
	default:
		return errPayload("NewDoc expects (Lemma name) or (Stmt text)")
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	sess := &session{corpus: s.Corpus}
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
