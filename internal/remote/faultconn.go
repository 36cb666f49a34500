package remote

import (
	"errors"
	"net"
	"time"

	"llmfscq/internal/faultpoint"
)

// ErrInjected marks transport errors produced by fault injection, so tests
// can tell injected faults from real network failures.
var ErrInjected = errors.New("remote: injected fault")

// FaultConn wraps a client connection with deterministic fault injection.
// All four registered sites live here, at the transport boundary, so the
// layers above (deadline, retry on a fresh session, local-only degradation)
// are exercised exactly as they would be by a real flaky network. A nil
// Injector is fully inert.
type FaultConn struct {
	net.Conn
	Inj *faultpoint.Injector
	// StallFor is how long a stall fault blocks a read; it must exceed the
	// client's request timeout to surface as a deadline error.
	StallFor time.Duration
}

func (c *FaultConn) Read(p []byte) (int, error) {
	if c.Inj.Fire(faultpoint.Stall) {
		time.Sleep(c.StallFor)
	}
	n, err := c.Conn.Read(p)
	if n > 0 && c.Inj.Fire(faultpoint.CorruptAnswer) {
		for i := 0; i < n; i++ {
			if p[i] != '\n' {
				p[i] ^= 0x20
			}
		}
	}
	return n, err
}

func (c *FaultConn) Write(p []byte) (int, error) {
	if c.Inj.Fire(faultpoint.DropConn) {
		//lint:ignore errdrop deliberate fault injection; the injected error replaces the real one
		_ = c.Conn.Close()
		return 0, errors.Join(ErrInjected, net.ErrClosed)
	}
	if c.Inj.Fire(faultpoint.PartialWrite) {
		//lint:ignore errdrop deliberate fault injection: a torn write must look torn, not failed
		n, _ := c.Conn.Write(p[:len(p)/2])
		//lint:ignore errdrop deliberate fault injection; the injected error replaces the real one
		_ = c.Conn.Close()
		return n, errors.Join(ErrInjected, net.ErrClosed)
	}
	return c.Conn.Write(p)
}
