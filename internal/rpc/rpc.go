// Package rpc exposes the ReSHAPE scheduler over TCP so applications and
// command-line tools can talk to a reshaped daemon. The wire protocol,
// rpc/v2 (see wire.go), is a persistent, multiplexed connection carrying
// length-prefixed frames with request IDs, cancellation of blocking ops,
// and a streaming Watch subscription. A connection's read loop queues the
// five unary mutations straight onto the scheduler's ordered pipeline
// (scheduler.Server.Enqueue), whose completions queue their replies for
// the connection's writer goroutine; Wait, Status and Watch each run
// concurrently on a goroutine of their own. A Watch is a cursor into the
// scheduler's event trace, so a peer that reads slowly holds back only its
// own stream, and loses nothing. Frames are hand-encoded in
// package codec's varint vocabulary, the one the WAL writes, and a unary
// round trip allocates nothing in steady state. A connection must open with MagicV2; any other
// first byte is counted malformed and the connection closed unanswered.
// The typed client lives in package reshape.
package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scheduler"
)

// Op selects the remote operation.
type Op string

// Scheduler operations.
const (
	OpSubmit         Op = "submit"
	OpContact        Op = "contact"
	OpResizeComplete Op = "resize-complete"
	OpJobEnd         Op = "job-end"
	OpJobError       Op = "job-error"
	OpWait           Op = "wait"
	OpStatus         Op = "status"
)

// Stats counts server activity since start; all fields are cumulative.
type Stats struct {
	Conns        uint64 // connections accepted (opened with MagicV2)
	Requests     uint64 // operations dispatched to the scheduler
	Malformed    uint64 // non-v2 openers, undecodable frames, unknown ops
	Watches      uint64 // watch subscriptions opened
	AcceptErrors uint64 // transient listener Accept failures
	Shed         uint64 // requests shed by admission control (never dispatched)
	FramesOut    uint64 // reply frames queued on connections
	Flushes      uint64 // writes to connections, each one batch of reply frames
}

// Server serves scheduler requests over TCP.
type Server struct {
	sched *scheduler.Server
	ln    net.Listener
	wg    sync.WaitGroup
	logf  func(format string, args ...any)

	// baseCtx is cancelled on Close; every connection and request
	// inherits from it.
	//lint:allow ctxfirst server-lifetime context (net/http BaseContext pattern): cancelled on Close, never a request context
	baseCtx context.Context
	cancel  context.CancelFunc

	mu    sync.Mutex
	done  bool
	conns map[net.Conn]struct{}

	accepted     atomic.Uint64
	requests     atomic.Uint64
	malformed    atomic.Uint64
	watches      atomic.Uint64
	acceptErrors atomic.Uint64
	shed         atomic.Uint64
	framesOut    atomic.Uint64
	flushes      atomic.Uint64

	// Admission control (see admission.go). limits is fixed at Serve time;
	// admTenants grows one entry per distinct tenant name.
	limits     Limits
	admMu      sync.Mutex
	admTenants map[string]*admEntry
}

// ServerOption configures Serve.
type ServerOption func(*Server)

// WithLogf installs a log hook for server-side events (accept failures,
// protocol errors). The default discards them.
func WithLogf(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// Serve starts listening on addr (e.g. "127.0.0.1:7077"; port 0 picks a
// free port). The returned server is already accepting.
func Serve(addr string, sched *scheduler.Server, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		sched:   sched,
		ln:      ln,
		logf:    func(string, ...any) {},
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:        s.accepted.Load(),
		Requests:     s.requests.Load(),
		Malformed:    s.malformed.Load(),
		Watches:      s.watches.Load(),
		AcceptErrors: s.acceptErrors.Load(),
		Shed:         s.shed.Load(),
		FramesOut:    s.framesOut.Load(),
		Flushes:      s.flushes.Load(),
	}
}

// Close stops accepting, severs live connections (in-flight waits and
// watches end with a cancelled error) and waits for handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Accept backoff bounds: transient listener failures (fd exhaustion,
// ECONNABORTED) back off exponentially instead of hot-spinning.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed() {
				return
			}
			s.acceptErrors.Add(1)
			s.logf("rpc: accept: %v (retrying in %v)", err, backoff)
			select {
			case <-s.baseCtx.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		if !s.track(conn, true) {
			// Close() ran between Accept and tracking; it never saw this
			// connection, so sever it here or shutdown would hang waiting
			// on an idle client.
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// track registers or unregisters a live connection. Registering fails
// (returns false) once the server is closed.
func (s *Server) track(conn net.Conn, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.done {
			return false
		}
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	return true
}

// serveConn serves one connection. Its first byte must be MagicV2; any
// other opener (an rpc/v1 gob request, the gob-framed 0xB2 dialect, noise)
// is counted malformed and the connection closed with nothing dispatched
// and nothing written back.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	magic, err := br.ReadByte()
	if err != nil {
		return
	}
	if magic != MagicV2 {
		s.malformed.Add(1)
		s.logf("rpc: refused %v: first byte %#x is not MagicV2", conn.RemoteAddr(), magic)
		return
	}
	s.accepted.Add(1)
	s.serveV2(conn, br)
}
