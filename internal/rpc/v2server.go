package rpc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// v2conn is the server side of one multiplexed v2 connection: a read loop
// decoding frames, concurrent per-request dispatch goroutines, and a group
// writer they all reply through.
type v2conn struct {
	srv  *Server
	conn net.Conn
	fw   *FrameWriter

	// ctx is cancelled when the connection dies or the server closes;
	// unary requests run under it, Wait and Watch under a child of it.
	//lint:allow ctxfirst connection-lifetime context: scoped to one conn's read loop, not carried across requests
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc

	// adm is this connection's admission scope (nil when the server has no
	// limits configured).
	adm *admEntry

	reqs sync.WaitGroup
}

// serveV2 runs a multiplexed session on conn (the magic byte has already
// been consumed; br may hold buffered bytes beyond it).
func (s *Server) serveV2(conn net.Conn, br *bufio.Reader) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	c := &v2conn{
		srv:      s,
		conn:     conn,
		fw:       NewFrameWriter(countedWriter{conn, &s.flushes}),
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[uint64]context.CancelFunc),
	}
	if s.limits.enabled() {
		c.adm = &admEntry{}
	}
	defer c.reqs.Wait()
	defer cancel()

	fr := NewFrameReader(br)
	for {
		f := framePool.Get().(*Frame)
		if err := fr.Read(f); err != nil {
			framePool.Put(f)
			if !errors.Is(err, ErrMalformed) {
				return // peer hung up, connection broke, or server closing
			}
			// Report the bad frame and drop the connection: nothing after
			// it can be trusted.
			s.malformed.Add(1)
			s.logf("rpc: malformed v2 frame from %v: %v", conn.RemoteAddr(), err)
			c.write(&Reply{Final: true, Err: err.Error(), Code: CodeBadRequest})
			return
		}
		switch {
		case f.ID == 0:
			// Framing is intact, the request is just invalid: reject it
			// and keep the connection.
			s.malformed.Add(1)
			c.write(&Reply{Final: true, Err: "rpc: request id must be nonzero", Code: CodeBadRequest})
		case f.Op == OpCancel:
			s.requests.Add(1)
			c.cancelRequest(f.CancelID)
			c.write(&Reply{ID: f.ID, Final: true})
		default:
			c.reqs.Add(1)
			s.handOff(c, f)
			continue
		}
		framePool.Put(f)
	}
}

// v2req is one decoded request on its way to a dispatch worker.
type v2req struct {
	c *v2conn
	f *Frame
}

// maxIdleWorkers bounds the dispatch workers parked between requests,
// server-wide: enough for every request a busy server has in flight at
// once, few enough that their stacks cost under a megabyte.
const maxIdleWorkers = 64

// handOff runs f on a parked dispatch worker, or on a new one if none is
// waiting.
func (s *Server) handOff(c *v2conn, f *Frame) {
	select {
	case s.work <- v2req{c, f}:
	default:
		s.wg.Add(1)
		go s.dispatchWorker(c, f)
	}
}

// dispatchWorker runs v2 requests, parking between them while fewer than
// maxIdleWorkers others are parked. A contact runs deep into the scheduler
// core; a goroutine per request would grow a fresh stack, by copying,
// every time.
func (s *Server) dispatchWorker(c *v2conn, f *Frame) {
	defer s.wg.Done()
	for {
		c.dispatch(f)
		if s.idleWorkers.Add(1) > maxIdleWorkers {
			s.idleWorkers.Add(-1)
			return
		}
		select {
		case r := <-s.work:
			s.idleWorkers.Add(-1)
			c, f = r.c, r.f
		case <-s.baseCtx.Done():
			return
		}
	}
}

// framePool recycles decoded request frames: the read loop decodes into
// one and hands it to a dispatch worker, which returns it once the final
// reply is written.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// countedWriter counts the writes a connection's FrameWriter makes, one
// per batch of reply frames.
type countedWriter struct {
	net.Conn
	n *atomic.Uint64
}

func (w countedWriter) Write(p []byte) (int, error) {
	w.n.Add(1)
	return w.Conn.Write(p)
}

// write sends one reply frame and returns once it is written; a failed
// write kills the connection.
func (c *v2conn) write(r *Reply) {
	c.queue(r)
	c.flush()
}

// queue adds one reply frame to the connection's pending batch.
func (c *v2conn) queue(r *Reply) {
	if err := c.fw.Queue(r); err != nil {
		c.cancel()
		return
	}
	c.srv.framesOut.Add(1)
}

// flush returns once every reply queued on the connection so far has been
// written; a peer that stops reading blocks it.
func (c *v2conn) flush() {
	if err := c.fw.Flush(); err != nil {
		c.cancel()
	}
}

// cancelRequest aborts the in-flight request registered under id (no-op if
// it already completed).
func (c *v2conn) cancelRequest(id uint64) {
	c.mu.Lock()
	cancel := c.inflight[id]
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// register claims id for an in-flight request; it fails if the id is
// already in use, enforcing the wire contract that request IDs are unique
// among a connection's in-flight requests. cancel is nil for unary ops:
// an OpCancel naming one is acknowledged and changes nothing.
func (c *v2conn) register(id uint64, cancel context.CancelFunc) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.inflight[id]; exists {
		return false
	}
	c.inflight[id] = cancel
	return true
}

func (c *v2conn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// dispatch runs one request to completion, writes its final reply and
// returns f to framePool. Requests on one connection execute concurrently;
// replies are matched by ID, not order.
//
// Only the blocking ops (Wait, Watch) get a context of their own, which
// OpCancel cancels. A unary op runs under the connection's context: its
// handler checks it once on entry and then completes.
func (c *v2conn) dispatch(f *Frame) {
	defer c.reqs.Done()
	defer framePool.Put(f)

	ctx := c.ctx
	var cancel context.CancelFunc
	if f.Op == OpWait || f.Op == OpWatch {
		ctx, cancel = context.WithCancel(c.ctx)
		defer cancel()
	}
	s := c.srv
	final := func(r Reply) {
		r.ID = f.ID
		r.Final = true
		c.write(&r)
	}
	if !c.register(f.ID, cancel) {
		s.malformed.Add(1)
		final(Reply{Err: "rpc: request id already in flight", Code: CodeBadRequest})
		return
	}
	defer c.unregister(f.ID)
	// Admission control runs before the scheduler sees the request; a
	// blocking op (Wait, Watch) holds its slots until the stream ends.
	release, admitted := s.admit(requestTenant(f.Op, f.Tenant, &f.Spec), c.adm)
	if !admitted {
		final(Reply{Err: ErrOverload.Error(), Code: CodeOverload})
		return
	}
	defer release()
	fail := func(err error) {
		if ctx.Err() != nil {
			final(Reply{Err: "rpc: request cancelled", Code: CodeCancelled})
			return
		}
		final(Reply{Err: err.Error(), Code: CodeApp})
	}

	switch f.Op {
	case OpSubmit:
		s.requests.Add(1)
		id, err := s.sched.Submit(ctx, f.Spec)
		if err != nil {
			fail(err)
			return
		}
		final(Reply{JobID: id})
	case OpContact:
		s.requests.Add(1)
		d, err := s.sched.Contact(ctx, f.JobID, f.Topo, f.IterTime, f.RedistTime)
		if err != nil {
			fail(err)
			return
		}
		final(Reply{Decision: d})
	case OpResizeComplete:
		s.requests.Add(1)
		if err := s.sched.ResizeComplete(ctx, f.JobID, f.RedistTime); err != nil {
			fail(err)
			return
		}
		final(Reply{})
	case OpJobEnd:
		s.requests.Add(1)
		if err := s.sched.JobEnd(ctx, f.JobID); err != nil {
			fail(err)
			return
		}
		final(Reply{})
	case OpJobError:
		s.requests.Add(1)
		if err := s.sched.JobError(ctx, f.JobID); err != nil {
			fail(err)
			return
		}
		final(Reply{})
	case OpWait:
		s.requests.Add(1)
		// A pending wait holds only this goroutine — the connection keeps
		// serving other requests.
		if err := s.sched.Wait(ctx, f.JobID); err != nil {
			fail(err)
			return
		}
		final(Reply{})
	case OpStatus:
		s.requests.Add(1)
		st, err := s.sched.Status(ctx)
		if err != nil {
			fail(err)
			return
		}
		final(Reply{Status: &st})
	case OpWatch:
		s.requests.Add(1)
		s.watches.Add(1)
		sub, err := s.sched.Watch(ctx, f.JobID)
		if err != nil {
			fail(err)
			return
		}
		defer sub.Cancel()
		// Every event already buffered goes out in the same batch. While
		// the peer is not reading, the flush blocks, sub.C fills and the
		// broker drops and counts what follows.
		for ev := range sub.C {
			c.queue(&Reply{ID: f.ID, Event: &ev})
			for len(sub.C) > 0 {
				ev := <-sub.C
				c.queue(&Reply{ID: f.ID, Event: &ev})
			}
			c.flush()
		}
		// Stream closed: subscription cancelled (client OpCancel, server
		// shutdown, or connection loss).
		final(Reply{})
	default:
		s.malformed.Add(1)
		final(Reply{Err: "rpc: unknown op " + string(f.Op), Code: CodeUnknownOp})
	}
}
