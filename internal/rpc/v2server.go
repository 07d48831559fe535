package rpc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/scheduler"
)

// v2conn is the server side of one multiplexed v2 connection: a read loop
// decoding frames and starting requests, a writer goroutine flushing the
// replies the scheduler's pipeline queues, and a goroutine for each request
// that stays off the pipeline.
type v2conn struct {
	srv  *Server
	conn net.Conn
	fw   *FrameWriter

	// ctx is cancelled when the connection dies or the server closes;
	// dispatched requests run under it, Wait and Watch under a child of it.
	//lint:allow ctxfirst connection-lifetime context: scoped to one conn's read loop, not carried across requests
	ctx    context.Context
	cancel context.CancelFunc

	// inflight holds the dispatched requests by ID, with the cancel of each
	// Wait and Watch.
	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc

	// adm is this connection's admission scope (nil when the server has no
	// limits configured).
	adm *admEntry

	// reqs counts the dispatched requests' goroutines; serveV2 waits for
	// them before it returns.
	reqs sync.WaitGroup

	// Pipelined calls (see call): live counts those taken and not yet
	// recycled, replied those whose reply is queued and not yet flushed.
	pmu     sync.Mutex
	free    []*v2call
	replied []*v2call
	live    int
	closing bool          // the read loop has stopped
	freed   chan struct{} // a token wakes a read loop waiting for a call
	wake    chan struct{} // a token wakes the writer
	wrote   chan struct{} // closed when the writer exits

	rf Frame // the frame the read loop decodes into
}

// maxUnflushed bounds one connection's pipelined requests that have no
// written reply yet. A peer that stops reading stalls its own read loop
// there, never the scheduler's pipeline or another connection.
const maxUnflushed = 128

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
		freed:    make(chan struct{}, 1),
		wake:     make(chan struct{}, 1),
		wrote:    make(chan struct{}),
	}
	if s.limits.enabled() {
		c.adm = &admEntry{}
	}
	go c.writeLoop()
	defer c.reqs.Wait()
	defer c.drain()
	defer cancel()

	fr := NewFrameReader(br)
	f := &c.rf
	for {
		if err := fr.Read(f); err != nil {
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
			c.request(f)
		}
	}
}

// request starts one request. An unknown op or an ID a dispatched request
// holds is refused, then admission runs, without blocking; a request that
// passes holds its slots until its final reply is written. The five unary
// mutations go straight onto the scheduler's pipeline, whose completion
// queues the reply for the writer; Wait, Status and Watch each run on a
// goroutine of their own. Refusals go out through the writer too, so
// nothing here waits for the peer to read.
func (c *v2conn) request(f *Frame) {
	s := c.srv
	kind, pipelined := pipelineKind(f.Op)
	switch {
	case !pipelined && f.Op != OpWait && f.Op != OpStatus && f.Op != OpWatch:
		s.malformed.Add(1)
		c.refuse(f.ID, "rpc: unknown op "+string(f.Op), CodeUnknownOp)
		return
	case c.claimed(f.ID):
		s.malformed.Add(1)
		c.refuse(f.ID, "rpc: request id already in flight", CodeBadRequest)
		return
	}
	te, ok := s.admit(requestTenant(f.Op, f.Tenant, &f.Spec), c.adm)
	if !ok {
		c.refuse(f.ID, ErrOverload.Error(), CodeOverload)
		return
	}
	s.requests.Add(1)
	if !pipelined {
		r := v2req{id: f.ID, op: f.Op, jobID: f.JobID, te: te, ctx: c.ctx}
		// Only the blocking ops get a context of their own, which OpCancel
		// cancels.
		if f.Op == OpWait || f.Op == OpWatch {
			r.ctx, r.cancel = context.WithCancel(c.ctx)
		}
		c.register(f.ID, r.cancel)
		c.reqs.Add(1)
		go c.dispatch(r)
		return
	}
	vc := c.call()
	if vc == nil {
		s.release(te, c.adm)
		return
	}
	vc.id, vc.te = f.ID, te
	vc.Op = scheduler.Op{Kind: kind, JobID: f.JobID, Spec: f.Spec, Topo: f.Topo, IterTime: f.IterTime, RedistTime: f.RedistTime}
	s.sched.Enqueue(&vc.Call)
}

// pipelineKind maps the ops that run on the scheduler's pipeline to their
// journal kinds.
func pipelineKind(op Op) (scheduler.OpKind, bool) {
	switch op {
	case OpSubmit:
		return scheduler.OpSubmit, true
	case OpContact:
		return scheduler.OpContact, true
	case OpResizeComplete:
		return scheduler.OpResizeComplete, true
	case OpJobEnd:
		return scheduler.OpFinish, true
	case OpJobError:
		return scheduler.OpFail, true
	}
	return 0, false
}

// v2call is one pipelined request: the scheduler call and what its reply
// needs. The connection recycles it once the reply is written.
type v2call struct {
	scheduler.Call
	c         *v2conn
	id        uint64
	te        *admEntry // the tenant admission scope it holds a slot in
	msg, code string    // the refusal of a request the scheduler never saw
}

// call returns a free call, waiting while maxUnflushed are out; nil means
// the connection is closing.
func (c *v2conn) call() *v2call {
	for {
		c.pmu.Lock()
		if n := len(c.free); n > 0 {
			vc := c.free[n-1]
			c.free = c.free[:n-1]
			c.live++
			c.pmu.Unlock()
			return vc
		}
		if c.live < maxUnflushed {
			c.live++
			c.pmu.Unlock()
			vc := &v2call{c: c}
			vc.Done = vc.replied
			return vc
		}
		c.pmu.Unlock()
		select {
		case <-c.freed:
		case <-c.ctx.Done():
			return nil
		}
	}
}

// refuse answers a request the scheduler never sees. The reply goes out
// through the writer, so the read loop does not wait for the peer to read.
func (c *v2conn) refuse(id uint64, msg, code string) {
	if vc := c.call(); vc != nil {
		vc.id, vc.msg, vc.code = id, msg, code
		vc.replied(nil)
	}
}

// replied is a call's completion: it queues the final reply and hands the
// call to the writer. It runs on the scheduler's pipeline, and never blocks.
func (vc *v2call) replied(*scheduler.Call) {
	r := Reply{ID: vc.id, Final: true, Err: vc.msg, Code: vc.code}
	switch {
	case r.Code != "":
	case vc.Err != nil:
		r.Err, r.Code = vc.Err.Error(), CodeApp
	case vc.Kind == scheduler.OpSubmit:
		r.JobID = vc.JobID
	case vc.Kind == scheduler.OpContact:
		r.Decision = vc.Decision
	}
	c := vc.c
	c.queue(&r)
	c.pmu.Lock()
	c.replied = append(c.replied, vc)
	c.pmu.Unlock()
	signal(c.wake)
}

// writeLoop is the connection's writer: each wake-up it flushes every reply
// queued so far, then releases the admission slots of the calls those
// replies answered and recycles them. It exits once the read loop has
// stopped and every call is back.
func (c *v2conn) writeLoop() {
	defer close(c.wrote)
	var batch []*v2call
	for {
		<-c.wake
		c.pmu.Lock()
		batch, c.replied = c.replied, batch[:0]
		c.pmu.Unlock()
		if len(batch) > 0 {
			c.flush()
		}
		for _, vc := range batch {
			c.srv.release(vc.te, c.adm)
			*vc = v2call{Call: scheduler.Call{Done: vc.Done}, c: c}
		}
		c.pmu.Lock()
		c.free = append(c.free, batch...)
		c.live -= len(batch)
		last := c.closing && c.live == 0
		c.pmu.Unlock()
		clear(batch)
		signal(c.freed)
		if last {
			return
		}
	}
}

// drain waits, once the read loop has stopped, for every pipelined call to
// come back and the writer to exit.
func (c *v2conn) drain() {
	c.pmu.Lock()
	c.closing = true
	c.pmu.Unlock()
	signal(c.wake)
	<-c.wrote
}

// signal leaves a wake-up token on ch unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// v2req is one dispatched request: what it asks for, the tenant admission
// scope it holds a slot in, and the context it runs under (cancel is nil
// for Status).
type v2req struct {
	id    uint64
	op    Op
	jobID int
	te    *admEntry
	//lint:allow ctxfirst a dispatched request's context, carried from the read loop that registered it to its goroutine
	ctx    context.Context
	cancel context.CancelFunc
}

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

// register records a dispatched request's id, which the read loop has
// found free: request IDs are unique among a connection's in-flight
// requests, and the server refuses a request whose ID a dispatched one
// holds. cancel is nil for Status: an OpCancel naming it, or a pipelined
// op, is acknowledged and changes nothing.
func (c *v2conn) register(id uint64, cancel context.CancelFunc) {
	c.mu.Lock()
	c.inflight[id] = cancel
	c.mu.Unlock()
}

// claimed reports whether a dispatched request holds id.
func (c *v2conn) claimed(id uint64) bool {
	c.mu.Lock()
	_, ok := c.inflight[id]
	c.mu.Unlock()
	return ok
}

func (c *v2conn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// dispatch runs one dispatched request to completion, releases its ID and
// writes its final reply, and then releases its admission slots: a peer that
// has read the final reply may reuse the ID at once. Requests on one
// connection execute concurrently; replies are matched by ID, not order.
func (c *v2conn) dispatch(r v2req) {
	defer c.reqs.Done()
	s, ctx := c.srv, r.ctx
	defer s.release(r.te, c.adm)
	if r.cancel != nil {
		defer r.cancel()
	}
	final := func(rep Reply) {
		c.unregister(r.id)
		rep.ID = r.id
		rep.Final = true
		c.write(&rep)
	}
	fail := func(err error) {
		if ctx.Err() != nil {
			final(Reply{Err: "rpc: request cancelled", Code: CodeCancelled})
			return
		}
		final(Reply{Err: err.Error(), Code: CodeApp})
	}

	switch r.op {
	case OpWait:
		// A pending wait holds only this goroutine — the connection keeps
		// serving other requests.
		if err := s.sched.Wait(ctx, r.jobID); err != nil {
			fail(err)
			return
		}
		final(Reply{})
	case OpStatus:
		st, err := s.sched.Status(ctx)
		if err != nil {
			fail(err)
			return
		}
		final(Reply{Status: &st})
	case OpWatch:
		sub, err := s.sched.Watch(ctx, r.jobID)
		if err != nil {
			fail(err)
			return
		}
		s.watches.Add(1)
		defer sub.Cancel()
		// Every event already buffered goes out in the same batch. While
		// the peer is not reading, the flush blocks, sub.C fills and the
		// subscription's cursor waits: nothing is lost.
		for ev := range sub.C {
			c.queue(&Reply{ID: r.id, Event: &ev})
			for len(sub.C) > 0 {
				ev := <-sub.C
				c.queue(&Reply{ID: r.id, Event: &ev})
			}
			c.flush()
		}
		// Stream closed: subscription cancelled (client OpCancel, server
		// shutdown, or connection loss).
		final(Reply{})
	}
}
