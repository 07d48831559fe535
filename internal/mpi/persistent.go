package mpi

import "fmt"

// Request is a persistent communication request bound to a fixed peer, tag
// and buffer, mirroring MPI_Send_init / MPI_Recv_init. A request may be
// started and waited on repeatedly; the per-array redistribution Plan
// starts and waits one request per communication-schedule step.
type Request struct {
	comm    *Comm
	send    bool
	peer    int
	tag     int
	buf     []float64
	started bool
}

// SendInit creates a persistent send request. Each Start snapshots the
// current contents of buf and delivers them to dst.
func (c *Comm) SendInit(dst, tag int, buf []float64) *Request {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: SendInit to invalid rank %d (size %d)", dst, c.Size()))
	}
	return &Request{comm: c, send: true, peer: dst, tag: tag, buf: buf}
}

// RecvInit creates a persistent receive request. Each Start posts the
// request; the matching Wait blocks until a message from src with tag
// arrives and copies it into buf.
func (c *Comm) RecvInit(src, tag int, buf []float64) *Request {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		panic(fmt.Sprintf("mpi: RecvInit from invalid rank %d (size %d)", src, c.Size()))
	}
	return &Request{comm: c, send: false, peer: src, tag: tag, buf: buf}
}

// Start initiates the operation. Sends complete eagerly (the buffer is
// copied immediately); a receive is posted and performed by Wait. The
// mailbox is unbounded, so posting a receive early buys nothing here:
// code that wants to overlap steps sends by reference with Send and
// receives with RecvFloats instead (see redistrib.MultiPlan).
func (r *Request) Start() {
	if r.started {
		panic("mpi: Request started twice without Wait")
	}
	r.started = true
	if r.send {
		r.comm.SendFloats(r.peer, r.tag, r.buf)
	}
}

// Wait completes the operation started by the last Start. For receives it
// blocks until the message arrives and fills the bound buffer; the message
// length must not exceed the buffer length.
func (r *Request) Wait() {
	if !r.started {
		panic("mpi: Wait on request that was not started")
	}
	r.started = false
	if r.send {
		return
	}
	got := r.comm.RecvFloats(r.peer, r.tag)
	if len(got) > len(r.buf) {
		panic(fmt.Sprintf("mpi: persistent recv overflow: message %d into buffer %d", len(got), len(r.buf)))
	}
	copy(r.buf, got)
}
