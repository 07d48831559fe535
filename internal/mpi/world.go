package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// World hosts a set of ranks (goroutines) and routes messages between them.
// A World is created implicitly by Run or explicitly by NewWorld; additional
// ranks may join later via Comm.Spawn.
//
// A rank that returns an error or panics aborts the World, as MPI_Abort
// does a job: from then on a receive that finds no matching message
// unwinds its rank instead of blocking on a peer that may never send, so
// Run returns the failing ranks' errors rather than hanging. A receive
// whose message is already queued still returns it. An aborted World stays
// aborted.
type World struct {
	mu      sync.Mutex
	nextGID int
	nextCtx int
	procs   []*proc // every rank's mailbox, woken by abort
	aborted bool

	wg    sync.WaitGroup
	errMu sync.Mutex
	errs  []error
}

// NewWorld returns an empty World ready to host ranks.
func NewWorld() *World {
	return &World{}
}

// Run creates a fresh World with n ranks, runs fn on every rank, waits for
// all ranks (including any spawned later) to finish, and returns the joined
// errors of the ranks that failed.
func Run(n int, fn func(*Comm) error) error {
	return NewWorld().Run(n, fn)
}

// Run launches n ranks executing fn over a new communicator of size n and
// blocks until every rank in the world (including ranks spawned during
// execution) has returned. The failing ranks' errors are joined.
func (w *World) Run(n int, fn func(*Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: Run needs at least 1 rank, got %d", n)
	}
	procs, ctx := w.allocProcs(n)
	for i, p := range procs {
		w.launch("rank", &Comm{world: w, proc: p, ctx: ctx, procs: procs, rank: i}, fn)
	}
	w.wg.Wait()
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return errors.Join(w.errs...)
}

// allocProcs creates n new ranks and a fresh context, returning the new
// mailboxes and the context id. Communicators hold their members' mailboxes
// directly, so a send never goes back through the World.
func (w *World) allocProcs(n int) (procs []*proc, ctx int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	procs = make([]*proc, n)
	for i := range procs {
		p := &proc{gid: w.nextGID, aborted: w.aborted}
		w.nextGID++
		p.cond = sync.NewCond(&p.mu)
		procs[i] = p
	}
	w.procs = append(w.procs, procs...)
	ctx = w.nextCtx
	w.nextCtx++
	return procs, ctx
}

// allocCtx reserves n fresh, consecutive communicator context ids and
// returns the first.
func (w *World) allocCtx(n int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	ctx := w.nextCtx
	w.nextCtx += n
	return ctx
}

// launch runs fn(c) as c's rank on a new goroutine tracked by the world. A
// rank that returns an error or panics records it, the panic with its
// stack, and aborts the world; a rank the abort unwinds records nothing.
func (w *World) launch(who string, c *Comm, fn func(*Comm) error) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		var err error
		defer func() {
			if r := recover(); r != nil {
				if _, unwound := r.(abortUnwind); !unwound {
					err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
				}
			}
			if err != nil {
				w.errMu.Lock()
				w.errs = append(w.errs, fmt.Errorf("%s %d (gid %d): %w", who, c.rank, c.proc.gid, err))
				w.errMu.Unlock()
				w.abort()
			}
		}()
		err = fn(c)
	}()
}

// abortUnwind is the panic value that unwinds a rank blocked in a receive
// of an aborted world.
type abortUnwind struct{}

// abort marks the world and every mailbox aborted and wakes every waiting
// receiver. A mailbox created later inherits the mark in allocProcs; both
// read or write it under w.mu, so no mailbox is missed.
func (w *World) abort() {
	w.mu.Lock()
	w.aborted = true
	procs := w.procs
	w.mu.Unlock()
	for _, p := range procs {
		p.mu.Lock()
		p.aborted = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}

// proc is the per-rank mailbox. Messages are matched on (context, source,
// tag) with FIFO order preserved among matching messages.
type proc struct {
	gid     int
	mu      sync.Mutex
	aborted bool // set once by World.abort, under mu
	cond    *sync.Cond
	q       []envelope
}

// envelope is a single in-flight message.
type envelope struct {
	ctx  int
	src  int // rank of the sender within the context's communicator
	tag  int
	data any
}

// deliver appends an envelope to the mailbox and wakes any waiting receiver.
func (p *proc) deliver(e envelope) {
	p.mu.Lock()
	p.q = append(p.q, e)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// take blocks until a message matching (ctx, src, tag) is available and
// removes it from the queue. src and tag may be AnySource / AnyTag. In an
// aborted world it unwinds the rank instead of blocking.
func (p *proc) take(ctx, src, tag int) envelope {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i := range p.q {
			e := p.q[i]
			if e.ctx != ctx {
				continue
			}
			if src != AnySource && e.src != src {
				continue
			}
			if tag != AnyTag && e.tag != tag {
				continue
			}
			p.q = append(p.q[:i], p.q[i+1:]...)
			return e
		}
		if p.aborted {
			panic(abortUnwind{})
		}
		p.cond.Wait()
	}
}
