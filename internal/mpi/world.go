package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// World hosts a set of ranks (goroutines) and routes messages between them.
// A World is created implicitly by Run or explicitly by NewWorld; additional
// ranks may join later via Comm.Spawn.
type World struct {
	mu      sync.Mutex
	nextGID int
	nextCtx int

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
// errors of all ranks.
func Run(n int, fn func(*Comm) error) error {
	return NewWorld().Run(n, fn)
}

// Run launches n ranks executing fn over a new communicator of size n and
// blocks until every rank in the world (including ranks spawned during
// execution) has returned. The per-rank errors are joined.
func (w *World) Run(n int, fn func(*Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: Run needs at least 1 rank, got %d", n)
	}
	procs, ctx := w.allocProcs(n)
	for i, p := range procs {
		w.launch(&Comm{world: w, proc: p, ctx: ctx, procs: procs, rank: i}, fn)
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
		p := &proc{gid: w.nextGID}
		w.nextGID++
		p.cond = sync.NewCond(&p.mu)
		procs[i] = p
	}
	ctx = w.nextCtx
	w.nextCtx++
	return procs, ctx
}

// allocCtx reserves a fresh communicator context id.
func (w *World) allocCtx() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	ctx := w.nextCtx
	w.nextCtx++
	return ctx
}

// launch starts fn on comm's rank in a new goroutine tracked by the world.
func (w *World) launch(c *Comm, fn func(*Comm) error) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if err := fn(c); err != nil {
			w.errMu.Lock()
			w.errs = append(w.errs, fmt.Errorf("rank %d (gid %d): %w", c.rank, c.proc.gid, err))
			w.errMu.Unlock()
		}
	}()
}

// proc is the per-rank mailbox. Messages are matched on (context, source,
// tag) with FIFO order preserved among matching messages.
type proc struct {
	gid  int
	mu   sync.Mutex
	cond *sync.Cond
	q    []envelope
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
// removes it from the queue. src and tag may be AnySource / AnyTag.
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
		p.cond.Wait()
	}
}
