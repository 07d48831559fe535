package scheduler

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

// JobStarter launches a job's processes once the Application Scheduler
// allocates it (the paper's Job Startup thread hands the job to the
// application monitor on the first node). It runs on its own goroutine.
type JobStarter func(job *Job)

// Server is the active, real-time front of the scheduler: it wraps the
// passive Core with wall-clock timing, asynchronous job startup and a
// job-event broker, and implements the full capability interface
// (resize.Scheduler) the resizing library and the wire transports share —
// so in-process and remote schedulers are interchangeable, including
// Wait and Watch. Every call takes a context for deadline/cancel
// uniformity with the remote implementations; in-process calls other than
// Wait never block on it.
//
// Every mutation — Submit, Contact, ResizeComplete, JobEnd, JobError and
// Rebalance — is a Call on one ordered pipeline. Callers queue calls (the
// methods here do it and wait; the rpc server queues them straight from
// its read loops, see Enqueue). One apply goroutine takes everything
// queued, applies it in arrival order in one s.mu hold and, with no commit
// barrier, publishes the batch's watch events and completes its calls
// itself. With one (a durable control plane, see CommitFunc) it hands the
// batch and its event high-water mark to one committer goroutine and goes
// straight back to applying, so ops keep landing while a flush is in
// flight. The committer takes every batch handed over since its last
// flush, makes them durable with one commit, publishes the events up to
// the last batch's mark, and then completes each call in order: it closes
// Wait channels, launches the jobs the call started and runs its Done.
// What an op did is therefore in the core before it is durable: Status
// reads uncommitted state, while watchers, the JobStarter, Wait and the
// op's own caller see nothing until the commit. If the commit fails the
// calls it covered fail with the error, their effects are never
// published, and the journal refuses every later mutation; the process
// should exit.
//
// The pipeline goroutines reach the Server only through the calls they
// are working on, so a Server nobody holds any more is collected and its
// goroutines end.
//
// Mapping to the paper's five components: Submit is the Application
// Scheduler's command-line submission path; the JobStarter goroutines are
// the Job Startup thread; Contact is the Remap Scheduler; the Profile
// records maintained inside the Core are the Performance Profiler; and
// JobEnd/JobError are the System Monitor receiving signals from per-node
// application monitors.
type Server struct {
	mu      sync.Mutex
	core    *Core
	starter JobStarter
	epoch   time.Time
	done    map[int]chan struct{}

	// Event broker state (see watch.go): event i of the core's trace is
	// published as Seq seq0 + (i - idx0) + 1. applied is the Seq of the last
	// event recorded, published or still waiting for its commit. It is
	// atomic so durability snapshots can read it from inside the journal
	// hook, which runs while the apply goroutine holds s.mu.
	watch   watchFeed
	idx0    int
	seq0    uint64
	applied atomic.Uint64

	// intake feeds the apply goroutine, durable the committer (nil without
	// a commit barrier).
	intake, durable *callQueue
	ops, batches    atomic.Uint64
	maxBatch        atomic.Uint64
}

// NewServer wraps a new Core of total processors. starter may be nil when
// jobs are driven externally (e.g. by tests calling the client methods
// directly).
func NewServer(total int, backfill bool, starter JobStarter) *Server {
	return NewServerCore(NewCore(total, backfill), starter)
}

// NewServerCore wraps an explicitly configured Core (tracing disabled, a
// non-default policy or arbiter). The core's commit barrier, if any, must
// be installed before.
func NewServerCore(core *Core, starter JobStarter) *Server {
	s := &Server{
		core:    core,
		starter: starter,
		//lint:allow detcore the server epoch is the one sanctioned wall-clock read; all scheduler timestamps derive from Now() relative to it
		epoch: time.Now(),
		done:  make(map[int]chan struct{}),
	}
	s.start()
	return s
}

// NewServerRecovered wraps a core reconstructed by journal recovery. seq
// seeds the watch-event sequence so streams resume gap-detectably where
// the crashed server left off; clock is the last journaled timestamp, and
// the server's epoch is backdated so Now() continues monotonically past
// it. Wait channels are rebuilt for every recovered job (already closed
// for Done ones, so Wait returns immediately).
func NewServerRecovered(core *Core, seq uint64, clock float64, starter JobStarter) *Server {
	s := &Server{
		core:    core,
		starter: starter,
		//lint:allow detcore recovered-epoch backdating: the one wall-clock read that re-anchors the journaled clock after a crash
		epoch: time.Now().Add(-time.Duration(clock * float64(time.Second))),
		done:  make(map[int]chan struct{}),
		seq0:  seq,
	}
	s.applied.Store(seq)
	for _, j := range core.Jobs() {
		ch := make(chan struct{})
		if j.State == Done {
			close(ch)
		}
		s.done[j.ID] = ch
	}
	s.start()
	return s
}

// start publishes the events the core already holds, so watches start
// after them, and launches the pipeline goroutines, the committer only
// behind a commit barrier.
func (s *Server) start() {
	s.idx0 = s.core.EventCount()
	s.watch.events = s.core.traceView()
	s.watch.wake.L = &s.watch.mu
	s.intake = s.run(applyLoop)
	if s.core.commit != nil {
		s.durable = s.run(commitLoop)
	}
}

// run starts loop on a new queue. The goroutine holds only the queue, which
// references the Server only while it holds calls, so once nobody holds the
// Server and nothing is in flight the cleanup closes the queue and the
// goroutine exits.
func (s *Server) run(loop func(*callQueue)) *callQueue {
	q := &callQueue{ready: make(chan struct{}, 1)}
	go loop(q)
	runtime.AddCleanup(s, (*callQueue).close, q)
	return q
}

// RelaunchRunning invokes the JobStarter for every job the recovered core
// believes is running. A daemon whose workers live in-process calls this
// after recovery: the worker goroutines died with the old process, so the
// jobs restart on their recovered allocations. Externally driven jobs must
// NOT be relaunched — their workers survived and reconnect on their own.
func (s *Server) RelaunchRunning() []*Job {
	s.mu.Lock()
	var running []*Job
	for _, j := range s.core.Jobs() {
		if j.State == Running {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	s.launch(running)
	return running
}

// Now returns the scheduler clock in seconds since server start.
//
//lint:allow detcore Now() is the epoch boundary: the single conversion from wall clock to the deterministic scheduler clock
func (s *Server) Now() float64 { return time.Since(s.epoch).Seconds() }

// Seq returns the sequence number of the most recently recorded watch
// event, whether already published or still waiting for its op to commit:
// the number the event after the ops applied so far will follow. Durability
// snapshots persist it so a recovered server's streams continue the
// numbering; a snapshot captures the applied state, so it needs the applied
// count, not the published one.
func (s *Server) Seq() uint64 { return s.applied.Load() }

// Stats counts the apply goroutine's work since the Server started.
type Stats struct {
	// Ops is the number of mutating calls applied.
	Ops uint64
	// Batches is the number of batches they were applied in, one s.mu hold
	// each.
	Batches uint64
	// MaxBatch is the most calls one batch applied.
	MaxBatch uint64
}

// Stats returns the pipeline counters. Ops/Batches is the mean batch.
func (s *Server) Stats() Stats {
	return Stats{Ops: s.ops.Load(), Batches: s.batches.Load(), MaxBatch: s.maxBatch.Load()}
}

// Core exposes the underlying state machine for inspection (tests,
// experiment harnesses). Callers must not mutate it concurrently with
// server operation.
func (s *Server) Core() *Core { return s.core }

// Call is one mutating operation on its way through a Server's pipeline:
// the op's inputs, then its outcome.
type Call struct {
	// Op holds the kind and inputs; the apply goroutine stamps Now. Once
	// the call is done, a submit's JobID is the job it created.
	Op
	// Decision is a contact's answer.
	Decision Decision
	// Err is why the op was refused or its commit failed.
	Err error
	// Done runs once the outcome is final: the op is durable and its events
	// are published, or it failed. It runs on a pipeline goroutine, so it
	// must not block; the call may be reused as soon as it is called.
	Done func(*Call)

	srv *Server
	// started holds the jobs the op started, copied out of the core's
	// reused slice: the pipeline launches them only after later calls have
	// been applied. The storage stays with the call for its next op.
	started []*Job
	done    chan struct{}
}

// Enqueue hands c, whose Done must be set, to the apply goroutine. Calls
// run in the order they are queued, and c.Done runs when c is complete.
func (s *Server) Enqueue(c *Call) {
	c.srv = s
	s.intake.put(0, c)
}

// waiter is the Call of an in-process caller, which sleeps on wake until
// its Done.
type waiter struct {
	Call
	wake chan struct{}
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{wake: make(chan struct{}, 1)}
	w.Done = func(*Call) { w.wake <- struct{}{} }
	return w
}}

// do runs one op through the pipeline and waits for its outcome.
func (s *Server) do(ctx context.Context, op Op) (jobID int, d Decision, err error) {
	if err := ctx.Err(); err != nil {
		return 0, Decision{}, err
	}
	w := waiters.Get().(*waiter)
	w.Op = op
	s.Enqueue(&w.Call)
	<-w.wake
	jobID, d, err = w.JobID, w.Decision, w.Err
	w.Call = Call{Done: w.Done, started: w.started}
	waiters.Put(w)
	return jobID, d, err
}

// Submit enqueues a job and returns its id; if processors are available it
// (and any backfilled jobs) start immediately via the JobStarter.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (int, error) {
	id, _, err := s.do(ctx, Op{Kind: OpSubmit, Spec: spec})
	return id, err
}

// Contact implements the resize library's contact_scheduler call.
func (s *Server) Contact(ctx context.Context, jobID int, topo grid.Topology, iterTime, redistTime float64) (Decision, error) {
	_, d, err := s.do(ctx, Op{Kind: OpContact, JobID: jobID, Topo: topo, IterTime: iterTime, RedistTime: redistTime})
	return d, err
}

// ResizeComplete reports that a granted resize has finished; freed
// processors are recycled into queued jobs.
func (s *Server) ResizeComplete(ctx context.Context, jobID int, redistTime float64) error {
	_, _, err := s.do(ctx, Op{Kind: OpResizeComplete, JobID: jobID, RedistTime: redistTime})
	return err
}

// Rebalance drives one global-rebalancer planning tick: when the
// installed arbiter implements Planner, the tick is journaled and the
// planner recomputes its cluster-wide directive set (delivered at each
// job's next Contact). The daemon's -rebalance-every ticker calls this
// periodically; with no Planner installed it is a no-op.
func (s *Server) Rebalance(ctx context.Context) error {
	_, _, err := s.do(ctx, Op{Kind: OpRebalance})
	return err
}

// JobEnd is the System Monitor's job-completion signal.
func (s *Server) JobEnd(ctx context.Context, jobID int) error {
	_, _, err := s.do(ctx, Op{Kind: OpFinish, JobID: jobID})
	return err
}

// JobError is the System Monitor's job-error signal: the application
// monitor reports an internal failure and the scheduler deletes the job and
// recovers its resources.
func (s *Server) JobError(ctx context.Context, jobID int) error {
	_, _, err := s.do(ctx, Op{Kind: OpFail, JobID: jobID})
	return err
}

// Wait blocks until the job has finished or the context is done.
func (s *Server) Wait(ctx context.Context, jobID int) error {
	s.mu.Lock()
	ch, ok := s.done[jobID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("scheduler: wait: unknown job %d", jobID)
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// applyLoop is the apply goroutine: it applies each batch q yields and
// completes it, or hands it to the committer.
func applyLoop(q *callQueue) {
	var batch []*Call
	for {
		var ok bool
		if batch, _, ok = q.take(batch); !ok {
			return
		}
		s := batch[0].srv
		s.mu.Lock()
		for _, c := range batch {
			s.apply(c)
		}
		mark := s.core.EventCount()
		if s.durable == nil {
			s.publishLocked(mark)
			s.mu.Unlock()
			s.complete(batch, nil)
		} else {
			s.mu.Unlock()
			s.durable.put(mark, batch...)
		}
		n := uint64(len(batch))
		s.ops.Add(n)
		s.batches.Add(1)
		if n > s.maxBatch.Load() {
			s.maxBatch.Store(n)
		}
		clear(batch)
	}
}

// commitLoop is the committer: one commit covers every batch handed over
// since the last, and then they complete in order.
func commitLoop(q *callQueue) {
	var batch []*Call
	for {
		var (
			mark int
			ok   bool
		)
		if batch, mark, ok = q.take(batch); !ok {
			return
		}
		s := batch[0].srv
		err := s.core.commit()
		if err != nil {
			err = fmt.Errorf("scheduler: commit: %w", err)
		} else {
			// Commits complete in journal order, so everything below the
			// mark is durable now.
			s.mu.Lock()
			s.publishLocked(mark)
			s.mu.Unlock()
		}
		s.complete(batch, err)
		clear(batch)
	}
}

// apply runs one call against the core. The caller holds s.mu.
func (s *Server) apply(c *Call) {
	c.Now = s.Now()
	var started []*Job
	c.JobID, c.Decision, started, c.Err = s.core.apply(&c.Op, true)
	if c.Err == nil {
		switch c.Kind {
		case OpSubmit:
			s.done[c.JobID] = make(chan struct{})
		case OpFinish, OpFail:
			c.done = s.done[c.JobID]
		}
	}
	c.started = append(c.started[:0], started...)
	s.applied.Store(s.seq0 + uint64(s.core.EventCount()-s.idx0))
}

// complete ends each call of a batch whose events are published, or whose
// commit failed with commitErr: a call that succeeded closes its job's Wait
// channel and launches the jobs it started, and then every call's Done
// runs.
func (s *Server) complete(batch []*Call, commitErr error) {
	for _, c := range batch {
		if c.Err == nil {
			c.Err = commitErr
		}
		if c.Err == nil {
			if c.done != nil {
				close(c.done)
			}
			s.launch(c.started)
		}
		clear(c.started)
		c.srv, c.started, c.done = nil, c.started[:0], nil
		c.Done(c)
	}
}

func (s *Server) launch(started []*Job) {
	if s.starter == nil {
		return
	}
	for _, j := range started {
		go s.starter(j)
	}
}

// callQueue hands calls from any number of goroutines to one consumer:
// put appends under mu, and take swaps the whole queue for the slice the
// consumer drained last, so once both have grown neither side allocates.
type callQueue struct {
	mu     sync.Mutex
	calls  []*Call
	mark   int           // the event high-water mark the last put carried
	closed bool          // the Server is gone; the consumer exits
	ready  chan struct{} // a token wakes a consumer that found calls empty
}

func (q *callQueue) put(mark int, cs ...*Call) {
	q.mu.Lock()
	wake := len(q.calls) == 0
	q.calls = append(q.calls, cs...)
	q.mark = mark
	q.mu.Unlock()
	if wake {
		select {
		case q.ready <- struct{}{}:
		default:
		}
	}
}

// take waits until calls are queued and returns them with the last mark
// put, leaving drained (emptied) as the queue; ok is false once the queue
// is closed.
func (q *callQueue) take(drained []*Call) (cs []*Call, mark int, ok bool) {
	for {
		q.mu.Lock()
		if len(q.calls) > 0 {
			cs, mark = q.calls, q.mark
			q.calls = drained[:0]
			q.mu.Unlock()
			return cs, mark, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return nil, 0, false
		}
		<-q.ready
	}
}

func (q *callQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
}
