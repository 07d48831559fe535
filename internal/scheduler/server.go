package scheduler

import (
	"context"
	"fmt"
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
// Wait/WaitAll never block on it.
//
// When the core carries a commit barrier (a durable control plane, see
// CommitFunc), every mutating call runs in two steps: under the lock it
// validates, journals and applies the op; then, with the lock released, it
// waits for the op's record to be durable and only after that publishes the
// op's watch events, launches the jobs it started, closes Wait channels and
// returns. Other calls take the lock meanwhile, so one disk flush covers
// many ops. What an op did is therefore in the core before it is durable:
// Status reads uncommitted state, while watchers, the JobStarter, Wait and
// the op's own caller see nothing until the commit. If the barrier fails
// the call returns the error, its effects are never published, and the
// journal refuses every later mutation; the process should exit.
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

	// Event broker state (see watch.go): pubIdx is the high-water mark
	// into core.Events already fanned out and seq the sequence number of the
	// last event published. applied is the sequence number of the last event
	// recorded: seq plus the events of ops still waiting for their commit.
	// It is atomic so durability snapshots can read it from inside the
	// journal hook, which runs while s.mu is already held by the mutating
	// call.
	subs    map[int]*subscriber
	nextSub int
	pubIdx  int
	seq     uint64
	applied atomic.Uint64
}

// NewServer wraps a new Core of total processors. starter may be nil when
// jobs are driven externally (e.g. by tests calling the client methods
// directly).
func NewServer(total int, backfill bool, starter JobStarter) *Server {
	return NewServerCore(NewCore(total, backfill), starter)
}

// NewServerCore wraps an explicitly configured Core (tracing disabled, a
// non-default policy or arbiter).
func NewServerCore(core *Core, starter JobStarter) *Server {
	return &Server{
		core:    core,
		starter: starter,
		//lint:allow detcore the server epoch is the one sanctioned wall-clock read; all scheduler timestamps derive from Now() relative to it
		epoch:  time.Now(),
		done:   make(map[int]chan struct{}),
		pubIdx: len(core.Events),
	}
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
		epoch:  time.Now().Add(-time.Duration(clock * float64(time.Second))),
		done:   make(map[int]chan struct{}),
		pubIdx: len(core.Events),
	}
	s.seq = seq
	s.applied.Store(seq)
	for _, j := range core.Jobs() {
		ch := make(chan struct{})
		if j.State == Done {
			close(ch)
		}
		s.done[j.ID] = ch
	}
	return s
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

// settle ends a mutating call whose op succeeded. The caller holds s.mu and
// settle releases it. With no commit barrier it publishes the op's events in
// the same lock hold. With one it releases the lock, waits until the op is
// durable, and then publishes every event up to the op's own high-water
// mark: commits complete in journal order, so everything before that mark is
// durable too, and whichever committer gets here first publishes for the
// others, in order and without gaps. Events past the mark belong to ops that
// may not be durable yet and are left to their own callers.
func (s *Server) settle() error {
	hwm := len(s.core.Events)
	s.applied.Store(s.seq + uint64(hwm-s.pubIdx))
	commit := s.core.commit
	if commit == nil {
		s.publishLocked(hwm)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := commit(); err != nil {
		return fmt.Errorf("scheduler: commit: %w", err)
	}
	s.mu.Lock()
	s.publishLocked(hwm)
	s.mu.Unlock()
	return nil
}

// Core exposes the underlying state machine for inspection (tests,
// experiment harnesses). Callers must not mutate it concurrently with
// server operation.
func (s *Server) Core() *Core { return s.core }

// Submit enqueues a job and returns its id; if processors are available it
// (and any backfilled jobs) start immediately via the JobStarter.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	job, started, err := s.core.Submit(spec, s.Now())
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.done[job.ID] = make(chan struct{})
	if err := s.settle(); err != nil {
		return 0, err
	}
	s.launch(started)
	return job.ID, nil
}

func (s *Server) launch(started []*Job) {
	if s.starter == nil {
		return
	}
	for _, j := range started {
		go s.starter(j)
	}
}

// Contact implements the resize library's contact_scheduler call.
func (s *Server) Contact(ctx context.Context, jobID int, topo grid.Topology, iterTime, redistTime float64) (Decision, error) {
	if err := ctx.Err(); err != nil {
		return Decision{}, err
	}
	s.mu.Lock()
	d, err := s.core.Contact(jobID, topo, iterTime, redistTime, s.Now())
	if err != nil {
		s.mu.Unlock()
		return Decision{}, err
	}
	if err := s.settle(); err != nil {
		return Decision{}, err
	}
	return d, nil
}

// ResizeComplete reports that a granted resize has finished; freed
// processors are recycled into queued jobs.
func (s *Server) ResizeComplete(ctx context.Context, jobID int, redistTime float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	started, err := s.core.ResizeComplete(jobID, redistTime, s.Now())
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.settle(); err != nil {
		return err
	}
	s.launch(started)
	return nil
}

// Rebalance drives one global-rebalancer planning tick: when the
// installed arbiter implements Planner, the tick is journaled and the
// planner recomputes its cluster-wide directive set (delivered at each
// job's next Contact). The daemon's -rebalance-every ticker calls this
// periodically; with no Planner installed it is a no-op.
func (s *Server) Rebalance(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.core.Rebalance(s.Now()); err != nil {
		s.mu.Unlock()
		return err
	}
	return s.settle()
}

// JobEnd is the System Monitor's job-completion signal.
func (s *Server) JobEnd(ctx context.Context, jobID int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.complete(jobID, s.core.Finish)
}

// JobError is the System Monitor's job-error signal: the application
// monitor reports an internal failure and the scheduler deletes the job and
// recovers its resources.
func (s *Server) JobError(ctx context.Context, jobID int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.complete(jobID, s.core.Fail)
}

func (s *Server) complete(jobID int, fn func(int, float64) ([]*Job, error)) error {
	s.mu.Lock()
	started, err := fn(jobID, s.Now())
	if err != nil {
		s.mu.Unlock()
		return err
	}
	ch := s.done[jobID]
	if err := s.settle(); err != nil {
		return err
	}
	if ch != nil {
		close(ch)
	}
	s.launch(started)
	return nil
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

// WaitAll blocks until every submitted job has finished or the context is
// done.
func (s *Server) WaitAll(ctx context.Context) error {
	s.mu.Lock()
	chans := make([]chan struct{}, 0, len(s.done))
	for _, ch := range s.done {
		//lint:allow detcore wait-on-all: every channel is received from regardless of order, so map-iteration order cannot leak
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
