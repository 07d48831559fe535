package scheduler

import (
	"fmt"
	"slices"

	"repro/internal/grid"
)

// JobState tracks a job through the scheduler.
type JobState int

const (
	// Queued jobs wait for processors.
	Queued JobState = iota
	// Running jobs hold processors.
	Running
	// Done jobs have finished and released their processors.
	Done
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	default:
		return "done"
	}
}

// JobSpec describes a submitted application.
type JobSpec struct {
	Name        string
	App         string // application kind, e.g. "lu", "mm", "jacobi", "fft", "mw"
	ProblemSize int
	// BlockSize is the block-cyclic block dimension used when the job is
	// executed on the real runtime (ignored by the simulator).
	BlockSize  int
	Iterations int
	// Priority orders the queue: higher-priority jobs are scheduled first
	// (FCFS among equals). The default 0 reproduces plain FCFS.
	Priority int
	// Tenant names the submitting principal for multi-tenant fair-share
	// scheduling. The empty string is the default tenant, so single-tenant
	// deployments never see the field. Tenancy shapes *ordering* (which
	// tenant's job starts or resizes next under a fair-share arbiter), never
	// admission to the journal: the field rides inside the spec through the
	// WAL so recovery replays shares deterministically.
	Tenant      string
	InitialTopo grid.Topology
	// Chain is the job's legal configuration ladder in ascending processor
	// count (the paper's Table 2 row for this problem size).
	Chain []grid.Topology
}

// Job is the scheduler's view of one application.
type Job struct {
	ID      int
	Spec    JobSpec
	State   JobState
	Topo    grid.Topology
	Profile *Profile

	SubmitTime float64
	StartTime  float64
	EndTime    float64

	// pendingFree holds processors granted back by an in-flight shrink,
	// released when ResizeComplete arrives. A running job holds
	// Topo.Count() + pendingFree processors.
	pendingFree int
	// resizeFrom remembers the pre-resize configuration for profiling.
	resizeFrom grid.Topology
	// tenant, itersDone and at are derived state the running-set
	// bookkeeping keeps (see runningSet): the Spec.Tenant accumulator, the
	// count of profiled iterations, and 1 + the job's position in the
	// shrinkable index and in its expandable bucket (0: not filed).
	tenant    *tenantAcct
	itersDone int
	at        [2]int32
	// qprev/qnext thread the job into its wait-queue priority bucket (see
	// jobQueue.prioList); both are nil except while State == Queued.
	qprev, qnext *Job
}

// AllocEvent is one allocation change, forming the processor-allocation
// history of Figures 4(a)/5(a) and the busy-processor series of 4(b)/5(b).
type AllocEvent struct {
	Time  float64
	JobID int
	Job   string
	Kind  string // "submit", "start", "expand", "shrink", "end", "error"
	Topo  grid.Topology
	Busy  int // busy processors immediately after the event
}

// eventKind codes an AllocEvent's Kind in the trace; eventKinds names it.
type eventKind uint8

const (
	evSubmit eventKind = iota
	evStart
	evExpand
	evShrink
	evEnd
	evError
)

var eventKinds = [...]string{"submit", "start", "expand", "shrink", "end", "error"}

// allocRecord is how the trace stores an AllocEvent: 32 bytes and no
// pointers, so the trace costs the collector nothing to scan and a
// pre-sized one nothing to grow. The job's name is read from the job table
// and the kind's from eventKinds when the event is read. Job ids and grid
// dimensions fit 32 bits: the job table holds a pointer per id, and a
// dimension is at most the pool size.
type allocRecord struct {
	time       float64
	busy       int
	job        int32
	rows, cols int32
	kind       eventKind
}

// traceView is a prefix of a core's trace with the job table its records
// name jobs from. A reader holding one reads neither slice past its length,
// and the core writes neither below it: it only appends records, and files
// new jobs under new ids. So a view taken under the lock the core is
// mutated under can be read without it (the watch feed does).
type traceView struct {
	recs []allocRecord
	jobs []*Job
}

// at materializes event i, allocating nothing.
func (v traceView) at(i int) AllocEvent {
	r := &v.recs[i]
	return AllocEvent{
		Time: r.time, JobID: int(r.job), Job: v.jobs[r.job].Spec.Name, Kind: eventKinds[r.kind],
		Topo: grid.Topology{Rows: int(r.rows), Cols: int(r.cols)}, Busy: r.busy,
	}
}

// QueuedNeedsWindow caps the queue-pressure view Core hands to arbiters:
// ClusterSnapshot.Queued lists at most this many waiting jobs, head first.
// The bounded window keeps an arbitered Contact O(log n) even with hundreds
// of thousands of waiting jobs — so arbiters must size their reaction to the
// jobs they can see (in particular: never shrink more than the head needs on
// the basis of a truncated tail; see TestTruncatedWindowNeverOverShrinks).
const QueuedNeedsWindow = 8

// Core is the passive scheduler state machine: clock-independent (every
// mutation takes an explicit timestamp) so the same policy code drives both
// the real runtime and the virtual-time cluster simulation.
//
// Internally the core is built for scale: the wait queue is an indexed
// priority structure (see jobQueue) rather than a linear slice. The idle
// pool is one counter. Core methods must be externally synchronized (the
// Server does this; the simulator is single-threaded), so the counter needs
// no lock of its own.
type Core struct {
	Total    int
	Backfill bool
	// policy is the Remap Scheduler strategy (PaperPolicy unless SetPolicy
	// replaces it), consulted at every contact while no arbiter is set.
	policy Policy
	arb    Arbiter
	// journal, when installed, persists every validated input op before it
	// is applied (see journal.go).
	journal JournalFunc
	// commit, when installed, is the barrier a Server waits on between
	// applying an op and acknowledging it (see CommitFunc).
	commit CommitFunc
	free   int // idle processors
	nextID int
	queue  jobQueue
	jobs   jobTable
	arena  jobArena // the chunks jobs' records, iteration times and profile growth are carved from
	// running indexes the running jobs and keeps the per-tenant, in-flight
	// and shrinkable aggregates arbiter snapshots carry.
	running runningSet

	// events is the allocation trace, read through Events and EventCount.
	// Tracing can be disabled for huge simulations (DisableTrace);
	// utilization accounting stays exact either way via the busy-time
	// integral.
	events []allocRecord

	trace        bool
	busySeconds  float64 // integral of busy processors over virtual time
	lastBusy     int
	lastBusyTime float64

	// winViews caches the queued window arbiter snapshots hand out at every
	// contact, keyed on the queue's version alone (a QueuedView carries its
	// submission time, not its age), so contacts between two queue changes
	// share one O(k) rebuild. Core owns the slice: snapshot consumers must
	// not retain it across calls.
	winJobs   []*Job       // scratch: raw window from jobQueue.window
	winViews  []QueuedView // queuedWindow cache, valid for viewsVer
	headJobs  []*Job       // startPicked scratch: per-tenant queue heads
	headViews []QueuedView // startPicked scratch: the same heads as views
	started   []*Job       // TrySchedule's result, reused by the next call
	viewsVer  uint64
	viewsOK   bool
}

// NewCore creates a scheduler for a cluster with total processors, using
// the published Remap Scheduler policy.
func NewCore(total int, backfill bool) *Core {
	c := &Core{
		Total:    total,
		Backfill: backfill,
		policy:   PaperPolicy{},
		free:     total,
		trace:    true,
	}
	c.running.table = &c.jobs
	return c
}

// Deprecated: the processor pool is no longer sharded; use NewCore.
func NewCoreSharded(total, _ int, backfill bool) *Core { return NewCore(total, backfill) }

// Deprecated: the processor pool is no longer sharded.
func DefaultShards(int) int { return 1 }

// DisableTrace turns off AllocEvent recording (the busy-time integral keeps
// accumulating). Use for very large workloads where the trace itself would
// dominate memory.
func (c *Core) DisableTrace() { c.trace = false }

// ReserveEvents makes room in the trace for n more events, so a caller that
// knows roughly how many it will record (the simulator, from its mix) pays
// for the trace once instead of at every regrowth. With tracing disabled it
// reserves nothing.
func (c *Core) ReserveEvents(n int) {
	if c.trace {
		c.events = slices.Grow(c.events, n)
	}
}

// EventCount returns the number of events in the trace.
func (c *Core) EventCount() int { return len(c.events) }

// Events yields the trace in order, with each event's index, allocating
// nothing: for i, e := range c.Events.
func (c *Core) Events(yield func(int, AllocEvent) bool) {
	v := c.traceView()
	for i := range v.recs {
		if !yield(i, v.at(i)) {
			return
		}
	}
}

// traceView returns the whole trace as a view.
func (c *Core) traceView() traceView { return traceView{recs: c.events, jobs: c.jobs.byID} }

// Free returns the number of idle processors.
func (c *Core) Free() int { return c.free }

// Busy returns the number of allocated processors.
func (c *Core) Busy() int { return c.Total - c.free }

// QueueLen returns the number of waiting jobs.
func (c *Core) QueueLen() int { return c.queue.len() }

// SetPolicy replaces the Remap Scheduler policy; nil restores PaperPolicy.
func (c *Core) SetPolicy(p Policy) {
	if p == nil {
		p = PaperPolicy{}
	}
	c.policy = p
}

// SetArbiter installs a cluster-wide resize arbiter. A nil arbiter restores
// the default: every contact is decided by the policy alone, from the
// caller, the idle pool and the queue head's need, with no snapshot built.
//
// If the arbiter also implements StartPicker, the queue's per-tenant index
// is enabled (and backfilled from any already-queued jobs) so TrySchedule
// can offer the picker every tenant's queue head. Install the arbiter
// before replaying a journal so recovered runs take the identical path.
func (c *Core) SetArbiter(a Arbiter) {
	c.arb = a
	if _, ok := a.(StartPicker); ok {
		c.queue.enableTenantIndex()
	}
}

// BusySeconds returns the integral of busy processors over virtual time up
// to the until timestamp, the numerator of the utilization metric. It is
// exact whether or not event tracing is enabled.
func (c *Core) BusySeconds(until float64) float64 {
	s := c.busySeconds
	if until > c.lastBusyTime {
		s += float64(c.lastBusy) * (until - c.lastBusyTime)
	}
	return s
}

// jobTable files every job the core knows under its id. Submit hands out
// ids 0, 1, 2, …, so the table is a slice indexed by id; a core restored
// from a state with id gaps leaves nil slots for them.
type jobTable struct {
	byID []*Job
}

// get returns the job filed under id, or nil if there is none.
func (t *jobTable) get(id int) *Job {
	if uint(id) < uint(len(t.byID)) {
		return t.byID[id]
	}
	return nil
}

// put files j under its id. Ids arrive in increasing order.
func (t *jobTable) put(j *Job) {
	for len(t.byID) <= j.ID {
		t.byID = append(t.byID, nil)
	}
	t.byID[j.ID] = j
}

// Job looks up a job by id.
func (c *Core) Job(id int) (*Job, bool) {
	j := c.jobs.get(id)
	return j, j != nil
}

// Jobs returns all jobs in submission order.
func (c *Core) Jobs() []*Job {
	out := make([]*Job, 0, len(c.jobs.byID))
	for _, j := range c.jobs.byID {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}

func (c *Core) record(now float64, j *Job, kind eventKind) {
	busy := c.Busy()
	if now > c.lastBusyTime {
		c.busySeconds += float64(c.lastBusy) * (now - c.lastBusyTime)
		c.lastBusyTime = now
	}
	c.lastBusy = busy
	if c.trace {
		c.events = append(c.events, allocRecord{
			time: now, busy: busy, job: int32(j.ID),
			rows: int32(j.Topo.Rows), cols: int32(j.Topo.Cols), kind: kind,
		})
	}
}

// Submit enqueues a job and immediately tries to schedule the queue. It
// returns the job and any jobs started as a consequence (possibly including
// the submitted one), in a slice the core reuses (see TrySchedule).
func (c *Core) Submit(spec JobSpec, now float64) (*Job, []*Job, error) {
	if err := validateSpec(&spec, c.Total); err != nil {
		return nil, nil, err
	}
	// The op copies the spec, so it is built only for a journal.
	if c.journal != nil {
		if err := c.journalOp(&Op{Kind: OpSubmit, Now: now, Spec: spec}); err != nil {
			return nil, nil, err
		}
	}
	j := c.arena.newJob()
	j.ID = c.nextID
	j.Spec = spec
	j.State = Queued
	j.Topo = spec.InitialTopo
	j.SubmitTime = now
	c.nextID++
	j.tenant = c.running.account(spec.Tenant)
	c.jobs.put(j)
	c.queue.push(j)
	c.record(now, j, evSubmit)
	started := c.TrySchedule(now)
	return j, started, nil
}

// TrySchedule starts queued jobs under FCFS order, optionally backfilling
// later jobs that fit when the head does not. When the installed arbiter is
// a StartPicker, start order among *tenants* is delegated to it instead:
// the picker chooses among the per-tenant queue heads, while order within a
// tenant stays FCFS. With a single tenant the picker sees exactly the
// global head, so the path degenerates to the published FCFS loop. It
// returns the started jobs in a slice the core owns: it holds until the
// next call into the core, which reuses it, so a caller that keeps the jobs
// past that copies them out. Submit, ResizeComplete, Finish and Fail return
// the same slice.
func (c *Core) TrySchedule(now float64) []*Job {
	c.started = c.started[:0]
	if sp, ok := c.arb.(StartPicker); ok {
		c.startPicked(sp, now)
	} else {
		for {
			head := c.queue.head()
			if head == nil || head.Spec.InitialTopo.Count() > c.free {
				break
			}
			c.start(head, now)
		}
	}
	if c.Backfill {
		for {
			j := c.queue.bestFit(c.free)
			if j == nil {
				break
			}
			c.start(j, now)
		}
	}
	return c.started
}

// startPicked runs the StartPicker scheduling loop: each round offers the
// arbiter every tenant's queue head (ascending tenant order) and starts the
// job it picks, until the picker declines or the pick no longer fits. The
// rejected-pick break mirrors the FCFS loop's head check: a picker that
// chooses a job the idle pool cannot hold stalls the round rather than
// silently falling through to another tenant, preserving within-round
// determinism. Backfill, when enabled, still runs afterwards.
func (c *Core) startPicked(sp StartPicker, now float64) {
	for {
		c.headJobs = c.queue.tenantHeads(c.headJobs[:0])
		heads := c.headJobs
		if len(heads) == 0 {
			break
		}
		c.headViews = c.headViews[:0]
		for _, j := range heads {
			c.headViews = append(c.headViews, queuedView(j))
		}
		snap := StartSnapshot{
			Now:         now,
			Total:       c.Total,
			Idle:        c.free,
			Heads:       c.headViews,
			Tenants:     c.running.tenants(),
			PendingFree: c.running.pendingFree,
			Cluster:     &c.running,
		}
		i := sp.PickStart(snap)
		if i < 0 || i >= len(heads) {
			break
		}
		j := heads[i]
		if j.Spec.InitialTopo.Count() > c.free {
			break
		}
		c.start(j, now)
	}
}

// start takes the job's initial allocation from the idle pool, launches it
// and adds it to TrySchedule's result. The caller has checked that the
// allocation fits.
func (c *Core) start(j *Job, now float64) {
	// State leaves Queued before the queue drops the job so take's lazy
	// bucket sweep already sees this entry as dead.
	j.State = Running
	c.queue.take(j)
	j.StartTime = now
	j.Topo = j.Spec.InitialTopo
	c.free -= j.Topo.Count()
	c.running.start(j)
	c.record(now, j, evStart)
	c.started = append(c.started, j)
}

// queuedWindow lists the first waiting jobs in queue order as arbiter
// views, capped at QueuedNeedsWindow (nil when nothing waits). The slice is
// Core-owned scratch rebuilt only when the queue has changed since the last
// call, and must not be retained by snapshot consumers.
func (c *Core) queuedWindow() []QueuedView {
	if c.queue.len() == 0 {
		return nil
	}
	if !c.viewsOK || c.viewsVer != c.queue.version {
		c.winJobs = c.queue.window(c.winJobs[:0], QueuedNeedsWindow)
		c.winViews = c.winViews[:0]
		for _, j := range c.winJobs {
			c.winViews = append(c.winViews, queuedView(j))
		}
		c.viewsVer, c.viewsOK = c.queue.version, true
	}
	return c.winViews
}

// queuedView projects one waiting job into the arbiter's read-only view.
func queuedView(j *Job) QueuedView {
	return QueuedView{
		ID:       j.ID,
		Tenant:   j.Spec.Tenant,
		TenantID: j.tenant.id,
		Priority: j.Spec.Priority,
		Need:     j.Spec.InitialTopo.Count(),
		Submit:   j.SubmitTime,
	}
}

// snapshot fills s for a contact by caller at now, or for a planning tick
// when caller is nil (a zero Caller with ID -1). Queued and Tenants are
// rebuilt only when they changed, so a snapshot between two such changes
// writes a few words and allocates nothing. Callers fill one in their own
// frame: Go copies it into the Arbiter or Planner call once, where one kept
// behind a pointer would be copied twice, through a temporary.
func (c *Core) snapshot(s *ClusterSnapshot, caller *Job, now float64) {
	s.Now, s.Total, s.Idle = now, c.Total, c.free
	s.Caller.ID = -1
	if caller != nil {
		s.Caller.fill(caller)
	}
	s.Queued = c.queuedWindow()
	s.Tenants = c.running.tenants()
	s.PendingFree = c.running.pendingFree
	s.Cluster = &c.running
	s.stamp = Stamp{set: &c.running, usage: c.running.usageVer, queue: c.queue.version}
}

// Contact is the Remap Scheduler entry point: a running job reports its
// latest iteration time (and the redistribution time of its previous
// resize, if any) from a resize point, and receives the expand/shrink/none
// decision of the arbiter, or of the policy when no arbiter is set (a NaN,
// infinite or negative time is refused). Expansion reserves the additional
// processors immediately; shrinking releases processors only when the
// resize library confirms with ResizeComplete.
func (c *Core) Contact(jobID int, topo grid.Topology, iterTime, redistTime float64, now float64) (Decision, error) {
	j, err := validateContact(&c.jobs, jobID, topo, iterTime, redistTime)
	if err != nil {
		return Decision{}, err
	}
	if err := c.journalOp(&Op{
		Kind: OpContact, Now: now, JobID: jobID, Topo: topo,
		IterTime: iterTime, RedistTime: redistTime,
	}); err != nil {
		return Decision{}, err
	}
	c.recordIteration(j, iterTime)
	var d Decision
	if c.arb != nil {
		var snap ClusterSnapshot
		c.snapshot(&snap, j, now)
		d = c.arb.Decide(snap)
	} else {
		d = c.defaultDecide(j)
	}
	c.running.applyDecision(j, &d, &c.free, func(kind eventKind) { c.record(now, j, kind) })
	return d, nil
}

// ResizeComplete confirms that a granted resize finished: the redistribution
// cost is recorded in the profiler and, for shrinks, the freed processors
// return to the pool and queued jobs are scheduled onto them. It returns any
// jobs started as a result. A redistribution time that is NaN, infinite or
// negative, or a confirmation from a job that is not running or was granted
// no resize, is refused before the op is journaled.
func (c *Core) ResizeComplete(jobID int, redistTime float64, now float64) ([]*Job, error) {
	return c.resizeComplete(jobID, redistTime, now, true)
}

// resizeComplete checks that a resize was granted only when live: a log
// written before that check may hold a confirmation it refuses, and replay
// applies it as it was applied then.
func (c *Core) resizeComplete(jobID int, redistTime, now float64, live bool) ([]*Job, error) {
	if err := checkTime(jobID, "redistribution time", redistTime); err != nil {
		return nil, err
	}
	j := c.jobs.get(jobID)
	if j == nil {
		return nil, fmt.Errorf("scheduler: unknown job %d", jobID)
	}
	if live && (j.State != Running || !j.resizeFrom.IsValid()) {
		return nil, fmt.Errorf("scheduler: job %d confirmed a resize while %v with none granted", jobID, j.State)
	}
	if err := c.journalOp(&Op{Kind: OpResizeComplete, Now: now, JobID: jobID, RedistTime: redistTime}); err != nil {
		return nil, err
	}
	if freed := c.running.finishResize(j, redistTime, &c.arena); freed > 0 {
		c.free += freed
		c.running.released(j)
		return c.TrySchedule(now), nil
	}
	return nil, nil
}

// Finish marks a job done (the System Monitor's job-end signal), releases
// its processors and schedules waiting jobs. It returns any jobs started.
func (c *Core) Finish(jobID int, now float64) ([]*Job, error) {
	return c.complete(jobID, now, evEnd)
}

// Fail handles the System Monitor's job-error signal: the job is deleted
// and its resources recovered, exactly like normal completion except for
// the recorded event kind.
func (c *Core) Fail(jobID int, now float64) ([]*Job, error) {
	return c.complete(jobID, now, evError)
}

func (c *Core) complete(jobID int, now float64, kind eventKind) ([]*Job, error) {
	j, err := validateFinish(&c.jobs, jobID, eventKinds[kind])
	if err != nil {
		return nil, err
	}
	opKind := OpFinish
	if kind == evError {
		opKind = OpFail
	}
	if err := c.journalOp(&Op{Kind: opKind, Now: now, JobID: jobID}); err != nil {
		return nil, err
	}
	j.State = Done
	j.EndTime = now
	c.free += j.Topo.Count() + j.pendingFree
	c.running.finish(j)
	c.record(now, j, kind)
	return c.TrySchedule(now), nil
}
