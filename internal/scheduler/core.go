package scheduler

import (
	"fmt"

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
	// tenant, itersDone and shrinkable are derived state the running-set
	// bookkeeping keeps (see runningSet): the Spec.Tenant accumulator, the
	// count of profiled iterations, and membership in the shrinkable index.
	tenant     *tenantAcct
	itersDone  int
	shrinkable bool
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
	Kind  string // "submit", "start", "expand", "shrink", "end"
	Topo  grid.Topology
	Busy  int // busy processors immediately after the event
}

// QueuedNeedsWindow caps the queue-pressure view Core hands to policies and
// arbiters: RemapInput.QueuedNeeds and ClusterSnapshot.Queued list at most
// this many waiting jobs, head first. The published policy only consults
// the head of the queue, and the bounded window keeps Contact O(log n) even
// with hundreds of thousands of waiting jobs — so policies must size their
// reaction to the jobs they can see (in particular: never shrink more than
// the head needs on the basis of a truncated tail; see
// TestTruncatedWindowNeverOverShrinks).
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
	// Policy is the Remap Scheduler strategy; defaults to PaperPolicy. It
	// is consulted through the default single-job arbiter unless SetArbiter
	// installs a cluster-wide one.
	Policy Policy

	arb Arbiter
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

	// Events is the allocation trace. Tracing can be disabled for huge
	// simulations (DisableTrace); utilization accounting stays exact either
	// way via the busy-time integral.
	Events []AllocEvent

	trace        bool
	busySeconds  float64 // integral of busy processors over virtual time
	lastBusy     int
	lastBusyTime float64

	// Materialized queued-window caches. Arbiter snapshots and the default
	// policy path consult the head window on every contact; rebuilding it
	// per event dominated the million-job profile. The caches are keyed on
	// the queue's version counter alone (a QueuedView carries its submission
	// time, not its age), so every contact between two queue changes shares
	// one O(k) rebuild into reusable scratch. The slices returned to callers
	// are therefore owned by Core: snapshot consumers must not retain them
	// across calls (already the arbiter contract).
	winJobs   []*Job       // scratch: raw window from jobQueue.window
	winNeeds  []int        // queuedNeeds cache, valid for needsVer
	winViews  []QueuedView // queuedWindow cache, valid for viewsVer
	headJobs  []*Job       // startPicked scratch: per-tenant queue heads
	headViews []QueuedView // startPicked scratch: the same heads as views
	started   []*Job       // TrySchedule's result, reused by the next call
	needsVer  uint64
	needsOK   bool
	viewsVer  uint64
	viewsOK   bool
}

// NewCore creates a scheduler for a cluster with total processors, using
// the published Remap Scheduler policy.
func NewCore(total int, backfill bool) *Core {
	c := &Core{
		Total:    total,
		Backfill: backfill,
		Policy:   PaperPolicy{},
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

// Free returns the number of idle processors.
func (c *Core) Free() int { return c.free }

// Busy returns the number of allocated processors.
func (c *Core) Busy() int { return c.Total - c.free }

// QueueLen returns the number of waiting jobs.
func (c *Core) QueueLen() int { return c.queue.len() }

// SetPolicy replaces the Remap Scheduler policy.
func (c *Core) SetPolicy(p Policy) { c.Policy = p }

// SetArbiter installs a cluster-wide resize arbiter. A nil arbiter restores
// the default: the single-job PolicyArbiter over c.Policy, which reproduces
// the published Contact behavior bit-identically.
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

func (c *Core) record(now float64, j *Job, kind string) {
	busy := c.Busy()
	if now > c.lastBusyTime {
		c.busySeconds += float64(c.lastBusy) * (now - c.lastBusyTime)
		c.lastBusyTime = now
	}
	c.lastBusy = busy
	if c.trace {
		c.Events = append(c.Events, AllocEvent{
			Time: now, JobID: j.ID, Job: j.Spec.Name, Kind: kind, Topo: j.Topo, Busy: busy,
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
	if err := c.journalOp(Op{Kind: OpSubmit, Now: now, Spec: spec}); err != nil {
		return nil, nil, err
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
	c.record(now, j, "submit")
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
	c.record(now, j, "start")
	c.started = append(c.started, j)
}

// queuedNeeds lists the processor requirements of the first waiting jobs
// in queue order, capped at QueuedNeedsWindow. The returned slice is
// Core-owned scratch, rebuilt only when the queue has changed since the
// last call; policies receive it via RemapInput.QueuedNeeds and must not
// retain it.
func (c *Core) queuedNeeds() []int {
	if c.queue.len() == 0 {
		return nil
	}
	if !c.needsOK || c.needsVer != c.queue.version {
		c.winJobs = c.queue.window(c.winJobs[:0], QueuedNeedsWindow)
		c.winNeeds = c.winNeeds[:0]
		for _, j := range c.winJobs {
			c.winNeeds = append(c.winNeeds, j.Spec.InitialTopo.Count())
		}
		c.needsVer, c.needsOK = c.queue.version, true
	}
	return c.winNeeds
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
		Priority: j.Spec.Priority,
		Need:     j.Spec.InitialTopo.Count(),
		Submit:   j.SubmitTime,
	}
}

// snapshot assembles the arbiter's view of the cluster at a resize point.
// Queued and queuedNeeds come from the version-keyed window caches and
// Tenants from the running set's usage list, each rebuilt only when it
// changed, so a snapshot between two such changes copies a few words and
// allocates nothing.
func (c *Core) snapshot(j *Job, now float64) ClusterSnapshot {
	snap := c.globalSnapshot(now)
	snap.Caller.fill(j)
	return snap
}

// globalSnapshot assembles the caller-less cluster snapshot a planning
// tick hands to a Planner arbiter: identical to a contact snapshot except
// that no job is at a resize point, marked by a zero Caller with ID -1.
func (c *Core) globalSnapshot(now float64) ClusterSnapshot {
	return ClusterSnapshot{
		Now:         now,
		Total:       c.Total,
		Idle:        c.free,
		Caller:      ContactView{ID: -1},
		Queued:      c.queuedWindow(),
		QueueLen:    c.queue.len(),
		Tenants:     c.running.tenants(),
		PendingFree: c.running.pendingFree,
		Cluster:     &c.running,
		queuedNeeds: c.queuedNeeds(),
	}
}

// Contact is the Remap Scheduler entry point: a running job reports its
// latest iteration time (and the redistribution time of its previous
// resize, if any) from a resize point, and receives the expand/shrink/none
// decision from the arbitration layer. Expansion reserves the additional
// processors immediately; shrinking releases processors only when the
// resize library confirms with ResizeComplete.
func (c *Core) Contact(jobID int, topo grid.Topology, iterTime, redistTime float64, now float64) (Decision, error) {
	j, err := validateContact(&c.jobs, jobID, topo)
	if err != nil {
		return Decision{}, err
	}
	if err := c.journalOp(Op{
		Kind: OpContact, Now: now, JobID: jobID, Topo: topo,
		IterTime: iterTime, RedistTime: redistTime,
	}); err != nil {
		return Decision{}, err
	}
	c.recordIteration(j, iterTime)
	var d Decision
	if c.arb != nil {
		d = c.arb.Decide(c.snapshot(j, now))
	} else {
		d = defaultDecide(c.Policy, j, c.free, c.queuedNeeds())
	}
	return c.running.applyDecision(j, d, &c.free, func(kind string) { c.record(now, j, kind) }), nil
}

// ResizeComplete confirms that a granted resize finished: the redistribution
// cost is recorded in the profiler and, for shrinks, the freed processors
// return to the pool and queued jobs are scheduled onto them. It returns any
// jobs started as a result.
func (c *Core) ResizeComplete(jobID int, redistTime float64, now float64) ([]*Job, error) {
	j := c.jobs.get(jobID)
	if j == nil {
		return nil, fmt.Errorf("scheduler: unknown job %d", jobID)
	}
	if err := c.journalOp(Op{Kind: OpResizeComplete, Now: now, JobID: jobID, RedistTime: redistTime}); err != nil {
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
	return c.complete(jobID, now, "end")
}

// Fail handles the System Monitor's job-error signal: the job is deleted
// and its resources recovered, exactly like normal completion except for
// the recorded event kind.
func (c *Core) Fail(jobID int, now float64) ([]*Job, error) {
	return c.complete(jobID, now, "error")
}

func (c *Core) complete(jobID int, now float64, kind string) ([]*Job, error) {
	j, err := validateFinish(&c.jobs, jobID, kind)
	if err != nil {
		return nil, err
	}
	opKind := OpFinish
	if kind == "error" {
		opKind = OpFail
	}
	if err := c.journalOp(Op{Kind: opKind, Now: now, JobID: jobID}); err != nil {
		return nil, err
	}
	j.State = Done
	j.EndTime = now
	c.free += j.Topo.Count() + j.pendingFree
	c.running.finish(j)
	c.record(now, j, kind)
	return c.TrySchedule(now), nil
}
