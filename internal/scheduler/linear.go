package scheduler

import (
	"fmt"

	"repro/internal/grid"
)

// LinearCore is the pre-refactor scheduler core, kept as a reference
// implementation: a linearly scanned wait queue.
// Submission inserts with an O(n) shift, every scheduling pass rescans the
// whole queue, and Contact materializes the full queued-needs list, so the
// cost per operation grows with queue length.
//
// It exists for two reasons: differential tests drive LinearCore and Core
// with identical operation sequences and require identical schedules, and
// BenchmarkSchedulerThroughput measures the event-indexed core's speedup
// against it. Production code paths should use Core.
type LinearCore struct {
	Total    int
	Backfill bool
	Policy   Policy

	arb     Arbiter
	free    int
	nextID  int
	queue   []*Job
	jobs    map[int]*Job
	running runningSet

	Events []AllocEvent

	busySeconds  float64
	lastBusy     int
	lastBusyTime float64
}

// NewLinearCore creates the reference scheduler for a cluster with total
// processors.
func NewLinearCore(total int, backfill bool) *LinearCore {
	return &LinearCore{Total: total, Backfill: backfill, Policy: PaperPolicy{},
		free: total, jobs: make(map[int]*Job)}
}

// Free returns the number of idle processors.
func (c *LinearCore) Free() int { return c.free }

// Busy returns the number of allocated processors.
func (c *LinearCore) Busy() int { return c.Total - c.free }

// QueueLen returns the number of waiting jobs.
func (c *LinearCore) QueueLen() int { return len(c.queue) }

// SetPolicy replaces the Remap Scheduler policy.
func (c *LinearCore) SetPolicy(p Policy) { c.Policy = p }

// SetArbiter installs a cluster-wide resize arbiter (nil restores the
// default single-job policy path).
func (c *LinearCore) SetArbiter(a Arbiter) { c.arb = a }

// Arbiter returns the installed arbiter (nil for the default path).
func (c *LinearCore) Arbiter() Arbiter { return c.arb }

// AllocEvents returns the allocation trace.
func (c *LinearCore) AllocEvents() []AllocEvent { return c.Events }

// BusySeconds integrates busy processors over virtual time up to until.
func (c *LinearCore) BusySeconds(until float64) float64 {
	s := c.busySeconds
	if until > c.lastBusyTime {
		s += float64(c.lastBusy) * (until - c.lastBusyTime)
	}
	return s
}

// Job looks up a job by id.
func (c *LinearCore) Job(id int) (*Job, bool) {
	j, ok := c.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (c *LinearCore) Jobs() []*Job {
	out := make([]*Job, 0, len(c.jobs))
	for id := 0; id < c.nextID; id++ {
		if j, ok := c.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

func (c *LinearCore) record(now float64, j *Job, kind string) {
	busy := c.Busy()
	if now > c.lastBusyTime {
		c.busySeconds += float64(c.lastBusy) * (now - c.lastBusyTime)
		c.lastBusyTime = now
	}
	c.lastBusy = busy
	c.Events = append(c.Events, AllocEvent{
		Time: now, JobID: j.ID, Job: j.Spec.Name, Kind: kind, Topo: j.Topo, Busy: busy,
	})
}

// Submit enqueues a job with a linear priority-insertion scan and
// immediately tries to schedule the queue.
func (c *LinearCore) Submit(spec JobSpec, now float64) (*Job, []*Job, error) {
	j, err := newJob(spec, c.nextID, c.Total, now)
	if err != nil {
		return nil, nil, err
	}
	c.nextID++
	j.tenant = c.running.account(spec.Tenant)
	c.jobs[j.ID] = j
	pos := len(c.queue)
	for i, q := range c.queue {
		if j.Spec.Priority > q.Spec.Priority {
			pos = i
			break
		}
	}
	c.queue = append(c.queue, nil)
	copy(c.queue[pos+1:], c.queue[pos:])
	c.queue[pos] = j
	c.record(now, j, "submit")
	started := c.TrySchedule(now)
	return j, started, nil
}

// TrySchedule starts queued jobs under FCFS order with a full linear scan
// for backfill.
func (c *LinearCore) TrySchedule(now float64) []*Job {
	var started []*Job
	for len(c.queue) > 0 {
		head := c.queue[0]
		if head.Spec.InitialTopo.Count() > c.free {
			break
		}
		c.start(head, now)
		c.queue = c.queue[1:]
		started = append(started, head)
	}
	if c.Backfill {
		kept := c.queue[:0]
		for _, j := range c.queue {
			if j.Spec.InitialTopo.Count() <= c.free {
				c.start(j, now)
				started = append(started, j)
			} else {
				kept = append(kept, j)
			}
		}
		c.queue = kept
	}
	return started
}

func (c *LinearCore) start(j *Job, now float64) {
	j.State = Running
	j.StartTime = now
	j.Topo = j.Spec.InitialTopo
	c.free -= j.Topo.Count()
	c.running.start(j)
	c.record(now, j, "start")
}

// queuedNeeds lists the processor requirements of every waiting job.
func (c *LinearCore) queuedNeeds() []int {
	if len(c.queue) == 0 {
		return nil
	}
	needs := make([]int, len(c.queue))
	for i, j := range c.queue {
		needs[i] = j.Spec.InitialTopo.Count()
	}
	return needs
}

// queuedWindow lists every waiting job as an arbiter view. Unlike Core's
// bounded window, the reference implementation materializes the whole
// queue.
func (c *LinearCore) queuedWindow() []QueuedView {
	if len(c.queue) == 0 {
		return nil
	}
	out := make([]QueuedView, len(c.queue))
	for i, j := range c.queue {
		out[i] = queuedView(j)
	}
	return out
}

// snapshot assembles the arbiter's view of the cluster at a resize point.
func (c *LinearCore) snapshot(j *Job, now float64) ClusterSnapshot {
	snap := c.globalSnapshot(now)
	snap.Caller = contactView(j)
	return snap
}

// globalSnapshot assembles the caller-less planning-tick snapshot
// (Caller.ID = -1, mirroring Core).
func (c *LinearCore) globalSnapshot(now float64) ClusterSnapshot {
	return ClusterSnapshot{
		Now:         now,
		Total:       c.Total,
		Idle:        c.free,
		Caller:      ContactView{ID: -1},
		Queued:      c.queuedWindow(),
		QueueLen:    len(c.queue),
		Tenants:     c.running.tenants(),
		PendingFree: c.running.pendingFree,
		Cluster:     &c.running,
	}
}

// Rebalance drives a planning tick (reference implementation). The
// LinearCore has no journal, so unlike Core.Rebalance nothing is
// persisted; a Planner arbiter simply recomputes its plan.
func (c *LinearCore) Rebalance(now float64) error {
	if pl, ok := c.arb.(Planner); ok {
		pl.Rebalance(c.globalSnapshot(now))
	}
	return nil
}

// Contact is the Remap Scheduler entry point (reference implementation).
func (c *LinearCore) Contact(jobID int, topo grid.Topology, iterTime, redistTime float64, now float64) (Decision, error) {
	j, err := validateContact(c.jobs, jobID, topo)
	if err != nil {
		return Decision{}, err
	}
	c.running.recordIteration(j, iterTime)
	var d Decision
	if c.arb != nil {
		d = c.arb.Decide(c.snapshot(j, now))
	} else {
		d = defaultDecide(c.Policy, j, c.free, c.queuedNeeds())
	}
	return c.running.applyDecision(j, d, &c.free, func(kind string) { c.record(now, j, kind) }), nil
}

// ResizeComplete confirms a granted resize (reference implementation).
func (c *LinearCore) ResizeComplete(jobID int, redistTime float64, now float64) ([]*Job, error) {
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("scheduler: unknown job %d", jobID)
	}
	if freed := c.running.finishResize(j, redistTime); freed > 0 {
		c.free += freed
		c.running.released(j)
		return c.TrySchedule(now), nil
	}
	return nil, nil
}

// Finish marks a job done and recycles its processors.
func (c *LinearCore) Finish(jobID int, now float64) ([]*Job, error) {
	return c.complete(jobID, now, "end")
}

// Fail deletes an errored job and recovers its resources.
func (c *LinearCore) Fail(jobID int, now float64) ([]*Job, error) {
	return c.complete(jobID, now, "error")
}

func (c *LinearCore) complete(jobID int, now float64, kind string) ([]*Job, error) {
	j, err := finishJob(c.jobs, jobID, now, kind)
	if err != nil {
		return nil, err
	}
	c.free += j.Topo.Count() + j.pendingFree
	c.running.finish(j)
	c.record(now, j, kind)
	return c.TrySchedule(now), nil
}
