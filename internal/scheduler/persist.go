package scheduler

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/grid"
)

// This file is the snapshot side of the durable control plane: CoreState is
// a self-contained, serializable image of the Core's scheduling state, deep
// enough to resume from without replaying the journal from genesis. The
// allocation-event trace is deliberately excluded — a recovered core starts
// with an empty trace, and watch-stream continuity is carried by the
// Server's event sequence number, which the snapshot owner persists
// alongside the CoreState (see internal/durability).

// PersistedJob is one job's serializable image.
type PersistedJob struct {
	ID    int
	Spec  JobSpec
	State JobState
	Topo  grid.Topology

	SubmitTime float64
	StartTime  float64
	EndTime    float64

	// PendingFree is an in-flight shrink's give-back (released at the next
	// ResizeComplete); ResizeFrom the pre-resize configuration awaiting its
	// redistribution-cost report.
	PendingFree int
	ResizeFrom  grid.Topology

	Profile *Profile
}

// CoreState is a serializable snapshot of the scheduler state machine.
type CoreState struct {
	Total    int
	Backfill bool
	NextID   int

	// Busy-time integral (utilization accounting survives recovery).
	BusySeconds  float64
	LastBusy     int
	LastBusyTime float64

	// Jobs in ascending id order.
	Jobs []PersistedJob
}

// PersistState captures the core's current state. The returned CoreState
// shares nothing with the live core (profiles are deep-copied), so the
// caller may serialize it after the core resumes mutating.
func (c *Core) PersistState() *CoreState {
	st := &CoreState{
		Total:        c.Total,
		Backfill:     c.Backfill,
		NextID:       c.nextID,
		BusySeconds:  c.busySeconds,
		LastBusy:     c.lastBusy,
		LastBusyTime: c.lastBusyTime,
		Jobs:         make([]PersistedJob, 0, len(c.jobs.byID)),
	}
	for _, j := range c.jobs.byID {
		if j == nil {
			continue
		}
		st.Jobs = append(st.Jobs, PersistedJob{
			ID: j.ID, Spec: j.Spec, State: j.State, Topo: j.Topo,
			SubmitTime: j.SubmitTime, StartTime: j.StartTime, EndTime: j.EndTime,
			PendingFree: j.pendingFree, ResizeFrom: j.resizeFrom,
			Profile: cloneProfile(j.Profile),
		})
	}
	return st
}

// cloneProfile deep-copies a performance profile into exact-length slices
// and leaves what is empty nil: Visits before the first iteration, Redist
// before the first redistribution (as a live profile does), IterTimes of an
// empty visit. The pairs are put in ascending key order, the order
// snapshots store them in, whatever order the job recorded them in. The
// snapshot decoder gives the same shape, so a state cloned here and one
// decoded from its bytes compare equal field by field.
func cloneProfile(p *Profile) *Profile {
	out := &Profile{}
	if p == nil {
		return out
	}
	if len(p.Visits) > 0 {
		out.Visits = make([]Visit, len(p.Visits))
	}
	for i, v := range p.Visits {
		out.Visits[i] = Visit{Topo: v.Topo, IterTimes: append([]float64(nil), v.IterTimes...)}
	}
	if len(p.Redist) > 0 {
		out.Redist = slices.Clone(p.Redist)
		slices.SortFunc(out.Redist, compareRedistKeys)
	}
	return out
}

// compareRedistKeys orders two pairs as their snapshot keys sort.
func compareRedistKeys(a, b RedistPair) int {
	var ka, kb [64]byte
	return bytes.Compare(a.AppendKey(ka[:0]), b.AppendKey(kb[:0]))
}

// NewCoreFromState rebuilds a Core from a snapshot: queued jobs re-enter
// the wait queue in their original head order (the queue's total order is
// (priority, id), both persisted), running jobs take their processors back
// from the idle counter, and the busy-time integral resumes where it left
// off. A state Submit and Contact could never produce is refused: a queued
// job larger than the cluster, a running job with a negative give-back, or
// running jobs holding more processors than the cluster has.
//
// Policy, arbiter and journal hooks are configuration, not state: the
// caller re-installs them (an arbiter's transient plan state, if any, is
// rebuilt at the next contact).
func NewCoreFromState(st *CoreState) (*Core, error) {
	if st.Total <= 0 {
		return nil, fmt.Errorf("scheduler: restore: invalid cluster size %d procs", st.Total)
	}
	c := NewCore(st.Total, st.Backfill)
	c.nextID = st.NextID
	c.busySeconds = st.BusySeconds
	c.lastBusy = st.LastBusy
	c.lastBusyTime = st.LastBusyTime
	lastID := -1
	for _, pj := range st.Jobs {
		if pj.ID <= lastID || pj.ID >= st.NextID {
			return nil, fmt.Errorf("scheduler: restore: job id %d out of order (last %d, next-id %d)",
				pj.ID, lastID, st.NextID)
		}
		lastID = pj.ID
		j := c.arena.newJob()
		j.ID, j.Spec, j.State, j.Topo = pj.ID, pj.Spec, pj.State, pj.Topo
		j.SubmitTime, j.StartTime, j.EndTime = pj.SubmitTime, pj.StartTime, pj.EndTime
		j.pendingFree, j.resizeFrom = pj.PendingFree, pj.ResizeFrom
		// The restored profile takes the state's visits and pairs as they
		// are: nil Redist and nil IterTimes are what a live profile holds
		// when empty. A job with no visits yet reserves at its first
		// iteration like a new one; the exact-length slices of one with
		// visits or pairs grow into carved room at the next visit or pair.
		if p := pj.Profile; p != nil {
			if len(p.Visits) > 0 {
				j.Profile.Visits = p.Visits
			}
			j.Profile.Redist = p.Redist
		}
		j.tenant = c.running.account(j.Spec.Tenant)
		j.itersDone = profiledIters(j.Profile)
		c.jobs.put(j)
		switch pj.State {
		case Queued:
			if !j.Spec.InitialTopo.IsValid() {
				return nil, fmt.Errorf("scheduler: restore: queued job %d has invalid topology", j.ID)
			}
			if need := j.Spec.InitialTopo.Count(); need > st.Total {
				return nil, fmt.Errorf("scheduler: restore: queued job %d needs %d procs, cluster has %d",
					j.ID, need, st.Total)
			}
			c.queue.push(j)
		case Running:
			need := j.Topo.Count() + j.pendingFree
			if !j.Topo.IsValid() || j.pendingFree < 0 {
				return nil, fmt.Errorf("scheduler: restore: running job %d has invalid allocation", j.ID)
			}
			if need > c.free {
				return nil, fmt.Errorf("scheduler: restore: running jobs overcommit the pool at job %d (%d procs, %d free)",
					j.ID, need, c.free)
			}
			c.free -= need
			c.running.start(j)
		case Done:
			// Nothing to index.
		default:
			return nil, fmt.Errorf("scheduler: restore: job %d has unknown state %d", j.ID, pj.State)
		}
	}
	return c, nil
}
