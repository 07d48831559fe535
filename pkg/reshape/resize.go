package reshape

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/redistrib"
	"repro/internal/resize"
	"repro/internal/scheduler"
)

// resizePoint is the paper's resize call: given the grid-averaged
// iteration time (logIteration's result) it contacts the scheduler and
// actuates the decision, expanding, shrinking and redistributing as
// needed. It reports retired on ranks a shrink retired; those must leave
// the loop at once. Collective: every rank passes the same average.
func (rc *Context) resizePoint(avg float64) (retired bool, err error) {
	d, err := rc.contact(avg, rc.lastRedist)
	if err != nil {
		return false, err
	}
	switch d.Action {
	case scheduler.ActionExpand:
		return false, rc.expand(d.Target)
	case scheduler.ActionShrink:
		return rc.shrink(d.Target)
	}
	rc.lastRedist = 0
	return false, nil
}

// contact is the paper's contact_scheduler: rank 0 reports (iterTime,
// redistTime) and the decision is broadcast to every rank. Collective.
func (rc *Context) contact(iterTime, redistTime float64) (scheduler.Decision, error) {
	type wire struct {
		d   scheduler.Decision
		err string
	}
	var w wire
	if rc.comm.Rank() == 0 {
		d, err := rc.r.cfg.client.Contact(context.Background(), rc.r.cfg.jobID, rc.topo, iterTime, redistTime)
		w.d = d
		if err != nil {
			w.err = err.Error()
		}
	}
	w = rc.comm.Bcast(0, w).(wire)
	if w.err != "" {
		return scheduler.Decision{}, fmt.Errorf("resize: contact scheduler: %s", w.err)
	}
	return w.d, nil
}

// resized adopts the communicator and grid a topology change produced and
// confirms the change, with its measured cost, to the scheduler (rank 0).
func (rc *Context) resized(comm *mpi.Comm, target grid.Topology, start time.Time) error {
	g, err := blacs.New(comm, target)
	if err != nil {
		return err
	}
	rc.comm, rc.grid, rc.topo = comm, g, target
	rc.lastRedist = time.Since(start).Seconds()
	if rc.comm.Rank() == 0 {
		return rc.r.cfg.client.ResizeComplete(context.Background(), rc.r.cfg.jobID, rc.lastRedist)
	}
	return nil
}

// done signals job completion to the scheduler (rank 0 only), mirroring the
// application monitor's job-end message, and returns the rank's spare
// pieces to the arena. Array.Data stays the caller's.
func (rc *Context) done() error {
	rc.recycleSpares()
	if rc.comm.Rank() == 0 {
		return rc.r.cfg.client.JobEnd(context.Background(), rc.r.cfg.jobID)
	}
	return nil
}

// recycleSpares returns every spare piece, which only this rank holds, to
// the arena.
func (rc *Context) recycleSpares() {
	for i, s := range rc.spares {
		mpi.PutFloats(s)
		rc.spares[i] = nil
	}
}

// copyReplicated deep-copies a replicated-buffer map.
func copyReplicated(src map[string][]float64) map[string][]float64 {
	dst := make(map[string][]float64, len(src))
	for name, data := range src {
		cp := make([]float64, len(data))
		copy(cp, data)
		dst[name] = cp
	}
	return dst
}

// childBootstrap carries everything a spawned rank needs to join the
// application mid-flight.
type childBootstrap struct {
	iter       int
	oldTopo    grid.Topology
	newTopo    grid.Topology
	arrayMeta  []resize.Array // shapes only; Data nil
	replicated map[string][]float64
}

// expand grows the processor set to target (Figure 1(b), expand path):
// spawn the additional ranks, merge into a single intracommunicator,
// redistribute every registered array and rebuild the grid context. The
// spawned ranks enter the runner's loop once bootstrapped. Collective over
// the current communicator.
func (rc *Context) expand(target grid.Topology) error {
	k := target.Count() - rc.topo.Count()
	if k <= 0 {
		return fmt.Errorf("resize: expand target %v not larger than current %v", target, rc.topo)
	}
	start := time.Now()

	var boot childBootstrap
	if rc.comm.Rank() == 0 {
		boot = childBootstrap{
			iter:       rc.iter,
			oldTopo:    rc.topo,
			newTopo:    target,
			arrayMeta:  make([]resize.Array, len(rc.arrays)),
			replicated: copyReplicated(rc.replicated),
		}
		for i, a := range rc.arrays {
			boot.arrayMeta[i] = resize.Array{Name: a.Name, M: a.M, N: a.N, MB: a.MB, NB: a.NB}
		}
	}
	r := rc.r

	ic := rc.comm.Spawn(k, func(childIC *mpi.Intercomm) error {
		merged := childIC.Merge()
		// Children receive the bootstrap from rank 0 of the merged comm.
		b := merged.Bcast(0, childBootstrap{}).(childBootstrap)
		cs := &Context{r: r, comm: merged, topo: b.newTopo, iter: b.iter, replicated: copyReplicated(b.replicated)}
		for _, m := range b.arrayMeta {
			cs.RegisterArray(m.Name, m.M, m.N, m.MB, m.NB)
		}
		// Participate in the redistribution (receiving side only), on the
		// plan the parent ranks execute.
		if err := cs.redistribute(merged, b.oldTopo, b.newTopo); err != nil {
			return err
		}
		g, err := blacs.New(merged, b.newTopo)
		if err != nil {
			return err
		}
		cs.grid = g
		return r.joined(cs)
	})

	merged := ic.Merge()
	// Rank 0 of the old comm is rank 0 of the merged comm: publish bootstrap.
	// Pre-existing non-root ranks adopt its replicated buffers too, so the
	// whole grown processor set leaves the expansion with identical
	// replicated state (children copy theirs out of the same broadcast).
	published := merged.Bcast(0, boot).(childBootstrap)
	if merged.Rank() != 0 {
		rc.replicated = copyReplicated(published.replicated)
	}
	if err := rc.redistribute(merged, rc.topo, target); err != nil {
		return err
	}
	return rc.resized(merged, target, start)
}

// shrink reduces the processor set to target (Figure 1(b), shrink path):
// redistribute arrays to the surviving rank prefix, carve the survivor
// sub-communicator, rebuild the grid context, and retire the excess ranks
// (which report retired). Collective over the current communicator.
func (rc *Context) shrink(target grid.Topology) (retired bool, err error) {
	if target.Count() >= rc.topo.Count() {
		return false, fmt.Errorf("resize: shrink target %v not smaller than current %v", target, rc.topo)
	}
	start := time.Now()
	// Rank 0's replicated buffers are authoritative at resize time:
	// survivors adopt its view, mirroring the expansion-side re-broadcast
	// through the child bootstrap.
	published := rc.comm.Bcast(0, rc.replicated).(map[string][]float64)
	if rc.comm.Rank() != 0 {
		rc.replicated = copyReplicated(published)
	}
	if err := rc.redistribute(rc.comm, rc.topo, target); err != nil {
		return false, err
	}
	survivors := make([]int, target.Count())
	for i := range survivors {
		survivors[i] = i
	}
	sub := rc.comm.Sub(survivors)
	if sub == nil {
		// This rank was shrunk away and must exit. The redistribution
		// packed every float it held into wire buffers of its own, so no
		// rank reads its old pieces again: they go back to the arena.
		rc.recycleSpares()
		return true, nil
	}
	return false, rc.resized(sub, target, start)
}

// maxPlans bounds the shared plan cache. A job uses one entry per (from,
// to) grid pair of its tour, so only a process running many distinct array
// shapes fills it; the cache then starts over.
const maxPlans = 64

// plans is the process-wide cache of fused redistribution plans, keyed by
// the array set's full (source, destination) layout tuple. A MultiPlan is
// immutable, so every rank of a job — spawned children included — and
// every later job with the same shapes executes one shared plan, and the
// paper's oscillation around a sweet spot builds no tables after its first
// cycle. An entry is built once even when every rank asks at the same
// time: the first caller builds it under the entry's Once, the others wait
// on it.
var plans = struct {
	sync.Mutex
	m map[string]*planEntry
}{m: make(map[string]*planEntry)}

// planEntry is one cached plan, or the error building it gave.
type planEntry struct {
	once sync.Once
	mp   *redistrib.MultiPlan
	err  error
}

// buildPlan builds a plan on a cache miss; a variable so tests can count
// builds.
var buildPlan = newMultiPlan

// planFor returns the shared fused plan that moves arrays from one
// topology to another, building it on first use. A hit allocates nothing.
func planFor(arrays []*resize.Array, from, to grid.Topology) (*redistrib.MultiPlan, error) {
	var buf [128]byte
	key := appendPlanKey(buf[:0], arrays, from, to)
	plans.Lock()
	e := plans.m[string(key)]
	if e == nil {
		if len(plans.m) >= maxPlans {
			clear(plans.m)
		}
		e = new(planEntry)
		plans.m[string(key)] = e
	}
	plans.Unlock()
	e.once.Do(func() { e.mp, e.err = buildPlan(arrays, from, to) })
	return e.mp, e.err
}

// appendPlanKey appends the plan key of an array set to b: every array's
// source and destination layout, in registration order, as varints (a
// prefix code, so distinct tuples never share a key).
func appendPlanKey(b []byte, arrays []*resize.Array, from, to grid.Topology) []byte {
	for _, a := range arrays {
		for _, l := range [2]blockcyclic.Layout{a.LayoutFor(from), a.LayoutFor(to)} {
			for _, v := range [...]int{l.M, l.N, l.MB, l.NB, l.Grid.Rows, l.Grid.Cols} {
				b = binary.AppendVarint(b, int64(v))
			}
		}
	}
	return b
}

// newMultiPlan builds the fused redistribution plan for an array set
// between two topologies.
func newMultiPlan(arrays []*resize.Array, from, to grid.Topology) (*redistrib.MultiPlan, error) {
	srcs := make([]blockcyclic.Layout, len(arrays))
	dsts := make([]blockcyclic.Layout, len(arrays))
	for i, a := range arrays {
		srcs[i] = a.LayoutFor(from)
		dsts[i] = a.LayoutFor(to)
	}
	mp, err := redistrib.NewMultiPlan(srcs, dsts)
	if err != nil {
		return nil, fmt.Errorf("resize: plan redistribution: %w", err)
	}
	return mp, nil
}

// redistribute moves every registered array from one topology to the
// other over comm in one execution of the shared fused plan, updating Data
// in place (ranks outside the new grid end with nil Data), and records the
// measured cost as a RedistObservation on rank 0 — the data that feeds
// perfmodel calibration. It is collective: every rank of comm — including
// ranks bootstrapping from an expansion — must call it with the same array
// set, because traffic totals are allreduced for the performance profile.
func (rc *Context) redistribute(comm *mpi.Comm, from, to grid.Topology) error {
	if len(rc.arrays) == 0 {
		return nil
	}
	mp, err := planFor(rc.arrays, from, to)
	if err != nil {
		return err
	}
	start := time.Now()
	srcData := make([][]float64, len(rc.arrays))
	newData := make([][]float64, len(rc.arrays))
	me := comm.Rank()
	for i, a := range rc.arrays {
		srcData[i] = a.Data
		if i >= len(rc.spares) {
			continue // registered since the last redistribution: no spare
		}
		// A spare too small for the new piece goes back to the arena, and
		// ExecuteInto takes the piece from there instead. The rank is the
		// spare's only owner: no rank reads a piece after the
		// redistribution that moved out of it.
		if me >= to.Count() || cap(rc.spares[i]) < a.LayoutFor(to).LocalSize(me) {
			mpi.PutFloats(rc.spares[i])
		} else {
			newData[i] = rc.spares[i]
		}
	}
	stats := mp.ExecuteInto(comm, srcData, newData)
	for i, a := range rc.arrays {
		a.Data = newData[i]
	}
	rc.spares = srcData // the pieces just moved out of
	totals := comm.Allreduce([]float64{float64(stats.FloatsSent), float64(stats.FloatsCopied)}, mpi.SumOp)
	if comm.Rank() == 0 {
		rc.redistObs = append(rc.redistObs, perfmodel.RedistObservation{
			Bytes:       8 * totals[0],
			CopiedBytes: 8 * totals[1],
			MinProcs:    min(from.Count(), to.Count()),
			Steps:       mp.Steps(),
			Seconds:     time.Since(start).Seconds(),
		})
	}
	return nil
}
