package resize

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/redistrib"
	"repro/internal/scheduler"
)

// Client is the scheduler interface the resizing library talks to. The
// in-process scheduler.Server implements it directly; the reshape package
// (rpc/v2) implements it over TCP. Every call takes a
// context so remote transports can honour deadlines and cancellation.
// Contact calls from concurrently resizing jobs are safe because the
// Server serializes them onto the scheduler core (see DESIGN.md, Remap
// Scheduler); an expansion grant either succeeds atomically or comes back
// as "no change".
type Client interface {
	// Contact reports an iteration from a resize point and returns the
	// remap decision (the paper's contact_scheduler).
	Contact(ctx context.Context, jobID int, topo grid.Topology, iterTime, redistTime float64) (scheduler.Decision, error)
	// ResizeComplete confirms a finished resize and reports its cost.
	ResizeComplete(ctx context.Context, jobID int, redistTime float64) error
	// JobEnd signals normal completion (the application monitor's job-end).
	JobEnd(ctx context.Context, jobID int) error
}

// Scheduler is the full capability surface of a ReSHAPE scheduler: the
// resizing-library Client plus submission, completion waits, streaming
// job-event watches and typed status snapshots. The in-process
// scheduler.Server and the rpc/v2 reshape.Client both implement it, so
// tools and applications are transport-agnostic — including Wait and
// Watch.
type Scheduler interface {
	Client
	// Submit enqueues a job and returns its id.
	Submit(ctx context.Context, spec scheduler.JobSpec) (int, error)
	// JobError reports an application failure (the application monitor's
	// job-error signal): the job is deleted, its resources recovered, and
	// the trace records kind "error" instead of "end".
	JobError(ctx context.Context, jobID int) error
	// Wait blocks until the job finishes or ctx is done.
	Wait(ctx context.Context, jobID int) error
	// Watch streams job-state transitions (scheduler.AllJobs for every
	// job) until ctx is done or the subscription is cancelled.
	Watch(ctx context.Context, jobID int) (*scheduler.Subscription, error)
	// Status returns a typed scheduler snapshot.
	Status(ctx context.Context) (scheduler.ClusterStatus, error)
}

// The in-process server satisfies the full capability interface.
var _ Scheduler = (*scheduler.Server)(nil)

// Array is one global block-cyclic array registered for redistribution.
// Data holds the calling rank's local piece under the session's current
// topology (nil on ranks outside the grid).
//
// A resize replaces Data with a different slice, and the storage behind the
// old one is recycled as the destination of the resize after that. Fetch
// Data after every resize point; a slice taken before one is invalid after
// it, even though it may still read plausibly for a while.
type Array struct {
	Name   string
	M, N   int
	MB, NB int
	Data   []float64

	// spare is the piece the last redistribution moved out of: dead storage
	// the next redistribution writes the new piece into when it is large
	// enough, so oscillating between two grids stops allocating.
	spare []float64
}

// LayoutFor returns the array's layout on a given processor topology.
func (a *Array) LayoutFor(topo grid.Topology) blockcyclic.Layout {
	return blockcyclic.Layout{M: a.M, N: a.N, MB: a.MB, NB: a.NB, Grid: topo}
}

// Status is the outcome of a Resize call.
type Status int

const (
	// Continue: proceed with the next iteration on the (possibly resized)
	// processor set.
	Continue Status = iota
	// Retired: this rank was shrunk away and must return from its worker.
	Retired
)

// Worker is the application body executed by every rank, including ranks
// spawned during expansion. It typically rebuilds app state from
// s.Arrays()/s.Replicated and loops: iterate, then s.Resize.
type Worker func(s *Session) error

// planKey identifies a redistribution plan by its grid pair. Plans also
// depend on the registered array set, so the cache is invalidated whenever
// an array is registered.
type planKey struct {
	from, to grid.Topology
}

// Session is a rank's handle on the resizing library.
type Session struct {
	// CallTimeout bounds each scheduler call made from this session's
	// resize points (0 = no deadline). Set it before the worker loop; ranks
	// spawned by expansion inherit it.
	CallTimeout time.Duration

	client Client
	jobID  int
	worker Worker

	comm *mpi.Comm
	ctx  *blacs.Context
	topo grid.Topology

	arrays     []*Array
	replicated map[string][]float64

	// planCache holds fused redistribution plans keyed by (from, to)
	// topology, so oscillating between the same grids — the paper's
	// shrink/expand cycles around a sweet spot — stops rebuilding the
	// schedule tables on every resize.
	planCache map[planKey]*redistrib.MultiPlan

	iter       int
	lastRedist float64
	log        []IterationRecord
	redistObs  []perfmodel.RedistObservation // rank 0 only
}

// IterationRecord is one entry of the simple API's log.
type IterationRecord struct {
	Iter      int
	Topo      grid.Topology
	AvgTime   float64
	RedistSec float64
}

// NewSession creates a session over comm with the given starting topology.
// Collective over comm. The worker is retained so ranks spawned by later
// expansions can run the same application body.
func NewSession(client Client, jobID int, comm *mpi.Comm, topo grid.Topology, worker Worker) (*Session, error) {
	ctx, err := blacs.New(comm, topo)
	if err != nil {
		return nil, err
	}
	return &Session{
		client:     client,
		jobID:      jobID,
		worker:     worker,
		comm:       comm,
		ctx:        ctx,
		topo:       topo,
		replicated: make(map[string][]float64),
	}, nil
}

// Comm returns the current communicator.
func (s *Session) Comm() *mpi.Comm { return s.comm }

// Ctx returns the current grid context.
func (s *Session) Ctx() *blacs.Context { return s.ctx }

// Topo returns the current processor topology.
func (s *Session) Topo() grid.Topology { return s.topo }

// JobID returns the scheduler's job id.
func (s *Session) JobID() int { return s.jobID }

// Iter returns the number of completed iterations.
func (s *Session) Iter() int { return s.iter }

// Advance records the completion of one iteration without contacting the
// scheduler. Resize does this implicitly; Advance is for callers that
// place resize points only every n-th iteration (the SDK's
// WithResizeEvery) and still need the iteration counter — which spawned
// ranks inherit at bootstrap — to move.
func (s *Session) Advance() { s.iter++ }

// LastRedist returns the redistribution cost of the most recent resize, in
// seconds (0 if the last resize point made no change).
func (s *Session) LastRedist() float64 { return s.lastRedist }

// RegisterArray adds a global array to the set redistributed at every
// resize. All ranks must register the same arrays in the same order.
// Registering invalidates any cached redistribution plans, which fuse the
// whole array set.
func (s *Session) RegisterArray(a *Array) {
	s.arrays = append(s.arrays, a)
	s.planCache = nil
}

// Arrays returns the registered arrays (with current local pieces). The
// Array handles stay valid across resizes; their Data slices do not (see
// Array).
func (s *Session) Arrays() []*Array { return s.arrays }

// Array returns a registered array by name.
func (s *Session) Array(name string) (*Array, bool) {
	for _, a := range s.arrays {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// SetReplicated registers rank-replicated state (e.g. a solution vector)
// that every rank must hold. Rank 0's view is authoritative at resize
// time: an expansion re-broadcasts rank 0's copies to all ranks — newly
// spawned and pre-existing alike — and a shrink re-broadcasts them to the
// survivors, so replicated state cannot diverge across a topology change.
// Fetch buffers with Replicated after a resize point rather than caching
// slices across it.
func (s *Session) SetReplicated(name string, data []float64) {
	s.replicated[name] = data
}

// Replicated returns replicated state by name.
func (s *Session) Replicated(name string) []float64 { return s.replicated[name] }

// ReplicatedNames returns the names of all replicated buffers in sorted
// order.
func (s *Session) ReplicatedNames() []string {
	names := make([]string, 0, len(s.replicated))
	for name := range s.replicated {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Log implements the simple API's log(iteration time): it averages the
// per-rank iteration time across the grid and records it on rank 0.
func (s *Session) Log(iterTime float64) float64 {
	avg := s.comm.AllreduceSum(iterTime) / float64(s.comm.Size())
	if s.comm.Rank() == 0 {
		s.log = append(s.log, IterationRecord{
			Iter: s.iter, Topo: s.topo, AvgTime: avg, RedistSec: s.lastRedist,
		})
	}
	return avg
}

// LogRecords returns rank 0's iteration log.
func (s *Session) LogRecords() []IterationRecord { return s.log }

// callCtx returns the context used for one scheduler call from a resize
// point, honouring the session's CallTimeout.
func (s *Session) callCtx() (context.Context, context.CancelFunc) {
	if s.CallTimeout > 0 {
		return context.WithTimeout(context.Background(), s.CallTimeout)
	}
	return context.Background(), func() {}
}

// Done signals job completion to the scheduler (rank 0 only; other ranks
// no-op), mirroring the application monitor's job-end message.
func (s *Session) Done() error {
	if s.comm.Rank() == 0 {
		ctx, cancel := s.callCtx()
		defer cancel()
		return s.client.JobEnd(ctx, s.jobID)
	}
	return nil
}

// ContactScheduler is the advanced API: rank 0 reports (iterTime,
// redistTime) and the decision is broadcast to every rank. Collective.
func (s *Session) ContactScheduler(iterTime, redistTime float64) (scheduler.Decision, error) {
	type wire struct {
		d   scheduler.Decision
		err string
	}
	var w wire
	if s.comm.Rank() == 0 {
		ctx, cancel := s.callCtx()
		defer cancel()
		d, err := s.client.Contact(ctx, s.jobID, s.topo, iterTime, redistTime)
		w.d = d
		if err != nil {
			w.err = err.Error()
		}
	}
	w = s.comm.Bcast(0, w).(wire)
	if w.err != "" {
		return scheduler.Decision{}, fmt.Errorf("resize: contact scheduler: %s", w.err)
	}
	return w.d, nil
}

// ResizeAveraged is the simple API: given the grid-averaged iteration time
// (typically Log's return value) it contacts the scheduler and actuates
// the returned decision (expanding, shrinking and redistributing as
// needed). It returns Retired on ranks that were shrunk away; those must
// return from their worker immediately. Collective: every rank must pass
// the same average.
func (s *Session) ResizeAveraged(avg float64) (Status, error) {
	s.iter++
	d, err := s.ContactScheduler(avg, s.lastRedist)
	if err != nil {
		return Continue, err
	}
	switch d.Action {
	case scheduler.ActionExpand:
		if err := s.ExpandProcessors(d.Target); err != nil {
			return Continue, err
		}
		return Continue, nil
	case scheduler.ActionShrink:
		return s.ShrinkProcessors(d.Target)
	default:
		s.lastRedist = 0
		return Continue, nil
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
	jobID      int
	iter       int
	oldTopo    grid.Topology
	newTopo    grid.Topology
	arrayMeta  []Array // shapes only; Data nil
	replicated map[string][]float64
}

// ExpandProcessors grows the processor set to target (advanced API,
// Figure 1(b) expand path): spawn the additional ranks, merge into a single
// intracommunicator, rebuild the grid context, and redistribute all
// registered arrays. The spawned ranks run the session's worker after
// bootstrapping. Collective over the current communicator.
func (s *Session) ExpandProcessors(target grid.Topology) error {
	k := target.Count() - s.topo.Count()
	if k <= 0 {
		return fmt.Errorf("resize: expand target %v not larger than current %v", target, s.topo)
	}
	start := time.Now()

	var boot childBootstrap
	if s.comm.Rank() == 0 {
		boot = childBootstrap{
			jobID:      s.jobID,
			iter:       s.iter,
			oldTopo:    s.topo,
			newTopo:    target,
			arrayMeta:  make([]Array, len(s.arrays)),
			replicated: copyReplicated(s.replicated),
		}
		for i, a := range s.arrays {
			boot.arrayMeta[i] = Array{Name: a.Name, M: a.M, N: a.N, MB: a.MB, NB: a.NB}
		}
	}
	client, worker, callTimeout := s.client, s.worker, s.CallTimeout

	ic := s.comm.Spawn(k, func(childIC *mpi.Intercomm) error {
		merged := childIC.Merge()
		// Children receive the bootstrap from rank 0 of the merged comm.
		b := merged.Bcast(0, childBootstrap{}).(childBootstrap)
		cs := &Session{
			CallTimeout: callTimeout,
			client:      client,
			jobID:       b.jobID,
			worker:      worker,
			comm:        merged,
			topo:        b.newTopo,
			iter:        b.iter,
			replicated:  copyReplicated(b.replicated),
		}
		for i := range b.arrayMeta {
			m := b.arrayMeta[i]
			cs.arrays = append(cs.arrays, &Array{Name: m.Name, M: m.M, N: m.N, MB: m.MB, NB: m.NB})
		}
		// Participate in the redistribution (receiving side only).
		if err := redistributeAll(merged, cs.arrays, b.oldTopo, b.newTopo); err != nil {
			return err
		}
		ctx, err := blacs.New(merged, b.newTopo)
		if err != nil {
			return err
		}
		cs.ctx = ctx
		return worker(cs)
	})

	merged := ic.Merge()
	// Rank 0 of the old comm is rank 0 of the merged comm: publish bootstrap.
	// Pre-existing non-root ranks adopt its replicated buffers too, so the
	// whole grown processor set leaves the expansion with identical
	// replicated state (children copy theirs out of the same broadcast).
	published := merged.Bcast(0, boot).(childBootstrap)
	if merged.Rank() != 0 {
		s.replicated = copyReplicated(published.replicated)
	}
	if err := s.redistribute(merged, s.topo, target); err != nil {
		return err
	}
	ctx, err := blacs.New(merged, target)
	if err != nil {
		return err
	}
	s.comm = merged
	s.ctx = ctx
	s.topo = target
	s.lastRedist = time.Since(start).Seconds()
	if s.comm.Rank() == 0 {
		ctx, cancel := s.callCtx()
		defer cancel()
		if err := s.client.ResizeComplete(ctx, s.jobID, s.lastRedist); err != nil {
			return err
		}
	}
	return nil
}

// ShrinkProcessors reduces the processor set to target (advanced API,
// Figure 1(b) shrink path): redistribute arrays to the surviving rank
// prefix, carve the survivor sub-communicator, rebuild the context, and
// retire the excess ranks (which receive Retired). Collective over the
// current communicator.
func (s *Session) ShrinkProcessors(target grid.Topology) (Status, error) {
	if target.Count() >= s.topo.Count() {
		return Continue, fmt.Errorf("resize: shrink target %v not smaller than current %v", target, s.topo)
	}
	start := time.Now()
	// Rank 0's replicated buffers are authoritative at resize time:
	// survivors adopt its view, mirroring the expansion-side re-broadcast
	// through the child bootstrap.
	published := s.comm.Bcast(0, s.replicated).(map[string][]float64)
	if s.comm.Rank() != 0 {
		s.replicated = copyReplicated(published)
	}
	if err := s.redistribute(s.comm, s.topo, target); err != nil {
		return Continue, err
	}
	survivors := make([]int, target.Count())
	for i := range survivors {
		survivors[i] = i
	}
	sub := s.comm.Sub(survivors)
	if sub == nil {
		// This rank was shrunk away; it holds no data and must exit.
		return Retired, nil
	}
	ctx, err := blacs.New(sub, target)
	if err != nil {
		return Continue, err
	}
	s.comm = sub
	s.ctx = ctx
	s.topo = target
	s.lastRedist = time.Since(start).Seconds()
	if s.comm.Rank() == 0 {
		ctx, cancel := s.callCtx()
		defer cancel()
		if err := s.client.ResizeComplete(ctx, s.jobID, s.lastRedist); err != nil {
			return Continue, err
		}
	}
	return Continue, nil
}

// newMultiPlan builds the fused redistribution plan for an array set
// between two topologies.
func newMultiPlan(arrays []*Array, from, to grid.Topology) (*redistrib.MultiPlan, error) {
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

// measuredRedist is the cluster-wide outcome of one fused redistribution.
type measuredRedist struct {
	seconds      float64
	floatsSent   float64 // allreduced network volume
	floatsCopied float64 // allreduced local-copy volume
	steps        int
}

// redistributeFused moves every array from the old to the new topology over
// comm with one fused MultiPlan execution, updating Data in place (ranks
// outside the new grid end with nil Data). It is collective: every rank of
// comm — including ranks bootstrapping from an expansion — must call it
// with the same array set, because traffic totals are allreduced for the
// performance profile. A nil mp builds a fresh plan (the uncached path).
func redistributeFused(comm *mpi.Comm, arrays []*Array, from, to grid.Topology, mp *redistrib.MultiPlan) (measuredRedist, error) {
	if len(arrays) == 0 {
		return measuredRedist{}, nil
	}
	start := time.Now()
	if mp == nil {
		var err error
		if mp, err = newMultiPlan(arrays, from, to); err != nil {
			return measuredRedist{}, err
		}
	}
	srcData := make([][]float64, len(arrays))
	newData := make([][]float64, len(arrays))
	for i, a := range arrays {
		srcData[i], newData[i] = a.Data, a.spare
	}
	stats := mp.ExecuteInto(comm, srcData, newData)
	for i, a := range arrays {
		a.Data, a.spare = newData[i], srcData[i]
	}
	totals := comm.Allreduce([]float64{float64(stats.FloatsSent), float64(stats.FloatsCopied)}, mpi.SumOp)
	return measuredRedist{
		seconds:      time.Since(start).Seconds(),
		floatsSent:   totals[0],
		floatsCopied: totals[1],
		steps:        mp.Steps(),
	}, nil
}

// redistributeAll is the plan-per-call path used by ranks that have no
// session cache yet (children joining an expansion).
func redistributeAll(comm *mpi.Comm, arrays []*Array, from, to grid.Topology) error {
	_, err := redistributeFused(comm, arrays, from, to, nil)
	return err
}

// planFor returns the session's cached fused plan for a grid pair,
// building and caching it on first use.
func (s *Session) planFor(from, to grid.Topology) (*redistrib.MultiPlan, error) {
	key := planKey{from: from, to: to}
	if mp, ok := s.planCache[key]; ok {
		return mp, nil
	}
	mp, err := newMultiPlan(s.arrays, from, to)
	if err != nil {
		return nil, err
	}
	if s.planCache == nil {
		s.planCache = make(map[planKey]*redistrib.MultiPlan)
	}
	s.planCache[key] = mp
	return mp, nil
}

// redistribute runs the session's cached fused plan for (from, to) over
// comm and records the measured cost as a RedistObservation on rank 0 —
// the data that feeds perfmodel calibration.
func (s *Session) redistribute(comm *mpi.Comm, from, to grid.Topology) error {
	if len(s.arrays) == 0 {
		return nil
	}
	mp, err := s.planFor(from, to)
	if err != nil {
		return err
	}
	m, err := redistributeFused(comm, s.arrays, from, to, mp)
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		minP := from.Count()
		if to.Count() < minP {
			minP = to.Count()
		}
		s.redistObs = append(s.redistObs, perfmodel.RedistObservation{
			Bytes:       8 * m.floatsSent,
			CopiedBytes: 8 * m.floatsCopied,
			MinProcs:    minP,
			Steps:       m.steps,
			Seconds:     m.seconds,
		})
	}
	return nil
}

// RedistObservations returns the measured redistributions recorded by this
// rank (rank 0 of the communicator that performed them). They plug directly
// into perfmodel.Params.CalibrateRedist.
func (s *Session) RedistObservations() []perfmodel.RedistObservation { return s.redistObs }

// RedistributeAll is the advanced-API form of the paper's Redistribute
// call: it moves the registered arrays between two explicit topologies on
// the current communicator and records the elapsed redistribution time.
// Plans are cached per (from, to) pair.
//
//lint:allow testonly seam: BenchmarkRedistribute and TestPlanCacheReusedAcrossOscillation drive redistribution without a scheduler through it
func (s *Session) RedistributeAll(from, to grid.Topology) error {
	start := time.Now()
	if err := s.redistribute(s.comm, from, to); err != nil {
		return err
	}
	s.lastRedist = time.Since(start).Seconds()
	return nil
}
