package scheduler

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// This file holds the contact-path state machine behind Core's entry
// points: job validation, profiling, the running-set bookkeeping and the
// actuation of arbiter decisions against the idle-processor counter.

// validateSpec checks a spec against the cluster size.
func validateSpec(spec *JobSpec, total int) error {
	if !spec.InitialTopo.IsValid() {
		return fmt.Errorf("scheduler: job %q has invalid initial topology", spec.Name)
	}
	if spec.InitialTopo.Count() > total {
		return fmt.Errorf("scheduler: job %q needs %d processors, cluster has %d",
			spec.Name, spec.InitialTopo.Count(), total)
	}
	return nil
}

// jobRecord is a job's storage: the Job, the profile its Profile field
// points at, and room for the profile's first two visits, so a job that
// resizes once records every iteration into storage it already has.
type jobRecord struct {
	job    Job
	prof   Profile
	visits [2]Visit
}

// Chunk sizes of the job arena. A chunk is retained while any job carved
// from it is, so what the arena holds is bounded by the live jobs times a
// chunk, not by history. A request over an eighth of a chunk is allocated
// alone, so at most an eighth of a chunk is left unused when the next one
// is started.
const (
	// recordChunk job records and the header the runtime puts before an
	// object with pointers fill the 24 KB size class
	// (TestJobRecordFitsSizeClass).
	recordChunk = 63
	// iterChunk iteration times (32 KB) back the reservations of many jobs.
	iterChunk = 1 << 12
	// growChunk visits or redistribution pairs (5 KB each) back the
	// profiles of the jobs that resize, a few of them per chunk: a small
	// core pays little for the chunks, a large one few allocations.
	// growFirst is the room a profile's first carve gives it, each later
	// carve doubles it, so a carve of 32 or more is allocated alone.
	growChunk = 128
	growFirst = 4
)

// jobArena hands out job records, iteration-time reservations and the room
// a resizing job's visits and redistribution pairs grow into, all from
// chunks, so a job costs no allocation of its own. The Core is externally
// synchronized, so the arena needs no lock.
type jobArena struct {
	records []jobRecord
	iters   []float64
	visits  []Visit
	pairs   []RedistPair
}

// newJob carves a zeroed record and returns its Job, whose Profile points
// into the same record. The caller fills the job in.
func (a *jobArena) newJob() *Job {
	if len(a.records) == cap(a.records) {
		a.records = make([]jobRecord, 0, recordChunk)
	}
	a.records = a.records[:len(a.records)+1]
	r := &a.records[len(a.records)-1]
	r.job.Profile = &r.prof
	r.prof.Visits = r.visits[:0]
	return &r.job
}

// reserve returns an empty slice with room for n iteration times.
func (a *jobArena) reserve(n int) []float64 { return carve(&a.iters, n, iterChunk) }

// carve returns an empty slice with room for n elements from *chunk,
// starting a new chunk of size elements when the current one lacks the
// room. Its capacity is clipped to n, so an append past it reallocates
// instead of writing into the elements carved next to it.
func carve[T any](chunk *[]T, n, size int) []T {
	if n > size/8 {
		return make([]T, 0, n)
	}
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, size)
	}
	i := len(*chunk)
	*chunk = (*chunk)[:i+n]
	return (*chunk)[i : i : i+n]
}

// grow returns s if it has room for one more element, else s with twice its
// room (growFirst at least): in place when s is *chunk's last carve and the
// chunk has the room, else copied into a new carve, leaving s's room unused.
func grow[T any](chunk *[]T, s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	n, c := max(2*cap(s), growFirst), *chunk
	if i := len(c) - cap(s); cap(s) > 0 && i >= 0 && n <= growChunk/8 && i+n <= cap(c) && &c[i] == &s[0] {
		*chunk = c[:i+n]
		return c[i : i+len(s) : i+n]
	}
	return append(carve(chunk, n, growChunk), s...)
}

// remainingIters estimates how many outer iterations the job still has to
// run, from the spec's iteration budget and the profiled iteration count.
func remainingIters(j *Job) int { return j.Spec.Iterations - j.itersDone }

// recordIteration files a reported iteration time in the job's performance
// profile and counts it, so remainingIters never re-sums the visits. A
// job's first iteration opens its first visit on a reservation for as many
// times as its spec declares (at most maxReservedIters), so later ones
// allocate nothing until the reservation runs out, and a visit opened with
// the visits' room full opens in room carved from the arena; see Profile.
func (c *Core) recordIteration(j *Job, iterTime float64) {
	switch p := j.Profile; {
	case len(p.Visits) == 0:
		if n := min(max(j.Spec.Iterations, 0), maxReservedIters); n > 0 {
			p.Visits = append(p.Visits, Visit{Topo: j.Topo, IterTimes: c.arena.reserve(n)})
		}
	case p.Visits[len(p.Visits)-1].Topo != j.Topo:
		p.Visits = grow(&c.arena.visits, p.Visits)
	}
	j.Profile.RecordIteration(j.Topo, iterTime)
	j.itersDone++
	c.running.changed(j)
}

// profiledIters is the sweep itersDone caches: every iteration time on file.
func profiledIters(p *Profile) int {
	done := 0
	for _, v := range p.Visits {
		done += len(v.IterTimes)
	}
	return done
}

// fill overwrites the view with j's, field by field: sweeps refill one view
// per job, Running one view per call, and assigning a whole ContactView there would build it on the
// stack first and copy it over.
func (v *ContactView) fill(j *Job) {
	v.ID = j.ID
	v.Tenant = j.Spec.Tenant
	v.TenantID = j.tenant.id
	v.Priority = j.Spec.Priority
	v.Topo = j.Topo
	v.Chain = j.Spec.Chain
	v.Profile = j.Profile
	v.RemainingIters = remainingIters(j)
	v.PendingFree = j.pendingFree
}

// validateContact checks a contact_scheduler call without touching any
// state, so journaling cores can persist the op between validation and
// the profile mutation (only valid ops reach the journal; replay can
// therefore treat an op that fails to re-apply as corruption).
func validateContact(jobs *jobTable, jobID int, topo grid.Topology, iterTime, redistTime float64) (*Job, error) {
	if err := checkTime(jobID, "iteration time", iterTime); err != nil {
		return nil, err
	}
	if err := checkTime(jobID, "redistribution time", redistTime); err != nil {
		return nil, err
	}
	j := jobs.get(jobID)
	if j == nil {
		return nil, fmt.Errorf("scheduler: unknown job %d", jobID)
	}
	if j.State != Running {
		return nil, fmt.Errorf("scheduler: job %d contacted while %v", jobID, j.State)
	}
	if topo != j.Topo {
		return nil, fmt.Errorf("scheduler: job %d reports topology %v, scheduler has %v",
			jobID, topo, j.Topo)
	}
	return j, nil
}

// checkTime refuses a time a job reports that is NaN, infinite or
// negative. The profile would keep it, and a NaN compares false against
// every time: the policy would read an expansion measured with one as a
// gain, and a benefit ranking could never outrank it.
func checkTime(jobID int, what string, t float64) error {
	if !(t >= 0) || math.IsInf(t, 1) {
		return fmt.Errorf("scheduler: job %d reports %s %v, want a finite time >= 0", jobID, what, t)
	}
	return nil
}

// defaultDecide is the published single-job decision path of a core with
// no arbiter: the policy sees the caller, the idle pool and the need of the
// queue head, read in O(1), and no snapshot is built.
// TestPolicyArbiterMatchesPublishedDecide holds it and the snapshot path
// (ClusterSnapshot.RemapInput) to identical decisions.
func (c *Core) defaultDecide(j *Job) Decision {
	in := RemapInput{
		Current:        j.Topo,
		Chain:          j.Spec.Chain,
		Profile:        j.Profile,
		IdleProcs:      c.free,
		RemainingIters: remainingIters(j),
	}
	if h := c.queue.head(); h != nil {
		in.HeadNeed = h.Spec.InitialTopo.Count()
	}
	return c.policy.Decide(in)
}

// runningSet is Core's running-job bookkeeping: the indexes behind
// EachShrinkable and EachExpandable plus the aggregates cluster-wide
// arbiters would otherwise recompute by sweeping the running jobs at every
// contact; EachRunning walks the job table and needs no index.
// Each is maintained where the quantity changes — start, expand, shrink,
// ResizeComplete, finish — and is a pure function of the running jobs, so a
// core restored from a snapshot rebuilds it by starting every restored job:
//
//	count              == |{j : j.State == Running}|
//	Σ active[i].procs  == Σ Topo.Count() over the running jobs
//	pendingFree        == Σ pendingFree over the running jobs
//	j in shrinkable    ⇔ j is running and j.Profile.AppendShrinkPoints(nil, j.Topo) is not empty
//	j in expandable[Δ] ⇔ NextInChain(j.Spec.Chain, j.Topo) adds Δ processors
//
// The two indexes exist for arbiters: the first EachShrinkable or
// EachExpandable builds them in one walk of the job table and indexed keeps
// them filed from then on; until then start, finish and a move keep only
// count, so sim-fcfs, whose arbiter never asks, pays nothing for them. Each
// is a set whose members keep their position in j.at: filing a job appends
// it, and withdrawing one moves the last member into its place. Their
// lengths are bounded by the pool size (every running job holds at least
// one processor), not by job history.
type runningSet struct {
	table   *jobTable // every job the core knows, which the indexes are built from
	count   int       // running jobs
	indexed bool
	// shrinkable holds the jobs with a previously visited smaller
	// configuration: the only jobs a shrink plan can draw a demand from.
	// Membership moves only when Topo does.
	shrinkable  []*Job
	pendingFree int // processors promised back by in-flight shrinks
	// expandable files the jobs with a next chain step under the processors
	// that step adds, so an expansion veto walks only the steps that contend
	// for the idle pool. A job moves only when Topo does.
	expandable dir[int, []*Job]
	// log is the change feed behind Changes, from feed position logBase on.
	// Like the indexes, and for the same sim-fcfs cost, it is kept only
	// once an arbiter asks (logging). It is never persisted or journaled.
	log     []int
	logBase uint64
	logging bool

	// accts holds one accumulator per tenant name ever submitted; active
	// files the ones with running jobs by name, the order snapshots list
	// them in. usageVer counts the starts, retopos and finishes, the only
	// ops that move the usage; usage is what tenants() last built from
	// active, at usageVer usageAt.
	accts    map[string]*tenantAcct
	active   dir[string, *tenantAcct]
	usage    []TenantUsage
	usageVer uint64
	usageAt  uint64
	view     ContactView // each() scratch
	one      ContactView // Running() scratch, apart from view so a yield may call it
}

// tenantAcct accumulates one tenant's part of the running set. A job
// resolves its account once, at Submit, so starts, resizes and completions
// pay pointer arithmetic rather than a string-keyed map operation.
type tenantAcct struct {
	name  string
	id    int // dense, in the order the core first saw the tenant: the views' TenantID
	procs int // Σ Topo.Count() over the tenant's running jobs
	jobs  int // running jobs
}

// account returns the accumulator for a tenant name, creating it on first
// sight.
func (r *runningSet) account(name string) *tenantAcct {
	a, ok := r.accts[name]
	if !ok {
		if r.accts == nil {
			r.accts = make(map[string]*tenantAcct)
		}
		a = &tenantAcct{name: name, id: len(r.accts)}
		r.accts[name] = a
	}
	return a
}

// The indexes whose positions j.at records.
const (
	inShrinkable = iota
	inExpandable
)

// addTo files j at the end of index k's set.
func addTo(set []*Job, j *Job, k int) []*Job {
	j.at[k] = int32(len(set)) + 1
	return append(set, j)
}

// dropFrom withdraws j from index k's set, the last member taking its place.
func dropFrom(set []*Job, j *Job, k int) []*Job {
	i, last := j.at[k]-1, len(set)-1
	set[i] = set[last]
	set[i].at[k] = i + 1
	set[last] = nil
	j.at[k] = 0
	return set[:last]
}

// start enters a job that holds j.Topo (plus j.pendingFree, when it is
// restored mid-shrink) into the indexes and every aggregate.
func (r *runningSet) start(j *Job) {
	r.count++
	a := j.tenant
	if a.jobs == 0 {
		*r.active.get(a.name) = a
	}
	a.jobs++
	a.procs += j.Topo.Count()
	r.usageVer++
	r.pendingFree += j.pendingFree
	r.reindexShrinkable(j)
	r.fileExpandable(j)
	r.changed(j)
}

// finish withdraws a completed job, in-flight give-back included: the
// caller returns all of its processors to the pool. released logs it.
func (r *runningSet) finish(j *Job) {
	r.count--
	a := j.tenant
	a.procs -= j.Topo.Count()
	a.jobs--
	if a.jobs == 0 {
		i, _ := r.active.at(a.name)
		r.active.del(i, i+1)
	}
	r.usageVer++
	r.released(j)
	r.reindexShrinkable(j)
	r.unfileExpandable(j)
}

// retopo moves a running job to its granted configuration.
func (r *runningSet) retopo(j *Job, to grid.Topology) {
	j.tenant.procs += to.Count() - j.Topo.Count()
	r.usageVer++
	r.unfileExpandable(j)
	j.resizeFrom = j.Topo
	j.Topo = to
	r.reindexShrinkable(j)
	r.fileExpandable(j)
	r.changed(j)
}

// reindexShrinkable files j in the shrinkable index while it runs and has
// visited a configuration smaller than its current one, and withdraws it
// otherwise, once the indexes are built.
func (r *runningSet) reindexShrinkable(j *Job) {
	if !r.indexed {
		return
	}
	can := false
	for i := 0; i < len(j.Profile.Visits) && j.State == Running && !can; i++ {
		can = j.Profile.Visits[i].Topo.Count() < j.Topo.Count()
	}
	switch filed := j.at[inShrinkable] > 0; {
	case can && !filed:
		r.shrinkable = addTo(r.shrinkable, j, inShrinkable)
	case !can && filed:
		r.shrinkable = dropFrom(r.shrinkable, j, inShrinkable)
	}
}

// stepDelta is how many processors j's next chain step adds (false at the
// top of its chain).
func stepDelta(j *Job) (int, bool) {
	next, ok := NextInChain(j.Spec.Chain, j.Topo)
	return next.Count() - j.Topo.Count(), ok
}

// fileExpandable enters j under its current topology's step, once the
// indexes are built. A bucket left empty stays for the next job of that
// step: step sizes are few, and bounded by the pool size.
func (r *runningSet) fileExpandable(j *Job) {
	if !r.indexed {
		return
	}
	d, ok := stepDelta(j)
	if !ok {
		return
	}
	b := r.expandable.get(d)
	*b = addTo(*b, j, inExpandable)
}

// unfileExpandable withdraws j from the bucket of its current topology's
// step; call it before Topo moves.
func (r *runningSet) unfileExpandable(j *Job) {
	if !r.indexed {
		return
	}
	d, ok := stepDelta(j)
	if !ok {
		return
	}
	if i, ok := r.expandable.at(d); ok {
		r.expandable.vals[i] = dropFrom(r.expandable.vals[i], j, inExpandable)
	}
}

// released records that the job's pending give-back went back to the pool.
func (r *runningSet) released(j *Job) {
	r.pendingFree -= j.pendingFree
	j.pendingFree = 0
	r.changed(j)
}

// changed logs j (started, moved, released a give-back, finished, or had an
// iteration or redistribution cost filed) once logging is on; a repeat of
// the last entry adds nothing. Past 4·running + 64 entries the log is dropped
// and its base moved past every cursor handed out, so the reader resyncs.
func (r *runningSet) changed(j *Job) {
	if !r.logging {
		return
	}
	n := len(r.log)
	if n > 0 && r.log[n-1] == j.ID {
		return
	}
	if n >= 4*r.count+64 {
		r.logBase += uint64(n) + 1
		r.log = r.log[:0]
	}
	r.log = append(r.log, j.ID)
}

// Changes implements ClusterView over the change log, turning it on at the
// first call. The log keeps only what its reader has not read, so it serves
// one reader: a second one's older cursor resyncs.
func (r *runningSet) Changes(c Cursor, yield func(id int)) (Cursor, bool) {
	ok := r.logging && c.set == r && c.seq >= r.logBase
	if ok {
		for _, id := range r.log[c.seq-r.logBase:] {
			yield(id)
		}
	}
	r.logging = true
	r.logBase += uint64(len(r.log))
	r.log = r.log[:0]
	return Cursor{set: r, seq: r.logBase}, ok
}

// tenants lists every tenant with running jobs in ascending name order,
// rebuilt only when a start, retopo or finish has moved it since the last
// call. The slice is scratch the set reuses: snapshot consumers read it
// during the call they were handed it in.
func (r *runningSet) tenants() []TenantUsage {
	if r.usageAt != r.usageVer {
		r.usage = r.usage[:0]
		for _, a := range r.active.vals {
			r.usage = append(r.usage, TenantUsage{Tenant: a.name, Running: a.jobs, Procs: a.procs})
		}
		r.usageAt = r.usageVer
	}
	return r.usage
}

// index builds the indexes on first ask in one walk of the job table (a job
// keeps no earlier position); start, finish and moves keep them filed.
func (r *runningSet) index() {
	if r.indexed {
		return
	}
	r.indexed = true
	for _, j := range r.table.byID {
		if j == nil || j.State != Running {
			continue
		}
		j.at = [2]int32{}
		r.reindexShrinkable(j)
		r.fileExpandable(j)
	}
}

// EachRunning implements ClusterView: every running job in ascending id
// order, walked from the job table. Arbiters call it lazily; the default
// single-job path never does.
func (r *runningSet) EachRunning(yield func(*ContactView) bool) {
	r.each(r.table.byID, yield)
}

// EachShrinkable implements ClusterView over the shrinkable index, in its
// set order.
func (r *runningSet) EachShrinkable(yield func(*ContactView) bool) {
	r.index()
	r.each(r.shrinkable, yield)
}

// EachExpandable implements ClusterView over the expandable index: the
// buckets from lo through hi, each in its set order.
func (r *runningSet) EachExpandable(lo, hi int, yield func(*ContactView) bool) {
	r.index()
	e := &r.expandable
	for i, _ := e.at(lo); i < len(e.keys) && e.keys[i] <= hi; i++ {
		if !r.each(e.vals[i], yield) {
			return
		}
	}
}

// each yields one reused view per running job of jobs, so a sweep copies
// each job's fields once and allocates nothing. It reports whether yield
// asked for more.
func (r *runningSet) each(jobs []*Job, yield func(*ContactView) bool) bool {
	more := true
	for _, j := range jobs {
		if j == nil || j.State != Running {
			continue
		}
		r.view.fill(j)
		if more = yield(&r.view); !more {
			break
		}
	}
	r.view = ContactView{}
	return more
}

// Running implements ClusterView: one running job by id, looked up in the
// job table, so it needs no index.
func (r *runningSet) Running(id int) *ContactView {
	j := r.table.get(id)
	if j == nil || j.State != Running {
		return nil
	}
	r.one.fill(j)
	return &r.one
}

// applyDecision actuates an arbitration decision on the job. Expansions
// take the delta from the core's idle counter *free; shrinks mark the
// give-back as pending until ResizeComplete. It leaves in *d the decision
// actually applied: an expansion the idle processors cannot cover degrades
// to ActionNone instead of driving the counter negative (unreachable for
// the fit-checked published policy).
func (r *runningSet) applyDecision(j *Job, d *Decision, free *int, record func(kind eventKind)) {
	switch d.Action {
	case ActionExpand:
		delta := d.Target.Count() - j.Topo.Count()
		if delta > *free {
			*d = Decision{Action: ActionNone, Reason: "idle processors claimed concurrently"}
			return
		}
		*free -= delta
		r.retopo(j, d.Target)
		record(evExpand)
	case ActionShrink:
		freed := j.Topo.Count() - d.Target.Count()
		j.pendingFree += freed
		r.pendingFree += freed
		r.retopo(j, d.Target)
		record(evShrink)
	}
}

// finishResize records the redistribution cost of a completed resize in the
// profiler, a new pair in room carved from the arena, and returns the
// number of processors a pending shrink should now release (0 when the
// resize freed nothing). The caller returns them to the pool and then
// reports the give-back as released.
func (r *runningSet) finishResize(j *Job, redistTime float64, arena *jobArena) int {
	if p := j.Profile; j.resizeFrom.IsValid() {
		if len(p.Redist) == cap(p.Redist) && p.redistIndex(j.resizeFrom, j.Topo) < 0 {
			p.Redist = grow(&arena.pairs, p.Redist)
		}
		p.RecordRedist(j.resizeFrom, j.Topo, redistTime)
		j.resizeFrom = grid.Topology{}
		r.changed(j)
	}
	return j.pendingFree
}

// validateFinish checks a completion signal without mutating the job, the
// journaling counterpart of validateContact.
func validateFinish(jobs *jobTable, jobID int, kind string) (*Job, error) {
	j := jobs.get(jobID)
	if j == nil {
		return nil, fmt.Errorf("scheduler: unknown job %d", jobID)
	}
	if j.State != Running {
		return nil, fmt.Errorf("scheduler: job %d completed (%s) while %v", jobID, kind, j.State)
	}
	return j, nil
}
