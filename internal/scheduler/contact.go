package scheduler

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/grid"
)

// This file holds the contact-path state machine behind Core's entry
// points: job validation, profiling, the running-set bookkeeping and the
// actuation of arbiter decisions against the idle-processor counter.

// newJob validates a spec against the cluster size and builds the queued
// job record for it.
func newJob(spec JobSpec, id, total int, now float64) (*Job, error) {
	if !spec.InitialTopo.IsValid() {
		return nil, fmt.Errorf("scheduler: job %q has invalid initial topology", spec.Name)
	}
	if spec.InitialTopo.Count() > total {
		return nil, fmt.Errorf("scheduler: job %q needs %d processors, cluster has %d",
			spec.Name, spec.InitialTopo.Count(), total)
	}
	return &Job{
		ID:         id,
		Spec:       spec,
		State:      Queued,
		Topo:       spec.InitialTopo,
		Profile:    NewProfile(),
		SubmitTime: now,
	}, nil
}

// remainingIters estimates how many outer iterations the job still has to
// run, from the spec's iteration budget and the profiled iteration count.
func remainingIters(j *Job) int { return j.Spec.Iterations - j.itersDone }

// recordIteration files a reported iteration time in the job's performance
// profile and counts it, so remainingIters never re-sums the visits.
func (r *runningSet) recordIteration(j *Job, iterTime float64) {
	j.Profile.RecordIteration(j.Topo, iterTime)
	j.itersDone++
	r.changed(j)
}

// profiledIters is the sweep itersDone caches: every iteration time on file.
func profiledIters(p *Profile) int {
	done := 0
	for _, v := range p.Visits {
		done += len(v.IterTimes)
	}
	return done
}

// contactView builds the arbiter's read-only view of a running job.
func contactView(j *Job) (v ContactView) {
	v.fill(j)
	return v
}

// fill overwrites the view with j's, field by field: sweeps refill one view
// per job, and assigning a whole ContactView there would build it on the
// stack first and copy it over.
func (v *ContactView) fill(j *Job) {
	v.ID = j.ID
	v.Tenant = j.Spec.Tenant
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
func validateContact(jobs map[int]*Job, jobID int, topo grid.Topology) (*Job, error) {
	j, ok := jobs[jobID]
	if !ok {
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

// defaultDecide is the published single-job decision path: exactly the
// narrowing PolicyArbiter performs, minus the cluster snapshot — so the
// default (no-arbiter) contact stays allocation-identical to the
// pre-arbiter code. TestPolicyArbiterMatchesPublishedDecide holds the two
// assembly paths to identical decisions.
func defaultDecide(pol Policy, j *Job, idle int, queuedNeeds []int) Decision {
	if pol == nil {
		pol = PaperPolicy{}
	}
	return pol.Decide(RemapInput{
		Current:        j.Topo,
		Chain:          j.Spec.Chain,
		Profile:        j.Profile,
		IdleProcs:      idle,
		QueuedNeeds:    queuedNeeds,
		RemainingIters: remainingIters(j),
	})
}

// runningSet is Core's running-job bookkeeping: the id-sorted index behind
// EachRunning plus the aggregates cluster-wide arbiters would otherwise
// recompute by sweeping that index at every contact.
// Each is maintained where the quantity changes — start, expand, shrink,
// ResizeComplete, finish — and is a pure function of the running jobs, so a
// core restored from a snapshot rebuilds it by starting every restored job:
//
//	Σ active[i].procs  == Σ jobs[i].Topo.Count()
//	pendingFree        == Σ jobs[i].pendingFree
//	j in shrinkable    ⇔ len(j.Profile.ShrinkPoints(j.Topo)) > 0
//	j in expandable[Δ] ⇔ NextInChain(j.Spec.Chain, j.Topo) adds Δ processors
//
// The index lengths are bounded by the pool size (every running job holds at
// least one processor), not by job history.
type runningSet struct {
	jobs []*Job // ascending id
	// shrinkable is the id-ordered subset with at least one previously
	// visited smaller configuration: the only jobs a shrink plan can draw a
	// demand from. Iterations are recorded on the current topology, which is
	// never smaller than itself, so membership moves only when Topo does.
	shrinkable  []*Job
	pendingFree int // processors promised back by in-flight shrinks
	// expandable buckets the jobs with a next chain step by the processors
	// that step adds, ascending, id-ordered within a bucket: an expansion
	// veto walks only the steps that contend for the idle pool. The chain is
	// fixed, so a job moves only when Topo does. The first EachExpandable
	// builds it and expIndexed keeps it filed from then on, so a core whose
	// arbiter never asks (the published policy path) pays nothing for it.
	expandable []expBucket
	expIndexed bool
	// log is the change feed behind Changes, from feed position logBase on.
	// Like the expandable index it is kept only once an arbiter asks
	// (logging), and it is never persisted or journaled.
	log     []int
	logBase uint64
	logging bool

	// accts holds one accumulator per tenant name ever submitted; active is
	// the name-sorted subset with running jobs, the order snapshots list
	// them in. usage is what tenants() last built from active, current
	// while usageOK: only a start, retopo or finish moves it.
	accts   map[string]*tenantAcct
	active  []*tenantAcct
	usage   []TenantUsage
	usageOK bool
	view    ContactView // each() scratch
}

// expBucket is one step size of the expandable index.
type expBucket struct {
	delta int
	jobs  []*Job // ascending id
}

// tenantAcct accumulates one tenant's part of the running set. A job
// resolves its account once, at Submit, so starts, resizes and completions
// pay pointer arithmetic rather than a string-keyed map operation.
type tenantAcct struct {
	name  string
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
		a = &tenantAcct{name: name}
		r.accts[name] = a
	}
	return a
}

// insertByID adds j to an id-sorted index.
func insertByID(index []*Job, j *Job) []*Job {
	i := sort.Search(len(index), func(k int) bool { return index[k].ID >= j.ID })
	return slices.Insert(index, i, j)
}

// removeByID drops j from an id-sorted index.
func removeByID(index []*Job, j *Job) []*Job {
	i := sort.Search(len(index), func(k int) bool { return index[k].ID >= j.ID })
	if i < len(index) && index[i] == j {
		index = slices.Delete(index, i, i+1)
	}
	return index
}

// activeAt returns where a tenant name sits, or belongs, in the active list.
func (r *runningSet) activeAt(name string) int {
	return sort.Search(len(r.active), func(k int) bool { return r.active[k].name >= name })
}

// start enters a job that holds j.Topo (plus j.pendingFree, when it is
// restored mid-shrink) into the index and every aggregate.
func (r *runningSet) start(j *Job) {
	r.jobs = insertByID(r.jobs, j)
	a := j.tenant
	if a.jobs == 0 {
		r.active = slices.Insert(r.active, r.activeAt(a.name), a)
	}
	a.jobs++
	a.procs += j.Topo.Count()
	r.usageOK = false
	r.pendingFree += j.pendingFree
	r.reindexShrinkable(j)
	r.fileExpandable(j)
	r.changed(j)
}

// finish withdraws a completed job, in-flight give-back included: the
// caller returns all of its processors to the pool. released logs it.
func (r *runningSet) finish(j *Job) {
	r.jobs = removeByID(r.jobs, j)
	a := j.tenant
	a.procs -= j.Topo.Count()
	a.jobs--
	if a.jobs == 0 {
		i := r.activeAt(a.name)
		r.active = slices.Delete(r.active, i, i+1)
	}
	r.usageOK = false
	r.released(j)
	if j.shrinkable {
		r.shrinkable = removeByID(r.shrinkable, j)
		j.shrinkable = false
	}
	r.unfileExpandable(j)
}

// retopo moves a running job to its granted configuration.
func (r *runningSet) retopo(j *Job, to grid.Topology) {
	j.tenant.procs += to.Count() - j.Topo.Count()
	r.usageOK = false
	r.unfileExpandable(j)
	j.resizeFrom = j.Topo
	j.Topo = to
	r.reindexShrinkable(j)
	r.fileExpandable(j)
	r.changed(j)
}

// reindexShrinkable files j under its current topology.
func (r *runningSet) reindexShrinkable(j *Job) {
	can := false
	for i := range j.Profile.Visits {
		if j.Profile.Visits[i].Topo.Count() < j.Topo.Count() {
			can = true
			break
		}
	}
	switch {
	case can && !j.shrinkable:
		r.shrinkable = insertByID(r.shrinkable, j)
	case !can && j.shrinkable:
		r.shrinkable = removeByID(r.shrinkable, j)
	}
	j.shrinkable = can
}

// stepDelta is how many processors j's next chain step adds (false at the
// top of its chain).
func stepDelta(j *Job) (int, bool) {
	next, ok := NextInChain(j.Spec.Chain, j.Topo)
	return next.Count() - j.Topo.Count(), ok
}

// bucketAt returns where a step size sits, or belongs, in the expandable
// index.
func (r *runningSet) bucketAt(delta int) int {
	return sort.Search(len(r.expandable), func(k int) bool { return r.expandable[k].delta >= delta })
}

// fileExpandable enters j under its current topology's step, once the index
// is built. A bucket left empty stays for the next job of that step.
func (r *runningSet) fileExpandable(j *Job) {
	if !r.expIndexed {
		return
	}
	d, ok := stepDelta(j)
	if !ok {
		return
	}
	i := r.bucketAt(d)
	if i == len(r.expandable) || r.expandable[i].delta != d {
		r.expandable = slices.Insert(r.expandable, i, expBucket{delta: d})
	}
	r.expandable[i].jobs = insertByID(r.expandable[i].jobs, j)
}

// unfileExpandable withdraws j from the bucket of its current topology's
// step; call it before Topo moves.
func (r *runningSet) unfileExpandable(j *Job) {
	if !r.expIndexed {
		return
	}
	d, ok := stepDelta(j)
	if !ok {
		return
	}
	if i := r.bucketAt(d); i < len(r.expandable) && r.expandable[i].delta == d {
		r.expandable[i].jobs = removeByID(r.expandable[i].jobs, j)
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
	if n >= 4*len(r.jobs)+64 {
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
	if !r.usageOK {
		r.usage = r.usage[:0]
		for _, a := range r.active {
			r.usage = append(r.usage, TenantUsage{Tenant: a.name, Running: a.jobs, Procs: a.procs})
		}
		r.usageOK = true
	}
	return r.usage
}

// EachRunning implements ClusterView: every running job in ascending id
// order. Arbiters call it lazily; the default single-job path never does.
func (r *runningSet) EachRunning(yield func(*ContactView) bool) { r.each(r.jobs, yield) }

// EachShrinkable implements ClusterView over the shrinkable index.
func (r *runningSet) EachShrinkable(yield func(*ContactView) bool) { r.each(r.shrinkable, yield) }

// EachExpandable implements ClusterView over the expandable index, building
// it on the first call: the buckets from lo through hi, each in id order.
func (r *runningSet) EachExpandable(lo, hi int, yield func(*ContactView) bool) {
	if !r.expIndexed {
		r.expIndexed = true
		for _, j := range r.jobs {
			r.fileExpandable(j)
		}
	}
	for i := r.bucketAt(lo); i < len(r.expandable) && r.expandable[i].delta <= hi; i++ {
		if !r.each(r.expandable[i].jobs, yield) {
			return
		}
	}
}

// each yields one reused view per job, so a sweep copies each job's fields
// once and allocates nothing. It reports whether yield asked for more.
func (r *runningSet) each(index []*Job, yield func(*ContactView) bool) bool {
	more := true
	for _, j := range index {
		r.view.fill(j)
		if more = yield(&r.view); !more {
			break
		}
	}
	r.view = ContactView{}
	return more
}

// Running implements ClusterView: one running job by id.
func (r *runningSet) Running(id int) (ContactView, bool) {
	i := sort.Search(len(r.jobs), func(k int) bool { return r.jobs[k].ID >= id })
	if i == len(r.jobs) || r.jobs[i].ID != id {
		return ContactView{}, false
	}
	return contactView(r.jobs[i]), true
}

// applyDecision actuates an arbitration decision on the job. Expansions
// take the delta from the core's idle counter *free; shrinks mark the
// give-back as pending until ResizeComplete. It returns the decision
// actually applied: an expansion the idle processors cannot cover degrades
// to ActionNone instead of driving the counter negative (unreachable for
// the fit-checked published policy).
func (r *runningSet) applyDecision(j *Job, d Decision, free *int, record func(kind string)) Decision {
	switch d.Action {
	case ActionExpand:
		delta := d.Target.Count() - j.Topo.Count()
		if delta > *free {
			return Decision{Action: ActionNone, Reason: "idle processors claimed concurrently"}
		}
		*free -= delta
		r.retopo(j, d.Target)
		record("expand")
	case ActionShrink:
		freed := j.Topo.Count() - d.Target.Count()
		j.pendingFree += freed
		r.pendingFree += freed
		r.retopo(j, d.Target)
		record("shrink")
	}
	return d
}

// finishResize records the redistribution cost of a completed resize in the
// profiler and returns the number of processors a pending shrink should now
// release (0 when the resize freed nothing). The caller returns them to the
// pool and then reports the give-back as released.
func (r *runningSet) finishResize(j *Job, redistTime float64) int {
	if j.resizeFrom.IsValid() {
		j.Profile.RecordRedist(j.resizeFrom, j.Topo, redistTime)
		j.resizeFrom = grid.Topology{}
		r.changed(j)
	}
	return j.pendingFree
}

// validateFinish checks a completion signal without mutating the job, the
// journaling counterpart of validateContact.
func validateFinish(jobs map[int]*Job, jobID int, kind string) (*Job, error) {
	j, ok := jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("scheduler: unknown job %d", jobID)
	}
	if j.State != Running {
		return nil, fmt.Errorf("scheduler: job %d completed (%s) while %v", jobID, kind, j.State)
	}
	return j, nil
}
