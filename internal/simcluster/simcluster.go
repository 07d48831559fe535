package simcluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
)

// Mode selects the scheduling strategy.
type Mode int

const (
	// Static keeps every job at its initial allocation (conventional
	// scheduler).
	Static Mode = iota
	// Dynamic is ReSHAPE with the message-passing redistribution.
	Dynamic
	// DynamicCheckpoint is dynamic resizing paying the file-based
	// checkpoint/restart cost at every resize.
	DynamicCheckpoint
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case Dynamic:
		return "reshape"
	case DynamicCheckpoint:
		return "checkpoint"
	default:
		return "unknown"
	}
}

// JobInput couples a scheduler job spec with its performance model and
// arrival time.
type JobInput struct {
	Spec    scheduler.JobSpec
	Model   perfmodel.AppModel
	Arrival float64
}

// IterRecord is one completed iteration in the simulation, mirroring the
// rows of Figure 3(a).
type IterRecord struct {
	Iter      int
	Procs     int
	Topo      string
	IterTime  float64
	RedistSec float64 // cost paid after this iteration's resize point
}

// JobResult summarizes one job.
type JobResult struct {
	Name        string
	App         string
	Tenant      string // submitting principal ("" = default tenant)
	InitialProc int
	Submit      float64
	Start       float64
	End         float64
	Iters       []IterRecord
	TotalRedist float64
}

// Turnaround is completion time minus submission time.
func (j JobResult) Turnaround() float64 { return j.End - j.Submit }

// QueueWait is start time minus submission time: how long the job sat in
// the wait queue before receiving processors.
func (j JobResult) QueueWait() float64 { return j.Start - j.Submit }

// ComputeTime is the sum of iteration times (excluding redistribution).
func (j JobResult) ComputeTime() float64 {
	s := 0.0
	for _, r := range j.Iters {
		s += r.IterTime
	}
	return s
}

// Result is a full simulation outcome.
type Result struct {
	Mode        Mode
	Total       int
	Jobs        []JobResult
	Makespan    float64
	Utilization float64 // fraction of available cpu-seconds assigned to jobs

	core *scheduler.Core // the finished run's core, whose trace Events reads
}

// Events yields the run's allocation trace with each event's index, read
// in place from the finished core's log: for i, e := range res.Events.
func (r *Result) Events(yield func(int, scheduler.AllocEvent) bool) { r.core.Events(yield) }

// BusySeries converts the trace into (time, busy) step points for Figures
// 4(b)/5(b).
func (r *Result) BusySeries() [][2]float64 {
	var out [][2]float64
	for _, e := range r.Events {
		out = append(out, [2]float64{e.Time, float64(e.Busy)})
	}
	return out
}

// AllocSeries extracts one job's processor-allocation history as (time,
// procs) step points for Figures 4(a)/5(a). The series ends with the job's
// completion at zero processors.
func (r *Result) AllocSeries(jobName string) [][2]float64 {
	var out [][2]float64
	for _, e := range r.Events {
		if e.Job != jobName {
			continue
		}
		switch e.Kind {
		case "start", "expand", "shrink":
			out = append(out, [2]float64{e.Time, float64(e.Topo.Count())})
		case "end":
			out = append(out, [2]float64{e.Time, 0})
		}
	}
	return out
}

// mean averages f over all jobs in job order (0 for an empty result).
func (r *Result) mean(f func(JobResult) float64) float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	s := 0.0
	for _, j := range r.Jobs {
		s += f(j)
	}
	return s / float64(len(r.Jobs))
}

// MeanQueueWait averages start-minus-submit over all jobs — the headline
// metric of the FCFS-vs-arbiter comparison.
func (r *Result) MeanQueueWait() float64 { return r.mean(JobResult.QueueWait) }

// MeanTurnaround averages completion-minus-submit over all jobs.
func (r *Result) MeanTurnaround() float64 { return r.mean(JobResult.Turnaround) }

// nearestRank is the nearest-rank q-th percentile (0 < q <= 1) of an
// ascending slice, 0 for an empty one.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// QueueWaitP99 is the 99th-percentile queue wait (nearest-rank over all
// jobs, 0 for an empty result) — the rebalancer's tail-latency gate: a
// cluster-wide optimizer must not buy mean improvements by starving the
// unlucky tail.
func (r *Result) QueueWaitP99() float64 {
	waits := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		waits[i] = j.QueueWait()
	}
	sort.Float64s(waits)
	return nearestRank(waits, 0.99)
}

// tenantWaits collects the queue waits of one tenant's jobs, sorted
// ascending.
func (r *Result) tenantWaits(tenant string) []float64 {
	var waits []float64
	for _, j := range r.Jobs {
		if j.Tenant == tenant {
			waits = append(waits, j.QueueWait())
		}
	}
	sort.Float64s(waits)
	return waits
}

// TenantMeanQueueWait averages start-minus-submit over one tenant's jobs
// (0 if the tenant submitted none) — the fairness experiments' per-victim
// view of MeanQueueWait.
func (r *Result) TenantMeanQueueWait(tenant string) float64 {
	waits := r.tenantWaits(tenant)
	if len(waits) == 0 {
		return 0
	}
	s := 0.0
	for _, w := range waits {
		s += w
	}
	return s / float64(len(waits))
}

// TenantQueueWaitP99 is the nearest-rank 99th-percentile queue wait of one
// tenant's jobs (0 if the tenant submitted none) — the noisy-neighbor
// gate's victim metric.
func (r *Result) TenantQueueWaitP99(tenant string) float64 {
	return nearestRank(r.tenantWaits(tenant), 0.99)
}

// Sim runs one simulation. Virtual time is its timeline: arrivals, resize
// points, resize completions and rebalance ticks are timestamped events
// dispatched one at a time in (time, insertion) order by drain. Arrivals
// stream from the arrival-ordered mix through a cursor; the timeline's heap
// holds only the events of jobs in flight and the next rebalance tick.
type Sim struct {
	total   int
	mode    Mode
	params  *perfmodel.Params
	core    *scheduler.Core
	policy  scheduler.Policy
	arbiter scheduler.Arbiter
	tl      timeline

	inputs []JobInput
	// states holds every job's state by id (ids are dense: assigned
	// 0,1,2,... at submit), sized to the mix once at Run.
	states   []jobState
	arrivals []JobInput // the mix in arrival order
	arrived  int        // arrivals[arrived:] are not yet submitted
	crashes  []crashPlan

	rebalanceEvery float64
	finished       int  // completed jobs; gates rebalance-tick rescheduling
	noIters        bool // skip per-iteration IterRecord building (WithoutIterRecords)
}

// jobState is what the simulator tracks of one submitted job. Its result
// gathers the job's times as they happen; collect adds what the job's
// arrival entry says of it. topo is the job's grid: the one it started on,
// then each granted resize's target (Core.Contact refuses any other).
type jobState struct {
	in        *JobInput // the job's entry in Sim.arrivals
	id        int
	itersDone int
	lastIter  float64 // duration of the iteration in flight / just completed
	lastRed   float64
	topo      grid.Topology
	result    JobResult
}

// New prepares a simulation over a cluster with total processors. The
// default scheduler core is built lazily at Run (WithCore replaces it).
func New(total int, mode Mode, params *perfmodel.Params, jobs []JobInput) *Sim {
	return &Sim{
		total:  total,
		mode:   mode,
		params: params,
		inputs: jobs,
	}
}

// WithoutIterRecords drops the per-iteration IterRecord rows from JobResult
// (JobResult.Iters stays empty; ComputeTime then reads 0). The records are
// pure output — building them never feeds back into scheduling — so the
// schedule is unchanged; million-job throughput runs use this the way
// DisableTrace drops the core's allocation trace.
func (s *Sim) WithoutIterRecords() *Sim {
	s.noIters = true
	return s
}

// state returns the tracked state for a job id, or nil before its arrival.
func (s *Sim) state(id int) *jobState {
	if id < 0 || id >= len(s.states) || s.states[id].in == nil {
		return nil
	}
	return &s.states[id]
}

// WithPolicy overrides the Remap Scheduler policy for this simulation (used
// by the policy ablation experiments); the default is the paper's policy.
// The override is applied to the core at Run, whichever of WithPolicy and
// WithCore is called first. An arbiter installed via WithArbiter replaces
// the core's policy path entirely, so the override then has no effect
// (arbiter.BenefitRanked always expands through the paper's policy).
func (s *Sim) WithPolicy(p scheduler.Policy) *Sim {
	s.policy = p
	return s
}

// WithArbiter installs a cluster-wide resize arbiter on the simulation's
// core at Run (e.g. arbiter.BenefitRanked); the default is the single-job
// policy path, which reproduces the published FCFS Contact behavior. With
// an arbiter installed, WithPolicy has no effect (see WithPolicy).
func (s *Sim) WithArbiter(a scheduler.Arbiter) *Sim {
	s.arbiter = a
	return s
}

// WithRebalance schedules a global-rebalancer planning tick every
// `every` seconds of virtual time, starting at t=every: each tick calls
// the core's Rebalance, which drives the installed Planner arbiter (see
// rebalance.New) and journals the tick when a journal is installed. Ticks
// stop rescheduling once every job has finished, so the simulation still
// terminates. A non-positive interval disables ticking.
func (s *Sim) WithRebalance(every float64) *Sim {
	s.rebalanceEvery = every
	return s
}

// WithCore replaces the default scheduler core (throughput benchmarks pass
// one without tracing, crash tests one with a journal installed). The core
// must be freshly constructed for a cluster with the same total.
func (s *Sim) WithCore(core *scheduler.Core) *Sim {
	s.core = core
	return s
}

// Predictor builds a perfmodel-backed iteration-time predictor for a job
// mix, suitable for arbiter.BenefitRanked.Predict: job ids are resolved to
// their AppModels by arrival order, matching the ids the simulation will
// assign at submission.
func Predictor(params *perfmodel.Params, jobs []JobInput) func(jobID int, t grid.Topology) (float64, bool) {
	models := arrivalModels(jobs)
	return func(jobID int, t grid.Topology) (float64, bool) {
		if jobID < 0 || jobID >= len(models) {
			return 0, false
		}
		sec, err := params.IterTime(models[jobID], t)
		if err != nil {
			return 0, false
		}
		return sec, true
	}
}

// RedistPredictor builds a perfmodel-backed redistribution-cost estimator
// for a job mix, suitable for rebalance.Rebalancer.RedistCost: like
// Predictor, job ids are resolved to AppModels by arrival order.
func RedistPredictor(params *perfmodel.Params, jobs []JobInput) func(jobID int, from, to grid.Topology) (float64, bool) {
	models := arrivalModels(jobs)
	return func(jobID int, from, to grid.Topology) (float64, bool) {
		if jobID < 0 || jobID >= len(models) {
			return 0, false
		}
		return params.RedistTime(models[jobID], from, to), true
	}
}

// byArrival returns jobs in the order the simulation submits them: by
// arrival time, stable among equal arrivals. A job's index in it is the id
// the core assigns. A mix already in that order (every generated mix, W1
// and W2) is returned as is; any other is stable-sorted into a copy.
func byArrival(jobs []JobInput) []JobInput {
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			arrivals := append([]JobInput{}, jobs...)
			sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Arrival < arrivals[j].Arrival })
			return arrivals
		}
	}
	return jobs
}

// arrivalModels lists a mix's AppModels indexed by job id.
func arrivalModels(jobs []JobInput) []perfmodel.AppModel {
	arrivals := byArrival(jobs)
	models := make([]perfmodel.AppModel, len(arrivals))
	for i, in := range arrivals {
		models[i] = in.Model
	}
	return models
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (*Result, error) {
	if s.core == nil {
		s.core = scheduler.NewCore(s.total, true)
	}
	if s.policy != nil {
		s.core.SetPolicy(s.policy)
	}
	if s.arbiter != nil {
		s.core.SetArbiter(s.arbiter)
	}
	s.arrivals = byArrival(s.inputs)
	s.states = make([]jobState, len(s.arrivals))
	// Every job records its submit, start and end; on the benchmark's
	// arbiter mixes resizes add less than one event per job on average.
	s.core.ReserveEvents(4 * len(s.arrivals))
	if s.rebalanceEvery > 0 {
		s.tl.at(s.rebalanceEvery, evRebalance, -1)
	}
	if err := s.drain(); err != nil {
		return nil, err
	}
	return s.collect()
}

// startIteration schedules the next resize point for a running job.
func (s *Sim) startIteration(js *jobState, now float64) error {
	dur, err := s.params.IterTime(js.in.Model, js.topo)
	if err != nil {
		return err
	}
	js.lastIter = dur
	s.tl.at(now+dur, evResizePoint, js.id)
	return nil
}

func (s *Sim) handleArrival(e event) error {
	in := &s.arrivals[e.job]
	job, started, err := s.core.Submit(in.Spec, e.time)
	if err != nil {
		return err
	}
	if job.ID != e.job {
		return fmt.Errorf("simcluster: the core numbered arrival %d job %d; it must start fresh", e.job, job.ID)
	}
	js := &s.states[job.ID]
	js.in, js.id = in, job.ID
	js.result.Submit = e.time
	return s.beginStarted(started, e.time)
}

// beginStarted kicks off the first iteration of every newly started job.
func (s *Sim) beginStarted(started []*scheduler.Job, now float64) error {
	for _, j := range started {
		js := s.state(j.ID)
		if js == nil {
			return fmt.Errorf("simcluster: started unknown job %d", j.ID)
		}
		js.result.Start, js.topo = now, j.Topo
		if err := s.startIteration(js, now); err != nil {
			return err
		}
	}
	return nil
}

// recordIter appends one completed iteration's row to the job's result
// (dropped wholesale under WithoutIterRecords, before the topology is
// formatted; the rows never feed back into scheduling). The row slice is
// sized once to the job's full iteration count, since every iteration
// produces exactly one row.
func (s *Sim) recordIter(js *jobState, topo grid.Topology, redist float64) {
	if s.noIters {
		return
	}
	if js.result.Iters == nil {
		n := js.in.Spec.Iterations
		if n < 1 {
			n = 1
		}
		js.result.Iters = make([]IterRecord, 0, n)
	}
	js.result.Iters = append(js.result.Iters, IterRecord{
		Iter:      js.itersDone,
		Procs:     topo.Count(),
		Topo:      topo.String(),
		IterTime:  js.lastIter,
		RedistSec: redist,
	})
}

func (s *Sim) handleResizePoint(e event) error {
	js := s.state(e.job)
	now := e.time
	js.itersDone++
	topo := js.topo

	if js.itersDone >= js.in.Spec.Iterations {
		s.recordIter(js, topo, 0)
		js.result.End = now
		started, err := s.core.Finish(e.job, now)
		if err != nil {
			return err
		}
		s.finished++
		return s.beginStarted(started, now)
	}

	if s.mode == Static {
		s.recordIter(js, topo, 0)
		return s.startIteration(js, now)
	}

	d, err := s.core.Contact(e.job, topo, js.lastIter, js.lastRed, now)
	if err != nil {
		return err
	}
	js.lastRed = 0
	if d.Action == scheduler.ActionNone {
		s.recordIter(js, topo, 0)
		return s.startIteration(js, now)
	}

	// Resize granted: pay the redistribution cost, then resume.
	var cost float64
	if s.mode == DynamicCheckpoint {
		cost = s.params.CheckpointTime(js.in.Model, topo, d.Target)
	} else {
		cost = s.params.RedistTime(js.in.Model, topo, d.Target)
	}
	js.topo, js.lastRed = d.Target, cost
	js.result.TotalRedist += cost
	s.recordIter(js, topo, cost)
	s.tl.at(now+cost, evResizeDone, e.job)
	return nil
}

func (s *Sim) handleResizeDone(e event) error {
	js := s.state(e.job)
	started, err := s.core.ResizeComplete(e.job, js.lastRed, e.time)
	if err != nil {
		return err
	}
	if err := s.beginStarted(started, e.time); err != nil {
		return err
	}
	return s.startIteration(js, e.time)
}

// handleRebalance drives one planning tick and schedules the next while
// any job is still unfinished (the final tick after the last completion
// simply runs against an empty cluster and stops the chain).
func (s *Sim) handleRebalance(e event) error {
	if err := s.core.Rebalance(e.time); err != nil {
		return err
	}
	if s.finished < len(s.inputs) {
		s.tl.at(e.time+s.rebalanceEvery, evRebalance, -1)
	}
	return nil
}

// collect assembles the result, each job's from its state and its arrival
// entry, in id order; the trace stays in the core, where Result.Events
// reads it. Utilization comes from the core's exact busy-time integral, so
// it is available even when event tracing is disabled for very large runs.
func (s *Sim) collect() (*Result, error) {
	res := &Result{Mode: s.mode, Total: s.total, core: s.core, Jobs: make([]JobResult, len(s.states))}
	for i := range s.states {
		js := &s.states[i]
		spec := &js.in.Spec
		if want := max(spec.Iterations, 1); js.itersDone < want {
			return nil, fmt.Errorf("simcluster: job %q never finished (%d of %d iterations)", spec.Name, js.itersDone, want)
		}
		r := &res.Jobs[i]
		*r = js.result
		r.Name, r.App, r.Tenant, r.InitialProc = spec.Name, spec.App, spec.Tenant, spec.InitialTopo.Count()
		res.Makespan = max(res.Makespan, r.End)
	}
	if res.Makespan > 0 && s.total > 0 {
		res.Utilization = s.core.BusySeconds(res.Makespan) / (float64(s.total) * res.Makespan)
	}
	return res, nil
}
