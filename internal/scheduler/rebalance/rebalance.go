// Package rebalance implements the global rebalancer: a periodic,
// cluster-wide reallocation pass driven by learned speedup curves.
//
// The reactive arbiters (package internal/scheduler/arbiter) decide one
// contact at a time: each running job probes one configuration-chain rung
// per resize point and queue pressure is resolved by coordinated shrinks
// computed on demand. The rebalancer adds a planning axis on top: on a
// configurable tick (scheduler.Core.Rebalance / simcluster.WithRebalance)
// it fits one perfmodel.Curve per running job from the job's measured
// visit history, solves a cluster-wide processor assignment by greedy
// marginal-benefit water-filling, and records the result as per-job
// shrink/expand directives. Directives are not actuated by the tick —
// resizes can only happen at iteration boundaries — but delivered through
// the ordinary Arbiter interface at each job's next resize point, so the
// whole state machine (reservation, degradation, ResizeComplete
// accounting, journaling) is reused unchanged.
//
// The plan is deliberately conservative where the model is blind:
//
//   - a directive is only emitted when the predicted net benefit over the
//     job's remaining iterations exceeds the redistribution cost of the
//     move (measured cost when available, estimated otherwise);
//   - jobs mid-shrink (processors pending free) are left to the reactive
//     arbiter, and expansion rungs backed by neither a measurement nor a
//     fitted curve — priced by the Predict hook alone — advance at most
//     one rung per plan, the reactive probing pace;
//   - when the queue is non-empty the head job's full processor need is
//     reserved out of the expansion budget, so planning never starves the
//     queue the reactive layer is trying to fund;
//   - shrink directives move a job only to a previously visited
//     configuration (the application constraint) and only when the fitted
//     curve says the job ran *past its knee* — the shrink is predicted to
//     help the job itself, and the freed processors are pure surplus.
//
// Determinism: the plan is a pure function of the cluster snapshot and
// the Rebalancer's configuration. Jobs are scanned in ascending id order,
// candidate moves are ranked with full tie-breaks, and the curve fitter
// is itself deterministic — so a recovered daemon that replays a
// journaled OpRebalance tick recomputes the identical plan (pinned by
// the crash tests in internal/simcluster).
package rebalance

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
)

// Directive is one planned move for one job: shrink or expand From -> To
// at the job's next resize point. Gain is the predicted net benefit in
// seconds over the job's remaining iterations, redistribution cost
// already subtracted (always > 0 for an emitted directive).
type Directive struct {
	JobID int
	From  grid.Topology
	To    grid.Topology
	Gain  float64
}

// Expand reports the move's direction.
func (d Directive) Expand() bool { return d.To.Count() > d.From.Count() }

// Plan is one planning tick's full output: the tick time and every
// directive, sorted by ascending job id.
type Plan struct {
	Now        float64
	Directives []Directive
}

// Rebalancer is the planning arbiter. It implements scheduler.Arbiter by
// delegating to Inner (the reactive benefit-ranked arbiter) and
// scheduler.Planner by recomputing its directive set at every tick;
// directives take precedence over Inner for the jobs they name. The zero
// value is NOT ready — use New.
type Rebalancer struct {
	// Inner handles every contact the current plan has no directive for:
	// probing, queue funding, starvation aging all behave exactly as in
	// the PR 5 arbiter.
	Inner *arbiter.BenefitRanked
	// Predict estimates iteration time on configurations the job has
	// neither measured nor covered by its fitted curve (same contract as
	// simcluster.Predictor and Inner.Predict). Optional.
	Predict func(jobID int, t grid.Topology) (float64, bool)
	// RedistCost estimates the redistribution cost of a move the job has
	// never performed (e.g. perfmodel.Params.RedistTime). Optional; with
	// neither a measured nor an estimated cost the planner assumes 0 and
	// relies on the iteration-time margin alone.
	RedistCost func(jobID int, from, to grid.Topology) (float64, bool)
	// MinGainSeconds is the emission threshold: directives whose
	// predicted net benefit is at or below it are suppressed. Zero means
	// any strictly positive benefit qualifies.
	MinGainSeconds float64
	// OnPlan, when set, observes every adopted plan (test/telemetry
	// hook). The plan is owned by the callee.
	OnPlan func(Plan)

	directives map[int]Directive

	// Planning scratch, reused from tick to tick and never handed out:
	// Directives and OnPlan get fresh copies.
	jobs []jobView
	exps []expansion
	obs  []perfmodel.SpeedupObs
}

var (
	_ scheduler.Arbiter = (*Rebalancer)(nil)
	_ scheduler.Planner = (*Rebalancer)(nil)
)

// New wraps the reactive arbiter in a Rebalancer (nil gets a default
// BenefitRanked). The rebalancer's curve fits subsume most of what an
// inner Predict hook would provide, but an installed one still serves as
// the final fallback for jobs with too little history to fit.
func New(inner *arbiter.BenefitRanked) *Rebalancer {
	if inner == nil {
		inner = &arbiter.BenefitRanked{}
	}
	return &Rebalancer{Inner: inner, directives: make(map[int]Directive)}
}

// Name identifies the arbiter.
func (r *Rebalancer) Name() string { return "rebalance(" + r.Inner.Name() + ")" }

// Directives returns the outstanding (not yet delivered) directives,
// sorted by ascending job id — a read-only view for tests and telemetry.
func (r *Rebalancer) Directives() []Directive {
	out := make([]Directive, 0, len(r.directives))
	for _, d := range r.directives {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Decide implements scheduler.Arbiter: a contacting job with a live
// directive is answered from the plan; everything else falls through to
// the reactive arbiter.
func (r *Rebalancer) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	if d, ok := r.directives[snap.Caller.ID]; ok {
		if d.From != snap.Caller.Topo {
			// The job moved since the plan was computed (probe, coordinated
			// shrink): the directive is stale — drop it and fall through.
			delete(r.directives, snap.Caller.ID)
		} else if !d.Expand() {
			delete(r.directives, snap.Caller.ID)
			return scheduler.Decision{
				Action: scheduler.ActionShrink,
				Target: d.To,
				Reason: fmt.Sprintf("rebalance: planned shrink (past fitted knee, net gain %.3gs)", d.Gain),
			}
		} else if free := r.grantable(snap); d.To.Count()-d.From.Count() <= free {
			delete(r.directives, snap.Caller.ID)
			return scheduler.Decision{
				Action: scheduler.ActionExpand,
				Target: d.To,
				Reason: fmt.Sprintf("rebalance: planned expansion (net gain %.3gs)", d.Gain),
			}
		}
		// An expansion that no longer fits the grantable pool stays
		// pending — the processors it was planned against are in flight
		// (another job's resize, a start) or newly claimed by queue
		// pressure — and the reactive arbiter answers this contact. If the
		// job moves meanwhile the staleness check above retires the
		// directive at its next contact.
	}
	return r.Inner.Decide(snap)
}

// grantable is the idle-pool share a planned expansion may take at
// delivery time: the head of the queue keeps first claim on the idle
// pool, mirroring the reservation the planning tick made when the plan
// was computed — queue pressure that arrived after the tick must not be
// expanded over either.
func (r *Rebalancer) grantable(snap scheduler.ClusterSnapshot) int {
	free := snap.Idle
	if len(snap.Queued) > 0 {
		free -= snap.Queued[0].Need
	}
	return free
}

// jobView is the planner's per-job working copy: everything Rebalance
// needs, copied out of the live ContactView so no Profile pointer is
// retained past the snapshot (the arbiter aliasing contract). A view is a
// slot of Rebalancer.jobs: the next tick's job at the same index reuses its
// slices, truncated.
type jobView struct {
	id       int
	topo     grid.Topology
	remIters int

	curKnown bool    // measured baseline on the current topology exists
	curTime  float64 // that baseline (seconds per iteration)

	curve perfmodel.Curve

	rungs   []grid.Topology // chain configurations beyond topo, in order
	shrinks []grid.Topology // visited smaller configurations, descending count

	measured []topoSeconds // last measured iteration time per visited topology
	redist   []topoSeconds // measured redistribution cost of topo -> rung or shrink point
}

// topoSeconds is one entry of a jobView's lookup tables: a job measures a
// handful of configurations, so a scanned slice beats a map per job per tick.
type topoSeconds struct {
	topo grid.Topology
	sec  float64
}

func lookup(table []topoSeconds, t grid.Topology) (float64, bool) {
	for i := range table {
		if table[i].topo == t {
			return table[i].sec, true
		}
	}
	return 0, false
}

// expansion is one job's standing bid in the water-filling phase.
type expansion struct {
	j       *jobView
	planned grid.Topology // position after the rungs won so far
	next    int           // index into j.rungs of the next bid
	gain    float64       // accumulated net gain (redist charged once)
	blind   bool          // won a Predict-only rung: no further bids
}

// priceAt predicts seconds per iteration for the job on t: measured
// visit first, then the fitted curve, then the Predict hook. A 1-point
// "fit" is excluded: it is a flat line through a single configuration
// and would predict zero benefit everywhere, silently shadowing a
// Predict hook that actually knows the job's scaling (two measured
// counts are the minimum for the curve to carry any shape). blind
// reports that the price rests on the Predict hook alone — no
// measurement and no fitted curve back it.
func (r *Rebalancer) priceAt(j *jobView, t grid.Topology) (sec float64, blind, ok bool) {
	if sec, ok := lookup(j.measured, t); ok {
		return sec, false, true
	}
	if j.curve.Points >= 2 {
		if sec, ok := j.curve.Eval(t.Count()); ok {
			return sec, false, true
		}
	}
	if r.Predict != nil {
		sec, ok := r.Predict(j.id, t)
		return sec, true, ok
	}
	return 0, false, false
}

// timeAt is priceAt without the provenance bit.
func (r *Rebalancer) timeAt(j *jobView, t grid.Topology) (float64, bool) {
	sec, _, ok := r.priceAt(j, t)
	return sec, ok
}

// redistCost estimates the cost of moving the job from its current
// configuration to a rung or shrink point: measured first, then the
// RedistCost hook, then 0.
func (r *Rebalancer) redistCost(j *jobView, to grid.Topology) float64 {
	if sec, ok := lookup(j.redist, to); ok {
		return sec
	}
	if r.RedistCost != nil {
		if sec, ok := r.RedistCost(j.id, j.topo, to); ok {
			return sec
		}
	}
	return 0
}

// netGain scores moving the job from its current configuration to t: the
// predicted per-iteration saving times the remaining iterations, minus
// the redistribution cost. ok is false when either side is unpredictable.
func (r *Rebalancer) netGain(j *jobView, t grid.Topology) (float64, bool) {
	if !j.curKnown {
		return 0, false
	}
	after, ok := r.timeAt(j, t)
	if !ok {
		return 0, false
	}
	return (j.curTime-after)*float64(j.remIters) - r.redistCost(j, t), true
}

// Rebalance implements scheduler.Planner: recompute the directive set
// from a caller-less cluster snapshot. The previous plan is discarded
// wholesale — directives represent the latest tick's view only.
func (r *Rebalancer) Rebalance(snap scheduler.ClusterSnapshot) {
	jobs := r.collect(snap)

	// Expansion budget: the idle pool, minus the queue head's full need
	// when anything waits (planning must not expand over the job the
	// reactive layer is funding), plus whatever the shrink phase frees.
	budget := snap.Idle
	if len(snap.Queued) > 0 {
		budget -= snap.Queued[0].Need
	}

	clear(r.directives)

	// Phase 1 — shrink past the knee. A job whose fitted curve turns over
	// before its current allocation is predicted to run *faster* on fewer
	// processors: shrinking is a win for the job and frees surplus for
	// the expansion phase. Only previously visited configurations are
	// legal targets.
	for i := range jobs {
		j := &jobs[i]
		if !j.curve.Valid() || j.curve.Knee() >= j.topo.Count() {
			continue
		}
		bestGain := r.MinGainSeconds
		var best grid.Topology
		found := false
		for _, p := range j.shrinks {
			if gain, ok := r.netGain(j, p); ok && gain > bestGain {
				best, bestGain, found = p, gain, true
			}
		}
		if found {
			r.directives[j.id] = Directive{JobID: j.id, From: j.topo, To: best, Gain: bestGain}
			budget += j.topo.Count() - best.Count()
		}
	}

	// Phase 2 — expansion water-filling. Every undirected job advances
	// along its configuration chain one rung at a time, but all jobs bid
	// against each other for every processor: each round the job with the
	// highest marginal gain per extra processor wins its next rung, then
	// re-bids from the new planned position. A job can therefore jump
	// several rungs in one plan (the fitted curve scores configurations
	// one-step probing would take several resize points to reach), yet a
	// shallow second rung never beats another job's steep first rung —
	// water level, not queue order, decides.
	exps := r.exps[:0]
	for i := range jobs {
		j := &jobs[i]
		if _, planned := r.directives[j.id]; !planned && len(j.rungs) > 0 {
			exps = append(exps, expansion{j: j, planned: j.topo})
		}
	}
	r.exps = exps
	for {
		var best *expansion
		bestPerProc := 0.0
		bestMarginal := 0.0
		bestBlind := false
		for i := range exps {
			e := &exps[i]
			if e.next >= len(e.j.rungs) || e.blind {
				continue
			}
			to := e.j.rungs[e.next]
			delta := to.Count() - e.planned.Count()
			if delta <= 0 || delta > budget {
				continue
			}
			cur, okCur := r.timeAt(e.j, e.planned)
			after, blind, okAfter := r.priceAt(e.j, to)
			if !e.j.curKnown || !okCur || !okAfter {
				continue
			}
			marginal := (cur - after) * float64(e.j.remIters)
			if e.planned == e.j.topo {
				// The whole multi-rung move is one redistribution; charge it
				// against the first rung.
				marginal -= r.redistCost(e.j, to)
			}
			if marginal <= r.MinGainSeconds {
				continue
			}
			pp := marginal / float64(delta)
			if best == nil || pp > bestPerProc || (pp == bestPerProc && e.j.id < best.j.id) {
				best, bestPerProc, bestMarginal, bestBlind = e, pp, marginal, blind
			}
		}
		if best == nil {
			break
		}
		to := best.j.rungs[best.next]
		budget -= to.Count() - best.planned.Count()
		best.planned = to
		best.next++
		best.gain += bestMarginal
		// A rung priced by the Predict hook alone is a probe step, not a
		// curve-backed jump: advance at most one such rung per plan, so a
		// job with no evidence grows at the reactive arbiter's pace and
		// cannot swallow the idle pool ahead of future arrivals.
		best.blind = bestBlind
	}
	for i := range exps {
		if e := &exps[i]; e.planned != e.j.topo {
			r.directives[e.j.id] = Directive{JobID: e.j.id, From: e.j.topo, To: e.planned, Gain: e.gain}
		}
	}

	if r.OnPlan != nil {
		r.OnPlan(Plan{Now: snap.Now, Directives: r.Directives()})
	}
}

// collect copies the planner's working views out of the snapshot,
// fitting one speedup curve per job from its measured visit history.
// Jobs mid-shrink (pending frees) are excluded — their topology is in
// flux. A job with no measured baseline on its current configuration
// (fresh start, iteration in flight after a resize) is still planned
// when the fitted curve or the Predict hook can price that baseline:
// excluding such jobs would blind the planner to exactly the jobs that
// just moved, and their unclaimed benefit would be handed to whoever
// measured last.
func (r *Rebalancer) collect(snap scheduler.ClusterSnapshot) []jobView {
	r.jobs = r.jobs[:0]
	snap.Cluster.EachRunning(func(v *scheduler.ContactView) bool {
		if v.PendingFree == 0 {
			r.view(v)
		}
		return true
	})
	return r.jobs
}

// view fills the next slot of r.jobs from one running job, keeping the
// slot only when something can price the job's current configuration.
func (r *Rebalancer) view(v *scheduler.ContactView) {
	n := len(r.jobs)
	r.jobs = slices.Grow(r.jobs, 1)[:n+1]
	j := &r.jobs[n]
	*j = jobView{
		id:       v.ID,
		topo:     v.Topo,
		remIters: max(v.RemainingIters, 1),
		rungs:    j.rungs[:0],
		shrinks:  j.shrinks[:0],
		measured: j.measured[:0],
		redist:   j.redist[:0],
	}
	r.obs = r.obs[:0]
	for i := range v.Profile.Visits {
		visit := &v.Profile.Visits[i]
		if len(visit.IterTimes) == 0 {
			continue
		}
		// The most recent visit to a configuration wins.
		k := 0
		for k < len(j.measured) && j.measured[k].topo != visit.Topo {
			k++
		}
		if k == len(j.measured) {
			j.measured = append(j.measured, topoSeconds{topo: visit.Topo})
		}
		j.measured[k].sec = visit.Last()
		r.obs = append(r.obs, perfmodel.SpeedupObs{Procs: visit.Topo.Count(), Seconds: visit.Mean()})
	}
	j.curve = perfmodel.FitSpeedup(r.obs)
	cur, ok := r.timeAt(j, v.Topo)
	if !ok {
		r.jobs = r.jobs[:n] // nothing can price the current configuration
		return
	}
	j.curKnown, j.curTime = true, cur
	for t := v.Topo; ; {
		next, ok := scheduler.NextInChain(v.Chain, t)
		if !ok {
			break
		}
		j.rungs = append(j.rungs, next)
		t = next
	}
	j.shrinks = v.Profile.AppendShrinkPoints(j.shrinks, v.Topo)
	for _, targets := range [2][]grid.Topology{j.rungs, j.shrinks} {
		for _, to := range targets {
			if cost, ok := v.Profile.RedistCost(v.Topo, to); ok {
				j.redist = append(j.redist, topoSeconds{to, cost})
			}
		}
	}
}
