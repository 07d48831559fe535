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
// the Rebalancer's configuration. The order its views sit in cannot show:
// the shrink phase only sums, candidate moves are ranked with full
// tie-breaks by job id, and the curve fitter is itself deterministic — so
// a recovered daemon that replays a journaled OpRebalance tick recomputes
// the identical plan (pinned by the crash tests in internal/simcluster).
package rebalance

import (
	"fmt"
	"math"
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
// value is NOT ready — use New. Predict and RedistCost are configuration:
// set them before the first tick, as views keep what they priced.
//
// A tick reads the cluster's change feed (ClusterView.Changes) and touches
// only the jobs it names, so a Rebalancer is one core's reader: ticks on
// another running set, or a second reader of the same feed, resync by
// walking every running job.
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
	// OnPlan, when set, observes every adopted plan (test/telemetry
	// hook). The plan is owned by the callee.
	OnPlan func(Plan)

	directives map[int]Directive

	// Planning state, kept from tick to tick and never handed out:
	// Directives and OnPlan get fresh copies. jobs holds one view per planned
	// job in no set order, at[id] is 1 + the slot of job id's view (0: none)
	// and cursor is where the change feed was last read. cluster, refreshFn
	// and walkFn serve collect (a method value allocates, so bound once).
	jobs      []jobView
	at        []int32
	cursor    scheduler.Cursor
	cluster   scheduler.ClusterView
	refreshFn func(int)
	walkFn    func(*scheduler.ContactView) bool
	exps      []expansion
	heap      []standing
	obs       []perfmodel.SpeedupObs
	// The chunks views carve their tables from, kept from tick to tick (see
	// view).
	topoChunk []grid.Topology
	secChunk  []topoSeconds
	bidChunk  []bid

	built, priced, walked int // views built, bids priced and running jobs walked, for the cost tests
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
// retained past the snapshot (the arbiter aliasing contract), and what it
// derives from that. A view belongs to its job while the job is unchanged
// (see collect); its slices belong to its slot, reused by a rebuild (see
// view).
type jobView struct {
	id       int
	topo     grid.Topology
	remIters int
	stamp    uint64 // the Profile stamp the view was built at

	curTime float64 // seconds per iteration on topo (0: nothing prices it)

	curve perfmodel.Curve

	rungs   []grid.Topology // chain configurations beyond topo, in order
	shrinks []grid.Topology // visited smaller configurations, descending count

	measured []topoSeconds // last measured iteration time per visited topology
	redist   []topoSeconds // measured redistribution cost of topo -> rung or shrink point

	shrink topoSeconds // best shrink point past the knee and its net gain (-Inf: none)
	bids   []bid       // bids[k] is the bid for rungs[k], priced on first need
}

// bid is a job's offer for rungs[k], moving up from the rung before it
// (from topo when k is 0). It depends on the view alone.
type bid struct {
	ok       bool    // something prices the rung
	blind    bool    // priced by the Predict hook alone
	delta    int     // extra processors
	marginal float64 // net gain over the remaining iterations
	perProc  float64 // marginal per extra processor: the water level
	at       float64 // predicted seconds per iteration on the rung
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

// expansion is one job's place in the water-filling phase.
type expansion struct {
	j    *jobView
	next int     // rungs won so far: j.bids[next] is the standing bid
	gain float64 // accumulated net gain (redist charged once)
}

// standing is a standing bid's entry in the water-filling heap: the top is
// the highest perProc, the lowest id among equals.
type standing struct {
	perProc float64
	id      int
	exp     int // index into the tick's expansions
}

func (a standing) above(b standing) bool {
	return a.perProc > b.perProc || a.perProc == b.perProc && a.id < b.id
}

// down restores the heap order below h[i].
func down(h []standing, i int) {
	for {
		top, l := i, 2*i+1
		if l < len(h) && h[l].above(h[top]) {
			top = l
		}
		if l+1 < len(h) && h[l+1].above(h[top]) {
			top = l + 1
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
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

// Rebalance implements scheduler.Planner: recompute the directive set
// from a caller-less cluster snapshot. The previous plan is discarded
// wholesale — directives represent the latest tick's view only.
func (r *Rebalancer) Rebalance(snap scheduler.ClusterSnapshot) {
	r.collect(snap)

	// Expansion budget: the idle pool, minus the queue head's full need
	// when anything waits (planning must not expand over the job the
	// reactive layer is funding), plus whatever the shrink phase frees.
	budget := snap.Idle
	if len(snap.Queued) > 0 {
		budget -= snap.Queued[0].Need
	}

	// Phase 1 — shrink past the knee (each view's candidate is worked out
	// by view). It only sums, so the views' slot order cannot show.
	clear(r.directives)
	for i := range r.jobs {
		if j := &r.jobs[i]; j.shrink.sec > 0 {
			r.directives[j.id] = Directive{JobID: j.id, From: j.topo, To: j.shrink.topo, Gain: j.shrink.sec}
			budget += j.topo.Count() - j.shrink.topo.Count()
		}
	}
	if budget > 0 {
		r.expand(budget)
	}

	if r.OnPlan != nil {
		r.OnPlan(Plan{Now: snap.Now, Directives: r.Directives()})
	}
}

// expand is phase 2, expansion water-filling. Every job phase 1 left alone
// advances along its configuration chain one rung at a time, but all jobs
// bid against each other for every processor: each round the job with the
// highest marginal gain per extra processor wins its next rung, then re-bids
// from the new planned position. A job can therefore jump several rungs in
// one plan (the fitted curve scores configurations one-step probing would
// take several resize points to reach), yet a shallow second rung never
// beats another job's steep first rung — water level, not queue order,
// decides, and equal levels go to the lower id.
//
// The standing bids sit in a heap. The budget only falls, so a bid that
// does not fit when it stands or when it reaches the top never will, and
// leaves the heap for the rest of the tick; once the budget is below every
// standing bid's delta, none is left that could win.
func (r *Rebalancer) expand(budget int) {
	exps, h, least := r.exps[:0], r.heap[:0], budget+1
	for i := range r.jobs {
		if j := &r.jobs[i]; j.shrink.sec <= 0 && r.eligible(j, 0, budget) {
			h = append(h, standing{j.bids[0].perProc, j.id, len(exps)})
			exps = append(exps, expansion{j: j})
			least = min(least, j.bids[0].delta)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	for len(h) > 0 && budget >= least {
		e := &exps[h[0].exp]
		won := e.j.bids[e.next]
		if won.delta <= budget {
			budget -= won.delta
			e.gain += won.marginal
			e.next++
			// A rung priced by the Predict hook alone is a probe step, not a
			// curve-backed jump: advance at most one such rung per plan, so a
			// job with no evidence grows at the reactive arbiter's pace and
			// cannot swallow the idle pool ahead of future arrivals.
			if !won.blind && r.eligible(e.j, e.next, budget) {
				h[0].perProc = e.j.bids[e.next].perProc
				least = min(least, e.j.bids[e.next].delta)
				down(h, 0)
				continue
			}
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(h, 0)
	}
	for i := range exps {
		if e := &exps[i]; e.next > 0 {
			r.directives[e.j.id] = Directive{JobID: e.j.id, From: e.j.topo, To: e.j.rungs[e.next-1], Gain: e.gain}
		}
	}
	r.exps, r.heap = exps, h
}

// eligible reports whether the job's bid for rungs[k] can win now: it is
// priced (on first need), fits the budget and gains something.
func (r *Rebalancer) eligible(j *jobView, k, budget int) bool {
	if k == len(j.bids) {
		if k == len(j.rungs) {
			return false
		}
		j.bids = append(j.bids, r.price(j, k))
	}
	b := &j.bids[k]
	return b.ok && b.delta <= budget && b.marginal > 0
}

// price prices the job's bid for rungs[k] from the rung before it. The
// first rung's bid is charged the redistribution cost: the whole
// multi-rung move is one redistribution. A rung nothing prices, or prices
// at a non-finite time or gain, gets no bid: the heap needs a total order.
func (r *Rebalancer) price(j *jobView, k int) bid {
	r.priced++
	from, cur := j.topo, j.curTime
	if k > 0 {
		from, cur = j.rungs[k-1], j.bids[k-1].at
	}
	to := j.rungs[k]
	after, blind, ok := r.priceAt(j, to)
	marginal := (cur - after) * float64(j.remIters)
	if k == 0 {
		marginal -= r.redistCost(j, to)
	}
	if !ok || !finite(after) || !finite(marginal) {
		return bid{}
	}
	delta := to.Count() - from.Count() // > 0: each rung has more processors than the one before
	return bid{ok: true, blind: blind, delta: delta, marginal: marginal, perProc: marginal / float64(delta), at: after}
}

func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// collect brings the planner's working views up to date with the
// snapshot, one per running job. Jobs mid-shrink (pending frees) are
// excluded — their topology is in flux. A job with no measured baseline
// on its current configuration (fresh start, iteration in flight after a
// resize) is still planned when the fitted curve or the Predict hook can
// price that baseline: excluding such jobs would blind the planner to
// exactly the jobs that just moved, and their unclaimed benefit would be
// handed to whoever measured last.
//
// The cluster's change feed names the jobs that may have changed since the
// last tick; only those are looked up. A job whose Topo, RemainingIters and
// Profile stamp equal its view's keeps that view, bids and all; any other's
// is rebuilt. Those are all a view reads that can change (Chain is the
// spec's, the hooks are configuration). When the feed cannot say (first
// tick, a restored core, another set, an overflowed feed), every view is
// dropped and EachRunning rebuilds them: stamps compare only within one
// running set.
func (r *Rebalancer) collect(snap scheduler.ClusterSnapshot) {
	if r.refreshFn == nil {
		r.refreshFn, r.walkFn = r.refresh, r.walk
	}
	r.cluster = snap.Cluster
	var ok bool
	if r.cursor, ok = snap.Cluster.Changes(r.cursor, r.refreshFn); !ok {
		for i := range r.jobs {
			r.at[r.jobs[i].id] = 0
		}
		r.jobs = r.jobs[:0]
		snap.Cluster.EachRunning(r.walkFn)
	}
	r.cluster = nil
}

// refresh brings the view of one job the feed names up to date.
func (r *Rebalancer) refresh(id int) {
	if v, ok := r.cluster.Running(id); ok && v.PendingFree == 0 {
		r.file(&v)
		return
	}
	if id >= len(r.at) || r.at[id] == 0 {
		return
	}
	// Drop the view; its storage waits past the end for the next one filed.
	i, last := r.at[id]-1, len(r.jobs)-1
	r.jobs[i], r.jobs[last] = r.jobs[last], r.jobs[i]
	r.at[r.jobs[i].id] = i + 1
	r.at[id] = 0
	r.jobs = r.jobs[:last]
}

// walk files one running job's view during a resync.
func (r *Rebalancer) walk(v *scheduler.ContactView) bool {
	r.walked++
	if v.PendingFree == 0 {
		r.file(v)
	}
	return true
}

// file keeps or rebuilds one running job's view; a new job's goes in the
// slot past the end, reusing the storage left there.
func (r *Rebalancer) file(v *scheduler.ContactView) {
	if v.ID >= len(r.at) {
		r.at = append(r.at, make([]int32, v.ID+1-len(r.at))...)
	}
	i := r.at[v.ID] - 1
	if i < 0 {
		i = int32(len(r.jobs))
		r.jobs = slices.Grow(r.jobs, 1)[:i+1]
		r.at[v.ID] = i + 1
	} else if j := &r.jobs[i]; j.topo == v.Topo && j.remIters == max(v.RemainingIters, 1) && j.stamp == v.Profile.Stamp() {
		return
	}
	r.view(&r.jobs[i], v)
}

// viewChunk is the length of the chunks views carve their tables from. A
// table over an eighth of it is allocated alone.
const viewChunk = 256

// carve returns an empty slice with room for n from the chunk, starting a
// new chunk when it is short. Its capacity is clipped to n, so the slot it
// goes to can never append into another's.
func carve[T any](chunk *[]T, n int) []T {
	if n > viewChunk/8 {
		return make([]T, 0, n)
	}
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, viewChunk)
	}
	c := *chunk
	i := len(c)
	*chunk = c[:i+n]
	return c[i : i : i+n]
}

// view rebuilds a view from one running job. A job nothing can price on
// its current configuration gets a view with neither shrink nor bids.
//
// The slot's tables are reused when they have room for the most the job can
// fill (rungs and bids at most one per chain step, shrink points and
// measured times at most one per visit, redistribution costs at most one
// per rung or shrink point); otherwise they are carved anew from the
// Rebalancer's chunks, so a view never grows a table by appending.
func (r *Rebalancer) view(j *jobView, v *scheduler.ContactView) {
	r.built++
	steps, visits := len(v.Chain), len(v.Profile.Visits)
	rungs, measured, bids := j.rungs[:0], j.measured[:0], j.bids[:0]
	if cap(rungs) < steps+visits {
		rungs = carve(&r.topoChunk, steps+visits)
	}
	if cap(measured) < steps+2*visits {
		measured = carve(&r.secChunk, steps+2*visits)
	}
	if cap(bids) < steps {
		bids = carve(&r.bidChunk, steps)
	}
	*j = jobView{
		id:       v.ID,
		topo:     v.Topo,
		remIters: max(v.RemainingIters, 1),
		stamp:    v.Profile.Stamp(),
		shrink:   topoSeconds{sec: math.Inf(-1)},
		// Each array is shared: the shrink points follow the rungs, and the
		// redistribution costs the measured times.
		rungs:    rungs,
		measured: measured,
		bids:     bids,
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
	cur, _, ok := r.priceAt(j, v.Topo)
	if !ok {
		return
	}
	j.curTime = cur
	// NextInChain from v.Topo, then from each rung it returns, in one pass.
	top := v.Topo.Count()
	for _, t := range v.Chain {
		if t.Count() > top {
			j.rungs = append(j.rungs, t)
			top = t.Count()
		}
	}
	tops, nr := v.Profile.AppendShrinkPoints(j.rungs, v.Topo), len(j.rungs)
	j.rungs, j.shrinks = tops[:nr], tops[nr:]
	secs, nm := j.measured, len(j.measured)
	for _, to := range tops {
		if cost, ok := v.Profile.RedistCost(v.Topo, to); ok {
			secs = append(secs, topoSeconds{to, cost})
		}
	}
	j.measured, j.redist = secs[:nm], secs[nm:]

	// Phase 1's candidate. A job whose fitted curve turns over before its
	// current allocation is predicted to run *faster* on fewer processors:
	// shrinking is a win for the job and frees surplus for the expansion
	// phase. Only previously visited configurations are legal targets. The
	// net gain is the saving over the remaining iterations less the
	// redistribution cost; the first best wins, emitted if it is positive.
	if j.curve.Valid() && j.curve.Knee() < j.topo.Count() {
		for _, p := range j.shrinks {
			if after, _, ok := r.priceAt(j, p); ok {
				if gain := (j.curTime-after)*float64(j.remIters) - r.redistCost(j, p); gain > j.shrink.sec {
					j.shrink = topoSeconds{p, gain}
				}
			}
		}
	}
}
