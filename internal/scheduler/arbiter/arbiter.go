// Package arbiter implements cluster-wide resize arbitration for the
// ReSHAPE scheduler: instead of answering each contacting job greedily in
// isolation (the published single-job policy, still the default), the
// BenefitRanked arbiter looks at the whole cluster snapshot at every resize
// point and
//
//   - ranks expansion candidates by predicted iteration-time benefit per
//     processor, so a contacting job yields the idle pool when another
//     running job would use the same processors better (probing is
//     preserved: a job whose next configuration has never been measured or
//     predicted always gets to try it — measurements are how the ranking
//     learns);
//   - plans coordinated multi-job shrinks under queue pressure: rather
//     than every contacting job independently giving up processors, the
//     arbiter computes the exact deficit between the queue head's need and
//     the idle pool plus in-flight frees, assigns shrink steps to the
//     cheapest donors (lowest priority first, then least predicted harm
//     per freed processor), and issues each demand as its job reaches a
//     resize point — no over-shrinking, no double-freeing;
//   - ages waiting jobs: a strictly higher-priority running job may keep
//     expanding over a lower-priority queue, but only until the waiting
//     job's age lifts its effective priority to parity, so low-priority
//     submissions cannot be expanded over indefinitely.
//
// The arbiter is stateful (it carries the current shrink plan across
// contacts) and relies on the core's external synchronization, exactly
// like the cores themselves.
package arbiter

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// DefaultAgingSeconds is the starvation-aging rate: a queued job gains one
// effective priority level per this many seconds of waiting when gating
// expansions over the queue.
const DefaultAgingSeconds = 300

// BenefitRanked is the cluster-wide arbiter. The zero value is ready to
// use; Predict is optional.
type BenefitRanked struct {
	// Predict estimates a job's per-iteration time on a configuration it
	// has never run on (e.g. a perfmodel fit; see simcluster.Predictor).
	// Without it, unmeasured configurations are treated as probe
	// candidates, exactly like the published policy.
	//
	// Contract: the hook runs inside Decide, while the ClusterSnapshot —
	// including every ContactView.Profile pointer, which aliases live
	// scheduler state — is only valid for the duration of the call. A
	// hook (or the closure it was built from) must not retain the
	// snapshot, a ContactView, or a Profile pointer beyond the call;
	// read what you need and copy it out (package
	// internal/scheduler/rebalance's jobView is the model). It must not
	// call back into the scheduler (the core's lock is held), and it
	// must be deterministic — a pure function of (jobID, topology) given
	// its own fixed inputs — because arbiter decisions are replayed from
	// the journal on recovery and any divergence forks the recovered
	// state from the acknowledged history.
	Predict func(jobID int, t grid.Topology) (float64, bool)

	plan  shrinkPlan
	cands []candidate // buildPlan scratch
	// veto is betterCandidate's walk state and vetoFn its callback, bound
	// once (a method value allocates), so neither escapes per contact.
	veto   vetoWalk
	vetoFn func(*scheduler.ContactView) bool
}

// vetoWalk is the running best of one expansion veto: the caller it is for
// and the rival that outranks it so far (best < 0: none yet, bestGain is
// then the caller's own gain).
type vetoWalk struct {
	caller, priority int
	best             int
	bestGain         float64
}

var _ scheduler.Arbiter = (*BenefitRanked)(nil)

// shrinkPlan is one coordinated reallocation: the queued job it is meant to
// start and the shrink targets still to be demanded of donor jobs. Demands
// are removed as donors contact; the plan is rebuilt whenever the head
// changes or the surviving demands no longer cover the deficit (a donor
// finished or resized in the meantime). A plan is a handful of demands, so
// they are a slice searched linearly, reused from one plan to the next.
type shrinkPlan struct {
	live    bool // false: no plan (demands is then spare capacity)
	headID  int
	demands []demand
}

type demand struct {
	jobID  int
	target grid.Topology
}

// take removes and returns the demand on a job, if the plan has one.
func (p *shrinkPlan) take(jobID int) (grid.Topology, bool) {
	for i, d := range p.demands {
		if d.jobID == jobID {
			p.demands = slices.Delete(p.demands, i, i+1)
			return d.target, true
		}
	}
	return grid.Topology{}, false
}

// candidate is one donor buildPlan ranks: what it needs of the job's view,
// copied out of it.
type candidate struct {
	id, priority int
	topo         grid.Topology
	points       []grid.Topology // descending processor count: least freed first
	loss         float64
}

// Name identifies the arbiter.
func (a *BenefitRanked) Name() string { return "benefit-ranked" }

// Decide implements scheduler.Arbiter.
func (a *BenefitRanked) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	if len(snap.Queued) == 0 {
		a.plan.live = false
		return a.expand(snap)
	}
	head := snap.Queued[0]
	if snap.Caller.Priority > a.agedPriority(head, snap.Now) {
		// A strictly higher-priority runner is exempt from queue pressure —
		// until the waiting job ages up to parity.
		return a.expand(snap)
	}
	return a.shrink(snap, head)
}

// agedPriority is a queued job's effective priority after starvation aging
// at time now.
func (a *BenefitRanked) agedPriority(q scheduler.QueuedView, now float64) int {
	return q.Priority + int((now-q.Submit)/DefaultAgingSeconds)
}

// expand handles a contact with no (effective) queue pressure: the
// published single-job logic decides, then the ranking veto applies — the
// grant is withheld when a rival running job would use the contested idle
// processors to strictly greater predicted benefit.
func (a *BenefitRanked) expand(snap scheduler.ClusterSnapshot) scheduler.Decision {
	in := snap.RemapInput()
	in.QueuedNeeds = nil // priority exemption: decide as if nothing waited
	d := scheduler.Decide(in)
	if d.Action != scheduler.ActionExpand {
		return d
	}
	if rival, ok := a.betterCandidate(snap, d.Target); ok {
		return scheduler.Decision{
			Action: scheduler.ActionNone,
			Reason: fmt.Sprintf("yielding idle pool to job %d (higher benefit per processor)", rival),
		}
	}
	return d
}

// expandGain scores a job's expansion to next, its next chain step:
// predicted total iteration-time benefit per extra processor over the job's
// remaining iterations. known is false when neither a measurement nor a
// prediction exists (a probe candidate).
func (a *BenefitRanked) expandGain(r *scheduler.ContactView, next grid.Topology) (perProc float64, known bool) {
	cur := r.Profile.Current()
	// A job mid-resize still carries its previous configuration's visit as
	// current; scoring against that baseline would inflate the gain, so
	// treat it as unmeasured until an iteration lands on the new topology.
	if cur == nil || len(cur.IterTimes) == 0 || cur.Topo != r.Topo {
		return 0, false
	}
	nextTime, measured := r.Profile.TimeAt(next)
	if !measured && a.Predict != nil {
		nextTime, measured = a.Predict(r.ID, next)
	}
	if !measured {
		return 0, false
	}
	iters := r.RemainingIters
	if iters < 1 {
		iters = 1
	}
	delta := next.Count() - r.Topo.Count()
	return (cur.Last() - nextTime) * float64(iters) / float64(delta), true
}

// betterCandidate reports whether a rival running job outranks the caller
// for the idle processors the caller wants: the rival's next step must fit
// the idle pool, conflict with the caller's (the pool cannot serve both),
// carry a known strictly higher benefit per processor, and belong to a job
// of at least equal priority. An unmeasured caller is never vetoed —
// probing is how measurements accrue. The two step conditions are a window
// on the rival's step size, Idle−Δmine < Δr ≤ Idle, so the walk visits only
// the jobs EachExpandable files there and prices each of them. Of equal
// gains the lowest job id wins, whatever order the view yields in.
func (a *BenefitRanked) betterCandidate(snap scheduler.ClusterSnapshot, target grid.Topology) (int, bool) {
	caller := &snap.Caller
	step, ok := scheduler.NextInChain(caller.Chain, caller.Topo)
	if !ok {
		return 0, false
	}
	mine, known := a.expandGain(caller, step)
	if !known {
		return 0, false
	}
	if a.vetoFn == nil {
		a.vetoFn = a.rival
	}
	a.veto = vetoWalk{caller: caller.ID, priority: caller.Priority, best: -1, bestGain: mine}
	deltaMine := target.Count() - caller.Topo.Count()
	snap.Cluster.EachExpandable(snap.Idle-deltaMine+1, snap.Idle, a.vetoFn)
	if best := a.veto.best; best >= 0 {
		return best, true
	}
	return 0, false
}

// rival is the veto walk's callback: it prices one contending job and keeps
// it when it outranks the best so far — higher gain, or equal gain and a
// lower id.
func (a *BenefitRanked) rival(r *scheduler.ContactView) bool {
	w := &a.veto
	if r.ID == w.caller || r.Priority < w.priority {
		return true
	}
	// EachExpandable yields only jobs that have a next step.
	next, _ := scheduler.NextInChain(r.Chain, r.Topo)
	if gain, known := a.expandGain(r, next); known &&
		(gain > w.bestGain || gain == w.bestGain && w.best >= 0 && r.ID < w.best) {
		w.best, w.bestGain = r.ID, gain
	}
	return true
}

// shrink handles queue pressure: compute the head job's processor deficit
// net of the idle pool and every in-flight shrink, keep (or rebuild) the
// coordinated donation plan, and issue the caller its assigned shrink if it
// has one. A covered deficit answers in O(1), a standing plan is revalidated
// over its own demands, and only a rebuild looks at the cluster — at the
// shrinkable jobs, the only ones a demand can be drawn from.
func (a *BenefitRanked) shrink(snap scheduler.ClusterSnapshot, head scheduler.QueuedView) scheduler.Decision {
	// In-flight frees are real whoever promised them, priority-exempt
	// runners included.
	deficit := head.Need - snap.Idle - snap.PendingFree
	if deficit <= 0 {
		a.plan.live = false
		return scheduler.Decision{
			Action: scheduler.ActionNone,
			Reason: "queued head covered by idle pool and in-flight frees",
		}
	}
	// Donors are the running jobs the head's (aged) priority can draft;
	// priority-exempt runners take the expand path at their own contacts,
	// so a demand assigned to one would never be issued — they must not
	// count toward plan coverage either.
	agedHead := a.agedPriority(head, snap.Now)
	if !a.plan.live || a.plan.headID != head.ID || a.coverage(snap.Cluster, agedHead) < deficit {
		a.buildPlan(snap.Cluster, agedHead, head.ID, deficit)
	}
	if target, ok := a.plan.take(snap.Caller.ID); ok {
		// The deficit may have fallen since the plan was built (another
		// donor finished, frees landed): re-pick the shallowest of the
		// caller's shrink points that still covers it, never deeper than
		// planned — coordinated shrinking frees exactly enough.
		for _, p := range snap.Caller.Profile.ShrinkPoints(snap.Caller.Topo) {
			if snap.Caller.Topo.Count()-p.Count() >= deficit && p.Count() >= target.Count() {
				target = p
				break
			}
		}
		if target.Count() < snap.Caller.Topo.Count() {
			return scheduler.Decision{
				Action: scheduler.ActionShrink,
				Target: target,
				Reason: fmt.Sprintf("coordinated shrink to start queued job %d", head.ID),
			}
		}
	}
	if len(a.plan.demands) > 0 {
		return scheduler.Decision{Action: scheduler.ActionNone, Reason: "shrink assigned to other jobs"}
	}
	return scheduler.Decision{Action: scheduler.ActionNone, Reason: "queue waiting but no job can shrink"}
}

// coverage sums the processors the plan's outstanding demands would still
// free, revalidated against each donor's current state — demands on jobs
// that finished, resized away, or became priority-exempt contribute nothing
// and force a rebuild.
func (a *BenefitRanked) coverage(cluster scheduler.ClusterView, agedHead int) int {
	freed := 0
	for _, d := range a.plan.demands {
		r, ok := cluster.Running(d.jobID)
		if ok && r.Priority <= agedHead && d.target.Count() < r.Topo.Count() {
			freed += r.Topo.Count() - d.target.Count()
		}
	}
	return freed
}

// shrinkLoss scores how much a donor hurts by shrinking to point: predicted
// iteration-time increase per freed processor (0 when no record or
// prediction exists — shrinking such a job is considered cheap).
func (a *BenefitRanked) shrinkLoss(r *scheduler.ContactView, point grid.Topology) float64 {
	cur := r.Profile.Current()
	// Mid-resize jobs have no measured baseline on their current topology
	// (see expandGain); score them as cheap rather than against the wrong
	// configuration's time.
	if cur == nil || len(cur.IterTimes) == 0 || cur.Topo != r.Topo {
		return 0
	}
	t, ok := r.Profile.TimeAt(point)
	if !ok && a.Predict != nil {
		t, ok = a.Predict(r.ID, point)
	}
	if !ok {
		return 0
	}
	freed := r.Topo.Count() - point.Count()
	if freed <= 0 {
		return 0
	}
	return (t - cur.Last()) / float64(freed)
}

// buildPlan replaces the plan with a fresh one covering deficit processors
// from the draftable donors among the shrinkable jobs: ranked lowest
// priority first, then least harm per freed processor, then youngest first;
// each donor contributes its smallest-sufficient shrink point (or, failing
// that, its deepest one), and donors are taken until the deficit is covered
// or no candidates remain.
func (a *BenefitRanked) buildPlan(cluster scheduler.ClusterView, agedHead, headID, deficit int) {
	a.cands = a.cands[:0]
	cluster.EachShrinkable(func(r *scheduler.ContactView) bool {
		if r.Priority <= agedHead {
			pts := r.Profile.ShrinkPoints(r.Topo)
			a.cands = append(a.cands, candidate{
				id: r.ID, priority: r.Priority, topo: r.Topo,
				points: pts, loss: a.shrinkLoss(r, pts[0]),
			})
		}
		return true
	})
	cands := a.cands
	slices.SortStableFunc(cands, func(x, y candidate) int {
		return cmp.Or(
			cmp.Compare(x.priority, y.priority),
			cmp.Compare(x.loss, y.loss),
			cmp.Compare(y.id, x.id))
	})
	a.plan = shrinkPlan{live: true, headID: headID, demands: a.plan.demands[:0]}
	for _, c := range cands {
		if deficit <= 0 {
			break
		}
		// Smallest shrink step that covers the remaining deficit; the
		// deepest available step when none does.
		pick := c.points[len(c.points)-1]
		for _, p := range c.points {
			if c.topo.Count()-p.Count() >= deficit {
				pick = p
				break
			}
		}
		a.plan.demands = append(a.plan.demands, demand{jobID: c.id, target: pick})
		deficit -= c.topo.Count() - pick.Count()
	}
}
